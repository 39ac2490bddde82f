"""Relatively convex sets of exact rational point configurations.

Each configuration is scaled once, at construction, to integer
coordinates (multiplied by the lcm of all coordinate denominators).
Relative convexity is affine invariant, so every hull test runs
fraction-free on small integers, and no floating point appears:

* in the plane, by orientation signs against the monotone-chain hull of
  the subset (A. M. Andrew, 1979), built once per closure evaluation;
* in any other dimension, by fraction-free Gauss-Jordan elimination
  (Bareiss, 1968) of "nonnegative coefficients summing to one reproduce
  the point", searching the column bases for a basic feasible solution;
* Carathéodory enumeration of small affinely independent subsets, on
  the same elimination, is the cross-check;
* collinearity is the vanishing of the 2x2 minors of two difference
  vectors, and line covers group point pairs by an integer line key.

Each configuration owns its relatively-convex closure system, built at
construction: p lies in the hull of Y exactly when p is in the closure
of Y, so ``hull_membership`` reads the system's memoized closures.
Fractions remain only in the input and in the ``Line`` witnesses.  The
module derives the largest convexly independent subsets (the
independence search of :mod:`obstructions`, with hull membership as
the dependence test) and minimum line covers, each searched once per
configuration, and the five-point convex-position property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd, lcm
from typing import Any

from .bitset import bits, popcount
from .closure import ClosureSystem, GroundSet
from .config import check_limit
from .errors import InputError
from .geometry import Verdict
from .obstructions import is_independent, largest_independent

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def _as_vector(coords, dim: int) -> Vector:
    vec = tuple(Fraction(c) for c in coords)
    if len(vec) != dim:
        raise InputError(f"point has {len(vec)} coordinates, expected {dim}")
    return vec


@dataclass(frozen=True)
class PointConfig:
    """Distinct labelled points with exact rational coordinates."""

    dim: int
    points: tuple[Vector, ...]
    labels: tuple[str, ...]
    ground: GroundSet = field(init=False, repr=False, compare=False)
    _full: int = field(init=False, repr=False, compare=False)
    _scale: int = field(init=False, repr=False, compare=False)
    _int_points: tuple[IntVector, ...] = field(init=False, repr=False, compare=False)
    _system: ClosureSystem = field(init=False, repr=False, compare=False)
    _search_memo: dict[str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if len(self.points) != len(self.labels):
            raise InputError("one label per point required")
        # Rejects an empty configuration and repeated labels.
        object.__setattr__(self, "ground", GroundSet(self.labels))
        for p in self.points:
            if len(p) != self.dim:
                raise InputError("all coordinate vectors must have the configured dimension")
            if not all(isinstance(c, (int, Fraction)) for c in p):
                raise InputError("coordinates must be exact rationals")
        if len(set(self.points)) != len(self.points):
            raise InputError("repeated points are rejected")
        full = self.ground.full_mask
        scale = lcm(*(c.denominator for p in self.points for c in p))
        ints = tuple(
            tuple(c.numerator * (scale // c.denominator) for c in p) for p in self.points
        )
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_int_points", ints)
        object.__setattr__(
            self, "_system", ClosureSystem.from_rule(self.ground, _hull_rule(ints, full))
        )
        object.__setattr__(self, "_search_memo", {})

    @classmethod
    def from_coords(cls, dim: int, coords, labels=None) -> "PointConfig":
        pts = tuple(_as_vector(c, dim) for c in coords)
        if labels is None:
            labels = tuple(f"p{i}" for i in range(len(pts)))
        return cls(dim, pts, tuple(labels))

    @property
    def size(self) -> int:
        return len(self.points)


def _eliminate(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place: ``row`` becomes
    ``pivot * row - entry * pivot_row``, divided by the gcd of its entries.
    Returns the pivot columns; a pivot's variable is its row's last entry
    over the pivot."""
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        for i in range(r, len(rows)):
            if rows[i][c]:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        top = rows[r]
        a = top[c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                reduced = [a * x - b * y for x, y in zip(row, top)]
                g = gcd(*reduced)
                rows[i] = [v // g for v in reduced] if g > 1 else reduced
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return pivots


def _lifted_system(ints: tuple[IntVector, ...], idx, p: int) -> list[list[int]]:
    """Rows of ``sum_j x_j * (q_j, 1) = (p, 1)`` over the points ``idx``."""
    columns = [ints[i] + (1,) for i in idx] + [ints[p] + (1,)]
    return [list(row) for row in zip(*columns)]


def _unique_nonnegative(ints: tuple[IntVector, ...], idx, p: int) -> bool:
    """Do the lifted points ``idx`` have independent columns and reproduce
    ``p`` with nonnegative coefficients?"""
    rows = _lifted_system(ints, idx, p)
    pivots = _eliminate(rows)
    m = len(idx)
    if pivots != list(range(m)):
        return False  # dependent columns, or a pivot in the rhs column
    return all(row[m] * row[c] >= 0 for c, row in zip(pivots, rows))


def hull_membership(config: PointConfig, y: int, p: int) -> bool:
    """Exact test: is point ``p`` a convex combination of the points in ``y``?

    Points on the hull boundary count as inside.  The answer is bit ``p``
    of the closure of ``y`` in the configuration's relatively-convex
    system, so each subset's hull is tested once against every point.
    """
    if y & ~config._full:
        raise InputError("subset uses point ids outside the configuration")
    if not 0 <= p < config.size:
        raise InputError("point id out of range")
    return bool(config._system.close(y) >> p & 1)


def _hull_rule(ints: tuple[IntVector, ...], full: int):
    """Closure rule of the relatively convex subsets of the points ``ints``:
    ``y`` plus every outside point in its hull.  In the plane the hull of
    ``y`` is built once per call; other dimensions run the bases route
    per point.  The rule holds the points, not their configuration, so
    a configuration and its system form no reference cycle."""
    planar = len(ints[0]) == 2

    def rule(y: int) -> int:
        if not y:
            return y
        out = y
        if planar:
            hull = _planar_hull(sorted(ints[i] for i in bits(y)))
            for x in bits(full & ~y):
                out |= _in_planar_hull(hull, ints[x]) << x
        else:
            for x in bits(full & ~y):
                out |= _hull_membership_bases(ints, y, x) << x
        return out

    return rule


def _orientation(o: IntVector, a: IntVector, b: IntVector) -> int:
    """Twice the signed area of the triangle o, a, b (positive: counter-clockwise)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _planar_hull(points: list[IntVector]) -> list[IntVector]:
    """Monotone-chain hull of the lexicographically sorted ``points``:
    counter-clockwise vertices without repeats or collinear points, or the
    two extremes (one point twice) when all points lie on one line."""
    lower: list[IntVector] = []
    for pt in points:
        while len(lower) >= 2 and _orientation(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[IntVector] = []
    for pt in reversed(points):
        while len(upper) >= 2 and _orientation(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 2 else [points[0], points[-1]]


def _in_planar_hull(hull: list[IntVector], q: IntVector) -> bool:
    """Is ``q`` in the hull from ``_planar_hull``?  Boundary points of the
    hull (edge interiors included) count as inside."""
    if len(hull) == 2:
        a, b = hull
        return _orientation(a, b, q) == 0 and (
            (q[0] - a[0]) * (q[0] - b[0]) <= 0 and (q[1] - a[1]) * (q[1] - b[1]) <= 0
        )
    return all(
        _orientation(hull[i - 1], hull[i], q) >= 0 for i in range(len(hull))
    )


def _hull_membership_bases(ints: tuple[IntVector, ...], y: int, p: int) -> bool:
    """Basic-feasible-solution search over integer column bases, any dimension."""
    idx = list(bits(y))
    pivots = _eliminate(_lifted_system(ints, idx, p))
    if len(idx) in pivots:
        return False  # rhs not in the column span
    return any(
        _unique_nonnegative(ints, basis, p)
        for basis in combinations(idx, len(pivots))
    )


def hull_membership_caratheodory(config: PointConfig, y: int, p: int) -> bool:
    """Independent oracle: scan affinely independent subsets of size <= d+1."""
    if y >> p & 1:
        return True
    idx = list(bits(y))
    ints = config._int_points
    # A convex combination stays within the coordinate ranges of its
    # points; no single point of y is p (points are distinct); and a
    # point inside the hull mostly lies in a full-size simplex, so
    # larger subsets go first.
    if not all(
        col and min(col) <= c <= max(col) for c, *col in zip(ints[p], *(ints[i] for i in idx))
    ):
        return False
    return any(
        _unique_nonnegative(ints, subset, p)
        for size in range(min(len(idx), config.dim + 1), 1, -1)
        for subset in combinations(idx, size)
    )


def relconvex_system(config: PointConfig) -> ClosureSystem:
    """The closure system of relatively convex subsets of the configuration
    (the configuration's own, so its memoized closures are shared)."""
    return config._system


def max_convexly_independent(config: PointConfig) -> tuple[int, tuple[int, ...]]:
    """Largest subset with no point inside the hull of the others; the
    configuration must fit the enumeration bound, as in ``independent_sets``."""
    memo = config._search_memo
    if "independent" not in memo:
        memo["independent"] = largest_independent(config.size, partial(hull_membership, config))
    return memo["independent"]


@dataclass(frozen=True, order=True)
class Line:
    """Canonical rational line: primitive integer direction with positive
    leading coordinate, base point zeroed at the pivot coordinate."""

    base: Vector
    direction: tuple[int, ...]

    def contains(self, point: Vector) -> bool:
        pivot = next(i for i, d in enumerate(self.direction) if d != 0)
        t = (point[pivot] - self.base[pivot]) / self.direction[pivot]
        return all(
            self.base[i] + t * self.direction[i] == point[i] for i in range(len(point))
        )


def _line_key(p: IntVector, q: IntVector) -> tuple[IntVector, IntVector]:
    """Integer normal form ``(offsets, d)`` of the line through ``p != q``:
    ``d`` is primitive with ``d[k] > 0`` at its first nonzero entry, and
    ``offsets[i] = x[i] * d[k] - x[k] * d[i]``, the same for every point
    ``x`` of the line, is ``d[k]`` times the scaled ``Line`` base."""
    d = [b - a for a, b in zip(p, q)]
    k = next(i for i, v in enumerate(d) if v)
    g = gcd(*d) if d[k] > 0 else -gcd(*d)
    direction = tuple(v // g for v in d)
    return tuple(a * direction[k] - p[k] * v for a, v in zip(p, direction)), direction


def min_line_cover(config: PointConfig) -> tuple[int, tuple[Line, ...]]:
    """Minimum number of lines covering all points, with witness lines.

    Candidates are lines through point pairs plus per-point fallbacks
    along the first axis; an optimal cover can always be assumed to use
    pair lines wherever a line carries two or more points.
    """
    memo = config._search_memo
    if "cover" in memo:
        return memo["cover"]
    n = config.size
    check_limit("configuration size", n, "line-cover")
    ints = config._int_points
    lines: dict[tuple[IntVector, IntVector], int] = {}
    for i, j in combinations(range(n), 2):
        key = _line_key(ints[i], ints[j])
        lines[key] = lines.get(key, 0) | 1 << i | 1 << j
    fallback = [_line_key(p, (p[0] + 1,) + p[1:]) for p in ints]
    # Offsets scaled to the common denominator `unit` compare as the
    # rational Line bases do, so this key orders lines as Line does.
    unit = lcm(*(next(filter(None, d)) for _, d in lines))

    def order(key: tuple[IntVector, IntVector]) -> tuple[IntVector, IntVector]:
        offsets, d = key
        return tuple(o * (unit // next(filter(None, d))) for o in offsets), d

    candidates = sorted(lines.items(), key=lambda item: order(item[0]))
    full = config._full
    max_cover = max(map(popcount, lines.values()), default=1)
    best_count = n
    best_lines = fallback

    def search(covered: int, chosen: list[tuple[IntVector, IntVector]]) -> None:
        nonlocal best_count, best_lines
        remaining = popcount(full & ~covered)
        if remaining == 0:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_lines = chosen
            return
        if len(chosen) + (remaining + max_cover - 1) // max_cover >= best_count:
            return
        target = next(bits(full & ~covered))
        options = [(ln, m) for ln, m in candidates if m >> target & 1]
        # Candidates are in line order and the sort is stable, so ties
        # stay in line order.
        options.sort(key=lambda item: -popcount(item[1] & ~covered))
        for ln, m in options:
            search(covered | m, chosen + [ln])
        search(covered | (1 << target), chosen + [fallback[target]])

    try:
        search(0, [])
    finally:
        del search  # it refers to itself; dropping it frees the cycle now
    scale = config._scale
    memo["cover"] = best_count, tuple(
        Line(tuple(Fraction(o, scale * next(filter(None, d))) for o in offsets), d)
        for offsets, d in sorted(best_lines, key=order)
    )
    return memo["cover"]


def _collinear(p: IntVector, q: IntVector, r: IntVector) -> bool:
    """Do p, q, r lie on one line?  All 2x2 minors of (q - p, r - p) vanish."""
    u = [b - a for a, b in zip(p, q)]
    v = [b - a for a, b in zip(p, r)]
    return all(
        u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2)
    )


def has_collinear_triple(config: PointConfig, ids) -> bool:
    ints = config._int_points
    return any(
        _collinear(ints[a], ints[b], ints[c]) for a, b, c in combinations(ids, 3)
    )


def check_es5(config: PointConfig) -> Verdict:
    """Every general-position 5-subset contains 4 convexly independent points.

    Subsets with a collinear triple are outside the property and are
    skipped.
    """
    if config.dim != 2:
        raise InputError("the five-point property is checked in the plane only")
    inside = partial(hull_membership, config)
    for five in combinations(range(config.size), 5):
        if has_collinear_triple(config, five):
            continue
        if not any(is_independent(four, inside) for four in combinations(five, 4)):
            return Verdict(
                False,
                {
                    "kind": "five-point",
                    "points": [config.labels[i] for i in five],
                },
            )
    return Verdict(True)


def dimension_sandwich_report(
    config: PointConfig,
) -> tuple[int, int, Verdict]:
    """ind(X), line(X), and the verdict for ind <= 2 * line."""
    ind, ind_witness = max_convexly_independent(config)
    lines, _ = min_line_cover(config)
    if ind <= 2 * lines:
        return ind, lines, Verdict(True)
    witness: dict[str, Any] = {
        "kind": "dimension-sandwich",
        "independent": [config.labels[i] for i in ind_witness],
        "line_count": lines,
    }
    return ind, lines, Verdict(False, witness)
