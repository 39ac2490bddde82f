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

Fractions remain only in the input and in the ``Line`` witnesses.  The
module derives the relatively-convex closure system, the largest
convexly independent subsets and minimum line covers (each searched
once per configuration), and the five-point convex-position property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Any

from .bitset import bits, popcount
from .closure import ClosureSystem, GroundSet
from .errors import CapacityError, InputError
from .geometry import Verdict

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
        object.__setattr__(self, "_full", self.ground.full_mask)
        object.__setattr__(self, "_hull_memo", {})
        object.__setattr__(self, "_search_memo", {})
        scale = lcm(*(c.denominator for p in self.points for c in p))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(
            self,
            "_int_points",
            tuple(
                tuple(c.numerator * (scale // c.denominator) for c in p)
                for p in self.points
            ),
        )

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


def _lifted_system(config: PointConfig, idx, p: int) -> list[list[int]]:
    """Rows of ``sum_j x_j * (q_j, 1) = (p, 1)`` over the points ``idx``."""
    ints = config._int_points  # type: ignore[attr-defined]
    columns = [ints[i] + (1,) for i in idx] + [ints[p] + (1,)]
    return [list(row) for row in zip(*columns)]


def _unique_nonnegative(config: PointConfig, idx, p: int) -> bool:
    """Do the lifted points ``idx`` have independent columns and reproduce
    ``p`` with nonnegative coefficients?"""
    rows = _lifted_system(config, idx, p)
    pivots = _eliminate(rows)
    m = len(idx)
    if pivots != list(range(m)):
        return False  # dependent columns, or a pivot in the rhs column
    return all(row[m] * row[c] >= 0 for c, row in zip(pivots, rows))


def hull_membership(config: PointConfig, y: int, p: int) -> bool:
    """Exact test: is point ``p`` a convex combination of the points in ``y``?

    Points on the hull boundary count as inside.  Planar configurations
    use integer orientation tests; other dimensions search the column
    bases of the equality system for a nonnegative basic solution.
    """
    if y & ~config._full:  # type: ignore[attr-defined]
        raise InputError("subset uses point ids outside the configuration")
    if not 0 <= p < config.size:
        raise InputError("point id out of range")
    memo: dict[tuple[int, int], bool] = config._hull_memo  # type: ignore[attr-defined]
    hit = memo.get((y, p))
    if hit is None:
        hit = memo[y, p] = bool(y >> p & 1) or (y != 0 and _hull_test(config, y)(p))
    return hit


def _hull_test(config: PointConfig, y: int):
    """Membership test for the hull of the nonempty subset ``y``; in the
    plane the hull is built once, here."""
    if config.dim != 2:
        return lambda p: _hull_membership_bases(config, y, p)
    ints = config._int_points  # type: ignore[attr-defined]
    hull = _planar_hull(sorted(ints[i] for i in bits(y)))
    return lambda p: _in_planar_hull(hull, ints[p])


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


def _hull_membership_bases(config: PointConfig, y: int, p: int) -> bool:
    """Basic-feasible-solution search over integer column bases, any dimension."""
    idx = list(bits(y))
    pivots = _eliminate(_lifted_system(config, idx, p))
    if len(idx) in pivots:
        return False  # rhs not in the column span
    return any(
        _unique_nonnegative(config, basis, p)
        for basis in combinations(idx, len(pivots))
    )


def hull_membership_caratheodory(config: PointConfig, y: int, p: int) -> bool:
    """Independent oracle: scan affinely independent subsets of size <= d+1."""
    if y >> p & 1:
        return True
    idx = list(bits(y))
    ints = config._int_points  # type: ignore[attr-defined]
    # A convex combination stays within the coordinate ranges of its
    # points; no single point of y is p (points are distinct); and a
    # point inside the hull mostly lies in a full-size simplex, so
    # larger subsets go first.
    if not all(
        col and min(col) <= c <= max(col) for c, *col in zip(ints[p], *(ints[i] for i in idx))
    ):
        return False
    return any(
        _unique_nonnegative(config, subset, p)
        for size in range(min(len(idx), config.dim + 1), 1, -1)
        for subset in combinations(idx, size)
    )


def relconvex_system(config: PointConfig, bound: int | None = None) -> ClosureSystem:
    """The closure system of relatively convex subsets of the configuration."""
    from . import config as runtime

    limit = runtime.enumeration_bound(bound)
    if config.size > limit:
        raise CapacityError(
            f"configuration size {config.size} exceeds the enumeration bound {limit}"
        )
    full = config._full  # type: ignore[attr-defined]
    memo = config._hull_memo  # type: ignore[attr-defined]

    def rule(y: int) -> int:
        if not y:
            return y
        inside = _hull_test(config, y)
        out = y
        for x in bits(full & ~y):
            memo[y, x] = hit = inside(x)
            out |= hit << x
        return out

    return ClosureSystem.from_rule(config.ground, rule)


def _is_convexly_independent(config: PointConfig, members: list[int]) -> bool:
    mask = 0
    for i in members:
        mask |= 1 << i
    for i in members:
        if hull_membership(config, mask & ~(1 << i), i):
            return False
    return True


def max_convexly_independent(config: PointConfig) -> tuple[int, tuple[int, ...]]:
    """Largest subset with no point inside the hull of the others."""
    memo = config._search_memo  # type: ignore[attr-defined]
    if "independent" in memo:
        return memo["independent"]
    n = config.size
    if n > 16:
        raise CapacityError(f"configuration size {n} exceeds the search bound 16")
    best_size = 0
    best: tuple[int, ...] = ()

    def extend(start: int, chosen: list[int]) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        if len(chosen) + (n - start) <= best_size:
            return
        for nxt in range(start, n):
            candidate = chosen + [nxt]
            if _is_convexly_independent(config, candidate):
                extend(nxt + 1, candidate)

    try:
        extend(0, [])
    finally:
        del extend  # it refers to itself; dropping it frees the cycle now
    memo["independent"] = best_size, best
    return best_size, best


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
    memo = config._search_memo  # type: ignore[attr-defined]
    if "cover" in memo:
        return memo["cover"]
    n = config.size
    if n > 16:
        raise CapacityError(f"configuration size {n} exceeds the search bound 16")
    ints = config._int_points  # type: ignore[attr-defined]
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
    full = config._full  # type: ignore[attr-defined]
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
    scale = config._scale  # type: ignore[attr-defined]
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
    ints = config._int_points  # type: ignore[attr-defined]
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
    for five in combinations(range(config.size), 5):
        if has_collinear_triple(config, five):
            continue
        if not any(
            _is_convexly_independent(config, list(four))
            for four in combinations(five, 4)
        ):
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
