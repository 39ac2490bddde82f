"""Relatively convex sets of exact rational point configurations.

Each configuration is scaled once, at construction, to integer
coordinates (multiplied by the lcm of all coordinate denominators).
Relative convexity is affine invariant, so the exact tests below run on
small integers instead of fractions, and no floating point appears
anywhere:

* in the plane, hull membership is decided by integer orientation signs
  against the monotone-chain hull of the subset (A. M. Andrew, 1979);
* in any other dimension, the equality system "nonnegative coefficients
  summing to one reproduce the point" is solved over the rationals by
  Gaussian elimination with an explicit search over column bases, so a
  feasible instance is recognized through one of its basic feasible
  solutions;
* Carathéodory enumeration over small affinely independent subsets is
  an independent route kept as the test oracle;
* collinearity, in any dimension, is the vanishing of all 2x2 minors of
  two integer difference vectors.

From hull membership the module derives the relatively-convex closure
system of a configuration, its largest convexly independent subsets,
minimum line covers, and the five-point convex-position property.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if len(self.points) != len(self.labels):
            raise InputError("one label per point required")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("point labels must be unique")
        for p in self.points:
            if len(p) != self.dim:
                raise InputError("all coordinate vectors must have the configured dimension")
            if not all(isinstance(c, (int, Fraction)) for c in p):
                raise InputError("coordinates must be exact rationals")
        if len(set(self.points)) != len(self.points):
            raise InputError("repeated points are rejected")
        object.__setattr__(self, "_hull_memo", {})
        scale = lcm(*(c.denominator for p in self.points for c in p))
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

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.labels)


def _eliminate(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce in place; returns the matrix and pivot column indices."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if matrix[i][c] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = matrix[r][c]
        matrix[r] = [v / inv for v in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix, pivots


def _solve_unique(columns: list[Vector], rhs: Vector) -> list[Fraction] | None:
    """Solve sum(x_j * columns[j]) = rhs when the columns are independent.

    Returns None when the columns are dependent or the system is
    inconsistent.
    """
    m = len(columns)
    height = len(rhs)
    aug = [[columns[j][i] for j in range(m)] + [rhs[i]] for i in range(height)]
    reduced, pivots = _eliminate(aug)
    if m in pivots:
        return None  # inconsistent: pivot in the rhs column
    if len(pivots) != m:
        return None  # dependent columns
    solution = [Fraction(0)] * m
    for row, c in enumerate(pivots):
        solution[c] = reduced[row][m]
    return solution


def _matrix_rank(vectors: list[Vector]) -> int:
    if not vectors:
        return 0
    _, pivots = _eliminate([list(v) for v in vectors])
    return len(pivots)


def hull_membership(config: PointConfig, y: int, p: int) -> bool:
    """Exact test: is point ``p`` a convex combination of the points in ``y``?

    Points on the hull boundary count as inside.  Planar configurations
    use integer orientation tests; other dimensions search the column
    bases of the equality system for a nonnegative basic solution.
    """
    full = config.ground.full_mask
    if y & ~full:
        raise InputError("subset uses point ids outside the configuration")
    if not 0 <= p < config.size:
        raise InputError("point id out of range")
    memo: dict[tuple[int, int], bool] = config._hull_memo  # type: ignore[attr-defined]
    key = (y, p)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = _hull_membership_raw(config, y, p)
    memo[key] = result
    return result


def _hull_membership_raw(config: PointConfig, y: int, p: int) -> bool:
    if y >> p & 1:
        return True
    if not y:
        return False
    if config.dim == 2:
        ints = config._int_points  # type: ignore[attr-defined]
        return _in_planar_hull(sorted(ints[i] for i in bits(y)), ints[p])
    return _hull_membership_bases(config, y, p)


def _orientation(o: IntVector, a: IntVector, b: IntVector) -> int:
    """Twice the signed area of the triangle o, a, b (positive: counter-clockwise)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_planar_hull(points: list[IntVector], q: IntVector) -> bool:
    """Is ``q`` in the convex hull of the lexicographically sorted ``points``?

    Builds the monotone-chain hull with collinear points dropped, so the
    vertices run counter-clockwise without repeats; boundary points of
    the hull (edge interiors included) count as inside.
    """
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
    if len(hull) <= 2:
        # All points on one line: the hull is the segment between the
        # lexicographic extremes, a single point when they coincide.
        a, b = points[0], points[-1]
        return _orientation(a, b, q) == 0 and (
            (q[0] - a[0]) * (q[0] - b[0]) <= 0 and (q[1] - a[1]) * (q[1] - b[1]) <= 0
        )
    return all(
        _orientation(hull[i - 1], hull[i], q) >= 0 for i in range(len(hull))
    )


def _hull_membership_bases(config: PointConfig, y: int, p: int) -> bool:
    """Basic-feasible-solution search over Fraction column bases, any dimension."""
    idx = list(bits(y))
    target = config.points[p]
    columns = [config.points[i] + (Fraction(1),) for i in idx]
    rhs = target + (Fraction(1),)
    height = config.dim + 1
    aug = [[columns[j][i] for j in range(len(idx))] + [rhs[i]] for i in range(height)]
    _, pivots = _eliminate(aug)
    if len(idx) in pivots:
        return False  # rhs not in the column span
    rank = len(pivots)
    for basis in combinations(range(len(idx)), rank):
        solution = _solve_unique([columns[j] for j in basis], rhs)
        if solution is not None and all(v >= 0 for v in solution):
            return True
    return False


def hull_membership_caratheodory(config: PointConfig, y: int, p: int) -> bool:
    """Independent oracle: scan affinely independent subsets of size <= d+1."""
    if y >> p & 1:
        return True
    idx = list(bits(y))
    target = config.points[p]
    for size in range(1, min(len(idx), config.dim + 1) + 1):
        for subset in combinations(idx, size):
            base = config.points[subset[0]]
            diffs = [
                tuple(a - b for a, b in zip(config.points[i], base)) for i in subset[1:]
            ]
            if _matrix_rank(diffs) != size - 1:
                continue  # affinely dependent
            columns = [config.points[i] + (Fraction(1),) for i in subset]
            solution = _solve_unique(columns, target + (Fraction(1),))
            if solution is not None and all(v >= 0 for v in solution):
                return True
    return False


def relconvex_system(config: PointConfig, bound: int | None = None) -> ClosureSystem:
    """The closure system of relatively convex subsets of the configuration."""
    from . import config as runtime

    limit = runtime.enumeration_bound(bound)
    if config.size > limit:
        raise CapacityError(
            f"configuration size {config.size} exceeds the enumeration bound {limit}"
        )
    full = config.ground.full_mask

    def rule(y: int) -> int:
        out = y
        for x in bits(full & ~y):
            if hull_membership(config, y, x):
                out |= 1 << x
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

    extend(0, [])
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


def line_through(p: Vector, q: Vector) -> Line:
    if p == q:
        raise InputError("a line needs two distinct points")
    raw = [b - a for a, b in zip(p, q)]
    scale = lcm(*(f.denominator for f in raw))
    ints = [int(f * scale) for f in raw]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    pivot = next(i for i, d in enumerate(ints) if d != 0)
    if ints[pivot] < 0:
        ints = [-v for v in ints]
    t = p[pivot] / ints[pivot]
    base = tuple(c - t * d for c, d in zip(p, ints))
    return Line(base, tuple(ints))


def point_line(p: Vector) -> Line:
    """Canonical witness line for an isolated point (first-axis direction)."""
    direction = tuple([1] + [0] * (len(p) - 1))
    base = (Fraction(0),) + tuple(p[1:])
    return Line(base, direction)


def min_line_cover(config: PointConfig) -> tuple[int, tuple[Line, ...]]:
    """Minimum number of lines covering all points, with witness lines.

    Candidates are lines through point pairs plus per-point fallbacks;
    an optimal cover can always be assumed to use pair lines wherever a
    line carries two or more points.
    """
    n = config.size
    if n > 16:
        raise CapacityError(f"configuration size {n} exceeds the search bound 16")
    if n == 1:
        return 1, (point_line(config.points[0]),)
    ints = config._int_points  # type: ignore[attr-defined]
    # Two or more points determine their line, so the mask of points a
    # line carries identifies it; each line is built once.
    lines: dict[int, Line] = {}
    for i, j in combinations(range(n), 2):
        mask = sum(
            1 << k for k in range(n) if _collinear(ints[i], ints[j], ints[k])
        )
        if mask not in lines:
            lines[mask] = line_through(config.points[i], config.points[j])
    candidates = sorted((ln, m) for m, ln in lines.items())
    full = (1 << n) - 1
    max_cover = max(popcount(m) for m in lines)
    best_count = n
    best_lines: tuple[Line, ...] = tuple(point_line(p) for p in config.points)

    def search(covered: int, chosen: list[Line]) -> None:
        nonlocal best_count, best_lines
        remaining = popcount(full & ~covered)
        if remaining == 0:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_lines = tuple(chosen)
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
        search(covered | (1 << target), chosen + [point_line(config.points[target])])

    search(0, [])
    return best_count, tuple(sorted(best_lines))


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
