"""Exact rational hull membership and the derived point-set quantities."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexitylab import (
    CapacityError,
    InputError,
    PointConfig,
    check_es5,
    dimension_sandwich_report,
    hull_membership,
    hull_membership_caratheodory,
    interval_system,
    is_convex_geometry,
    max_convexly_independent,
    min_line_cover,
    relconvex_system,
    restrict,
)
from convexitylab import obstructions, relconvex
from convexitylab.bitset import bits
from convexitylab.relconvex import Line, _hull_membership_bases, has_collinear_triple

# ------------------------------------------------- Fraction oracles
# The library's hull routes run fraction-free on integer-scaled points.
# These are the earlier rational routes, kept as independent oracles on
# the raw rational coordinates.


def fraction_eliminate(matrix):
    """Row-reduce in place; returns the matrix and pivot column indices."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots = []
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


def fraction_solve_unique(columns, rhs):
    """Solve sum(x_j * columns[j]) = rhs when the columns are independent;
    None when they are dependent or the system is inconsistent."""
    m = len(columns)
    aug = [[col[i] for col in columns] + [rhs[i]] for i in range(len(rhs))]
    reduced, pivots = fraction_eliminate(aug)
    if m in pivots or len(pivots) != m:
        return None
    solution = [Fraction(0)] * m
    for row, c in enumerate(pivots):
        solution[c] = reduced[row][m]
    return solution


def fraction_rank(vectors):
    if not vectors:
        return 0
    return len(fraction_eliminate([list(map(Fraction, v)) for v in vectors])[1])


def fraction_caratheodory(config, y, p):
    """Scan affinely independent subsets of size <= d+1 over the rationals."""
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
            if fraction_rank(diffs) != size - 1:
                continue  # affinely dependent
            columns = [config.points[i] + (Fraction(1),) for i in subset]
            solution = fraction_solve_unique(columns, target + (Fraction(1),))
            if solution is not None and all(v >= 0 for v in solution):
                return True
    return False


def line_through(p, q):
    """The canonical ``Line`` through two distinct rational points."""
    raw = [b - a for a, b in zip(p, q)]
    scale = lcm(*(f.denominator for f in raw))
    ints = [int(f * scale) for f in raw]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    pivot = next(i for i, d in enumerate(ints) if d != 0)
    if ints[pivot] < 0:
        ints = [-v for v in ints]
    t = p[pivot] / ints[pivot]
    return Line(tuple(c - t * d for c, d in zip(p, ints)), tuple(ints))


def point_line(p):
    """The canonical witness line for an isolated point (first-axis direction)."""
    return Line((Fraction(0),) + tuple(p[1:]), tuple([1] + [0] * (len(p) - 1)))


def square_corners():
    return PointConfig.from_coords(2, [(0, 0), (1, 0), (1, 1), (0, 1)], "ABCD")


def collinear(n=3):
    return PointConfig.from_coords(2, [(i, 0) for i in range(n)])


def test_config_rejects_duplicates_and_bad_shapes():
    with pytest.raises(InputError):
        PointConfig.from_coords(2, [(0, 0), (0, 0)])
    with pytest.raises(InputError):
        PointConfig.from_coords(2, [(0, 0, 0)])
    with pytest.raises(InputError):
        PointConfig.from_coords(0, [()])
    with pytest.raises(InputError):
        PointConfig(2, ((0.5, 1),), ("a",))
    with pytest.raises(InputError):
        PointConfig.from_coords(2, [(0, 0), (1, 0)], "aa")
    # An empty configuration is rejected at construction, so the searches
    # never see one (min_line_cover used to fail on it with a bare
    # ValueError, and max_convexly_independent answered (0, ())).
    with pytest.raises(InputError):
        min_line_cover(PointConfig.from_coords(2, []))
    with pytest.raises(InputError):
        max_convexly_independent(PointConfig.from_coords(2, []))


def test_hull_membership_trivial_cases():
    big = PointConfig.from_coords(
        2, [(1, 1), (0, 0), (2, 0), (2, 2), (0, 2), (3, 0)]
    )
    assert hull_membership(big, 0b11110, 0)  # center of [0,2]^2
    assert not hull_membership(big, 0b00110, 5)  # (3,0) outside a segment
    assert not hull_membership(big, 0, 0)  # empty hull
    assert hull_membership(big, 0b00010, 1)  # membership of the point itself


def test_hull_membership_derived_case():
    tri = PointConfig.from_coords(2, [(1, 0), (0, 0), (3, 0), (0, 3)])
    assert hull_membership(tri, 0b1110, 0)


def test_hull_membership_agrees_with_caratheodory():
    rng = random.Random(31)
    for dim in (1, 2, 3):
        for _ in range(12):
            pts = set()
            while len(pts) < 5:
                pts.add(
                    tuple(
                        Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                        for _ in range(dim)
                    )
                )
            config = PointConfig.from_coords(dim, sorted(pts))
            for y in range(1 << 5):
                for p in range(5):
                    assert hull_membership(config, y, p) == (
                        hull_membership_caratheodory(config, y, p)
                    )


@st.composite
def grid_configs(draw, dim, side, max_size):
    """Distinct cells of a coarse integer grid under a rational scale and
    shift: collinear triples, points inside hull edges and one- or
    two-point hulls are common, and coordinates have mixed denominators."""
    cell = st.tuples(*[st.integers(0, side - 1)] * dim)
    cells = draw(st.lists(cell, min_size=3, max_size=max_size, unique=True))
    scale = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(-2, 3))))
    offset = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    shift = draw(st.tuples(*[offset] * dim))
    return PointConfig.from_coords(
        dim, [tuple(s + c * scale for s, c in zip(shift, pts)) for pts in cells]
    )


@given(grid_configs(2, side=4, max_size=6))
@example(PointConfig.from_coords(2, [(0, 0), (1, 1), (2, 2), (3, 0)]))
@example(PointConfig.from_coords(2, [(0, 0), (2, 0), (1, 0), (3, 0), (1, 1), (1, 2)]))
@settings(max_examples=50)
def test_planar_kernel_matches_fraction_routes(config):
    n = config.size
    for y in range(1 << n):
        for p in range(n):
            fast = hull_membership(config, y, p)
            assert fast == fraction_caratheodory(config, y, p), (y, p)
            assert fast == _hull_membership_bases(config._int_points, y, p), (y, p)


@given(
    st.sampled_from((1, 2, 3)).flatmap(
        lambda dim: grid_configs(dim, side={1: 6, 2: 4, 3: 3}[dim], max_size=5)
    )
)
@example(  # 3-D: a collinear triple inside a coplanar quadruple, one apex
    PointConfig.from_coords(3, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 1)])
)
@example(  # 3-D: a square with its center, and a point above the center
    PointConfig.from_coords(
        3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0), (1, 1, 2)]
    )
)
@example(PointConfig.from_coords(1, [(0,), (Fraction(1, 2),), (3,), (-1,)]))
@settings(max_examples=90)
def test_integer_routes_match_fraction_oracle(config):
    """The fraction-free Carathéodory and basis routes, and the public
    test through the configuration's closure rule, decide every (Y, p)
    as the rational Carathéodory oracle does, in dimensions 1 to 3."""
    n = config.size
    for y in range(1 << n):
        for p in range(n):
            truth = fraction_caratheodory(config, y, p)
            assert hull_membership_caratheodory(config, y, p) == truth, (y, p)
            assert _hull_membership_bases(config._int_points, y, p) == truth, (y, p)
            assert hull_membership(config, y, p) == truth, (y, p)


@pytest.mark.parametrize("dim", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40)
def test_collinear_triples_match_rank_oracle(dim, data):
    config = data.draw(grid_configs(dim, side=3, max_size=6))
    for triple in combinations(range(config.size), 3):
        p, q, r = (config.points[i] for i in triple)
        diffs = [
            tuple(b - a for a, b in zip(p, q)),
            tuple(b - a for a, b in zip(p, r)),
        ]
        assert has_collinear_triple(config, triple) == (fraction_rank(diffs) <= 1)


def oracle_relconvex_family(config):
    """Closed sets recomputed from scratch with the Carathéodory route."""
    n = config.size
    family = set()
    for y in range(1 << n):
        closed = y
        for x in range(n):
            if fraction_caratheodory(config, y, x):
                closed |= 1 << x
        family.add(closed)
    return family


def test_relconvex_square_corners_family():
    config = square_corners()
    oracle = oracle_relconvex_family(config)
    assert len(oracle) == 16  # every corner subset is relatively convex
    assert set(relconvex_system(config).enumerate_closed_sets().masks) == oracle


def test_relconvex_collinear_is_interval_system():
    system = relconvex_system(collinear(3))
    assert set(system.enumerate_closed_sets().masks) == set(
        interval_system(3).enumerate_closed_sets().masks
    )


def test_relconvex_general_position_all_closed():
    config = PointConfig.from_coords(2, [(0, 0), (1, 0), (0, 1)])
    assert relconvex_system(config).enumerate_closed_sets().size == 8


def test_relconvex_random_configs_are_convex_geometries():
    rng = random.Random(41)
    for _ in range(200):
        pts = set()
        target = rng.randrange(3, 9)
        while len(pts) < target:
            pts.add(
                (
                    Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                    Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                )
            )
        config = PointConfig.from_coords(2, sorted(pts))
        assert is_convex_geometry(relconvex_system(config)).holds


def test_independence_transfers_to_restrictions():
    rng = random.Random(43)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        config = PointConfig.from_coords(2, sorted(pts))
        system = relconvex_system(config)
        x_prime = rng.randrange(1, 1 << 6)
        reduced = restrict(system, x_prime)
        kept = list(bits(x_prime))
        for y_small in range(1 << len(kept)):
            y_big = 0
            for pos, e in enumerate(kept):
                if y_small >> pos & 1:
                    y_big |= 1 << e
            ind_small = all(
                not reduced.close(y_small & ~(1 << i)) >> i & 1
                for i in bits(y_small)
            )
            ind_big = all(
                not system.close(y_big & ~(1 << e)) >> e & 1 for e in bits(y_big)
            )
            assert ind_small == ind_big


def oracle_max_independent(config):
    best = 0
    n = config.size
    for mask in range(1 << n):
        members = list(bits(mask))
        if len(members) <= best:
            continue
        if all(
            not fraction_caratheodory(config, mask & ~(1 << i), i)
            for i in members
        ):
            best = len(members)
    return best


def test_max_convexly_independent_examples():
    pentagon = PointConfig.from_coords(2, [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
    assert max_convexly_independent(pentagon)[0] == 5
    assert max_convexly_independent(collinear(3))[0] == 2
    parallel = PointConfig.from_coords(
        2, [(i, 0) for i in range(4)] + [(i, 1) for i in range(4)]
    )
    size, witness = max_convexly_independent(parallel)
    assert size == 4 == oracle_max_independent(parallel)
    assert len(witness) == 4


def test_max_independent_matches_oracle_random():
    rng = random.Random(47)
    for _ in range(8):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randrange(-3, 4), rng.randrange(-3, 4)))
        config = PointConfig.from_coords(2, sorted(pts))
        assert max_convexly_independent(config)[0] == oracle_max_independent(config)


def test_min_line_cover_examples():
    count, lines = min_line_cover(collinear(4))
    assert count == 1 and len(lines) == 1
    gp3 = PointConfig.from_coords(2, [(0, 0), (1, 0), (0, 1)])
    assert min_line_cover(gp3)[0] == 2
    parallel = PointConfig.from_coords(
        2, [(i, 0) for i in range(4)] + [(i, 1) for i in range(4)]
    )
    count, lines = min_line_cover(parallel)
    assert count == 2
    for point in parallel.points:
        assert any(line.contains(point) for line in lines)


TIED = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (3, 3)]


@pytest.mark.parametrize(
    "coords, expected",
    [
        (
            [(i, 0) for i in range(4)] + [(i, 1) for i in range(4)],
            [(("0", "0"), (1, 0)), (("0", "1"), (1, 0))],
        ),
        (
            [(0, i) for i in range(3)] + [(2, i) for i in range(3)] + [(5, 1)],
            [(("0", "-2/3"), (3, 1)), (("0", "0"), (0, 1)), (("2", "0"), (0, 1))],
        ),
        (
            TIED,
            [(("0", "-3/2"), (2, 3)), (("0", "0"), (0, 1)), (("0", "2"), (1, -1))],
        ),
        (
            [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 1), (1, 3)],
            [(("0", "-1/2"), (2, 1)), (("0", "0"), (1, 1)), (("0", "1"), (1, 2))],
        ),
        (
            [(Fraction(1, 2) + x * Fraction(3, 2), Fraction(1, 3) + y * Fraction(3, 2))
             for x, y in TIED],
            [(("0", "-1/6"), (1, 1)), (("0", "1/3"), (1, 0)), (("1/2", "0"), (0, 1))],
        ),
        (
            [(0, 2), (2, 1), (2, 2), (3, 0), (3, 3)],
            [(("0", "-3"), (1, 2)), (("0", "2"), (1, 0)), (("0", "2"), (3, -2))],
        ),
        (
            [(1, 1), (2, 2), (2, 3), (3, 0), (3, 2)],
            [(("0", "-1"), (1, 2)), (("0", "3/2"), (2, -1)), (("0", "2"), (1, 0))],
        ),
    ],
    ids=[
        "parallel", "vertical", "grid-tied", "grid-tied-2", "grid-tied-scaled",
        "grid-slopes", "grid-slopes-order",
    ],
)
def test_min_line_cover_witnesses_pinned(coords, expected):
    """Witness lines as recorded before the integer line keys.  The grid
    subsets have several optimal covers (7 for the first two), so the
    witness depends on the candidate order, which must stay the order of
    ``Line``; the last two also need lines of different pivot entries
    compared as ``Line`` compares them."""
    config = PointConfig.from_coords(2, coords)
    count, lines = min_line_cover(config)
    assert count == len(expected)
    assert [(tuple(map(str, ln.base)), ln.direction) for ln in lines] == expected
    oracle_lines = {line_through(p, q) for p, q in combinations(config.points, 2)}
    assert set(lines) <= oracle_lines | {point_line(p) for p in config.points}


def test_one_hull_build_per_closure_call(monkeypatch):
    """Each closure evaluation builds the hull of Y once and tests every
    outside point against it."""
    builds = []
    build = relconvex._planar_hull
    monkeypatch.setattr(
        relconvex, "_planar_hull", lambda points: builds.append(1) or build(points)
    )
    config = PointConfig.from_coords(2, TIED)
    system = relconvex_system(config)
    rule = system._rule
    calls = []

    def counted_rule(y):
        before = len(builds)
        closed = rule(y)
        calls.append(len(builds) - before)
        return closed

    monkeypatch.setattr(system, "_rule", counted_rule)
    family = set(system.enumerate_closed_sets().masks)
    assert family == oracle_relconvex_family(config)
    assert calls and max(calls) == 1 and sum(calls) == len(builds)


def test_searches_run_once_per_configuration(monkeypatch):
    """The independent-set search (its subset tests, shared with
    ``independent_sets``) and the line-cover search (one integer line
    key per point pair and per point) run on the first call only; the
    report and later calls reuse them."""
    work = Counter()

    def counted(module, name):
        step = getattr(module, name)

        def run(*args):
            work[name] += 1
            return step(*args)

        monkeypatch.setattr(module, name, run)

    counted(obstructions, "is_independent")
    counted(relconvex, "_line_key")
    config = PointConfig.from_coords(2, TIED)
    independent = max_convexly_independent(config)
    cover = min_line_cover(config)
    first = dict(work)
    assert first == {"is_independent": 57, "_line_key": 21 + 7}
    ind, lines, _ = dimension_sandwich_report(config)
    assert (ind, lines) == (independent[0], cover[0])
    assert (max_convexly_independent(config), min_line_cover(config)) == (independent, cover)
    assert work == first


def test_full_report_hull_builds_pinned(monkeypatch):
    """Enumeration, geometry verdict, independence, line cover, es5 and
    sandwich share the configuration's one closure system: hull queries
    read its memoized closures, so the whole report builds 122 planar
    hulls on ``TIED`` (123 with a hull-query memo beside the system's)."""
    builds = []
    build = relconvex._planar_hull
    monkeypatch.setattr(
        relconvex, "_planar_hull", lambda points: builds.append(1) or build(points)
    )
    config = PointConfig.from_coords(2, TIED)
    system = relconvex_system(config)
    assert relconvex_system(config) is system
    system.enumerate_closed_sets()
    assert is_convex_geometry(system).holds
    assert max_convexly_independent(config) == (5, (1, 2, 3, 5, 6))
    min_line_cover(config)
    assert check_es5(config).holds
    dimension_sandwich_report(config)
    assert len(builds) == 122


def test_min_line_cover_witness_covers_isolated_points():
    config = PointConfig.from_coords(2, [(0, 0)])
    count, lines = min_line_cover(config)
    assert count == 1 and lines[0].contains(config.points[0])


def test_line_canonicalization():
    a = line_through((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)))
    b = line_through((Fraction(3), Fraction(3)), (Fraction(1), Fraction(1)))
    assert a == b
    assert a.direction == (1, 1)
    vertical = line_through((Fraction(2), Fraction(0)), (Fraction(2), Fraction(5)))
    assert vertical.direction == (0, 1)
    assert vertical.base[0] == 2
    assert isinstance(point_line((Fraction(1), Fraction(2))), Line)
    # The library's integer line keys produce the same canonical lines.
    assert min_line_cover(PointConfig.from_coords(2, [(3, 3), (1, 1)]))[1] == (a,)
    assert min_line_cover(PointConfig.from_coords(2, [(2, 5), (2, 0)]))[1] == (vertical,)


def test_monotone_growth_of_ind_and_line():
    pts = [(0, 0), (1, 0), (2, 1), (0, 2), (3, 3), (1, 4)]
    for size in range(2, len(pts)):
        before = PointConfig.from_coords(2, pts[:size])
        after = PointConfig.from_coords(2, pts[: size + 1])
        gain_ind = (
            max_convexly_independent(after)[0] - max_convexly_independent(before)[0]
        )
        gain_line = min_line_cover(after)[0] - min_line_cover(before)[0]
        assert 0 <= gain_ind <= 1
        assert 0 <= gain_line <= 1


def test_check_es5_examples():
    pentagon = PointConfig.from_coords(2, [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
    assert check_es5(pentagon).holds
    square_center = PointConfig.from_coords(
        2, [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    )
    assert check_es5(square_center).holds
    with pytest.raises(InputError):
        check_es5(PointConfig.from_coords(1, [(0,), (1,)]))


def test_dimension_sandwich_examples():
    ind, line, verdict = dimension_sandwich_report(collinear(3))
    assert (ind, line, verdict.holds) == (2, 1, True)
    convex4 = PointConfig.from_coords(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
    ind, line, verdict = dimension_sandwich_report(convex4)
    assert (ind, line, verdict.holds) == (4, 2, True)
    three_lines = PointConfig.from_coords(
        2,
        [(i, 0) for i in range(3)]
        + [(0, i + 1) for i in range(3)]
        + [(i + 1, i + 5) for i in range(3)],
    )
    ind, line, verdict = dimension_sandwich_report(three_lines)
    assert line <= 3 and ind <= 2 * line and verdict.holds


def test_capacity_limits():
    """Independence takes the enumeration bound, as ``independent_sets``
    does; the line cover keeps its own bound of 16."""
    big = PointConfig.from_coords(2, [(i, i * i) for i in range(17)])
    assert max_convexly_independent(big) == (17, tuple(range(17)))
    with pytest.raises(CapacityError, match="size 17 exceeds the line-cover bound 16"):
        min_line_cover(big)
    bigger = PointConfig.from_coords(2, [(i, i * i) for i in range(21)])
    with pytest.raises(CapacityError, match="ground set size 21 exceeds the enumeration bound 20"):
        max_convexly_independent(bigger)
