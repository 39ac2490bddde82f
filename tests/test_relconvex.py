"""Exact rational hull membership and the derived point-set quantities."""

import random
from fractions import Fraction
from itertools import combinations

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
from convexitylab.bitset import bits
from convexitylab.relconvex import (
    Line,
    _hull_membership_bases,
    _matrix_rank,
    has_collinear_triple,
    line_through,
    point_line,
)


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
            assert fast == hull_membership_caratheodory(config, y, p), (y, p)
            assert fast == _hull_membership_bases(config, y, p), (y, p)


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
        assert has_collinear_triple(config, triple) == (_matrix_rank(diffs) <= 1)


def oracle_relconvex_family(config):
    """Closed sets recomputed from scratch with the Carathéodory route."""
    n = config.size
    family = set()
    for y in range(1 << n):
        closed = y
        for x in range(n):
            if hull_membership_caratheodory(config, y, x):
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
            not hull_membership_caratheodory(config, mask & ~(1 << i), i)
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
    big = PointConfig.from_coords(2, [(i, i * i) for i in range(17)])
    with pytest.raises(CapacityError):
        max_convexly_independent(big)
    with pytest.raises(CapacityError):
        min_line_cover(big)
