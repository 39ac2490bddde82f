"""Closure systems: axioms, enumeration, restriction, joins, chains."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    count_maximal_chains_dfs,
    random_intersection_closed_family,
    system_of_family,
)
from convexitylab import (
    CapacityError,
    ClosedSetLattice,
    ClosureSystem,
    GroundSet,
    InputError,
    MaximalChain,
    chain_retraction,
    interval_system,
    initial_system,
    join_of_systems,
    maximal_chains,
    restrict,
)
from convexitylab.bitset import bits, is_subset
from convexitylab.relconvex import PointConfig, relconvex_system


def battery_systems():
    """Small systems of each construction kind, ground size <= 5."""
    config = PointConfig.from_coords(2, [(0, 0), (2, 0), (1, 0), (0, 1)])
    return [
        interval_system(4),
        initial_system(4),
        ClosureSystem.from_closed_family(GroundSet.of_size(3), range(8)),
        ClosureSystem.from_closed_family(
            GroundSet.of_size(4), {0, 0b1111, 0b0001, 0b0011, 0b0111}
        ),
        relconvex_system(config),
    ]


@pytest.mark.parametrize("system", battery_systems(), ids=["interval", "initial", "powerset", "nested", "relconvex"])
def test_closure_axioms_exhaustive(system):
    n = system.ground.size
    closures = {y: system.close(y) for y in range(1 << n)}
    for y, cy in closures.items():
        assert is_subset(y, cy)
        assert closures[cy] == cy  # idempotent
    for y in closures:
        for z in closures:
            if is_subset(y, z):
                assert is_subset(closures[y], closures[z])  # isotone


def test_close_extensional_is_intersection_of_supersets():
    system = interval_system(3)
    fam = system.closed_family()
    for y in range(8):
        expected = 0b111
        for m in fam:
            if is_subset(y, m):
                expected &= m
        assert system.close(y) == expected


def test_close_examples():
    system = interval_system(3)
    assert system.close(0) == 0
    assert system.close(0b101) == 0b111
    config = PointConfig.from_coords(2, [(0, 0), (1, 0), (2, 0)])
    rel = relconvex_system(config)
    assert rel.close(0b101) == 0b111


def test_close_rejects_out_of_range():
    system = interval_system(3)
    with pytest.raises(InputError):
        system.close(0b1000)


def test_family_validation():
    ground = GroundSet.of_size(3)
    with pytest.raises(InputError, match="intersection-closed"):
        ClosureSystem.from_closed_family(ground, {0, 0b011, 0b110, 0b111})
    with pytest.raises(InputError, match="full ground set"):
        ClosureSystem.from_closed_family(ground, {0, 0b011})


def test_enumerate_interval_3_chain():
    lattice = interval_system(3).enumerate_closed_sets()
    assert lattice.size == 7
    assert lattice.masks == (0, 1, 2, 3, 4, 6, 7)


def test_enumerate_powerset():
    system = ClosureSystem.from_closed_family(GroundSet.of_size(3), range(8))
    assert system.enumerate_closed_sets().size == 8


def test_enumerate_capacity_error_names_bound():
    system = ClosureSystem.from_rule(GroundSet.of_size(21), lambda y: y)
    with pytest.raises(CapacityError, match="20"):
        system.enumerate_closed_sets()


def test_enumerate_respects_env_bound(monkeypatch):
    monkeypatch.setenv("CONVEXITY_LAB_BOUND", "2")
    system = interval_system(3)
    with pytest.raises(CapacityError, match="2"):
        system.enumerate_closed_sets()


def test_nextclosure_matches_extensional():
    extensional = interval_system(4)
    fam = extensional.closed_family()
    intensional = ClosureSystem.from_rule(extensional.ground, extensional.close)
    assert intensional.enumerate_closed_sets().masks == tuple(sorted(fam))


def test_nextclosure_handles_nonzero_bottom():
    ground = GroundSet.of_size(3)
    system = ClosureSystem.from_rule(ground, lambda y: y | 0b001)
    masks = system.enumerate_closed_sets().masks
    assert masks == (0b001, 0b011, 0b101, 0b111)


def test_memoized_close_is_pure():
    system = relconvex_system(PointConfig.from_coords(2, [(0, 0), (1, 0), (2, 0)]))
    first = [system.close(y) for y in range(8)]
    second = [system.close(y) for y in range(8)]
    assert first == second


# ------------------------------------------------------------- restriction


def test_restrict_interval_5_to_alternating():
    reduced = restrict(interval_system(5), 0b10101)
    expected = interval_system(3).enumerate_closed_sets().masks
    assert reduced.enumerate_closed_sets().masks == expected


def test_restrict_full_is_identity():
    system = interval_system(4)
    same = restrict(system, system.ground.full_mask)
    assert same.closed_family() == system.closed_family()


def test_restrict_to_singleton():
    system = ClosureSystem.from_closed_family(GroundSet.of_size(3), range(8))
    reduced = restrict(system, 0b010)
    assert sorted(reduced.closed_family()) == [0, 1]


def test_restrict_rejects_empty():
    with pytest.raises(InputError):
        restrict(interval_system(3), 0)


def test_restriction_family_matches_trace():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 6)
        fam = random_intersection_closed_family(rng, n)
        system = system_of_family(fam, n)
        x_prime = rng.randrange(1, 1 << n)
        reduced = restrict(system, x_prime)
        kept = list(bits(x_prime))
        shrink = {old: new for new, old in enumerate(kept)}

        def project(mask):
            out = 0
            for e in bits(mask & x_prime):
                out |= 1 << shrink[e]
            return out

        assert reduced.closed_family() == {project(m) for m in fam}


def test_rho_theta_composition_is_identity():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 6)
        fam = random_intersection_closed_family(rng, n)
        system = system_of_family(fam, n)
        x_prime = rng.randrange(1, 1 << n)
        reduced = restrict(system, x_prime)
        kept = list(bits(x_prime))
        grow = {new: old for new, old in enumerate(kept)}
        for small in reduced.closed_family():
            expanded = 0
            for e in bits(small):
                expanded |= 1 << grow[e]
            theta = system.close(expanded)
            rho = 0
            for e in bits(theta & x_prime):
                rho |= 1 << {old: new for new, old in enumerate(kept)}[e]
            assert rho == small


def test_product_map_is_order_embedding():
    # Covers of the ground set induce an injective, order-preserving
    # product of traces on the closed sets.
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 7)
        fam = random_intersection_closed_family(rng, n)
        system = system_of_family(fam, n)
        full = (1 << n) - 1
        parts = []
        covered = 0
        while covered != full:
            part = rng.randrange(1, 1 << n)
            parts.append(part)
            covered |= part
        images = {m: tuple(m & part for part in parts) for m in fam}
        for a in fam:
            for b in fam:
                forward = all(is_subset(x, y) for x, y in zip(images[a], images[b]))
                assert forward == is_subset(a, b)


# ------------------------------------------------------------------- joins


def test_join_of_single_system():
    system = interval_system(3)
    assert join_of_systems([system]) is system


def test_join_of_initial_segment_systems_gives_intervals():
    ground = GroundSet.of_size(3)
    forward = ClosureSystem.from_closed_family(ground, {0, 1, 0b011, 0b111})
    backward = ClosureSystem.from_closed_family(ground, {0, 0b100, 0b110, 0b111})
    joined = join_of_systems([forward, backward])
    # oracle: all pairwise intersections of the two down-set families
    expected = {a & b for a in forward.closed_family() for b in backward.closed_family()}
    assert joined.closed_family() == expected
    assert expected == set(interval_system(3).enumerate_closed_sets().masks)


def test_join_is_idempotent():
    system = interval_system(4)
    twice = join_of_systems([system, system])
    assert twice.closed_family() == system.closed_family()


def test_join_closure_is_componentwise_intersection():
    a = initial_system(4)
    ground = a.ground
    b = ClosureSystem.from_closed_family(
        ground, {0, 0b1000, 0b1100, 0b1110, 0b1111}
    )
    joined = join_of_systems([a, b])
    for y in range(16):
        assert joined.close(y) == a.close(y) & b.close(y)


def test_join_rejects_mismatched_grounds():
    with pytest.raises(InputError):
        join_of_systems([interval_system(3), interval_system(4)])


# ------------------------------------------------------------------ chains


def test_chain_retraction_fixes_chain_and_bottom():
    lattice = interval_system(3).enumerate_closed_sets()
    chain = MaximalChain((0, 0b010, 0b110, 0b111))
    for member in chain.masks:
        assert chain_retraction(lattice, chain, member) == member
    assert chain_retraction(lattice, chain, 0) == 0


def test_chain_retraction_example():
    lattice = interval_system(3).enumerate_closed_sets()
    chain = MaximalChain((0, 0b010, 0b110, 0b111))
    assert chain_retraction(lattice, chain, 0b001) == 0b111


def test_chain_retraction_rejects_non_maximal():
    lattice = interval_system(3).enumerate_closed_sets()
    with pytest.raises(InputError, match="insertable"):
        chain_retraction(lattice, MaximalChain((0, 0b111)), 0b001)


def test_chain_retraction_preserves_joins():
    for system in (interval_system(3), interval_system(4), initial_system(4)):
        lattice = system.enumerate_closed_sets()
        assert lattice.size <= 30
        for chain in maximal_chains(lattice, 100):
            retract = {
                m: chain_retraction(lattice, chain, m) for m in lattice.masks
            }
            positions = {m: k for k, m in enumerate(chain.masks)}
            for i in range(lattice.size):
                for j in range(lattice.size):
                    a, b = lattice.masks[i], lattice.masks[j]
                    joined = lattice.masks[lattice.join(i, j)]
                    expected = max(
                        retract[a], retract[b], key=lambda m: positions[m]
                    )
                    assert retract[joined] == expected


def test_maximal_chains_counts():
    assert len(maximal_chains(initial_system(4).enumerate_closed_sets(), 10)) == 1
    two_atoms = ClosureSystem.from_closed_family(GroundSet.of_size(2), range(4))
    assert len(maximal_chains(two_atoms.enumerate_closed_sets(), 10)) == 2
    lattice = interval_system(3).enumerate_closed_sets()
    found = maximal_chains(lattice, 1000)
    assert len(found) == count_maximal_chains_dfs(lattice)
    assert len({c.masks for c in found}) == len(found)
    assert len(maximal_chains(lattice, 2)) == 2


def scan_join(lattice: ClosedSetLattice, i: int, j: int) -> int:
    """Oracle: the first closed set, in ascending mask order, holding both."""
    union = lattice.masks[i] | lattice.masks[j]
    for k, m in enumerate(lattice.masks):
        if is_subset(union, m):
            return k
    raise InputError("family has no common superset; top element missing")


def test_closed_set_join_matches_scan_over_corpus(lattice_corpus):
    for lat in lattice_corpus:
        downsets = ClosedSetLattice(
            GroundSet.of_size(lat.size), tuple(sorted(map(lat.down, range(lat.size))))
        )
        for i in range(downsets.size):
            for j in range(downsets.size):
                assert downsets.join(i, j) == scan_join(downsets, i, j)


@given(st.sets(st.integers(0, 63), min_size=1, max_size=24))
def test_closed_set_join_matches_scan_on_any_family(family):
    """Any ascending family, intersection-closed or not, with or without a
    common superset for every pair."""
    lattice = ClosedSetLattice(GroundSet.of_size(6), tuple(sorted(family)))
    for i in range(lattice.size):
        for j in range(lattice.size):
            try:
                expected = scan_join(lattice, i, j)
            except InputError:
                with pytest.raises(InputError, match="no common superset"):
                    lattice.join(i, j)
            else:
                assert lattice.join(i, j) == expected
