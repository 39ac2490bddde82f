"""Convex-geometry verdicts and structural criteria."""

import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    lattices_order_isomorphic,
    random_intersection_closed_family,
    system_of_family,
)
from convexitylab import (
    ClosureSystem,
    GroundSet,
    InputError,
    Lattice,
    antimatroid_from_distributive,
    boolean_lattice,
    chain_lattice,
    check_anti_exchange,
    check_convexity_characterization,
    check_cover_structure,
    check_super_solvable,
    check_zero_closed,
    convex_geometry_from_lattice,
    downset_lattice,
    embed_via_chain_covers,
    find_sublattice_copy,
    find_super_solvable_order,
    initial_system,
    interval_system,
    is_convex_geometry,
    is_distributive,
    is_modular,
    join_dimension,
    join_of_systems,
    m3,
    meet_irreducibles,
    min_chain_cover,
    multichain_system,
    n5,
    spatial_support_reduction,
    subsemilattice_system,
    suborder_system,
)
from convexitylab import geometry, lattices
from convexitylab.geometry import (
    Verdict,
    _median_defect,
    _modular_defect,
    antimatroid_dual_map,
)
from convexitylab.lattices import as_lattice
from convexitylab.ordergen import Multichain
from convexitylab.posets import FinitePoset
from convexitylab.relconvex import PointConfig, relconvex_system

THREE_ATOMS = {0, 0b001, 0b010, 0b100, 0b111}


def three_atom_system():
    return ClosureSystem.from_closed_family(GroundSet(("a", "b", "c")), THREE_ATOMS)


def test_verdict_shape():
    with pytest.raises(InputError):
        Verdict(True, {"spurious": 1})
    with pytest.raises(InputError):
        Verdict(False, None)


def test_zero_closed():
    assert check_zero_closed(interval_system(3)).holds
    bad = ClosureSystem.from_closed_family(GroundSet.of_size(2), {0b01, 0b11})
    verdict = check_zero_closed(bad)
    assert not verdict.holds
    assert verdict.witness["close_empty"] == ("0",)
    constructed = antimatroid_from_distributive(boolean_lattice(2))
    assert check_zero_closed(constructed).holds


def test_anti_exchange_interval():
    assert check_anti_exchange(interval_system(3)).holds


def test_anti_exchange_three_atoms_witness():
    verdict = check_anti_exchange(three_atom_system())
    assert not verdict.holds
    assert verdict.witness == {
        "kind": "anti-exchange",
        "closed_set": ("a",),
        "x": "b",
        "y": "c",
    }


def test_anti_exchange_relconvex_random_planar():
    rng = random.Random(5)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        config = PointConfig.from_coords(2, sorted(pts))
        assert check_anti_exchange(relconvex_system(config)).holds


def test_is_convex_geometry_examples():
    assert is_convex_geometry(subsemilattice_system(FinitePoset.chain(2))).holds
    assert not is_convex_geometry(three_atom_system()).holds
    assert is_convex_geometry(suborder_system(FinitePoset.chain(2))).holds


def test_cover_structure_examples():
    assert check_cover_structure(interval_system(3).enumerate_closed_sets()).holds
    square = PointConfig.from_coords(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert check_cover_structure(
        relconvex_system(square).enumerate_closed_sets()
    ).holds
    powerset = ClosureSystem.from_closed_family(GroundSet.of_size(3), range(8))
    assert check_cover_structure(powerset.enumerate_closed_sets()).holds


def test_cover_structure_witness_on_wide_cover():
    bad = ClosureSystem.from_closed_family(GroundSet.of_size(2), {0, 0b11})
    verdict = check_cover_structure(bad.enumerate_closed_sets())
    assert not verdict.holds
    assert verdict.witness["kind"] == "cover-width"


def test_claims_cover_structure_holds_for_all_small_geometries(families4):
    # every convex geometry has single-point covers with join-irreducible
    # singleton closures
    for fam in families4:
        system = system_of_family(fam, 4)
        if is_convex_geometry(system).holds:
            assert check_cover_structure(system.enumerate_closed_sets()).holds


def test_claims_cover_structure_on_five_element_geometries():
    from convexitylab import multichain_system, bichain_from_permutation

    five_ground = [
        interval_system(5),
        initial_system(5),
        multichain_system(bichain_from_permutation((3, 1, 4, 0, 2))),
        relconvex_system(
            PointConfig.from_coords(2, [(0, 0), (1, 0), (2, 0), (1, 1), (3, 2)])
        ),
        subsemilattice_system(
            FinitePoset.from_covers(
                ("0", "a", "b", "c", "d"), [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]
            )
        ),
    ]
    for system in five_ground:
        assert is_convex_geometry(system).holds
        assert check_cover_structure(system.enumerate_closed_sets()).holds


def test_spatial_support_reduction_identity_cases():
    for system in (
        interval_system(3),
        relconvex_system(PointConfig.from_coords(2, [(0, 0), (1, 0), (2, 0)])),
    ):
        reduction = spatial_support_reduction(system)
        assert reduction.support == system.ground.full_mask
        assert sorted(reduction.set_map) == sorted(
            system.enumerate_closed_sets().masks
        )
        assert len(set(reduction.set_map.values())) == len(reduction.set_map)


def test_spatial_support_reduction_is_order_isomorphism():
    system = interval_system(4)
    reduction = spatial_support_reduction(system)
    masks = sorted(reduction.set_map)
    for a in masks:
        for b in masks:
            assert (a & ~b == 0) == (
                reduction.set_map[a] & ~reduction.set_map[b] == 0
            )


def test_spatial_support_reduction_rejects_non_geometry():
    with pytest.raises(InputError):
        spatial_support_reduction(three_atom_system())


def test_characterization_examples():
    assert check_convexity_characterization(
        interval_system(3).enumerate_closed_sets()
    ).holds
    verdict = check_convexity_characterization(m3())
    assert not verdict.holds
    assert verdict.witness == {
        "kind": "join-cancellation",
        "y": "a",
        "u": "b",
        "v": "c",
    }
    assert check_convexity_characterization(boolean_lattice(3)).holds


def test_geometry_implies_characterization(families3):
    for fam in families3:
        system = system_of_family(fam, 3)
        if is_convex_geometry(system).holds:
            assert check_convexity_characterization(
                system.enumerate_closed_sets()
            ).holds


def test_characterization_gives_constructive_geometry(families3):
    for fam in families3:
        lattice = system_of_family(fam, 3).enumerate_closed_sets()
        if check_convexity_characterization(lattice).holds:
            constructed = convex_geometry_from_lattice(lattice)
            assert is_convex_geometry(constructed).holds
            assert lattices_order_isomorphic(
                as_lattice(constructed.enumerate_closed_sets()), as_lattice(lattice)
            )


def test_convex_geometry_from_lattice_examples():
    two_free_points = convex_geometry_from_lattice(boolean_lattice(2))
    assert two_free_points.closed_family() == frozenset(range(4))

    from_chain = convex_geometry_from_lattice(chain_lattice(3))
    assert from_chain.closed_family() == initial_system(2).closed_family()

    lattice = interval_system(3).enumerate_closed_sets()
    round_trip = convex_geometry_from_lattice(lattice)
    assert lattices_order_isomorphic(
        as_lattice(round_trip.enumerate_closed_sets()), as_lattice(lattice)
    )


def test_convex_geometry_from_lattice_rejects_m3():
    with pytest.raises(InputError):
        convex_geometry_from_lattice(m3())


def test_super_solvable_examples():
    system = interval_system(3)
    assert check_super_solvable(system, (0, 2, 1)).holds
    verdict = check_super_solvable(system, (0, 1, 2))
    assert not verdict.holds
    assert verdict.witness == {
        "kind": "super-solvable",
        "A": ("0", "1", "2"),
        "B": ("0",),
        "a": "1",
    }
    powerset = ClosureSystem.from_closed_family(GroundSet.of_size(3), range(8))
    for ordering in permutations(range(3)):
        assert check_super_solvable(powerset, ordering).holds


def test_find_super_solvable_order_matches_exhaustive():
    system = interval_system(3)
    passing = [
        ordering
        for ordering in permutations(range(3))
        if check_super_solvable(system, ordering).holds
    ]
    found = find_super_solvable_order(system)
    assert found in passing
    assert found == min(passing)


def test_find_super_solvable_order_on_meet_subsemilattices():
    system = subsemilattice_system(FinitePoset.chain(3))
    found = find_super_solvable_order(system)
    assert found is not None
    assert check_super_solvable(system, found).holds


def test_distributive_modular_named():
    assert is_distributive(boolean_lattice(3)).holds
    assert is_modular(boolean_lattice(3)).holds
    m3_verdict = is_distributive(m3())
    assert not m3_verdict.holds and m3_verdict.witness["kind"] == "M3"
    assert is_modular(m3()).holds
    n5_verdict = is_distributive(n5())
    assert not n5_verdict.holds and n5_verdict.witness["kind"] == "N5"
    assert not is_modular(n5()).holds


def _partitions(elems: list[int]) -> list[list[list[int]]]:
    if not elems:
        return [[]]
    first, out = elems[0], []
    for part in _partitions(elems[1:]):
        out.append([[first]] + part)
        out += [part[:k] + [[first] + part[k]] + part[k + 1 :] for k in range(len(part))]
    return out


def partition_lattice(n: int) -> Lattice:
    """Partitions of an n-set under refinement, the finer one below."""
    parts = sorted(
        (sorted(map(sorted, p)) for p in _partitions(list(range(n)))), key=lambda p: (-len(p), p)
    )
    labels = tuple("|".join("".join(map(str, b)) for b in p) for p in parts)
    up = tuple(
        sum(
            1 << j
            for j, q in enumerate(parts)
            if all(any(set(b) <= set(c) for c in q) for b in p)
        )
        for p in parts
    )
    return Lattice(labels, up)


def _assert_lattice_core_matches_oracles(lattice) -> None:
    """Covers, bounds and both verdicts against their definitions, the
    cubic scans and the forbidden-sublattice searches."""
    lat = as_lattice(lattice)
    n = lat.size
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and lat.leq(i, j)
        and not any(k not in (i, j) and lat.leq(i, k) and lat.leq(k, j) for k in range(n))
    )
    assert lat.hasse_edges() == edges
    for j in range(n):
        assert lat.lower_covers(j) == tuple(i for i, b in edges if b == j)
        assert lat.upper_covers(j) == tuple(b for i, b in edges if i == j)
    for i in range(n):
        for j in range(n):
            above = [k for k in range(n) if lat.leq(i, k) and lat.leq(j, k)]
            below = [k for k in range(n) if lat.leq(k, i) and lat.leq(k, j)]
            assert all(lat.leq(lat.join(i, j), k) for k in above)
            assert lat.join(i, j) in above
            assert all(lat.leq(k, lat.meet(i, j)) for k in below)
            assert lat.meet(i, j) in below
    dist = is_distributive(lat).holds
    mod = is_modular(lat).holds
    has_m3 = find_sublattice_copy(lat, "M3") is not None
    has_n5 = find_sublattice_copy(lat, "N5") is not None
    assert dist == (not has_m3 and not has_n5) == (_median_defect(lat) is None)
    assert mod == (not has_n5) == (_modular_defect(lat) is None)


def test_forbidden_sublattice_search_cross_validates(lattice_corpus):
    # The partition lattice of a 4-set is upper but not lower
    # semimodular, its dual the reverse: each half of the semimodular
    # test is needed on one of them.
    partitions = partition_lattice(4)
    assert partitions.size == 15
    assert not is_modular(partitions).holds and not is_modular(partitions.dual()).holds
    for lattice in lattice_corpus + [partitions, partitions.dual()]:
        _assert_lattice_core_matches_oracles(lattice)


@given(n=st.integers(5, 6), rng=st.randoms(use_true_random=False))
def test_forbidden_sublattice_search_cross_validates_on_random_families(n, rng):
    family = random_intersection_closed_family(rng, n)
    closed = system_of_family(frozenset(family), n).enumerate_closed_sets()
    assert closed.covers() == as_lattice(closed).hasse_edges()
    _assert_lattice_core_matches_oracles(closed)


@pytest.mark.parametrize(
    "labels, up, message",
    [
        (("a", "b", "c"), (0b001, 0b010, 0b100), "a and b have no join"),  # joins first
        (
            ("0", "a", "b", "c", "d", "1"),
            (0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000),
            "a and b have no join",
        ),
        (("a", "b", "c", "1"), (0b1011, 0b1010, 0b1100, 0b1000), "a and c have no meet"),
    ],
)
def test_lattice_rejects_orders_without_bounds(labels, up, message):
    with pytest.raises(InputError, match=f"^not a lattice: {message}$"):
        Lattice(labels, up)


def _counting(monkeypatch, module, name: str) -> list[int]:
    """Replace module.name by a wrapper that counts its calls."""
    count = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


# Ten points in general position; their relatively convex sets form a
# lattice of 450 elements, five times the largest in the lattice bench.
TEN_POINTS = [
    (4, 6), (-18, -4), (12, 11), (5, -1), (10, 2),
    (17, -7), (12, -12), (-2, -12), (-14, 19), (18, -11),
]


def test_large_relconvex_lattice_verdicts_pinned():
    lattice = relconvex_system(PointConfig.from_coords(2, TEN_POINTS)).enumerate_closed_sets()
    assert lattice.size == 450
    assert check_cover_structure(lattice).holds
    assert check_convexity_characterization(lattice).holds
    n5_copy = {
        "kind": "N5",
        "elements": ["{}", "{p0}", "{p0,p3}", "{p1,p5}", "{p0,p1,p3,p5}"],
    }
    assert is_distributive(lattice).witness == n5_copy
    assert is_modular(lattice).witness == n5_copy
    assert join_dimension(lattice) == 7


def test_one_lattice_per_closed_set_lattice_and_scans_only_on_failure(monkeypatch):
    built = _counting(monkeypatch, lattices.Lattice, "__post_init__")
    median = _counting(monkeypatch, geometry, "_median_defect")
    modular = _counting(monkeypatch, geometry, "_modular_defect")
    orders = ((0, 1, 2, 3, 4, 5), (5, 3, 1, 0, 2, 4), (2, 0, 4, 5, 1, 3))
    sources = [
        multichain_system(Multichain(GroundSet.of_size(6), orders)).enumerate_closed_sets(),
        initial_system(4).enumerate_closed_sets(),
    ]
    for source in sources:
        before = built[0]
        check_cover_structure(source)
        check_convexity_characterization(source)
        distributive = is_distributive(source).holds
        is_modular(source)
        join_dimension(source)
        lattice = as_lattice(source)
        cover = min_chain_cover(lattice, meet_irreducibles(lattice))
        embed_via_chain_covers(source, cover)
        if distributive:
            antimatroid_from_distributive(source)
        assert built[0] - before == 1

    median[0] = modular[0] = 0
    for lattice in (boolean_lattice(3), sources[1], downset_lattice(FinitePoset.antichain(3))):
        assert is_distributive(lattice).holds and is_modular(lattice).holds
    assert (median[0], modular[0]) == (0, 0)
    for lattice in (n5(), partition_lattice(4), sources[0]):  # not modular
        assert not is_distributive(lattice).holds
    assert (median[0], modular[0]) == (0, 3)


def test_verdict_witnesses_need_no_sublattice_search(monkeypatch, lattice_corpus):
    # Dedekind's elements from the first failing modular triple form an
    # N5 copy, and Birkhoff's from the first failing median triple of a
    # modular lattice an M3 copy, so no verdict searches for one.
    searches = _counting(monkeypatch, geometry, "find_sublattice_copy")
    rng = random.Random(20221020)
    families = [random_intersection_closed_family(rng, 5) for _ in range(200)]
    sources = lattice_corpus + [partition_lattice(4)] + [
        as_lattice(system_of_family(family, 5).enumerate_closed_sets()) for family in families
    ]
    copies = {"N5": 0, "M3": 0}
    for source in sources:
        for lat in (source, source.dual()):
            index = {label: e for e, label in enumerate(lat.labels)}
            for verdict in (is_modular(lat), is_distributive(lat)):
                if verdict:
                    continue
                kind = verdict.witness["kind"]
                elems = tuple(index[label] for label in verdict.witness["elements"])
                is_copy = geometry._is_n5_copy if kind == "N5" else geometry._is_m3_copy
                assert is_copy(lat, elems), (kind, elems)
                copies[kind] += 1
    assert searches[0] == 0
    assert copies["N5"] > 500 and copies["M3"] > 0


def test_antimatroid_from_boolean_two_atoms():
    system = antimatroid_from_distributive(boolean_lattice(2))
    assert system.ground.size == 2
    assert system.closed_family() == frozenset(range(4))
    assert check_anti_exchange(system).holds


def test_antimatroid_from_chain_gives_final_segments():
    system = antimatroid_from_distributive(chain_lattice(4))
    assert system.ground.size == 3
    full = system.ground.full_mask
    expected = {full & ~((1 << i) - 1) for i in range(4)}
    assert system.closed_family() == expected


def test_antimatroid_from_fence_downsets_passes_anti_exchange():
    fence = FinitePoset.from_covers(("a", "b", "c"), [(0, 1), (2, 1)])
    system = antimatroid_from_distributive(downset_lattice(fence))
    assert check_anti_exchange(system).holds
    assert check_zero_closed(system).holds


def test_antimatroid_rejects_non_distributive():
    with pytest.raises(InputError):
        antimatroid_from_distributive(m3())


def test_antimatroid_dual_isomorphism(posets4):
    for poset in posets4[::5]:
        lattice = downset_lattice(poset)
        system = antimatroid_from_distributive(lattice)
        dual = antimatroid_dual_map(lattice)
        family = system.closed_family()
        assert set(dual.values()) == family
        assert len(set(dual.values())) == lattice.size
        for x in range(lattice.size):
            for y in range(lattice.size):
                assert lattice.leq(x, y) == (dual[y] & ~dual[x] == 0)


def test_join_of_convex_geometries_is_convex_geometry():
    rng = random.Random(23)
    produced = 0
    while produced < 20:
        n = rng.randrange(2, 6)
        fam_a = random_intersection_closed_family(rng, n)
        fam_b = random_intersection_closed_family(rng, n)
        a = system_of_family(fam_a, n)
        b = system_of_family(fam_b, n)
        if not (is_convex_geometry(a).holds and is_convex_geometry(b).holds):
            continue
        produced += 1
        assert is_convex_geometry(join_of_systems([a, b])).holds
