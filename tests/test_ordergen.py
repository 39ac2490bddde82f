"""Order-theoretic generators: chains, multichains, deltas, omega prefixes."""

import random
from itertools import permutations

import pytest

from conftest import all_injections_embed, join_closure_of_pairs, labeled_posets
from convexitylab import (
    CapacityError,
    InputError,
    JoinSemilattice,
    Multichain,
    OmegaPrefix,
    bichain_from_permutation,
    boolean_lattice,
    compact_semilattice_of_geometry,
    delta_semilattice,
    embeds_as_join_subsemilattice,
    final_system,
    initial_system,
    interval_factorization,
    interval_system,
    is_convex_geometry,
    join_of_systems,
    multichain_system,
    omega_prefix,
    subsemilattice_system,
    suborder_system,
)
from convexitylab.bitset import bits
from convexitylab.closure import ClosureSystem, GroundSet
from convexitylab.ordergen import initial_system_of_order
from convexitylab.posets import FinitePoset


def test_chain_system_counts():
    assert interval_system(3).enumerate_closed_sets().size == 7
    assert initial_system(3).enumerate_closed_sets().size == 4
    assert final_system(1).enumerate_closed_sets().masks == (0, 1)


def test_chain_systems_are_convex_geometries():
    for n in range(1, 5):
        assert is_convex_geometry(interval_system(n)).holds
        assert is_convex_geometry(initial_system(n)).holds
        assert is_convex_geometry(final_system(n)).holds


def test_interval_factorization_examples():
    f, _ = interval_factorization(2)
    assert f(0b11) == (0b11, 0b11)
    f3, g3 = interval_factorization(3)
    assert f3(0b010) == (0b011, 0b110)
    assert g3(0b011, 0b110) == 0b010


def test_interval_factorization_embedding_and_section():
    for n in range(1, 9):
        f, g = interval_factorization(n)
        intervals = interval_system(n).enumerate_closed_sets().masks
        images = {}
        for a in intervals:
            down, up = f(a)
            assert g(down, up) == a
            images[a] = (down, up)
        for a in intervals:
            for b in intervals:
                componentwise = (
                    images[a][0] & ~images[b][0] == 0
                    and images[a][1] & ~images[b][1] == 0
                )
                assert componentwise == (a & ~b == 0)
        # g is onto the intervals
        initials = initial_system(n).enumerate_closed_sets().masks
        finals = final_system(n).enumerate_closed_sets().masks
        assert {g(i, j) for i in initials for j in finals} == set(intervals)


def test_interval_factorization_rejects_non_interval():
    f, _ = interval_factorization(3)
    with pytest.raises(InputError):
        f(0b101)


def test_multichain_validation():
    ground = GroundSet.of_size(3)
    with pytest.raises(InputError):
        Multichain(ground, ((0, 1, 1),))
    with pytest.raises(InputError):
        Multichain(ground, ())


def test_bichain_from_permutation():
    identity = bichain_from_permutation((0, 1, 2))
    assert identity.orders == ((0, 1, 2), (0, 1, 2))
    reversal = bichain_from_permutation((2, 1, 0))
    assert reversal.orders[1] == (2, 1, 0)
    cyc = bichain_from_permutation((1, 2, 0))
    r2 = cyc.orders[1]
    assert r2[2] < r2[0] < r2[1]
    with pytest.raises(InputError):
        bichain_from_permutation((0, 0, 1))


def test_multichain_identity_and_reversal():
    same = multichain_system(bichain_from_permutation((0, 1, 2)))
    assert same.closed_family() == initial_system(3).closed_family()
    reverse = multichain_system(bichain_from_permutation((2, 1, 0)))
    assert reverse.closed_family() == frozenset(
        interval_system(3).enumerate_closed_sets().masks
    )


def test_multichain_three_orders_matches_intersection_oracle():
    ground = GroundSet.of_size(4)
    orders = ((0, 1, 2, 3), (3, 1, 0, 2), (1, 3, 2, 0))
    system = multichain_system(Multichain(ground, orders))
    families = [
        initial_system_of_order(ground, r).closed_family() for r in orders
    ]
    expected = {
        a & b & c for a in families[0] for b in families[1] for c in families[2]
    }
    assert system.closed_family() == expected


def test_multichain_systems_are_convex_geometries():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 4)
        orders = []
        for _ in range(k):
            perm = list(range(n))
            rng.shuffle(perm)
            orders.append(tuple(perm))
        system = multichain_system(Multichain(GroundSet.of_size(n), tuple(orders)))
        assert is_convex_geometry(system).holds


def test_multichain_capacity():
    """Building a multichain system has no cap of its own; enumerating
    its closed sets checks the enumeration bound."""
    ground = GroundSet.of_size(3)
    order = (0, 1, 2)
    seven = multichain_system(Multichain(ground, (order,) * 7))
    assert seven.enumerate_closed_sets().masks == (0, 0b1, 0b11, 0b111)
    reverse = bichain_from_permutation(tuple(range(20, -1, -1)))
    with pytest.raises(CapacityError, match="ground set size 21 exceeds the enumeration bound 20"):
        multichain_system(reverse).enumerate_closed_sets()
    # the 32-point bit-reversal bichain has 241 closed sets
    bitrev = tuple(int(format(i, "05b")[::-1], 2) for i in range(32))
    host = multichain_system(bichain_from_permutation(bitrev))
    assert host.enumerate_closed_sets(bound=32).size == 241


def test_delta_semilattice_examples():
    assert delta_semilattice(bichain_from_permutation((2, 1, 0))).size == 6
    assert delta_semilattice(bichain_from_permutation((0, 1, 2))).size == 3
    assert delta_semilattice(bichain_from_permutation((1, 0))).size == 3
    with pytest.raises(InputError):
        delta_semilattice(
            Multichain(GroundSet.of_size(2), ((0, 1),))
        )


def delta_pair_set(sigma):
    n = len(sigma)
    return {
        (x1, x2)
        for x1 in range(n)
        for x2 in range(n)
        if x2 <= x1 and sigma[x1] <= sigma[x2]
    }


def diagonal_closure(sigma):
    n = len(sigma)

    def join_pair(a, b):
        first = max(a[0], b[0])
        second = a[1] if sigma[a[1]] >= sigma[b[1]] else b[1]
        return (first, second)

    return join_closure_of_pairs({(x, x) for x in range(n)}, join_pair)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_delta_equals_diagonal_closure_exhaustive(n):
    for sigma in permutations(range(n)):
        assert delta_pair_set(sigma) == diagonal_closure(sigma)
        assert delta_semilattice(bichain_from_permutation(sigma)).size == len(
            delta_pair_set(sigma)
        )


def test_delta_equals_diagonal_closure_random_7():
    rng = random.Random(71)
    for _ in range(25):
        sigma = list(range(7))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        assert delta_pair_set(sigma) == diagonal_closure(sigma)


def test_delta_relabeling_invariance():
    # Building the diagonal semilattice over a relabeled second chain
    # yields an isomorphic semilattice.
    rng = random.Random(73)
    for _ in range(10):
        n = 5
        sigma = list(range(n))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        delta = delta_semilattice(bichain_from_permutation(sigma))
        # a fresh label set for the second coordinate through bijection f
        offsets = list(range(n))
        rng.shuffle(offsets)
        pairs = sorted(
            ((x1, offsets[x2]) for x1, x2 in delta_pair_set(sigma)),
        )
        index = {p: i for i, p in enumerate(pairs)}
        rank2 = {offsets[x]: sigma[x] for x in range(n)}

        def join(i, j):
            a, b = pairs[i], pairs[j]
            first = max(a[0], b[0])
            second = a[1] if rank2[a[1]] >= rank2[b[1]] else b[1]
            return index[(first, second)]

        relabeled = JoinSemilattice(tuple(map(str, pairs)), join)
        assert relabeled.size == delta.size
        found = embeds_as_join_subsemilattice(delta, relabeled)
        assert found is not None


def test_compact_semilattice_examples():
    assert compact_semilattice_of_geometry(interval_system(3)).size == 7
    powerset = ClosureSystem.from_closed_family(GroundSet.of_size(2), range(4))
    k = compact_semilattice_of_geometry(powerset)
    b2 = boolean_lattice(2).to_join_semilattice()
    assert k.size == b2.size == 4
    assert all_injections_embed(b2, k)


def test_compact_semilattice_isomorphic_to_delta_with_bottom():
    for sigma in [(2, 1, 0), (1, 0, 2), (0, 2, 1), (1, 2, 0)]:
        bichain = bichain_from_permutation(sigma)
        k = compact_semilattice_of_geometry(multichain_system(bichain))
        delta_hat = delta_semilattice(bichain).with_bottom()
        assert k.size == delta_hat.size
        found = embeds_as_join_subsemilattice(delta_hat, k)
        assert found is not None and found.verify(delta_hat, k)


def test_omega_prefix_shapes():
    assert omega_prefix(0).elements == ((0, 0),)
    om1 = omega_prefix(1)
    assert om1.elements == ((0, 0), (1, 0), (1, 1))
    sem1 = om1.semilattice()
    assert all(
        sem1.leq(i, j) or sem1.leq(j, i) for i in range(3) for j in range(3)
    )  # a chain
    om2 = omega_prefix(2)
    assert om2.size == 7
    assert not OmegaPrefix.leq((1, 1), (2, 1)) and not OmegaPrefix.leq((2, 1), (1, 1))


def test_omega_prefix_invariants():
    from fractions import Fraction

    for depth in range(0, 9):
        om = omega_prefix(depth)
        assert om.size == (1 << (depth + 1)) - 1
        for level in range(depth + 1):
            assert len(om.fiber(level)) == 1 << level
        values = {Fraction(k, 1 << n) for n, k in om.elements}
        expected = {Fraction(j, 1 << depth) for j in range(1 << depth)}
        assert values == expected  # second projection: dyadics of [0,1)
    om = omega_prefix(3)
    elements = set(om.elements)
    for a in om.elements:
        for b in om.elements:
            assert OmegaPrefix.join_elements(a, b) in elements


def test_omega_prefix_labels_are_exact():
    om = omega_prefix(2)
    labels = [OmegaPrefix.label(e) for e in om.elements]
    assert labels == [
        "(0,0)",
        "(1,0)",
        "(1,1/2)",
        "(2,0)",
        "(2,1/4)",
        "(2,1/2)",
        "(2,3/4)",
    ]


def test_omega_prefix_capacity():
    for depth in (9, 13):
        with pytest.raises(CapacityError):
            omega_prefix(depth)
    with pytest.raises(InputError):
        omega_prefix(-1)


def test_semilattice_axioms_validate():
    omega_prefix(3).semilattice().validate()
    delta_semilattice(bichain_from_permutation((2, 0, 1))).validate()
    compact_semilattice_of_geometry(interval_system(3)).validate()
    broken = JoinSemilattice(("a", "b"), lambda i, j: 1 - max(i, j))
    with pytest.raises(InputError):
        broken.validate()


def test_subsemilattice_system_examples():
    assert subsemilattice_system(FinitePoset.chain(2)).enumerate_closed_sets().size == 4
    vee = FinitePoset.from_covers(("b", "t1", "t2"), [(0, 1), (0, 2)])
    assert subsemilattice_system(vee).enumerate_closed_sets().size == 7
    assert is_convex_geometry(subsemilattice_system(vee)).holds


def test_subsemilattice_rejects_meetless():
    antichain = FinitePoset.antichain(2)
    with pytest.raises(InputError, match="no meet"):
        subsemilattice_system(antichain)


def oracle_meet_closed_subsets(poset):
    out = set()
    n = poset.size
    for mask in range(1 << n):
        members = list(bits(mask))
        ok = True
        for a in members:
            for b in members:
                if not mask >> poset.meet_of(a, b) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(mask)
    return out


def test_subsemilattice_matches_oracle():
    bottomed = FinitePoset.from_covers(
        ("0", "a", "b"), [(0, 1), (0, 2)]
    )
    system = subsemilattice_system(bottomed)
    assert set(system.enumerate_closed_sets().masks) == oracle_meet_closed_subsets(
        bottomed
    )


def test_chains_and_antichains_independent_in_subsemilattice():
    for poset in labeled_posets(4):
        if poset.meet_semilattice_defect() is not None:
            continue
        system = subsemilattice_system(poset)
        for mask in range(1 << poset.size):
            if poset.is_chain_set(mask) or poset.is_antichain_set(mask):
                for y in bits(mask):
                    assert not system.close(mask & ~(1 << y)) >> y & 1


def test_suborder_system_examples():
    assert suborder_system(FinitePoset.chain(2)).enumerate_closed_sets().size == 2
    three = suborder_system(FinitePoset.chain(3))
    lattice = three.enumerate_closed_sets()
    assert lattice.size == 7
    assert is_convex_geometry(three).holds


def test_suborder_direct_sum_of_two_chains_is_boolean():
    for n in (2, 3):
        labels = tuple(f"x{i}" for i in range(2 * n))
        covers = [(2 * i, 2 * i + 1) for i in range(n)]
        system = suborder_system(FinitePoset.from_covers(labels, covers))
        assert system.enumerate_closed_sets().size == 1 << n


def test_suborder_rejects_empty_order():
    with pytest.raises(InputError):
        suborder_system(FinitePoset.antichain(3))


def test_join_of_systems_matches_multichain_route():
    ground = GroundSet.of_size(4)
    orders = ((0, 1, 2, 3), (2, 0, 3, 1))
    direct = multichain_system(Multichain(ground, orders))
    via_join = join_of_systems(
        [initial_system_of_order(ground, r) for r in orders]
    )
    assert direct.closed_family() == via_join.closed_family()
