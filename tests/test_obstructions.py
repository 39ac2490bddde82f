"""Pattern semilattices and join-subsemilattice embedding search."""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_injections_embed
from convexitylab import (
    CapacityError,
    ClosureSystem,
    GroundSet,
    PointConfig,
    boolean_lattice,
    boolean_pattern,
    chain_lattice,
    compact_semilattice_of_geometry,
    embeds_as_join_subsemilattice,
    find_super_solvable_order,
    independent_sets,
    interval_chain_pattern,
    interval_system,
    max_convexly_independent,
    min_chain_cover,
    min_line_cover,
    obstruction_report,
    omega_prefix_pattern,
    subsemilattice_system,
)
from convexitylab import obstructions
from convexitylab.bitset import subsets
from convexitylab.dimension import brute_force_join_dimension
from convexitylab.lattices import JoinSemilattice
from convexitylab.obstructions import EmbeddingMap, Pattern, _embedding_search
from convexitylab.ordergen import bichain_from_permutation, multichain_system
from convexitylab.posets import FinitePoset


def bit_reversal_bichain(width: int):
    n = 1 << width
    sigma = [int(format(i, f"0{width}b")[::-1], 2) for i in range(n)]
    return bichain_from_permutation(sigma)


def scan_embedding(pattern, host) -> EmbeddingMap | None:
    """Oracle: the earlier search, which tries every host element for every
    branching pattern element against all assigned ones, along the same
    linear extension and in the same candidate order."""
    if pattern.size > host.size:
        return None
    n = pattern.size
    joins = [[pattern.join(i, j) for j in range(n)] for i in range(n)]
    depth = [sum(joins[j][i] == i for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (depth[i], i))
    witness_pair: dict[int, tuple[int, int]] = {}
    for k, e in enumerate(order):
        for a in order[:k]:
            for b in order[:k]:
                if a <= b and joins[a][b] == e:
                    witness_pair[e] = (a, b)
                    break
            if e in witness_pair:
                break
    assigned: dict[int, int] = {}

    def consistent(p: int, h: int) -> bool:
        if h in assigned.values():
            return False
        for q, hq in assigned.items():
            j = host.join(hq, h)
            if (joins[p][q] == q) != (j == hq) or (joins[q][p] == p) != (j == h):
                return False
        return True

    def search(k: int) -> EmbeddingMap | None:
        if k == n:
            candidate = EmbeddingMap(tuple(assigned[i] for i in range(n)))
            return candidate if candidate.verify(pattern, host) else None
        p = order[k]
        pair = witness_pair.get(p)
        options = (
            range(host.size) if pair is None
            else [host.join(assigned[pair[0]], assigned[pair[1]])]
        )
        for h in options:
            if consistent(p, h):
                assigned[p] = h
                found = search(k + 1)
                if found is not None:
                    return found
                del assigned[p]
        return None

    try:
        return search(0)
    finally:
        del search


def test_boolean_pattern_shapes():
    assert boolean_pattern(2).semilattice.size == 4
    b3 = boolean_pattern(3).semilattice
    assert b3.join(0b001, 0b010) == 0b011
    for n in (14, 25):  # 2**14 elements exceed the host bound of the search
        with pytest.raises(CapacityError, match="bound 13 derived from the host bound 10000"):
            boolean_pattern(n)


def test_interval_chain_pattern_shapes():
    p2 = interval_chain_pattern(2).semilattice
    assert p2.size == 4
    assert set(p2.labels) == {"{}", "[0,0]", "[1,1]", "[0,1]"}
    assert p2.labels[p2.join(p2.labels.index("[0,0]"), p2.labels.index("[1,1]"))] == "[0,1]"
    # interval_chain(n) has n(n + 1)/2 + 1 elements: 9,871 at 140, within
    # the host bound of 10,000, and 10,012 at 141
    assert interval_chain_pattern(140).semilattice.size == 9871
    message = "parameter 141 exceeds the bound 140 derived from the host bound 10000"
    with pytest.raises(CapacityError, match=message):
        interval_chain_pattern(141)


def test_embeds_boolean_one_anywhere_with_a_strict_pair():
    b1 = boolean_pattern(1).semilattice
    host = chain_lattice(2).to_join_semilattice()
    found = embeds_as_join_subsemilattice(b1, host)
    assert found is not None and found.verify(b1, host)


def test_omega_prefix_two_never_embeds_into_chains():
    pattern = omega_prefix_pattern(2).semilattice
    for length in range(1, 13):
        host = chain_lattice(length).to_join_semilattice()
        assert embeds_as_join_subsemilattice(pattern, host) is None


def test_omega_prefix_embeds_into_bit_reversal_host():
    pattern = omega_prefix_pattern(2).semilattice
    host = compact_semilattice_of_geometry(
        multichain_system(bit_reversal_bichain(3))
    )
    found = embeds_as_join_subsemilattice(pattern, host)
    assert found is not None and found.verify(pattern, host)
    assert found.assignment == (0, 1, 2, 6, 7, 8, 9)  # the least in search order


def test_search_reads_host_order_from_join_rows(monkeypatch):
    """A host taken from a closed-set lattice reads its order from the
    lattice's containment rows, at no join; a forced image costs one join
    when its pair is placed; the pattern's join table is read once, and a
    hit re-verifies all pattern pairs."""
    calls: Counter = Counter()
    original = JoinSemilattice.join

    def counted(self, i, j):
        calls[self] += 1
        return original(self, i, j)

    monkeypatch.setattr(JoinSemilattice, "join", counted)
    host = compact_semilattice_of_geometry(interval_system(7))
    assert host.size == 29
    miss = boolean_pattern(3).semilattice
    assert embeds_as_join_subsemilattice(miss, host) is None
    assert (calls[miss], calls[host]) == (8 * 8, 1382)
    calls.clear()
    hit = boolean_pattern(2).semilattice
    assert embeds_as_join_subsemilattice(hit, host).assignment == (0, 1, 2, 3)
    assert (calls[hit], calls[host]) == (2 * 4 * 4, 1 + 4 * 4)


def test_search_leaves_no_cyclic_garbage():
    pattern = omega_prefix_pattern(2).semilattice
    host = compact_semilattice_of_geometry(multichain_system(bit_reversal_bichain(3)))
    gc.collect()
    gc.disable()
    try:
        assert embeds_as_join_subsemilattice(pattern, host) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_matches_exhaustive_oracle_on_small_pairs():
    cases = [
        (boolean_pattern(1).semilattice, chain_lattice(3).to_join_semilattice()),
        (boolean_pattern(2).semilattice, chain_lattice(4).to_join_semilattice()),
        (boolean_pattern(2).semilattice, boolean_lattice(2).to_join_semilattice()),
        (
            interval_chain_pattern(2).semilattice,
            boolean_lattice(2).to_join_semilattice(),
        ),
        (
            omega_prefix_pattern(1).semilattice,
            chain_lattice(4).to_join_semilattice(),
        ),
        (
            boolean_pattern(2).semilattice,
            compact_semilattice_of_geometry(interval_system(3)),
        ),
    ]
    for pattern, host in cases:
        found = embeds_as_join_subsemilattice(pattern, host)
        assert (found is not None) == all_injections_embed(pattern, host)
        if found is not None:
            assert found.verify(pattern, host)


def longest_chain(semilattice) -> int:
    n = semilattice.size
    best = {i: 1 for i in range(n)}
    order = sorted(
        range(n), key=lambda i: sum(1 for j in range(n) if semilattice.leq(j, i))
    )
    for i in order:
        for j in order:
            if i != j and semilattice.leq(j, i):
                best[i] = max(best[i], best[j] + 1)
    return max(best.values())


def boolean_embeds_oracle(host, k: int) -> bool:
    """Independent criterion: boolean(k) embeds iff some k host elements
    have pairwise-distinct subset-joins and admit a strictly smaller
    bottom image."""
    from itertools import combinations

    n = host.size
    for atoms in combinations(range(n), k):
        joins = {}
        ok = True
        for sub in range(1, 1 << k):
            value = None
            for pos in range(k):
                if sub >> pos & 1:
                    value = atoms[pos] if value is None else host.join(value, atoms[pos])
            if value in joins.values():
                ok = False
                break
            joins[sub] = value
        if not ok:
            continue
        taken = set(joins.values())
        for bottom in range(n):
            if bottom in taken:
                continue
            if all(host.leq(bottom, a) for a in atoms):
                return True
    return False


def test_omega_two_against_boolean_three_matches_height_bound():
    pattern = omega_prefix_pattern(2).semilattice
    host = boolean_lattice(3).to_join_semilattice()
    found = embeds_as_join_subsemilattice(pattern, host)
    assert found is None
    # independent explanation: an order-embedding cannot shorten chains
    assert longest_chain(pattern) > longest_chain(host)


def test_embedding_map_verification_rejects_bad_maps():
    b1 = boolean_pattern(1).semilattice
    host = chain_lattice(3).to_join_semilattice()
    assert not EmbeddingMap((0, 0)).verify(b1, host)
    assert not EmbeddingMap((2, 0)).verify(b1, host)  # order-reversing


def test_independent_sets_examples():
    powerset = ClosureSystem.from_closed_family(GroundSet.of_size(4), range(16))
    assert independent_sets(powerset)[0] == 4
    for n in (2, 3, 5):
        assert independent_sets(interval_system(n))[0] == min(n, 2)
    bottomed = FinitePoset.from_covers(
        ("0", "a", "b", "c"), [(0, 1), (0, 2), (0, 3)]
    )
    size, witness = independent_sets(subsemilattice_system(bottomed))
    assert size == 3
    assert 0 not in witness  # the antichain, not the bottom


def test_independent_witness_gives_boolean_order_embedding():
    for system in (
        interval_system(4),
        subsemilattice_system(
            FinitePoset.from_covers(("0", "a", "b", "c"), [(0, 1), (0, 2), (0, 3)])
        ),
    ):
        size, witness = independent_sets(system)
        witness_mask = 0
        for e in witness:
            witness_mask |= 1 << e
        images = {sub: system.close(sub) for sub in subsets(witness_mask)}
        for a in subsets(witness_mask):
            for b in subsets(witness_mask):
                assert (a & ~b == 0) == (images[a] & ~images[b] == 0)


def test_obstruction_report_chain_host():
    host = chain_lattice(5).to_join_semilattice()
    report = obstruction_report(host, max_boolean=2, max_omega=2)
    assert report.boolean_embeds == {1: True, 2: False}
    assert report.omega_embeds == {1: True, 2: False}


def test_obstruction_report_interval_host():
    host = compact_semilattice_of_geometry(interval_system(5))
    report = obstruction_report(host, max_boolean=3, max_omega=0)
    assert report.boolean_embeds[2] is True
    assert report.boolean_embeds[2] is boolean_embeds_oracle(host, 2)
    assert report.boolean_embeds[3] is boolean_embeds_oracle(host, 3)
    assert report.boolean_embeds[3] is False


def test_obstruction_report_monotone_keys():
    host = boolean_lattice(2).to_join_semilattice()
    report = obstruction_report(host, max_boolean=3, max_omega=1)
    assert report.boolean_embeds == {1: True, 2: True, 3: False}
    assert report.omega_embeds == {1: True}
    assert "boolean(2)" in report.embeddings


def test_pattern_capacity_checks(monkeypatch):
    """Patterns of up to 32 elements are searched; boolean(5) has 32,
    boolean(6) 64.  ``obstruction_report`` refuses a larger maximum
    before its first search."""
    big_host = boolean_pattern(2).semilattice
    assert embeds_as_join_subsemilattice(boolean_pattern(5).semilattice, big_host) is None
    with pytest.raises(CapacityError, match="bound 32"):
        embeds_as_join_subsemilattice(boolean_pattern(6).semilattice, big_host)
    searched = []
    monkeypatch.setattr(
        obstructions, "embeds_as_join_subsemilattice", lambda p, h: searched.append(p.size)
    )
    for max_boolean, max_omega, message in (
        (6, 0, "boolean=6: parameter 6 exceeds the bound 5 derived from the pattern bound 32"),
        (99, 1, "boolean=99"),
        (2, 5, "omega=5: parameter 5 exceeds the bound 4 derived from the pattern bound 32"),
    ):
        with pytest.raises(CapacityError, match=message):
            obstruction_report(big_host, max_boolean, max_omega)
    assert searched == []


def test_omega_prefix_four_fits_the_pattern_bound():
    pattern = omega_prefix_pattern(4).semilattice
    assert pattern.size == 31
    host = compact_semilattice_of_geometry(interval_system(8))
    assert host.size == 37
    assert _embedding_search(pattern, host) == (None, 1)


def relabeled(host, perm) -> JoinSemilattice:
    """The same semilattice with element i renamed perm[i]."""
    inverse = sorted(range(host.size), key=perm.__getitem__)
    labels = [host.labels[i] for i in inverse]
    return JoinSemilattice(labels, lambda a, b: perm[host.join(inverse[a], inverse[b])])


def small_hosts():
    """Compact semilattices of random bichain and interval geometries, as
    built (ids ascend along the order) or with their ids shuffled."""
    bichains = st.integers(2, 6).flatmap(lambda n: st.permutations(range(n))).map(
        lambda perm: multichain_system(bichain_from_permutation(perm))
    )
    intervals = st.integers(1, 6).map(interval_system)
    return st.one_of(bichains, intervals).map(compact_semilattice_of_geometry).flatmap(
        lambda host: st.one_of(
            st.just(host),
            st.permutations(range(host.size)).map(lambda perm: relabeled(host, perm)),
        )
    )


def nonempty_boolean_pattern(k: int) -> Pattern:
    """The nonempty subsets of a k-set under union: a pattern with no bottom."""
    labels = [str(m) for m in range(1, 1 << k)]
    return Pattern("nonempty", JoinSemilattice(labels, lambda i, j: ((i + 1) | (j + 1)) - 1))


PATTERNS = {
    "boolean": boolean_pattern,
    "interval_chain": interval_chain_pattern,
    "omega_prefix": omega_prefix_pattern,
    "nonempty_boolean": nonempty_boolean_pattern,
}


@settings(max_examples=150)
@given(
    host=small_hosts(),
    kind=st.sampled_from(sorted(PATTERNS)),
    parameter=st.integers(1, 3),
)
def test_domain_search_matches_scan_oracle(host, kind, parameter):
    """The same least embedding, or the same miss, as the earlier search."""
    pattern = PATTERNS[kind](parameter).semilattice
    found = embeds_as_join_subsemilattice(pattern, host)
    expected = scan_embedding(pattern, host)
    assert (None if found is None else found.assignment) == (
        None if expected is None else expected.assignment
    )


@pytest.mark.parametrize(
    "pattern, host, nodes",
    [
        (lambda: boolean_pattern(3), lambda: interval_system(7), 1056),
        (lambda: omega_prefix_pattern(3), lambda: interval_system(7), 25),
        (
            lambda: boolean_pattern(3),
            lambda: multichain_system(bit_reversal_bichain(4)),
            4033,
        ),
    ],
    ids=["boolean3-interval7", "omega3-interval7", "boolean3-bitreversal16"],
)
def test_search_node_counts_of_misses(pattern, host, nodes):
    """Host elements assigned before a miss is proved: a change in the
    search's pruning shows here even when wall time is noisy."""
    semilattice = compact_semilattice_of_geometry(host())
    assert _embedding_search(pattern().semilattice, semilattice) == (None, nodes)


def _points():
    return PointConfig.from_coords(2, [(0, 0), (4, 0), (0, 4), (4, 4), (1, 2), (2, 2), (3, 2)])


@pytest.mark.parametrize(
    "run",
    [
        lambda: independent_sets(interval_system(5)),
        lambda: max_convexly_independent(_points()),
        lambda: min_line_cover(_points()),
        lambda: min_chain_cover(boolean_lattice(3), range(8)),
        lambda: find_super_solvable_order(interval_system(4)),
        lambda: brute_force_join_dimension(boolean_lattice(2), 3),
    ],
    ids=[
        "independent_sets",
        "max_convexly_independent",
        "min_line_cover",
        "max_matching",
        "super_solvable_order",
        "brute_force_join_dimension",
    ],
)
def test_recursive_searches_leave_no_cyclic_garbage(run):
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
