"""The order core against the scans it replaced: poset meets read from
the bound table, order rows that a lattice hands to its semilattice,
and the O(n^2) join-table check."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_intersection_closed_family, random_poset, system_of_family
from convexitylab import InputError, JoinSemilattice, compact_semilattice_of_geometry
from convexitylab.posets import FinitePoset

# ------------------------------------------------------------ meets


def meet_scan(poset, i, j):
    """Greatest common lower bound by scanning every element, or None."""
    common = [k for k in range(poset.size) if poset.leq(k, i) and poset.leq(k, j)]
    greatest = [k for k in common if all(poset.leq(other, k) for other in common)]
    return greatest[0] if greatest else None


def meet_defect_scan(poset):
    for i in range(poset.size):
        for j in range(i + 1, poset.size):
            if meet_scan(poset, i, j) is None:
                return (i, j)
    return None


def relabeled(poset, perm):
    """The same order with element i renamed perm[i]."""
    up = [0] * poset.size
    for i, row in enumerate(poset.up):
        for j in range(poset.size):
            if row >> j & 1:
                up[perm[i]] |= 1 << perm[j]
    return FinitePoset(tuple(str(k) for k in range(poset.size)), tuple(up))


def assert_meets_match_scan(poset):
    for i, j in product(range(poset.size), repeat=2):
        assert poset.meet_of(i, j) == meet_scan(poset, i, j)
    assert poset.meet_semilattice_defect() == meet_defect_scan(poset)


def test_meets_match_scan_on_all_posets_of_four(posets4):
    for poset in posets4:
        assert_meets_match_scan(poset)


@given(
    n=st.integers(1, 9),
    density=st.sampled_from([0.15, 0.3, 0.5, 0.8]),
    rng=st.randoms(use_true_random=False),
)
def test_meets_match_scan_on_random_posets(n, density, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    assert_meets_match_scan(relabeled(random_poset(rng, n, density), perm))


# ------------------------------------------------------- order rows


def rows_from_joins(semilattice):
    """The order rows that ``order_rows`` works out from joins alone."""
    return JoinSemilattice(semilattice.labels, semilattice.join).order_rows()


def test_lattice_rows_match_rows_from_joins(lattice_corpus):
    for lattice in lattice_corpus:
        semilattice = lattice.to_join_semilattice()
        assert semilattice.order_rows() == rows_from_joins(semilattice)
        dual = lattice.dual().to_join_semilattice()
        assert dual.order_rows() == rows_from_joins(dual)


@given(n=st.integers(2, 6), rng=st.randoms(use_true_random=False))
def test_compact_semilattice_rows_match_rows_from_joins(n, rng):
    host = compact_semilattice_of_geometry(
        system_of_family(random_intersection_closed_family(rng, n), n)
    )
    assert host.order_rows() == rows_from_joins(host)
    assert JoinSemilattice.from_table(host.labels, host.join_table()).order_rows() == (
        host.order_rows()
    )


# ------------------------------------------------------ table check


def cubic_check(table) -> bool:
    """Idempotence, commutativity and associativity, every triple read."""
    n = len(table)
    return (
        all(table[i][i] == i for i in range(n))
        and all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
        and all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
    )


def passes_table_check(table) -> bool:
    labels = tuple(f"e{i}" for i in range(len(table)))
    try:
        JoinSemilattice.from_table(labels, table)
    except InputError:
        accepted = False
    else:
        accepted = True
    try:
        JoinSemilattice(labels, lambda i, j: table[i][j]).validate()
    except InputError:
        assert not accepted
    else:
        assert accepted
    return accepted


def test_table_check_matches_cubic_check_on_all_tables_up_to_three():
    for n in (1, 2, 3):
        for flat in product(range(n), repeat=n * n):
            table = [flat[i * n : (i + 1) * n] for i in range(n)]
            assert passes_table_check(table) == cubic_check(table)


def union_table(rng):
    """Join table of the union closure of a few random subsets of a
    3-set, relabeled at random."""
    members = set(rng.sample(range(8), rng.randrange(1, 4)))
    for _ in range(2):
        members |= {a | b for a in members for b in members}
    order = sorted(members)
    rng.shuffle(order)
    index = {m: k for k, m in enumerate(order)}
    return [[index[a | b] for b in order] for a in order]


@given(
    n=st.integers(4, 5),
    kind=st.sampled_from(["symmetric", "semilattice", "perturbed"]),
    rng=st.randoms(use_true_random=False),
)
def test_table_check_matches_cubic_check_on_random_tables(n, kind, rng):
    if kind == "symmetric":  # idempotent and commutative, otherwise random
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = i
            for j in range(i + 1, n):
                table[i][j] = table[j][i] = rng.randrange(n)
    else:
        table = union_table(rng)
        if kind == "perturbed":
            m = len(table)
            i, j, v = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            table[i][j] = v
            if rng.random() < 0.5:
                table[j][i] = v
    assert passes_table_check(table) == cubic_check(table)


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [0, 1]], "join not commutative at a and b"),
        ([[1, 1], [1, 1]], "join not idempotent at a"),
        ([[0, 2, 2], [2, 1, 2], [2, 2, 2]], None),
        ([[0, 2, 1], [2, 1, 2], [1, 2, 2]], "join of a and b is not their least upper bound"),
        ([[0, "x"], ["x", 1]], "join table entry 'x' is not an element id 0..1"),
        ([[0, True], [True, 1]], "join table entry True is not an element id 0..1"),
        ([[0, 1]], "join table shape must match the element count"),
    ],
)
def test_table_check_names_the_first_failing_pair(table, message):
    labels = ("a", "b", "c")[: len(table[0])]
    if message is None:
        assert JoinSemilattice.from_table(labels, table).order_rows()[0] == (0b101, 0b110, 0b100)
    else:
        with pytest.raises(InputError, match=f"^{message}$"):
            JoinSemilattice.from_table(labels, table)
