"""Join-dimension: chain covers, duality, and the brute-force oracle."""

import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_max_antichain, lattice_of_family, random_poset, system_of_family
from convexitylab import (
    CapacityError,
    GroundSet,
    InputError,
    boolean_lattice,
    brute_force_join_dimension,
    chain_lattice,
    embed_via_chain_covers,
    join_dimension,
    m3,
    meet_irreducibles,
    min_chain_cover,
    n5,
    verify_duality,
)
from convexitylab.dimension import ChainCover
from convexitylab.lattices import JoinSemilattice, as_lattice
from convexitylab.posets import FinitePoset


def test_meet_irreducibles_examples():
    chain = chain_lattice(4)
    assert set(meet_irreducibles(chain)) == {0, 1, 2}
    b3 = boolean_lattice(3)
    coatoms = {m for m in range(8) if bin(m).count("1") == 2}
    assert set(meet_irreducibles(b3)) == coatoms
    assert set(meet_irreducibles(m3())) == {1, 2, 3}


def test_min_chain_cover_antichain_and_chain():
    antichain = FinitePoset.antichain(4)
    cover = min_chain_cover(antichain, list(range(4)))
    assert cover.size == 4
    chain = FinitePoset.chain(5)
    assert min_chain_cover(chain, list(range(5))).size == 1


def test_min_chain_cover_properties_random():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(1, 11)
        poset = random_poset(rng, n)
        members = [e for e in range(n) if rng.random() < 0.8]
        cover = min_chain_cover(poset, members)
        # chains are chains, disjointly covering the subset
        seen = []
        for chain in cover.chains:
            seen.extend(chain)
            for a, b in zip(chain, chain[1:]):
                assert poset.leq(a, b)
        assert sorted(seen) == sorted(set(members))
        # duality against the independent antichain search
        assert cover.size == brute_force_max_antichain(poset, list(set(members)))
        assert set(cover.antichain) <= set(members)


def test_join_dimension_named_values():
    assert join_dimension(m3()) == 3
    for n in range(1, 6):
        assert join_dimension(chain_lattice(n)) == (1 if n > 1 else 0)
    for k in range(1, 4):
        assert join_dimension(boolean_lattice(k)) == k


def test_brute_force_join_dimension_named_values():
    assert brute_force_join_dimension(chain_lattice(4).to_join_semilattice()) == 1
    assert brute_force_join_dimension(m3().to_join_semilattice()) == 3
    assert brute_force_join_dimension(boolean_lattice(2).to_join_semilattice()) == 2
    assert brute_force_join_dimension(chain_lattice(1).to_join_semilattice()) == 0
    assert brute_force_join_dimension(n5().to_join_semilattice()) == join_dimension(n5())


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force_join_dimension(boolean_lattice(4).to_join_semilattice())


def test_m3_order_embedding_into_two_chains():
    # order dimension 2: the explicit two-chain order-embedding
    lattice = m3()
    first = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    second = {0: 0, 3: 1, 2: 2, 1: 3, 4: 4}
    for x in range(5):
        for y in range(5):
            componentwise = first[x] <= first[y] and second[x] <= second[y]
            assert componentwise == lattice.leq(x, y)
    # ...while no join-preserving embedding into two chains exists
    assert brute_force_join_dimension(m3().to_join_semilattice(), k_max=2) is None


def test_embed_via_chain_covers_chain():
    lattice = chain_lattice(4)
    cover = min_chain_cover(lattice, meet_irreducibles(lattice))
    embedding = embed_via_chain_covers(lattice, cover)
    assert len(embedding.chains) == 1
    assert embedding.verify_join_preserving(lattice)
    assert len(set(embedding.images)) == lattice.size


def test_embed_via_chain_covers_m3():
    lattice = m3()
    cover = min_chain_cover(lattice, meet_irreducibles(lattice))
    assert cover.size == 3
    embedding = embed_via_chain_covers(lattice, cover)
    assert embedding.verify_join_preserving(lattice)
    assert len(set(embedding.images)) == 5


def test_embed_via_chain_covers_boolean_two():
    lattice = boolean_lattice(2)
    coatom_chains = ChainCover(((1,), (2,)), (1, 2))
    embedding = embed_via_chain_covers(lattice, coatom_chains)
    assert all(len(chain) == 3 for chain in embedding.chains)
    assert embedding.verify_join_preserving(lattice)


def test_embed_via_chain_covers_rejects_partial_cover():
    lattice = m3()
    with pytest.raises(InputError, match="misses"):
        embed_via_chain_covers(lattice, ChainCover(((1,),), (1,)))


def test_verify_duality_examples():
    assert verify_duality(chain_lattice(4)).holds
    assert verify_duality(m3()).holds
    from convexitylab import interval_system

    assert verify_duality(as_lattice(interval_system(3).enumerate_closed_sets())).holds
    assert verify_duality(boolean_lattice(4)).holds
    assert verify_duality(boolean_lattice(6)).holds


def duality_by_superset_scan(lattice) -> bool:
    """Exhaustive oracle: the least chain-cover size over all meet-dense
    subsets equals the join-dimension.  Only supersets of the
    meet-irreducibles are scanned, as every meet-dense subset is one."""
    lat = as_lattice(lattice)
    mi = meet_irreducibles(lat)
    others = [x for x in range(lat.size) if x not in mi]
    best = None
    for extra_count in range(len(others) + 1):
        for extra in combinations(others, extra_count):
            members = tuple(sorted(mi + extra))
            if all(
                reduce(lat.meet, [a for a in members if lat.leq(x, a)], lat.top) == x
                for x in range(lat.size)
            ):
                size = min_chain_cover(lat, members).size
                best = size if best is None else min(best, size)
    return best == join_dimension(lat)


def test_verify_duality_matches_superset_scan_on_corpus(lattice_corpus):
    for lattice in lattice_corpus:
        assert verify_duality(lattice).holds == duality_by_superset_scan(lattice)


@st.composite
def closed_set_lattices(draw, max_size: int):
    """Closed-set lattices of intersection-closed families over a ground
    set of at most five elements, with at most ``max_size`` members."""
    n = draw(st.integers(1, 5))
    full = (1 << n) - 1
    family = {full} | draw(st.sets(st.integers(0, full), max_size=8))
    while any(a & b not in family for a in family for b in family):
        family |= {a & b for a in family for b in family}
    assume(len(family) <= max_size)
    return lattice_of_family(frozenset(family), n)


@given(lattice=closed_set_lattices(14))
def test_verify_duality_matches_superset_scan_on_random_lattices(lattice):
    assert verify_duality(lattice).holds == duality_by_superset_scan(lattice)


@given(lattice=closed_set_lattices(32))
def test_finite_lattices_are_spatial_and_meet_dense(lattice):
    """Each element is the join of the join-irreducibles below it and the
    meet of the meet-irreducibles above it, in the lattice and its dual:
    the theorems that let the characterization skip its spatial scan and
    ``verify_duality`` pass without one."""
    for lat in (lattice, lattice.dual()):
        ji, mi = lat.join_irreducibles(), lat.meet_irreducibles()
        for y in range(lat.size):
            assert reduce(lat.join, [j for j in ji if lat.leq(j, y)], lat.bottom) == y
            assert reduce(lat.meet, [m for m in mi if lat.leq(y, m)], lat.top) == y
        assert verify_duality(lat).holds


@st.composite
def union_closed_semilattices(draw):
    """Join-semilattices of union-closed families of one to ten subsets
    of a 4-set, drawn with a bottom (the empty set added) or without one
    (at least two minimal members)."""
    family = set(draw(st.sets(st.integers(0, 15), min_size=1, max_size=5)))
    while any(a | b not in family for a in family for b in family):
        family |= {a | b for a in family for b in family}
    if draw(st.booleans()):
        family.add(0)
    else:
        assume(not any(all(a & ~b == 0 for b in family) for a in family))
    assume(len(family) <= 10)
    masks = sorted(family)
    index = {m: i for i, m in enumerate(masks)}
    table = [[index[a | b] for b in masks] for a in masks]
    return JoinSemilattice.from_table([format(m, "04b") for m in masks], table)


@settings(max_examples=300)
@given(semilattice=union_closed_semilattices())
def test_semilattice_join_dimension_matches_brute_force(semilattice):
    assert join_dimension(semilattice) == brute_force_join_dimension(semilattice)


def test_join_dimension_matches_brute_force_small(lattice_corpus, families3):
    checked = 0
    for lattice in lattice_corpus:
        if lattice.size > 10:
            continue
        assert join_dimension(lattice) == brute_force_join_dimension(
            lattice.to_join_semilattice()
        )
        checked += 1
    assert checked >= 100
    # Closed-set lattices answer from their own covers, with no Lattice
    # built, and agree with the Lattice of the same closed sets.
    for fam in families3:
        closed = system_of_family(fam, 3).enumerate_closed_sets()
        answers = (join_dimension(closed), meet_irreducibles(closed))
        assert closed._lattice is None
        lattice = as_lattice(closed)
        assert answers == (join_dimension(lattice), meet_irreducibles(lattice))


def test_downset_product_identity_for_disjoint_chains():
    # Down-sets of a disjoint sum of two chains arise as the join of the
    # two concatenation orders, and the trace map onto the blocks is a
    # bijective order-isomorphism onto the product of the prefix
    # families.
    from convexitylab import Multichain, multichain_system

    chain_sizes = (2, 3)
    n = sum(chain_sizes)
    offsets = (0, 2)
    ground = GroundSet.of_size(n)
    # order A: block 0 first, then block 1;  order B the other way round
    order_a = tuple(range(n))
    order_b = tuple((i - chain_sizes[0]) % n for i in range(n))
    joined = multichain_system(Multichain(ground, (order_a, order_b)))
    closed = sorted(joined.closed_family())
    prefix_families = [
        [sum(1 << (off + i) for i in range(k)) for k in range(size + 1)]
        for off, size in zip(offsets, chain_sizes)
    ]
    assert len(closed) == (chain_sizes[0] + 1) * (chain_sizes[1] + 1)
    blocks = [
        sum(1 << (offsets[i] + j) for j in range(chain_sizes[i])) for i in (0, 1)
    ]
    images = {m: (m & blocks[0], m & blocks[1]) for m in closed}
    assert len(set(images.values())) == len(closed)
    assert set(images.values()) == {
        (p, q) for p in prefix_families[0] for q in prefix_families[1]
    }
    for a in closed:
        for b in closed:
            componentwise = all(x & ~y == 0 for x, y in zip(images[a], images[b]))
            assert componentwise == (a & ~b == 0)
