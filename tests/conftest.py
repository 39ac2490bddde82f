"""Shared fixtures: exhaustive family sweeps, poset enumeration, the
small-lattice corpus, and independent oracle implementations used to
cross-check library results."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import settings

from convexitylab import (
    ClosureSystem,
    GroundSet,
    Lattice,
    as_lattice,
    boolean_lattice,
    chain_lattice,
    m3,
    n5,
)
from convexitylab.posets import FinitePoset

# Property tests draw the same examples on every run and machine, keep
# no example database, and have no per-example deadline (exact-arithmetic
# oracles are slow on a loaded machine).
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

# ---------------------------------------------------------------- families


def intersection_closed_families(n: int) -> list[frozenset[int]]:
    """All families over an n-set containing the full set and the empty
    set and closed under pairwise intersection."""
    fullmask = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, fullmask)]
    out = []
    for counter in range(1 << len(middles)):
        fam = {0, fullmask}
        for pos, m in enumerate(middles):
            if counter >> pos & 1:
                fam.add(m)
        lst = sorted(fam)
        ok = True
        for i, a in enumerate(lst):
            for b in lst[i + 1 :]:
                if a & b not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(fam))
    return out


def random_intersection_closed_family(rng: random.Random, n: int) -> frozenset[int]:
    fullmask = (1 << n) - 1
    seeds = {0, fullmask}
    for _ in range(rng.randrange(1, 2 * n + 2)):
        seeds.add(rng.randrange(1 << n))
    fam = set(seeds)
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                if a & b not in fam:
                    fam.add(a & b)
                    changed = True
    return frozenset(fam)


def system_of_family(family: frozenset[int], n: int) -> ClosureSystem:
    return ClosureSystem.from_closed_family(GroundSet.of_size(n), family)


@pytest.fixture(scope="session")
def families3() -> list[frozenset[int]]:
    return intersection_closed_families(3)


@pytest.fixture(scope="session")
def families4() -> list[frozenset[int]]:
    return intersection_closed_families(4)


# ------------------------------------------------------------------ posets


def labeled_posets(n: int) -> list[FinitePoset]:
    """All partial orders on n labeled elements.

    Each unordered pair is incomparable, <, or >; transitivity is
    checked on the resulting relation.
    """
    labels = tuple(str(i) for i in range(n))
    if n == 0:
        return []
    pairs = list(combinations(range(n), 2))
    out = []
    for counter in range(3 ** len(pairs)):
        rows = [1 << i for i in range(n)]
        c = counter
        for a, b in pairs:
            state = c % 3
            c //= 3
            if state == 1:
                rows[a] |= 1 << b
            elif state == 2:
                rows[b] |= 1 << a
        ok = True
        for i in range(n):
            reach = rows[i]
            for j in range(n):
                if reach >> j & 1 and rows[j] & ~reach:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(FinitePoset(labels, tuple(rows)))
    return out


def random_poset(rng: random.Random, n: int, density: float = 0.3) -> FinitePoset:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
    # transitive closure
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return FinitePoset(tuple(str(i) for i in range(n)), tuple(rows))


@pytest.fixture(scope="session")
def posets4() -> list[FinitePoset]:
    return labeled_posets(4)


# ------------------------------------------------------------------ corpus


def lattice_of_family(family: frozenset[int], n: int) -> Lattice:
    return as_lattice(system_of_family(family, n).enumerate_closed_sets())


@pytest.fixture(scope="session")
def lattice_corpus(families3, families4) -> list[Lattice]:
    """Named lattices plus closed-set lattices of the family sweeps,
    capped at 12 elements; deterministic and at least 250 strong."""
    corpus: list[Lattice] = [
        chain_lattice(1),
        chain_lattice(2),
        chain_lattice(3),
        chain_lattice(4),
        chain_lattice(5),
        boolean_lattice(1),
        boolean_lattice(2),
        boolean_lattice(3),
        m3(),
        n5(),
    ]
    for fam in families3:
        corpus.append(lattice_of_family(fam, 3))
    small4 = [fam for fam in families4 if len(fam) <= 12]
    for fam in small4[::7]:
        corpus.append(lattice_of_family(fam, 4))
    return corpus


# ----------------------------------------------------------------- oracles


def brute_force_max_antichain(poset_like, members: list[int]) -> int:
    """Largest antichain by branch and bound over the comparability graph."""
    items = sorted(members)

    def grow(start: int, chosen: list[int], best: int) -> int:
        if len(chosen) + (len(items) - start) <= best:
            return best
        best = max(best, len(chosen))
        for k in range(start, len(items)):
            e = items[k]
            if all(
                not poset_like.leq(e, o) and not poset_like.leq(o, e) for o in chosen
            ):
                best = grow(k + 1, chosen + [e], best)
        return best

    return grow(0, [], 0)


def count_maximal_chains_dfs(lattice) -> int:
    """Path count over the Hasse diagram, independent of maximal_chains."""
    covers = lattice.covers()
    ups: dict[int, list[int]] = {}
    for a, b in covers:
        ups.setdefault(a, []).append(b)

    def count(node: int) -> int:
        nxt = ups.get(node, [])
        if not nxt:
            return 1
        return sum(count(j) for j in nxt)

    return count(lattice.bottom)


def join_closure_of_pairs(
    seed_pairs: set[tuple[int, int]],
    join_pair,
) -> set[tuple[int, int]]:
    """Fixpoint closure of a pair set under a componentwise join."""
    out = set(seed_pairs)
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                j = join_pair(a, b)
                if j not in out:
                    out.add(j)
                    changed = True
    return out


def all_injections_embed(pattern, host) -> bool:
    """Tiny exhaustive oracle: try every injective assignment."""
    n, m = pattern.size, host.size
    if n > m:
        return False
    for image in permutations(range(m), n):
        ok = True
        for i in range(n):
            for j in range(n):
                if host.join(image[i], image[j]) != image[pattern.join(i, j)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def is_order_isomorphism(source, target, mapping: dict[int, int]) -> bool:
    keys = sorted(mapping)
    if len(set(mapping.values())) != len(keys):
        return False
    for a in keys:
        for b in keys:
            if source.leq(a, b) != target.leq(mapping[a], mapping[b]):
                return False
    return True


def lattices_order_isomorphic(one, two) -> bool:
    """Backtracking order-isomorphism test between small lattices."""
    if one.size != two.size:
        return False
    n = one.size
    down_one = [sum(1 for j in range(n) if one.leq(j, i)) for i in range(n)]
    up_one = [sum(1 for j in range(n) if one.leq(i, j)) for i in range(n)]
    down_two = [sum(1 for j in range(n) if two.leq(j, i)) for i in range(n)]
    up_two = [sum(1 for j in range(n) if two.leq(i, j)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (down_one[i], i))
    assignment: dict[int, int] = {}
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        a = order[k]
        for b in range(n):
            if used[b]:
                continue
            if (down_one[a], up_one[a]) != (down_two[b], up_two[b]):
                continue
            if any(
                one.leq(a, q) != two.leq(b, assignment[q])
                or one.leq(q, a) != two.leq(assignment[q], b)
                for q in assignment
            ):
                continue
            assignment[a] = b
            used[b] = True
            if place(k + 1):
                return True
            del assignment[a]
            used[b] = False
        return False

    return place(0)
