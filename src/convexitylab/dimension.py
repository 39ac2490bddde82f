"""Join-dimension of finite lattices and join-semilattices.

The join-dimension, the least count of chains whose product admits a
join-preserving embedding, is the width of the meet-irreducible
elements, which for a convex geometry is its convex dimension (Edelman
and Saks 1988).  It is computed as a minimum chain cover of them
(Dilworth via bipartite matching); the embedding itself is
materialized by retracting onto maximal chains.  The duality of that
width with the least chain cover over meet-dense sets holds in every
finite lattice, so ``verify_duality`` passes without a scan.

An independent brute-force oracle searches directly for the least k
such that k chain retractions separate all element pairs, which is
equivalent to the existence of a join-preserving embedding into a
product of k chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Protocol

from .closure import ClosedSetLattice
from .config import check_limit
from .errors import InputError, InternalError
from .geometry import Verdict
from .lattices import JoinSemilattice, Lattice, as_lattice


class PosetLike(Protocol):
    @property
    def size(self) -> int: ...

    def leq(self, i: int, j: int) -> bool: ...


@dataclass(frozen=True)
class ChainCover:
    """Chains covering a target subset, with a matching antichain witness."""

    chains: tuple[tuple[int, ...], ...]
    antichain: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.chains)


def _max_matching(adjacency: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Kuhn's augmenting-path maximum bipartite matching."""
    match_left = [-1] * len(adjacency)
    match_right = [-1] * n_right

    def augment(u: int, visited: set[int]) -> bool:
        for v in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            if match_right[v] == -1 or augment(match_right[v], visited):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    try:
        for u in range(len(adjacency)):
            augment(u, set())
    finally:
        del augment  # it refers to itself; dropping it frees the cycle now
    return match_left, match_right


def min_chain_cover(poset: PosetLike, subset: tuple[int, ...] | list[int]) -> ChainCover:
    """Minimum chain cover of the induced subposet (Dilworth via matching).

    The antichain extracted from the matching's vertex cover is checked
    to be an antichain of exactly the cover size.
    """
    members = sorted(set(subset))
    for e in members:
        if not 0 <= e < poset.size:
            raise InputError("subset references elements outside the poset")
    n = len(members)
    if n == 0:
        return ChainCover((), ())
    adjacency = [
        [j for j in range(n) if i != j and poset.leq(members[i], members[j])]
        for i in range(n)
    ]
    match_left, match_right = _max_matching(adjacency, n)
    matched = sum(1 for v in match_left if v != -1)

    chains = []
    heads = [u for u in range(n) if match_right[u] == -1]
    for head in heads:
        chain = [head]
        while match_left[chain[-1]] != -1:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(members[i] for i in chain))

    # Koenig: alternating reachability from unmatched left vertices.
    reach_left = set()
    reach_right = set()
    frontier = [u for u in range(n) if match_left[u] == -1]
    while frontier:
        u = frontier.pop()
        if u in reach_left:
            continue
        reach_left.add(u)
        for v in adjacency[u]:
            if v in reach_right:
                continue
            reach_right.add(v)
            if match_right[v] != -1:
                frontier.append(match_right[v])
    antichain = tuple(
        members[u] for u in range(n) if u in reach_left and u not in reach_right
    )
    if len(antichain) != len(chains) or len(chains) != n - matched:
        raise InternalError("matching duality failed to balance")
    for a, b in combinations(antichain, 2):
        if poset.leq(a, b) or poset.leq(b, a):
            raise InternalError("extracted witness is not an antichain")
    return ChainCover(tuple(chains), antichain)


def meet_irreducibles(order: Lattice | ClosedSetLattice | JoinSemilattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover (top excluded): the order's own
    ``meet_irreducibles()``, kept public for callers such as the benchmark."""
    return order.meet_irreducibles()


def join_dimension(order: Lattice | ClosedSetLattice | JoinSemilattice) -> int:
    """Size of a minimum chain cover of the meet-irreducibles."""
    return min_chain_cover(order, order.meet_irreducibles()).size


@dataclass(frozen=True)
class ChainProductEmbedding:
    """The map x -> (least chain element above x) per maximal chain."""

    chains: tuple[tuple[int, ...], ...]
    images: tuple[tuple[int, ...], ...]

    def verify_join_preserving(self, lattice: Lattice) -> bool:
        n = lattice.size
        positions = [
            {e: k for k, e in enumerate(chain)} for chain in self.chains
        ]
        for x in range(n):
            for y in range(n):
                xy = lattice.join(x, y)
                for c, pos in enumerate(positions):
                    expected = max(
                        (pos[self.images[x][c]], pos[self.images[y][c]]),
                    )
                    if pos[self.images[xy][c]] != expected:
                        return False
        return True


def _extend_to_maximal_chain(lat: Lattice, chain: tuple[int, ...]) -> tuple[int, ...]:
    """Insert the least insertable element repeatedly until maximal."""
    def height(e: int) -> int:
        return lat.down(e).bit_count()

    members = sorted(chain, key=height)
    while True:
        inserted = False
        for z in range(lat.size):
            if z in members:
                continue
            if all(lat.leq(z, c) or lat.leq(c, z) for c in members):
                members.append(z)
                members.sort(key=height)
                inserted = True
                break
        if not inserted:
            return tuple(members)


def embed_via_chain_covers(
    lattice: Lattice | ClosedSetLattice, cover: ChainCover
) -> ChainProductEmbedding:
    """Join-preserving embedding into the product of the extended chains."""
    lat = as_lattice(lattice)
    covered = {e for chain in cover.chains for e in chain}
    missing = [m for m in lat.meet_irreducibles() if m not in covered]
    if missing:
        raise InputError(
            f"cover misses meet-irreducible elements: {[lat.labels[m] for m in missing]}"
        )
    maximal = tuple(_extend_to_maximal_chain(lat, chain) for chain in cover.chains)
    if not maximal:
        maximal = (_extend_to_maximal_chain(lat, (lat.top,)),)
    images = []
    for x in range(lat.size):
        row = []
        for chain in maximal:
            above = [e for e in chain if lat.leq(x, e)]
            row.append(above[0])  # chains are sorted upward
        images.append(tuple(row))
    if len(set(images)) != lat.size:
        raise InternalError("chain retraction product failed to separate elements")
    return ChainProductEmbedding(maximal, tuple(images))


def verify_duality(lattice: Lattice | ClosedSetLattice) -> Verdict:
    """Min over meet-dense subsets of their chain-cover size equals the
    join-dimension.  It holds in every finite lattice.

    Every meet-dense subset contains the meet-irreducibles (an element
    with one upper cover is no meet of larger ones), and chain-cover
    size grows with the set, so the minimum is the join-dimension when
    the meet-irreducibles are meet-dense: each element is the meet of
    those above it.  They always are, by induction on depth: the top is
    the empty meet, and an element with two upper covers a and b, each
    the meet of the meet-irreducibles above it, is a ^ b.
    """
    return Verdict(True)


def _all_chains_with_top(host: PosetLike, top: int) -> list[tuple[int, ...]]:
    n = host.size
    others = [e for e in range(n) if e != top]
    chains = []
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            ok = all(
                host.leq(a, b) or host.leq(b, a) for a, b in combinations(combo, 2)
            )
            if ok:
                chains.append(tuple(combo) + (top,))
    return chains


def brute_force_join_dimension(host: PosetLike, k_max: int = 4) -> int | None:
    """Least k <= k_max with a join-preserving embedding into k chains.

    Exhaustive: every chain through the top element induces a
    join-preserving retraction, and an embedding into k chains exists
    iff k retractions separate all pairs; the search minimizes over all
    retraction families.
    """
    n = host.size
    check_limit("semilattice size", n, "oracle")
    check_limit("k_max", k_max, "oracle-chains")
    if n == 1:
        return 0
    top = next(
        t for t in range(n) if all(host.leq(i, t) for i in range(n))
    )
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    separation_sets = set()
    for chain in _all_chains_with_top(host, top):
        retract = []
        for x in range(n):
            above = [e for e in chain if host.leq(x, e)]
            least = above[0]
            for e in above[1:]:
                if host.leq(e, least):
                    least = e
            retract.append(least)
        mask = 0
        for (x, y), idx in pair_index.items():
            if retract[x] != retract[y]:
                mask |= 1 << idx
        separation_sets.add(mask)
    maximal_sets = [
        m
        for m in separation_sets
        if not any(other != m and m & ~other == 0 for other in separation_sets)
    ]
    candidates = sorted(maximal_sets, key=lambda m: (-m.bit_count(), m))
    full = (1 << len(pairs)) - 1
    memo: dict[tuple[int, int], bool] = {}

    def coverable(uncovered: int, k_left: int) -> bool:
        if uncovered == 0:
            return True
        if k_left == 0:
            return False
        key = (uncovered, k_left)
        hit = memo.get(key)
        if hit is not None:
            return hit
        target = uncovered & -uncovered
        result = any(
            m & target and coverable(uncovered & ~m, k_left - 1) for m in candidates
        )
        memo[key] = result
        return result

    try:
        for k in range(0, k_max + 1):
            if coverable(full, k):
                return k
        return None
    finally:
        del coverable  # it refers to itself; dropping it frees the cycle now
