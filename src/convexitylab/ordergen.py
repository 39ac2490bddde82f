"""Generators for order-theoretic closure systems and semilattices.

Covers the systems built from chains and orders: intervals, initial and
final segments, joins of initial-segment systems over several linear
orders (multichains), bichains obtained from permutations, the
join-semilattice generated by the diagonal of a bichain, depth-limited
prefixes of the omega-by-dyadics obstruction semilattice, and the
meet-subsemilattice and suborder systems of a finite poset.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .bitset import bits
from .closure import ClosureSystem, GroundSet, join_of_systems
from .config import check_limit
from .errors import InputError
from .lattices import JoinSemilattice
from .posets import FinitePoset, down_rows


def _chain_ground(n: int) -> GroundSet:
    if n < 1:
        raise InputError("chain length must be at least 1")
    return GroundSet.of_size(n)


def interval_system(n: int) -> ClosureSystem:
    """Closed sets are the intervals of the n-chain (including the empty one)."""
    ground = _chain_ground(n)
    family = {0}
    for i in range(n):
        for j in range(i, n):
            family.add(((1 << (j + 1)) - 1) & ~((1 << i) - 1))
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def initial_system(n: int) -> ClosureSystem:
    """Closed sets are the down-sets (prefixes) of the n-chain."""
    ground = _chain_ground(n)
    family = {(1 << i) - 1 for i in range(n + 1)}
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def final_system(n: int) -> ClosureSystem:
    """Closed sets are the up-sets (suffixes) of the n-chain."""
    ground = _chain_ground(n)
    full = (1 << n) - 1
    family = {full & ~((1 << i) - 1) for i in range(n + 1)}
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def interval_factorization(
    n: int,
) -> tuple[Callable[[int], tuple[int, int]], Callable[[int, int], int]]:
    """The pair f(A) = (down-set of A, up-set of A) and g(I, J) = I & J.

    f embeds the interval system into the product of the initial- and
    final-segment systems; g is an order-preserving left inverse that
    is onto the intervals.
    """
    if n < 1:
        raise InputError("chain length must be at least 1")
    full = (1 << n) - 1

    def f(interval: int) -> tuple[int, int]:
        if interval & ~full:
            raise InputError("interval uses element ids outside the chain")
        if interval == 0:
            return (0, 0)
        hi = interval.bit_length() - 1
        lo = (interval & -interval).bit_length() - 1
        if interval != ((1 << (hi + 1)) - 1) & ~((1 << lo) - 1):
            raise InputError("subset is not an interval of the chain")
        down = (1 << (hi + 1)) - 1
        up = full & ~((1 << lo) - 1)
        return (down, up)

    def g(initial: int, final: int) -> int:
        return initial & final

    return f, g


@dataclass(frozen=True)
class Multichain:
    """Ground set with k linear orders, each given as a rank vector."""

    ground: GroundSet
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise InputError("a multichain needs at least one order")
        n = self.ground.size
        for rank in self.orders:
            if sorted(rank) != list(range(n)):
                raise InputError("each order must be a permutation rank vector")

    @property
    def arity(self) -> int:
        return len(self.orders)


def bichain_from_permutation(sigma: tuple[int, ...] | list[int]) -> Multichain:
    """Bichain (natural order, order induced by the permutation images)."""
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise InputError("input must be a permutation of 0..n-1")
    ground = GroundSet.of_size(n)
    return Multichain(ground, (tuple(range(n)), sigma))


def initial_system_of_order(ground: GroundSet, rank: tuple[int, ...]) -> ClosureSystem:
    """Down-sets of the linear order with the given rank vector."""
    by_rank = sorted(range(ground.size), key=lambda i: rank[i])
    family = {0}
    mask = 0
    for e in by_rank:
        mask |= 1 << e
        family.add(mask)
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def multichain_system(m: Multichain) -> ClosureSystem:
    """Join of the initial-segment systems of the component orders.  Building
    it takes n + 1 prefix masks per order, Theta(m n**2) bits, with no cap of
    its own; enumerating it checks the enumeration bound."""
    return join_of_systems([initial_system_of_order(m.ground, r) for r in m.orders])


def delta_semilattice(b: Multichain) -> JoinSemilattice:
    """Join-semilattice generated by the diagonal of a bichain.

    Its elements are exactly the pairs (x', x'') with x'' below x' in
    the first order and x' below x'' in the second; the join is
    componentwise.
    """
    if b.arity != 2:
        raise InputError("the diagonal semilattice is defined for bichains only")
    r1, r2 = b.orders
    n = b.ground.size
    pairs = [
        (x1, x2)
        for x1 in range(n)
        for x2 in range(n)
        if r1[x2] <= r1[x1] and r2[x1] <= r2[x2]
    ]
    pairs.sort(key=lambda p: (r1[p[0]], r2[p[1]]))
    index = {p: i for i, p in enumerate(pairs)}
    labels = tuple(
        f"({b.ground.labels[x1]},{b.ground.labels[x2]})" for x1, x2 in pairs
    )

    def join(i: int, j: int) -> int:
        a1, a2 = pairs[i]
        b1, b2 = pairs[j]
        first = a1 if r1[a1] >= r1[b1] else b1
        second = a2 if r2[a2] >= r2[b2] else b2
        try:
            return index[(first, second)]
        except KeyError:  # pragma: no cover - ruled out by the predicate shape
            raise InputError("diagonal pairs are not join-closed") from None

    return JoinSemilattice(labels, join)


def compact_semilattice_of_geometry(
    system: ClosureSystem, bound: int | None = None
) -> JoinSemilattice:
    """All closed sets under (A, B) -> close(A | B), bottom = close(empty).

    At finite scale every closed set is a closure of a finite set, so
    the compact elements are all of them.  The order is containment, so
    the semilattice takes its rows from the lattice's containment rows.
    """
    lattice = system.enumerate_closed_sets(bound)
    labels = tuple(system.ground.format_set(m) for m in lattice.masks)
    up = lattice._up_rows()
    return JoinSemilattice(labels, lattice.join, (up, down_rows(up)))


@dataclass(frozen=True)
class OmegaPrefix:
    """Depth-N prefix of the omega-by-dyadics obstruction semilattice.

    Elements are pairs (n, k / 2**n) for 0 <= n <= N and 0 <= k < 2**n,
    ordered componentwise (naturals on the level, numeric order on the
    dyadic).  Dyadics are kept as integer pairs, never floats.
    """

    depth: int
    elements: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def fiber(self, level: int) -> tuple[tuple[int, int], ...]:
        return tuple(e for e in self.elements if e[0] == level)

    @staticmethod
    def leq(a: tuple[int, int], b: tuple[int, int]) -> bool:
        (n1, k1), (n2, k2) = a, b
        return n1 <= n2 and k1 << n2 <= k2 << n1

    @staticmethod
    def join_elements(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        (n1, k1), (n2, k2) = a, b
        n = max(n1, n2)
        v1 = k1 << (n - n1)
        v2 = k2 << (n - n2)
        return (n, max(v1, v2))

    @staticmethod
    def label(element: tuple[int, int]) -> str:
        n, k = element
        if k == 0:
            return f"({n},0)"
        e = n
        while k % 2 == 0:
            k //= 2
            e -= 1
        return f"({n},{k}/{1 << e})"

    def semilattice(self) -> JoinSemilattice:
        index = {e: i for i, e in enumerate(self.elements)}
        labels = tuple(self.label(e) for e in self.elements)
        elements = self.elements

        def join(i: int, j: int) -> int:
            return index[self.join_elements(elements[i], elements[j])]

        return JoinSemilattice(labels, join)


def omega_prefix(depth: int) -> OmegaPrefix:
    if depth < 0:
        raise InputError("depth must be nonnegative")
    check_limit("depth", depth, "omega-depth")
    elements = tuple(
        (n, k) for n in range(depth + 1) for k in range(1 << n)
    )
    return OmegaPrefix(depth, elements)


def subsemilattice_system(s: FinitePoset) -> ClosureSystem:
    """Closed sets are the meet-closed subsets of a meet-semilattice."""
    defect = s.meet_semilattice_defect()
    if defect is not None:
        i, j = defect
        raise InputError(
            f"poset is not a meet-semilattice: {s.labels[i]} and {s.labels[j]} have no meet"
        )
    n = s.size
    meets = [[s.meet_of(i, j) for j in range(n)] for i in range(n)]
    ground = GroundSet(s.labels)

    def rule(y: int) -> int:
        out = y
        changed = True
        while changed:
            changed = False
            members = list(bits(out))
            for a in members:
                for b in members:
                    m = meets[a][b]
                    if not out >> m & 1:
                        out |= 1 << m
                        changed = True
        return out

    return ClosureSystem.from_rule(ground, rule)


def suborder_system(p: FinitePoset) -> ClosureSystem:
    """Ground set: strict comparable pairs; closed sets: transitively
    closed pair subsets."""
    pairs = p.strict_pairs()
    if not pairs:
        raise InputError("the order has no strict pairs; the suborder system is empty")
    labels = tuple(f"{p.labels[a]}<{p.labels[b]}" for a, b in pairs)
    index = {pair: i for i, pair in enumerate(pairs)}
    ground = GroundSet(labels)

    def rule(y: int) -> int:
        out = y
        changed = True
        while changed:
            changed = False
            present = [pairs[i] for i in bits(out)]
            for a, b in present:
                for c, d in present:
                    if b == c:
                        k = index[(a, d)]
                        if not out >> k & 1:
                            out |= 1 << k
                            changed = True
        return out

    return ClosureSystem.from_rule(ground, rule)
