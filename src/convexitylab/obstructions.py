"""Obstruction patterns inside finite join-semilattices.

The central question is whether a pattern semilattice embeds into a
host by an injective join-preserving map (such a map is automatically
an order-embedding).  Patterns of interest: powerset semilattices
under union, interval semilattices of a chain, and the depth-limited
omega-by-dyadics prefixes from :mod:`ordergen`.

The backtracking search assigns pattern elements along a linear
extension; an element that is a join of two earlier ones has a forced
image, so only join-irreducible elements (and minimal ones) branch.
Every returned map is re-verified from scratch against injectivity and
join preservation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import ClosureSystem
from .errors import CapacityError, InputError, InternalError
from .lattices import JoinSemilattice
from .ordergen import omega_prefix


@dataclass(frozen=True)
class Pattern:
    """A named pattern semilattice."""

    kind: str
    semilattice: JoinSemilattice


def boolean_pattern(n: int) -> Pattern:
    """Subsets of an n-set under union."""
    if n < 0:
        raise InputError("pattern parameter must be nonnegative")
    if n > 24:
        raise CapacityError(f"boolean pattern parameter {n} exceeds the bound 24")
    labels = tuple(
        "{" + ",".join(str(b) for b in range(n) if m >> b & 1) + "}"
        for m in range(1 << n)
    )
    return Pattern(f"boolean({n})", JoinSemilattice(labels, lambda i, j: i | j))


def interval_chain_pattern(n: int) -> Pattern:
    """Intervals of an n-chain (with the empty interval) under span-join."""
    if n < 1:
        raise InputError("pattern parameter must be at least 1")
    if n > 100:
        raise CapacityError(f"interval pattern parameter {n} exceeds the bound 100")
    intervals: list[tuple[int, int] | None] = [None]
    intervals += [(i, j) for i in range(n) for j in range(i, n)]
    index = {iv: k for k, iv in enumerate(intervals)}
    labels = tuple(
        "{}" if iv is None else f"[{iv[0]},{iv[1]}]" for iv in intervals
    )

    def join(i: int, j: int) -> int:
        a, b = intervals[i], intervals[j]
        if a is None:
            return j
        if b is None:
            return i
        return index[(min(a[0], b[0]), max(a[1], b[1]))]

    return Pattern(f"interval_chain({n})", JoinSemilattice(labels, join))


def omega_prefix_pattern(depth: int) -> Pattern:
    return Pattern(f"omega_prefix({depth})", omega_prefix(depth).semilattice())


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective, join-preserving assignment of pattern onto host ids."""

    assignment: tuple[int, ...]

    def verify(self, pattern: JoinSemilattice, host: JoinSemilattice) -> bool:
        n = pattern.size
        if len(self.assignment) != n:
            return False
        if len(set(self.assignment)) != n:
            return False
        for i in range(n):
            for j in range(n):
                image = host.join(self.assignment[i], self.assignment[j])
                if image != self.assignment[pattern.join(i, j)]:
                    return False
        return True


def embeds_as_join_subsemilattice(
    pattern: JoinSemilattice, host: JoinSemilattice
) -> EmbeddingMap | None:
    """First join-subsemilattice embedding in search order, or None.

    Deterministic: pattern elements are processed along a fixed linear
    extension and host candidates are tried in increasing id order, so
    the reported embedding is the least one in that sense.  The pattern
    order comes from its join table; order and forced joins against an
    assigned host element are read from that element's row of joins,
    built with ``host.size`` joins the first time it is assigned.
    """
    if pattern.size > 24:
        raise CapacityError(f"pattern size {pattern.size} exceeds the bound 24")
    if host.size > 10000:
        raise CapacityError(f"host size {host.size} exceeds the bound 10000")
    if pattern.size > host.size:
        return None
    n = pattern.size
    joins = [[pattern.join(i, j) for j in range(n)] for i in range(n)]
    depth = [sum(joins[j][i] == i for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (depth[i], i))
    # Forced elements: a join of two earlier elements in the extension.
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
    used: set[int] = set()
    host_joins: dict[int, list[int]] = {}  # host id -> its joins with every host id

    def assign(p: int, h: int) -> None:
        assigned[p] = h
        used.add(h)
        if h not in host_joins:
            host_joins[h] = [host.join(h, g) for g in range(host.size)]

    def consistent(p: int, h: int) -> bool:
        if h in used:
            return False
        for q, hq in assigned.items():
            j = host_joins[hq][h]
            if (joins[p][q] == q) != (j == hq) or (joins[q][p] == p) != (j == h):
                return False
        return True

    def full_check() -> EmbeddingMap | None:
        candidate = EmbeddingMap(tuple(assigned[i] for i in range(pattern.size)))
        if candidate.verify(pattern, host):
            return candidate
        return None

    def search(k: int) -> EmbeddingMap | None:
        if k == len(order):
            return full_check()
        p = order[k]
        pair = witness_pair.get(p)
        if pair is not None:
            h = host_joins[assigned[pair[0]]][assigned[pair[1]]]
            if not consistent(p, h):
                return None
            assign(p, h)
            found = search(k + 1)
            if found is None:
                del assigned[p]
                used.discard(h)
            return found
        for h in range(host.size):
            if not consistent(p, h):
                continue
            assign(p, h)
            found = search(k + 1)
            if found is not None:
                return found
            del assigned[p]
            used.discard(h)
        return None

    try:
        return search(0)
    finally:
        # search refers to itself: dropping it frees the host and its rows
        # now, not at the next full garbage collection.
        del search


def independent_sets(
    system: ClosureSystem, bound: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set: no member lies in the closure of the rest.

    The closed-set lattice order-embeds the powerset of the witness via
    closures of its subsets.
    """
    from . import config as runtime

    n = system.ground.size
    if n > runtime.enumeration_bound(bound):
        raise CapacityError(
            f"ground size {n} exceeds the enumeration bound {runtime.enumeration_bound(bound)}"
        )
    best_size = 0
    best: tuple[int, ...] = ()

    def is_independent(members: list[int]) -> bool:
        mask = 0
        for i in members:
            mask |= 1 << i
        return all(
            not system.close(mask & ~(1 << i)) >> i & 1 for i in members
        )

    def extend(start: int, chosen: list[int]) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        if len(chosen) + (n - start) <= best_size:
            return
        for nxt in range(start, n):
            candidate = chosen + [nxt]
            if is_independent(candidate):
                extend(nxt + 1, candidate)

    extend(0, [])
    return best_size, best


@dataclass(frozen=True)
class ObstructionReport:
    """Which boolean / omega-prefix patterns embed into a host."""

    boolean_embeds: dict[int, bool]
    omega_embeds: dict[int, bool]
    embeddings: dict[str, EmbeddingMap]


def obstruction_report(
    host: JoinSemilattice, max_boolean: int, max_omega: int
) -> ObstructionReport:
    """Embedding results for boolean(k), k <= max_boolean, and
    omega_prefix(M), M <= max_omega.

    Results come from the search alone; monotonicity (a failing pattern
    stays failing as it grows) is asserted afterwards, never assumed.
    """
    boolean_embeds: dict[int, bool] = {}
    omega_embeds: dict[int, bool] = {}
    embeddings: dict[str, EmbeddingMap] = {}
    for k in range(1, max_boolean + 1):
        pat = boolean_pattern(k)
        found = embeds_as_join_subsemilattice(pat.semilattice, host)
        boolean_embeds[k] = found is not None
        if found is not None:
            embeddings[pat.kind] = found
    for m in range(1, max_omega + 1):
        pat = omega_prefix_pattern(m)
        found = embeds_as_join_subsemilattice(pat.semilattice, host)
        omega_embeds[m] = found is not None
        if found is not None:
            embeddings[pat.kind] = found
    for results in (boolean_embeds, omega_embeds):
        keys = sorted(results)
        for small, large in zip(keys, keys[1:]):
            if not results[small] and results[large]:
                raise InternalError("pattern embeddability failed to be monotone")
    return ObstructionReport(boolean_embeds, omega_embeds, embeddings)
