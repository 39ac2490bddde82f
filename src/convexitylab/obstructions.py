"""Obstruction patterns inside finite join-semilattices.

The central question is whether a pattern semilattice embeds into a
host by an injective join-preserving map (such a map is automatically
an order-embedding).  Patterns of interest: powerset semilattices
under union, interval semilattices of a chain, and the depth-limited
omega-by-dyadics prefixes from :mod:`ordergen`.

The backtracking search assigns pattern elements along a linear
extension; an element that is a join of two earlier ones has a forced
image, so only join-irreducible elements (and minimal ones) branch.
Candidates come from bitmask domains with forward checking (Ullmann,
"An algorithm for subgraph isomorphism", J. ACM 1976): the host's up-
and down-rows come from ``JoinSemilattice.order_rows`` (the containment
rows of the closed-set lattice for a compact-element host, rows built
once from the joins for a host given by its join alone), each domain
starts with the hosts whose up- and down-sets are large enough, and
each assignment narrows every later domain to the hosts in the right
order relation to it.  Candidates are taken lowest id first
and nothing is pruned that could hold an embedding, so the reported
embedding is the least one in search order.  Every returned map is
re-verified from scratch against injectivity and join preservation.

The search takes patterns and hosts within the "pattern" (32, enough
for ``omega_prefix(4)``) and "host" (10,000) entries of ``config.LIMITS``;
no pattern past the host bound is built, and ``obstruction_report``
checks its maxima before the first search.

Independence is one search within the enumeration bound,
``largest_independent``, over the subsets in which no member depends on
the rest; ``independent_sets`` passes closure membership in a closure
system as the dependence test, and :mod:`relconvex` hull membership.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import isqrt

from . import config as runtime
from .closure import ClosureSystem
from .errors import InputError, InternalError
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
    limit = runtime.LIMITS["host"].bit_length() - 1  # 2**n elements fit the host bound
    runtime.check_limit("boolean pattern parameter", n, "host", limit)
    labels = tuple(
        "{" + ",".join(str(b) for b in range(n) if m >> b & 1) + "}"
        for m in range(1 << n)
    )
    return Pattern(f"boolean({n})", JoinSemilattice(labels, lambda i, j: i | j))


def interval_chain_pattern(n: int) -> Pattern:
    """Intervals of an n-chain (with the empty interval) under span-join."""
    if n < 1:
        raise InputError("pattern parameter must be at least 1")
    limit = (isqrt(8 * runtime.LIMITS["host"] - 7) - 1) // 2  # n(n + 1)/2 + 1 <= host bound
    runtime.check_limit("interval pattern parameter", n, "host", limit)
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
    the reported embedding is the least one in that sense.
    """
    return _embedding_search(pattern, host)[0]


def _embedding_search(
    pattern: JoinSemilattice, host: JoinSemilattice
) -> tuple[EmbeddingMap | None, int]:
    """The search behind ``embeds_as_join_subsemilattice``, with its node
    count (host elements assigned, leaves included).

    Each pattern position keeps a bitmask domain of host candidates.  It
    starts as the hosts with up- and down-sets at least as large as the
    element's; assigning h to a position ANDs every later domain with
    the hosts strictly above, strictly below or incomparable to h,
    matching the pattern's relation, so used hosts drop out too.  An
    emptied domain backtracks at once.  Domains live in a list per
    depth; the search is a loop, so it leaves no reference cycle.
    """
    runtime.check_limit("pattern size", pattern.size, "pattern")
    runtime.check_limit("host size", host.size, "host")
    if pattern.size > host.size:
        return None, 0
    n = pattern.size
    joins = [[pattern.join(i, j) for j in range(n)] for i in range(n)]
    below = [sum(joins[j][i] == i for j in range(n)) for i in range(n)]
    above = [sum(joins[i][j] == j for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (below[i], i))
    position = {p: k for k, p in enumerate(order)}
    # relation[k][l] picks the host row that position l must lie in once
    # position k holds h: 0 above h, 1 below h, 2 incomparable, 3 h itself;
    # tails[k][j] is relation[k][j + 1 :], the positions after depth j.
    relation = [
        [3 if p == q else 0 if joins[p][q] == q else 1 if joins[q][p] == p else 2 for q in order]
        for p in order
    ]
    tails = [[rel[j + 1 :] for j in range(n)] for rel in relation]
    # A forced position holds the join of two earlier positions; its image
    # is fixed, and narrows the later domains, as soon as both are placed.
    forced: list[bool] = [False] * n
    ready: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for k, e in enumerate(order):
        pair = next(
            ((a, b) for a in range(k) for b in range(a + 1, k) if joins[order[a]][order[b]] == e),
            None,
        )
        if pair is not None:
            forced[k] = True
            ready[pair[1]].append((k, *pair))

    join = host.join
    up, down = host.order_rows()
    full = (1 << host.size) - 1
    rows = [(u & ~d, d & ~u, full & ~(u | d), 1 << h) for h, (u, d) in enumerate(zip(up, down))]
    sizes = [(u.bit_count(), d.bit_count()) for u, d in zip(up, down)]
    domains: list[list[int]] = [[]] * n
    domains[0] = [
        sum(1 << h for h, (hu, hd) in enumerate(sizes) if hu >= above[p] and hd >= below[p])
        for p in order
    ]
    # If the pattern has a bottom and h fails as its image, so does every
    # host above h: an embedding sending the bottom to h' >= h would stay
    # one with h in its place.  Each failed h drops its up-row.
    bottomed = above[order[0]] == n
    candidates = [0] * n
    candidates[0] = domains[0][0]
    image = [0] * n
    nodes = 0
    k = 0
    while k >= 0:
        c = candidates[k]
        if k == 0 and nodes and bottomed:
            c &= ~up[image[0]]
        if not c:
            k -= 1
            continue
        low = c & -c
        candidates[k] = c ^ low
        h = low.bit_length() - 1
        image[k] = h
        nodes += 1
        if k == n - 1:
            found = EmbeddingMap(tuple(image[position[p]] for p in range(n)))
            if found.verify(pattern, host):
                return found, nodes
            continue
        later = domains[k][1:]
        if not forced[k]:  # a forced image narrowed these when it was fixed
            row = rows[h]
            later = [d & row[t] for d, t in zip(later, tails[k][k])]
        for l, a, b in ready[k]:
            g = join(image[a], image[b])
            if not later[l - k - 1] >> g & 1:
                break
            row = rows[g]
            later = [d & row[t] for d, t in zip(later, tails[l][k])]
        else:
            if 0 not in later:
                k += 1
                domains[k] = later
                candidates[k] = later[0]
    return None, nodes


def is_independent(members: Sequence[int], depends: Callable[[int, int], bool]) -> bool:
    """No member ``i`` depends on the rest: ``depends(rest, i)`` is false."""
    mask = 0
    for i in members:
        mask |= 1 << i
    return not any(depends(mask & ~(1 << i), i) for i in members)


def largest_independent(
    n: int, depends: Callable[[int, int], bool], bound: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Largest subset of ``range(n)`` passing ``is_independent`` under
    ``depends``, and its size, for n within the enumeration bound.  Subsets
    grow in increasing id order, cut off once the ids left cannot beat the
    best; the first largest subset found is returned."""
    runtime.check_ground_size(n, bound)
    best_size = 0
    best: tuple[int, ...] = ()

    def extend(start: int, chosen: list[int]) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        if len(chosen) + (n - start) <= best_size:
            return
        for nxt in range(start, n):
            candidate = chosen + [nxt]
            if is_independent(candidate, depends):
                extend(nxt + 1, candidate)

    try:
        extend(0, [])
    finally:
        del extend  # it refers to itself; dropping it frees the cycle now
    return best_size, best


def independent_sets(
    system: ClosureSystem, bound: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set: no member lies in the closure of the rest.

    The closed-set lattice order-embeds the powerset of the witness via
    closures of its subsets.
    """
    n = system.ground.size
    return largest_independent(n, lambda rest, i: bool(system.close(rest) >> i & 1), bound)


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
    Both maxima are checked against the pattern bound before the first
    search: boolean(k) has 2**k elements and omega_prefix(M) has
    2**(M + 1) - 1.
    """
    size = runtime.LIMITS["pattern"]
    boolean_limit, omega_limit = size.bit_length() - 1, (size + 1).bit_length() - 2
    runtime.check_limit(f"boolean={max_boolean}: parameter", max_boolean, "pattern", boolean_limit)
    runtime.check_limit(f"omega={max_omega}: parameter", max_omega, "pattern", omega_limit)
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
