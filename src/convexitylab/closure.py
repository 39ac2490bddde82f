"""Finite closure systems and their closed-set lattices.

A closure system is a ground set together with a closure rule, given
either extensionally (the full family of closed sets, which must be
closed under intersection and contain the ground set) or intensionally
(a deterministic subset-to-subset map that is increasing, isotone and
idempotent).  Subsets are bitmasks over element ids; the canonical
order on subsets is numeric order on the mask.

The empty set is not required to be closed at this layer; that is a
property of convex geometries and is checked in :mod:`geometry`.

All objects here are immutable after construction.  Memo caches are
private, append-only dicts whose entries never change, so instances
may be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from . import config
from .bitset import bits, is_subset, superset_rows
from .errors import InputError
from .posets import CoverQueries, Covers, cover_tuples


@dataclass(frozen=True)
class GroundSet:
    """Labelled ground set; element ids are 0..size-1."""

    labels: tuple[str, ...]
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 1:
            raise InputError("ground set must have at least one element")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("ground set labels must be unique")
        object.__setattr__(self, "full_mask", (1 << len(self.labels)) - 1)

    @classmethod
    def of_size(cls, n: int, prefix: str = "") -> "GroundSet":
        return cls(tuple(f"{prefix}{i}" for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def mask_of(self, ids: Iterable[int]) -> int:
        mask = 0
        for i in ids:
            if not 0 <= i < self.size:
                raise InputError(f"element id {i} out of range 0..{self.size - 1}")
            mask |= 1 << i
        return mask

    def set_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def format_set(self, mask: int) -> str:
        return "{" + ",".join(self.set_labels(mask)) + "}"


def _validate_family(ground: GroundSet, family: frozenset[int]) -> None:
    full = ground.full_mask
    for m in family:
        if m & ~full:
            raise InputError("closed set uses element ids outside the ground set")
    if full not in family:
        raise InputError("closed family must contain the full ground set")
    masks = sorted(family)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in family:
                raise InputError(
                    "family is not intersection-closed: "
                    f"{ground.format_set(a)} and {ground.format_set(b)} "
                    f"miss {ground.format_set(a & b)}"
                )


class ClosureSystem:
    """A ground set plus a closure rule.

    ``close`` is memoized; the memo never changes an observable result.
    """

    def __init__(
        self,
        ground: GroundSet,
        *,
        family: Iterable[int] | None = None,
        rule: Callable[[int], int] | None = None,
        _trusted: bool = False,
    ):
        if (family is None) == (rule is None):
            raise InputError("provide exactly one of a closed family or a closure rule")
        self.ground = ground
        self._rule = rule
        self._memo: dict[int, int] = {}
        if family is not None:
            fam = frozenset(family)
            if not _trusted:
                _validate_family(ground, fam)
            self._family: frozenset[int] | None = fam
            self._sorted_family: tuple[int, ...] | None = tuple(sorted(fam))
        else:
            self._family = None
            self._sorted_family = None

    @classmethod
    def from_closed_family(
        cls, ground: GroundSet, family: Iterable[int], *, _trusted: bool = False
    ) -> "ClosureSystem":
        return cls(ground, family=family, _trusted=_trusted)

    @classmethod
    def from_rule(cls, ground: GroundSet, rule: Callable[[int], int]) -> "ClosureSystem":
        return cls(ground, rule=rule)

    @property
    def is_extensional(self) -> bool:
        return self._family is not None

    def close(self, y: int) -> int:
        """Least closed superset of ``y``.

        For extensional systems this is the intersection of all closed
        supersets; for intensional systems the (memoized) rule.
        """
        if y & ~self.ground.full_mask:
            raise InputError("subset uses element ids outside the ground set")
        hit = self._memo.get(y)
        if hit is not None:
            return hit
        if self._sorted_family is not None:
            result = self.ground.full_mask
            for m in self._sorted_family:
                if is_subset(y, m):
                    result &= m
        else:
            assert self._rule is not None
            result = self._rule(y)
        self._memo[y] = result
        return result

    def closed_family(self, bound: int | None = None) -> frozenset[int]:
        if self._family is not None:
            return self._family
        return frozenset(self.enumerate_closed_sets(bound).masks)

    def enumerate_closed_sets(self, bound: int | None = None) -> "ClosedSetLattice":
        return enumerate_closed_sets(self, bound)

    def __repr__(self) -> str:
        kind = "extensional" if self.is_extensional else "intensional"
        return f"ClosureSystem({kind}, n={self.ground.size})"


def _next_closure(system: ClosureSystem, current: int, n: int) -> int | None:
    """Lectic successor of a closed set (NextClosure step)."""
    a = current
    for i in reversed(range(n)):
        bit = 1 << i
        if a & bit:
            a &= ~bit
        else:
            b = system.close(a | bit)
            if (b & ~a) & (bit - 1) == 0:
                return b
    return None


def enumerate_closed_sets(system: ClosureSystem, bound: int | None = None) -> "ClosedSetLattice":
    """All closed sets, canonically ordered (ascending bitmask).

    Uses lectic NextClosure generation for intensional rules and a
    direct family copy for extensional ones.
    """
    n = system.ground.size
    config.check_ground_size(n, bound)
    if system.is_extensional:
        masks = tuple(sorted(system.closed_family()))
    else:
        found = []
        current: int | None = system.close(0)
        while current is not None:
            found.append(current)
            current = _next_closure(system, current, n)
        masks = tuple(sorted(found))
    return ClosedSetLattice(system.ground, masks)


@dataclass(frozen=True)
class ClosedSetLattice(CoverQueries):
    """Enumerated closed sets with containment order.

    Joins are closures of unions; meets are intersections.  The family
    is intersection-closed, so every meet is again a member.  The
    containment rows (which give each join as one AND) and the covers are
    built on first use; ``lattices.as_lattice`` keeps its conversion in
    ``_lattice``.
    """

    ground: GroundSet
    masks: tuple[int, ...]
    _index: dict[int, int] = field(init=False, repr=False, hash=False, compare=False)
    _up: tuple[int, ...] = field(
        init=False, default=None, repr=False, hash=False, compare=False  # type: ignore[assignment]
    )
    _covers: Covers = field(
        init=False, default=None, repr=False, hash=False, compare=False  # type: ignore[assignment]
    )
    _lattice: object = field(init=False, default=None, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.masks) != sorted(set(self.masks)):
            raise InputError("closed sets must be distinct and canonically ordered")
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.masks)})

    @property
    def size(self) -> int:
        return len(self.masks)

    def index_of(self, mask: int) -> int:
        try:
            return self._index[mask]
        except KeyError:
            raise InputError(f"{self.ground.format_set(mask)} is not a closed set") from None

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def leq(self, i: int, j: int) -> bool:
        return is_subset(self.masks[i], self.masks[j])

    @property
    def bottom(self) -> int:
        """Index of the least closed set."""
        return 0

    @property
    def top(self) -> int:
        return len(self.masks) - 1

    def join(self, i: int, j: int) -> int:
        """The numerically least common superset, which is the lowest
        position in both containment rows (``masks`` ascend)."""
        up = self._up_rows()
        common = up[i] & up[j]
        if not common:
            raise InputError("family has no common superset; top element missing")
        return (common & -common).bit_length() - 1

    def meet(self, i: int, j: int) -> int:
        return self.index_of(self.masks[i] & self.masks[j])

    def _up_rows(self) -> tuple[int, ...]:
        """Containment rows: bit k of row i iff masks[i] <= masks[k]."""
        if self._up is None:
            object.__setattr__(self, "_up", superset_rows(self.masks))
        return self._up

    def _cover_tuples(self) -> Covers:
        if self._covers is None:
            object.__setattr__(self, "_covers", cover_tuples(self._up_rows()))
        return self._covers

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (i, j) with masks[i] covered by masks[j]."""
        return self.hasse_edges()

    def closure_of_singleton(self, element: int) -> int:
        """Index of the least closed set containing the given ground element."""
        bit = 1 << element
        for k, m in enumerate(self.masks):
            if m & bit:
                return k
        raise InputError("no closed set contains the element")


@dataclass(frozen=True)
class MaximalChain:
    """Strictly increasing run of closed sets from bottom to top."""

    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)


def maximality_defect(lattice: ClosedSetLattice, chain: Sequence[int]) -> int | None:
    """A closed set insertable into ``chain``, or None if the chain is maximal."""
    if not chain:
        return lattice.masks[lattice.bottom]
    for m in chain:
        lattice.index_of(m)
    if any(not is_subset(a, b) or a == b for a, b in zip(chain, chain[1:])):
        raise InputError("chain entries must strictly increase")
    if chain[0] != lattice.masks[lattice.bottom]:
        return lattice.masks[lattice.bottom]
    if chain[-1] != lattice.masks[lattice.top]:
        return lattice.masks[lattice.top]
    for a, b in zip(chain, chain[1:]):
        for m in lattice.masks:
            if m != a and m != b and is_subset(a, m) and is_subset(m, b):
                return m
    return None


def chain_retraction(lattice: ClosedSetLattice, d: MaximalChain, a: int) -> int:
    """Least member of the maximal chain ``d`` containing the subset ``a``.

    The induced map preserves joins of the lattice and fixes the chain
    pointwise.
    """
    witness = maximality_defect(lattice, d.masks)
    if witness is not None:
        raise InputError(
            f"chain is not maximal: {lattice.ground.format_set(witness)} is insertable"
        )
    if a & ~lattice.ground.full_mask:
        raise InputError("subset uses element ids outside the ground set")
    for m in d.masks:
        if is_subset(a, m):
            return m
    raise InputError("chain does not reach the top element")  # unreachable when maximal


def maximal_chains(lattice: ClosedSetLattice, limit: int) -> list[MaximalChain]:
    """Distinct maximal chains (cover paths bottom to top), at most ``limit``.

    Deterministic: covers are explored in canonical mask order.
    """
    if limit < 1:
        raise InputError("limit must be at least 1")
    out: list[MaximalChain] = []
    stack = [(lattice.bottom, (lattice.masks[lattice.bottom],))]
    while stack and len(out) < limit:
        node, path = stack.pop()
        ups = lattice.upper_covers(node)
        if not ups:
            out.append(MaximalChain(path))
            continue
        for j in reversed(ups):
            stack.append((j, path + (lattice.masks[j],)))
    return out


def restrict(system: ClosureSystem, x_prime: int) -> ClosureSystem:
    """Induced system on ``x_prime``: closed sets are Y ∩ X' for Y closed."""
    if x_prime == 0:
        raise InputError("restriction to the empty set is not defined")
    if x_prime & ~system.ground.full_mask:
        raise InputError("restriction set uses element ids outside the ground set")
    kept = list(bits(x_prime))
    ground = GroundSet(tuple(system.ground.labels[i] for i in kept))
    old_of_new = {new: old for new, old in enumerate(kept)}
    new_of_old = {old: new for new, old in enumerate(kept)}

    def shrink(mask: int) -> int:
        out = 0
        for old, new in new_of_old.items():
            if mask >> old & 1:
                out |= 1 << new
        return out

    if system.is_extensional:
        return ClosureSystem.from_closed_family(
            ground, {shrink(m & x_prime) for m in system.closed_family()}, _trusted=True
        )

    def grow(mask: int) -> int:
        out = 0
        for new in bits(mask):
            out |= 1 << old_of_new[new]
        return out

    def rule(y: int) -> int:
        return shrink(system.close(grow(y)) & x_prime)

    return ClosureSystem.from_rule(ground, rule)


def join_of_systems(systems: Sequence[ClosureSystem]) -> ClosureSystem:
    """Join of closure systems over one ground set.

    Closed sets of the join are exactly the intersections of closed
    sets taken from each system; the closure of Y is the intersection
    of the component closures of Y.
    """
    if not systems:
        raise InputError("join requires at least one system")
    ground = systems[0].ground
    for s in systems[1:]:
        if s.ground.labels != ground.labels:
            raise InputError("systems must share one ground set")
    if len(systems) == 1:
        return systems[0]
    parts = tuple(systems)

    def rule(y: int) -> int:
        out = ground.full_mask
        for s in parts:
            out &= s.close(y)
        return out

    return ClosureSystem.from_rule(ground, rule)
