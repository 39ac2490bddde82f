"""Abstract finite lattices and join-semilattices.

``Lattice`` carries opaque element ids with an order relation given by
bitmask up-rows.  Its down-rows, join and meet tables and cover tuples
are built once, in O(n^2) mask operations: the upper bounds of i and j
form ``up[i] & up[j]``, which is the up-row of their join when the join
exists, so one lookup per pair both validates and indexes the join
(meets likewise on down-rows).  A missing bound raises ``InputError``.
``JoinSemilattice`` needs only a total join operation; the order is
recovered from it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .bitset import bits, superset_rows
from .closure import ClosedSetLattice
from .errors import InputError
from .posets import CoverQueries, Covers, FinitePoset, cover_tuples

_Table = tuple[tuple[int, ...], ...]


def _bound_table(labels: tuple[str, ...], rows: tuple[int, ...], kind: str) -> _Table:
    """Row-major table of least upper bounds (given up-rows) or greatest
    lower bounds (given down-rows); the first pair without one, in
    row-major order, is reported."""
    by_row = {row: k for k, row in enumerate(rows)}
    table: list[list[int | None]] = []
    for i, ri in enumerate(rows):
        row = [table[j][i] for j in range(i)]
        row += [by_row.get(ri & rj) for rj in rows[i:]]
        if None in row:
            j = row.index(None)
            raise InputError(f"not a lattice: {labels[i]} and {labels[j]} have no {kind}")
        table.append(row)
    return tuple(map(tuple, table))  # type: ignore[arg-type]


@dataclass(frozen=True)
class Lattice(CoverQueries):
    """Finite lattice over element ids 0..size-1."""

    labels: tuple[str, ...]
    up: tuple[int, ...]
    _down: tuple[int, ...] = field(init=False, repr=False, hash=False, compare=False)
    _join: _Table = field(init=False, repr=False, hash=False, compare=False)
    _meet: _Table = field(init=False, repr=False, hash=False, compare=False)
    _covers: Covers = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        poset = FinitePoset(self.labels, self.up)  # order axioms
        down = tuple(map(poset.down, range(self.size)))
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_join", _bound_table(self.labels, self.up, "join"))
        object.__setattr__(self, "_meet", _bound_table(self.labels, down, "meet"))
        object.__setattr__(self, "_covers", cover_tuples(self.up))

    @property
    def size(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    @property
    def bottom(self) -> int:
        for i in range(self.size):
            if self.up[i] == (1 << self.size) - 1:
                return i
        raise InputError("lattice has no bottom element")

    @property
    def top(self) -> int:
        for i in range(self.size):
            if self.up[i] == 1 << i:
                return i
        raise InputError("lattice has no top element")

    def _cover_tuples(self) -> Covers:
        return self._covers

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def join_of_set(self, ids: Sequence[int]) -> int:
        out = self.bottom
        for i in ids:
            out = self.join(out, i)
        return out

    def meet_of_set(self, ids: Sequence[int]) -> int:
        out = self.top
        for i in ids:
            out = self.meet(out, i)
        return out

    def dual(self) -> "Lattice":
        return Lattice(self.labels, self._down)

    def to_poset(self) -> FinitePoset:
        return FinitePoset(self.labels, self.up)

    def to_join_semilattice(self) -> "JoinSemilattice":
        return JoinSemilattice(self.labels, self.join)


def as_lattice(source: "Lattice | ClosedSetLattice") -> Lattice:
    """Coerce a closed-set lattice, converted once and kept on it (or pass
    a lattice through)."""
    if isinstance(source, Lattice):
        return source
    if source._lattice is None:
        labels = tuple(source.ground.format_set(m) for m in source.masks)
        object.__setattr__(source, "_lattice", Lattice(labels, source._up_rows()))
    return source._lattice


def chain_lattice(n: int) -> Lattice:
    if n < 1:
        raise InputError("chain needs at least one element")
    poset = FinitePoset.chain(n)
    return Lattice(poset.labels, poset.up)


def boolean_lattice(atoms: int) -> Lattice:
    """Powerset of ``atoms`` generators; element ids are the subsets."""
    n = 1 << atoms
    labels = tuple("{" + ",".join(str(b) for b in bits(m)) + "}" for m in range(n))
    return Lattice(labels, superset_rows(range(n)))


def m3() -> Lattice:
    """Three atoms, bottom and top."""
    return Lattice(
        ("0", "a", "b", "c", "1"),
        (0b11111, 0b10010, 0b10100, 0b11000, 0b10000),
    )


def n5() -> Lattice:
    """Pentagon: bottom, short side y, long side p < q, top."""
    return Lattice(
        ("0", "p", "q", "y", "1"),
        (0b11111, 0b10110, 0b10100, 0b11000, 0b10000),
    )


def downset_lattice(poset: FinitePoset) -> Lattice:
    masks = poset.downsets()
    labels = tuple(
        "{" + ",".join(poset.labels[i] for i in bits(m)) + "}" for m in masks
    )
    return Lattice(labels, superset_rows(masks))


class JoinSemilattice:
    """Elements with a total, associative, commutative, idempotent join.

    The partial order is derived: i <= j iff join(i, j) == j.  The join
    is evaluated lazily through a function and memoized per pair;
    ``order_rows`` reads every pair once, the first time the bitmask
    order is asked for, and keeps the rows.
    """

    def __init__(self, labels: Sequence[str], join_fn: Callable[[int, int], int]):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise InputError("semilattice labels must be unique")
        if not self.labels:
            raise InputError("semilattice must be nonempty")
        self._join_fn = join_fn
        self._memo: dict[tuple[int, int], int] = {}
        self._rows: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @classmethod
    def from_table(cls, labels: Sequence[str], table: Sequence[Sequence[int]]) -> "JoinSemilattice":
        rows = [tuple(r) for r in table]
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("join table shape must match the element count")
        for r in rows:
            for v in r:
                if not 0 <= v < n:
                    raise InputError("join table entry out of range")
        return cls(labels, lambda i, j: rows[i][j])

    @property
    def size(self) -> int:
        return len(self.labels)

    def join(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._join_fn(i, j)
            self._memo[key] = hit
        return hit

    def leq(self, i: int, j: int) -> bool:
        return self.join(i, j) == j

    def order_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Up- and down-rows of the order (bit j of ``up[i]`` iff i <= j,
        bit j of ``down[i]`` iff j <= i), built on first use from one join
        per unordered pair and kept."""
        if self._rows is None:
            n = self.size
            up = [1 << i for i in range(n)]
            down = up[:]
            for i in range(n):
                for j in range(i + 1, n):
                    v = self.join(i, j)
                    if v == j:
                        up[i] |= 1 << j
                        down[j] |= 1 << i
                    elif v == i:
                        up[j] |= 1 << i
                        down[i] |= 1 << j
            self._rows = tuple(up), tuple(down)
        return self._rows

    @property
    def top(self) -> int:
        out = 0
        for i in range(1, self.size):
            out = self.join(out, i)
        return out

    def bottom_or_none(self) -> int | None:
        for i in range(self.size):
            if all(self.leq(i, j) for j in range(self.size)):
                return i
        return None

    def with_bottom(self, label: str = "⊥") -> "JoinSemilattice":
        """Adjoin a fresh least element below everything."""
        name = label
        while name in self.labels:
            name += "'"
        labels = (name,) + self.labels
        inner = self

        def join_fn(i: int, j: int) -> int:
            if i == 0:
                return j
            if j == 0:
                return i
            return inner.join(i - 1, j - 1) + 1

        return JoinSemilattice(labels, join_fn)

    def join_table(self) -> list[list[int]]:
        n = self.size
        return [[self.join(i, j) for j in range(n)] for i in range(n)]

    def validate(self) -> None:
        """Check idempotence, commutativity and associativity (cubic)."""
        n = self.size
        for i in range(n):
            if self.join(i, i) != i:
                raise InputError(f"join not idempotent at {self.labels[i]}")
            for j in range(n):
                if self._join_fn(i, j) != self._join_fn(j, i):
                    raise InputError("join not commutative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.join(self.join(i, j), k) != self.join(i, self.join(j, k)):
                        raise InputError("join not associative")

    def __repr__(self) -> str:
        return f"JoinSemilattice(n={self.size})"
