"""Abstract finite lattices and join-semilattices.

``Lattice`` is a ``FinitePoset`` (opaque element ids, order given by
bitmask up-rows, down-rows and covers built beside them) whose join and
meet tables are complete.  Both tables come from ``posets.bound_table``
once, in O(n^2) mask operations: the upper bounds of i and j form
``up[i] & up[j]``, which is the up-row of their join when the join
exists, so one lookup per pair both validates and indexes the join
(meets likewise on down-rows).  A missing bound raises ``InputError``.
``JoinSemilattice`` needs only a total join operation; a semilattice
taken from a lattice carries the lattice's order rows, and otherwise
the order is recovered from the join.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .bitset import bits, superset_rows
from .closure import ClosedSetLattice
from .errors import InputError
from .posets import (
    BoundTable, CoverQueries, Covers, FinitePoset, bound_table, cover_tuples, down_rows
)

OrderRows = tuple[tuple[int, ...], tuple[int, ...]]


def _lattice_table(labels: tuple[str, ...], rows: tuple[int, ...], kind: str) -> BoundTable:
    """``bound_table`` of a lattice's up- or down-rows; the first pair
    without a bound, in row-major order, is reported."""
    table = bound_table(rows)
    for i, row in enumerate(table):
        if None in row:
            j = row.index(None)
            raise InputError(f"not a lattice: {labels[i]} and {labels[j]} have no {kind}")
    return table


@dataclass(frozen=True)
class Lattice(FinitePoset):
    """Finite lattice over element ids 0..size-1."""

    _join: BoundTable = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise InputError("lattice must be nonempty")
        super().__post_init__()  # order axioms and down-rows
        object.__setattr__(self, "_join", _lattice_table(self.labels, self.up, "join"))
        object.__setattr__(self, "_meet", _lattice_table(self.labels, self._down, "meet"))

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    @property
    def bottom(self) -> int:
        return self.up.index((1 << self.size) - 1)

    @property
    def top(self) -> int:
        return self._down.index((1 << self.size) - 1)

    def dual(self) -> "Lattice":
        return Lattice(self.labels, self._down)

    def to_join_semilattice(self) -> "JoinSemilattice":
        return JoinSemilattice(self.labels, self.join, (self.up, self._down))


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


def _table_up_rows(labels: tuple[str, ...], table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Up-rows of the order of a square join table (bit j of ``up[i]``
    iff ``table[i][j] == j``), after checking in O(n^2) mask operations
    that its entries are element ids, that it is idempotent and
    commutative, and that ``up[table[i][j]] == up[i] & up[j]``: then the
    order is partial and ``table[i][j]`` is the least upper bound of i
    and j, so the join is associative.  The first failure is reported."""
    n = len(table)
    for row in table:
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise InputError(f"join table entry {v!r} is not an element id 0..{n - 1}")
    for i, row in enumerate(table):
        if row[i] != i:
            raise InputError(f"join not idempotent at {labels[i]}")
    up = [sum(1 << j for j, v in enumerate(row) if v == j) for row in table]
    for i, row in enumerate(table):
        for j in range(i + 1, n):
            if row[j] != table[j][i]:
                raise InputError(f"join not commutative at {labels[i]} and {labels[j]}")
            if up[row[j]] != up[i] & up[j]:
                raise InputError(
                    f"join of {labels[i]} and {labels[j]} is not their least upper bound"
                )
    return tuple(up)


class JoinSemilattice(CoverQueries):
    """Elements with a total, associative, commutative, idempotent join.

    The partial order is i <= j iff join(i, j) == j.  The join is
    evaluated through a function, each time it is asked for.  The
    order's up- and down-rows (as ``order_rows`` returns them) are
    passed in by a semilattice taken from a lattice, which has them
    already; otherwise ``order_rows`` reads every pair once, the first
    time the bitmask order is asked for, and keeps the rows.  Covers
    and irreducibles come from the up-rows.
    """

    def __init__(
        self,
        labels: Sequence[str],
        join_fn: Callable[[int, int], int],
        rows: OrderRows | None = None,
    ):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise InputError("semilattice labels must be unique")
        if not self.labels:
            raise InputError("semilattice must be nonempty")
        self._join_fn = join_fn
        self._rows = rows
        self._covers: Covers | None = None

    @classmethod
    def from_table(cls, labels: Sequence[str], table: Sequence[Sequence[int]]) -> "JoinSemilattice":
        """The semilattice of a row-major join table, checked as
        ``validate`` checks it; its order rows come from the check."""
        n = len(labels)
        if (
            not isinstance(table, Sequence)
            or len(table) != n
            or any(not isinstance(r, Sequence) or len(r) != n for r in table)
        ):
            raise InputError("join table shape must match the element count")
        rows = tuple(map(tuple, table))
        up = _table_up_rows(tuple(labels), rows)
        return cls(labels, lambda i, j: rows[i][j], (up, down_rows(up)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def join(self, i: int, j: int) -> int:
        return self._join_fn(i, j)

    def leq(self, i: int, j: int) -> bool:
        return self.join(i, j) == j

    def order_rows(self) -> OrderRows:
        """Up- and down-rows of the order (bit j of ``up[i]`` iff i <= j,
        bit j of ``down[i]`` iff j <= i): the rows given at construction,
        or else built on first use from one join per unordered pair and
        kept."""
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

    def _cover_tuples(self) -> Covers:
        if self._covers is None:
            self._covers = cover_tuples(self.order_rows()[0])
        return self._covers

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
        """Check idempotence, commutativity and associativity, from the
        n^2 values of the join function and O(n^2) mask operations."""
        n = self.size
        _table_up_rows(self.labels, [[self._join_fn(i, j) for j in range(n)] for i in range(n)])

    def __repr__(self) -> str:
        return f"JoinSemilattice(n={self.size})"
