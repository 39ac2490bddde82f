"""Finite partially ordered sets.

Elements are ids 0..size-1 with display labels.  The order is stored
transitively closed as bitmask up-rows (``up[i]`` = mask of elements
>= i, including i); the down-rows are built once beside them.  Covers
come from the up-rows by ``cover_tuples``, and ``CoverQueries`` answers
the cover questions of posets and lattices from them.

Bounds come from the rows by ``bound_table``: the common upper bounds
of i and j form ``up[i] & up[j]``, which is the up-row of their least
upper bound exactly when that bound exists, so one lookup per pair
finds it (greatest lower bounds likewise on down-rows).  ``FinitePoset``
reads its meets from that table, and ``lattices.Lattice``, a subclass,
its join and meet tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .bitset import bits, is_subset
from .errors import InputError


def transitive_closure(rows: list[int]) -> list[int]:
    n = len(rows)
    out = list(rows)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = out[i]
            for j in bits(out[i]):
                acc |= out[j]
            if acc != out[i]:
                out[i] = acc
                changed = True
    return out


Covers = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
BoundTable = tuple[tuple[int | None, ...], ...]


def down_rows(up: Sequence[int]) -> tuple[int, ...]:
    """Down-rows of an order given by its up-rows (the transposed rows)."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in bits(row):
            down[j] |= 1 << i
    return tuple(down)


def bound_table(rows: Sequence[int]) -> BoundTable:
    """Row-major table of least upper bounds (given up-rows) or greatest
    lower bounds (given down-rows), None where a pair has none: entry
    (i, j) is the element whose row is ``rows[i] & rows[j]``.  Each row
    reads the entries left of the diagonal from the rows above it."""
    by_row = {row: k for k, row in enumerate(rows)}
    table: list[tuple[int | None, ...]] = []
    for i, ri in enumerate(rows):
        table.append(
            tuple([table[j][i] for j in range(i)] + [by_row.get(ri & rj) for rj in rows[i:]])
        )
    return tuple(table)


def cover_tuples(up: Sequence[int]) -> Covers:
    """Upper and lower covers of every element of an order given by its
    up-rows, each ascending: the upper covers of i are its strict up-set
    minus the strict up-sets of the members of that set."""
    upper = []
    lower: list[list[int]] = [[] for _ in up]
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        above = 0
        for k in bits(strict):
            above |= up[k] & ~(1 << k)
        covers = tuple(bits(strict & ~above))
        upper.append(covers)
        for j in covers:
            lower[j].append(i)
    return tuple(upper), tuple(map(tuple, lower))


class CoverQueries:
    """Hasse edges, covers and irreducibles of an order, read from the
    (upper, lower) cover tuples that ``_cover_tuples`` returns."""

    def _cover_tuples(self) -> Covers:
        raise NotImplementedError

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        upper, _ = self._cover_tuples()
        return tuple((i, j) for i, covers in enumerate(upper) for j in covers)

    def upper_covers(self, i: int) -> tuple[int, ...]:
        return self._cover_tuples()[0][i]

    def lower_covers(self, j: int) -> tuple[int, ...]:
        return self._cover_tuples()[1][j]

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover."""
        return tuple(i for i, below in enumerate(self._cover_tuples()[1]) if len(below) == 1)

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one upper cover (the top has none)."""
        return tuple(i for i, above in enumerate(self._cover_tuples()[0]) if len(above) == 1)


@dataclass(frozen=True)
class FinitePoset(CoverQueries):
    """Partial order given by reflexive-transitive up-set rows."""

    labels: tuple[str, ...]
    up: tuple[int, ...]
    _down: tuple[int, ...] = field(init=False, repr=False, hash=False, compare=False)
    _covers: Covers = field(
        init=False, default=None, repr=False, hash=False, compare=False  # type: ignore[assignment]
    )
    _meet: BoundTable = field(
        init=False, default=None, repr=False, hash=False, compare=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InputError("poset labels must be unique")
        if len(self.up) != n:
            raise InputError("up-row count must match element count")
        for i, row in enumerate(self.up):
            if not row >> i & 1:
                raise InputError("order must be reflexive")
            if row & ~((1 << n) - 1):
                raise InputError("up-row references elements outside the poset")
        down = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                down[j] |= 1 << i
                if i != j and self.up[j] >> i & 1:
                    raise InputError(
                        f"antisymmetry violated by {self.labels[i]} and {self.labels[j]}"
                    )
                if not is_subset(self.up[j], self.up[i]):
                    raise InputError("order must be transitively closed")
        object.__setattr__(self, "_down", tuple(down))

    @classmethod
    def from_covers(
        cls, labels: tuple[str, ...], covers: list[tuple[int, int]]
    ) -> "FinitePoset":
        """Build from cover-style edges (a below b); closure is computed."""
        n = len(labels)
        rows = [1 << i for i in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError("cover edge references unknown elements")
            rows[a] |= 1 << b
        return cls(labels, tuple(transitive_closure(rows)))

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        labels = tuple(str(i) for i in range(n))
        rows = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        return cls(labels, rows)

    @classmethod
    def antichain(cls, n: int) -> "FinitePoset":
        return cls(tuple(str(i) for i in range(n)), tuple(1 << i for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def down(self, i: int) -> int:
        """Mask of elements <= i."""
        return self._down[i]

    def _cover_tuples(self) -> Covers:
        if self._covers is None:
            object.__setattr__(self, "_covers", cover_tuples(self.up))
        return self._covers

    def is_chain_set(self, mask: int) -> bool:
        elems = list(bits(mask))
        return all(
            self.leq(a, b) or self.leq(b, a) for i, a in enumerate(elems) for b in elems[i + 1 :]
        )

    def is_antichain_set(self, mask: int) -> bool:
        elems = list(bits(mask))
        return all(
            not self.leq(a, b) and not self.leq(b, a)
            for i, a in enumerate(elems)
            for b in elems[i + 1 :]
        )

    def _meet_table(self) -> BoundTable:
        if self._meet is None:
            object.__setattr__(self, "_meet", bound_table(self._down))
        return self._meet

    def meet_of(self, i: int, j: int) -> int | None:
        """Greatest common lower bound, or None if it does not exist."""
        return self._meet_table()[i][j]

    def meet_semilattice_defect(self) -> tuple[int, int] | None:
        """The first pair (i, j), i < j, without a meet, or None if every
        pair has one."""
        for i, row in enumerate(self._meet_table()):
            if None in row:
                return (i, row.index(None))
        return None

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All pairs (a, b) with a < b in the order."""
        return [
            (i, j)
            for i in range(self.size)
            for j in bits(self.up[i])
            if j != i
        ]

    def downsets(self) -> list[int]:
        """All down-closed subsets as masks, ascending."""
        out = []
        for mask in range(1 << self.size):
            if all(is_subset(self._down[i], mask) for i in bits(mask)):
                out.append(mask)
        return out
