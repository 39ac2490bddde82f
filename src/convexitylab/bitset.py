"""Subsets of a ground set as int bitmasks.

Bit i stands for element id i.  The canonical order on subsets used
throughout the library is plain numeric order on the mask, under which
the containment-least superset of a mask is also its numerically
smallest superset.
"""

from collections.abc import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the element ids of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subsets(mask: int) -> Iterator[int]:
    """Yield all submasks of ``mask``, ascending numerically."""
    elems = list(bits(mask))
    for counter in range(1 << len(elems)):
        sub = 0
        for pos, e in enumerate(elems):
            if counter >> pos & 1:
                sub |= 1 << e
        yield sub


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def popcount(mask: int) -> int:
    return mask.bit_count()


def superset_rows(masks: Sequence[int]) -> tuple[int, ...]:
    """Row i is the mask of the positions j with masks[i] <= masks[j]:
    the AND, over the elements of masks[i], of the positions holding them."""
    holding: dict[int, int] = {}
    for k, m in enumerate(masks):
        for x in bits(m):
            holding[x] = holding.get(x, 0) | 1 << k
    rows = []
    for m in masks:
        row = (1 << len(masks)) - 1
        for x in bits(m):
            row &= holding[x]
        rows.append(row)
    return tuple(rows)
