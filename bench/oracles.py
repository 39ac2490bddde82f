"""First-principles helpers the benchmark checks library outputs against.

Nothing here calls into convexitylab: closed families are built by
intersecting generators, lattice operations are read off bitmasks, and
hull membership is decided with integer orientation tests.  The checks
in ``workloads.py`` compare library results with these, so a wrong
answer from the library cannot also be the reference.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations
from math import lcm


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def family_digest(masks) -> str:
    """Short stable hash of a family of masks (order-insensitive)."""
    text = ",".join(str(m) for m in sorted(masks))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------ families


def intersections(generators, full: int) -> list[int]:
    """Every intersection of generator sets, the full set included."""
    family = {full}
    for g in generators:
        family |= {g & m for m in family}
    return sorted(family)


def multichain_family(orders, n: int) -> list[int]:
    """Closed sets of the join of initial-segment systems of the orders.

    ``orders[i][e]`` is the rank of element e in order i.  A closed set
    is an intersection of one initial segment from each order.
    """
    full = (1 << n) - 1
    family = {full}
    for rank in orders:
        by_rank = sorted(range(n), key=lambda e: rank[e])
        prefixes = [0]
        for e in by_rank:
            prefixes.append(prefixes[-1] | 1 << e)
        family = {a & p for a in family for p in prefixes}
    return sorted(family)


def multichain_closure(orders, n: int, y: int) -> int:
    """Intersection over the orders of the initial segment ending at the
    highest-ranked member of y."""
    out = (1 << n) - 1
    if y == 0:
        return 0
    for rank in orders:
        top = max(rank[e] for e in bits(y))
        out &= sum(1 << e for e in range(n) if rank[e] <= top)
    return out


def interval_family(n: int) -> list[int]:
    family = {0}
    for i in range(n):
        for j in range(i, n):
            family.add(((1 << (j + 1)) - 1) & ~((1 << i) - 1))
    return sorted(family)


def downsets(n: int, below: list[int]) -> list[int]:
    """Down-closed subsets; ``below[i]`` is the mask of elements < i."""
    return [m for m in range(1 << n) if all(below[i] & ~m == 0 for i in bits(m))]


def strict_below(n: int, covers: list[tuple[int, int]]) -> list[int]:
    """Transitive strict down-sets from cover edges (a below b)."""
    below = [0] * n
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = below[b] | 1 << a | below[a]
            if new != below[b]:
                below[b] = new
                changed = True
    return below


def close_in(family: list[int], y: int, full: int) -> int:
    """Least member of an intersection-closed family containing y."""
    out = full
    for m in family:
        if y & ~m == 0:
            out &= m
    return out


def intersection_closed(family, full: int) -> bool:
    fam = set(family)
    if full not in fam:
        return False
    masks = sorted(fam)
    return all(a & b in fam for i, a in enumerate(masks) for b in masks[i + 1:])


class MaskLattice:
    """A closed-set lattice read off its masks: meet is intersection,
    join is the least member above the union."""

    def __init__(self, masks: list[int]):
        self.masks = sorted(masks)
        self.index = {m: i for i, m in enumerate(self.masks)}
        n = len(self.masks)
        self.up = [0] * n
        for i, a in enumerate(self.masks):
            for j in range(i, n):
                if a & ~self.masks[j] == 0:
                    self.up[i] |= 1 << j

    @property
    def size(self) -> int:
        return len(self.masks)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def join(self, i: int, j: int) -> int:
        union = self.masks[i] | self.masks[j]
        for k in bits(self.up[i] & self.up[j]):
            if union & ~self.masks[k] == 0:
                return k
        raise ValueError("no upper bound")

    def meet(self, i: int, j: int) -> int:
        return self.index[self.masks[i] & self.masks[j]]

    def upper_covers(self) -> list[int]:
        covers = []
        for i in range(self.size):
            strict = self.up[i] & ~(1 << i)
            shadow = 0
            for k in bits(strict):
                shadow |= self.up[k] & ~(1 << k)
            covers.append(strict & ~shadow)
        return covers

    def lower_cover_counts(self) -> list[int]:
        counts = [0] * self.size
        for up in self.upper_covers():
            for j in bits(up):
                counts[j] += 1
        return counts

    def join_irreducibles(self) -> list[int]:
        return [i for i, c in enumerate(self.lower_cover_counts()) if c == 1]

    def meet_irreducibles(self) -> list[int]:
        return [i for i, up in enumerate(self.upper_covers()) if up.bit_count() == 1]

    def is_distributive(self) -> bool:
        """Birkhoff: distributive iff as many elements as down-sets of
        the join-irreducibles."""
        ji = self.join_irreducibles()
        below = [0] * len(ji)
        for a, x in enumerate(ji):
            for b, y in enumerate(ji):
                if a != b and self.leq(y, x):
                    below[a] |= 1 << b
        return len(downsets(len(ji), below)) == self.size

    def is_m3(self, elems) -> bool:
        bot, a, b, c, top = elems
        if len(set(elems)) != 5:
            return False
        return all(
            self.join(u, v) == top and self.meet(u, v) == bot
            for u, v in ((a, b), (a, c), (b, c))
        )

    def is_n5(self, elems) -> bool:
        bot, p, q, y, top = elems
        if len(set(elems)) != 5 or not self.leq(p, q) or p == q:
            return False
        return (
            self.join(p, y) == top and self.join(q, y) == top
            and self.meet(p, y) == bot and self.meet(q, y) == bot
        )


def parse_set_label(label: str, names: dict[str, int]) -> int:
    """Mask of a "{a,b}" label over the given element names."""
    inner = label.strip()[1:-1]
    mask = 0
    for part in inner.split(",") if inner else []:
        mask |= 1 << names[part]
    return mask


def is_antichain(lat: MaskLattice, elems) -> bool:
    return all(
        not lat.leq(a, b) and not lat.leq(b, a) for a, b in combinations(elems, 2)
    )


def is_chain(lat: MaskLattice, elems) -> bool:
    return all(lat.leq(a, b) or lat.leq(b, a) for a, b in combinations(elems, 2))


# ------------------------------------------------------------ geometry


def _scaled(points) -> list[tuple[int, int]]:
    """Integer copy of planar rational points (affine image, so hull
    membership is unchanged)."""
    den = lcm(*(Fraction(c).denominator for p in points for c in p))
    return [(int(Fraction(x) * den), int(Fraction(y) * den)) for x, y in points]


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


class PlanarPoints:
    """Exact planar hull tests on integer-scaled points."""

    def __init__(self, points):
        self.pts = _scaled(points)
        self.n = len(self.pts)

    def in_hull(self, y: int, p: int) -> bool:
        """Is point p in the convex hull of the points of mask y?"""
        if y >> p & 1:
            return True
        idx = bits(y)
        q = self.pts[p]
        if not idx:
            return False
        for a in idx:
            if self.pts[a] == q:
                return True
        for a, b in combinations(idx, 2):
            pa, pb = self.pts[a], self.pts[b]
            if _orient(pa, pb, q) == 0 and min(pa[0], pb[0]) <= q[0] <= max(pa[0], pb[0]) \
                    and min(pa[1], pb[1]) <= q[1] <= max(pa[1], pb[1]):
                return True
        for a, b, c in combinations(idx, 3):
            pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
            o1, o2, o3 = _orient(pa, pb, q), _orient(pb, pc, q), _orient(pc, pa, q)
            if (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0):
                if _orient(pa, pb, pc) != 0:
                    return True
        return False

    def closure(self, y: int) -> int:
        out = y
        for p in range(self.n):
            if not y >> p & 1 and self.in_hull(y, p):
                out |= 1 << p
        return out

    def family(self) -> list[int]:
        return [y for y in range(1 << self.n) if self.closure(y) == y]

    def convexly_independent(self, members) -> bool:
        mask = sum(1 << i for i in members)
        return not any(self.in_hull(mask & ~(1 << i), i) for i in members)

    def collinear(self, a: int, b: int, c: int) -> bool:
        return _orient(self.pts[a], self.pts[b], self.pts[c]) == 0

    def has_collinear_triple(self, ids) -> bool:
        return any(self.collinear(a, b, c) for a, b, c in combinations(ids, 3))


def on_line(base, direction, point) -> bool:
    """Rational point on the line base + t * direction (planar)."""
    dx, dy = direction
    return (Fraction(point[0]) - base[0]) * dy == (Fraction(point[1]) - base[1]) * dx
