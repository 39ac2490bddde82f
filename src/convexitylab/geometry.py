"""Convex-geometry membership and structural criteria.

A convex geometry is a zero-closed closure system satisfying the
anti-exchange axiom: for closed A and distinct x, y outside A,
x in close(A + y) forbids y in close(A + x).  This module decides that
membership and the related lattice-level criteria: cover structure,
support reduction, the convexity-lattice characterization ("y < y v u
= y v v forces u = v" over join-irreducibles u, v),
super solvability, forbidden-sublattice tests, and the antimatroid
construction from a distributive lattice.

All checks are pure functions over immutable inputs; verdicts are
deterministic and every witness can be re-checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

from .bitset import bits, is_subset, popcount
from .closure import ClosedSetLattice, ClosureSystem, GroundSet, restrict
from .config import check_limit
from .errors import InputError, InternalError
from .lattices import Lattice, as_lattice


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome with a re-checkable counterexample on failure."""

    holds: bool
    witness: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise InputError("a passing verdict carries no witness")
        if not self.holds and self.witness is None:
            raise InputError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.holds


_PASS = Verdict(True)


def check_zero_closed(system: ClosureSystem) -> Verdict:
    closure_of_empty = system.close(0)
    if closure_of_empty == 0:
        return _PASS
    return Verdict(
        False,
        {
            "kind": "zero-closure",
            "close_empty": system.ground.set_labels(closure_of_empty),
        },
    )


def check_anti_exchange(system: ClosureSystem, bound: int | None = None) -> Verdict:
    """Exhaustive anti-exchange check.

    Closed sets are visited in canonical order and pairs
    lexicographically, so the first witness is deterministic.
    """
    lattice = system.enumerate_closed_sets(bound)
    full = system.ground.full_mask
    for a in lattice.masks:
        outside = list(bits(full & ~a))
        if len(outside) < 2:
            continue
        closures = {x: system.close(a | (1 << x)) for x in outside}
        for x in outside:
            for y in outside:
                if x == y:
                    continue
                if closures[y] >> x & 1 and closures[x] >> y & 1:
                    g = system.ground
                    return Verdict(
                        False,
                        {
                            "kind": "anti-exchange",
                            "closed_set": g.set_labels(a),
                            "x": g.labels[x],
                            "y": g.labels[y],
                        },
                    )
    return _PASS


def is_convex_geometry(system: ClosureSystem, bound: int | None = None) -> Verdict:
    zero = check_zero_closed(system)
    if not zero:
        return zero
    return check_anti_exchange(system, bound)


def check_cover_structure(lattice: ClosedSetLattice) -> Verdict:
    """Every Hasse cover adds one point whose singleton closure is
    join-irreducible."""
    ji = set(lattice.join_irreducibles())
    g = lattice.ground
    for i, j in lattice.covers():
        added = lattice.masks[j] & ~lattice.masks[i]
        if popcount(added) != 1:
            return Verdict(
                False,
                {
                    "kind": "cover-width",
                    "lower": g.set_labels(lattice.masks[i]),
                    "upper": g.set_labels(lattice.masks[j]),
                    "added": g.set_labels(added),
                },
            )
        x = next(bits(added))
        if lattice.closure_of_singleton(x) not in ji:
            return Verdict(
                False,
                {
                    "kind": "singleton-not-irreducible",
                    "element": g.labels[x],
                    "closure": g.set_labels(lattice.masks[lattice.closure_of_singleton(x)]),
                },
            )
    return _PASS


@dataclass(frozen=True)
class SupportReduction:
    """Restriction of a geometry to the join-irreducible support."""

    support: int
    reduced: ClosureSystem
    set_map: dict[int, int]


def spatial_support_reduction(
    system: ClosureSystem, bound: int | None = None
) -> SupportReduction:
    """Restrict a convex geometry to Y = {y : close({y}) join-irreducible}.

    The map A -> A & Y is a containment-order bijection between the two
    closed-set families; failure of bijectivity is an internal error.
    """
    verdict = is_convex_geometry(system, bound)
    if not verdict:
        raise InputError(f"input is not a convex geometry: {verdict.witness}")
    lattice = system.enumerate_closed_sets(bound)
    ji = set(lattice.join_irreducibles())
    support = 0
    for x in range(system.ground.size):
        if lattice.closure_of_singleton(x) in ji:
            support |= 1 << x
    if support == 0:
        raise InternalError("empty join-irreducible support")
    reduced = restrict(system, support)
    kept = list(bits(support))
    new_of_old = {old: new for new, old in enumerate(kept)}

    def shrink(mask: int) -> int:
        out = 0
        for old in bits(mask & support):
            out |= 1 << new_of_old[old]
        return out

    set_map = {m: shrink(m) for m in lattice.masks}
    if len(set(set_map.values())) != len(set_map):
        raise InternalError("support reduction failed to be a bijection")
    return SupportReduction(support, reduced, set_map)


def check_convexity_characterization(lattice: Lattice | ClosedSetLattice) -> Verdict:
    """Spatial plus: y < y v u = y v v forces u = v for join-irreducibles.

    Plain join-irreducibles (unique lower cover) stand in for the
    completely join-irreducible elements, which coincide at finite
    scale.  Only the second part is checked: every finite lattice is
    spatial (by induction on height, y is the join of two lower covers).
    """
    lat = as_lattice(lattice)
    ji = lat.join_irreducibles()
    for y in range(lat.size):
        for ui in range(len(ji)):
            u = ji[ui]
            yu = lat.join(y, u)
            if yu == y:
                continue
            for v in ji[ui + 1 :]:
                if lat.join(y, v) == yu:
                    return Verdict(
                        False,
                        {
                            "kind": "join-cancellation",
                            "y": lat.labels[y],
                            "u": lat.labels[u],
                            "v": lat.labels[v],
                        },
                    )
    return _PASS


def convex_geometry_from_lattice(lattice: Lattice | ClosedSetLattice) -> ClosureSystem:
    """Geometry on the join-irreducibles with close(Y) = [0, vY] & X."""
    lat = as_lattice(lattice)
    verdict = check_convexity_characterization(lat)
    if not verdict:
        raise InputError(f"lattice fails the convexity characterization: {verdict.witness}")
    ji = lat.join_irreducibles()
    ground = GroundSet(tuple(lat.labels[j] for j in ji))
    position = {j: p for p, j in enumerate(ji)}
    family = set()
    for a in range(lat.size):
        mask = 0
        for j in ji:
            if lat.leq(j, a):
                mask |= 1 << position[j]
        family.add(mask)
    if len(family) != lat.size:
        raise InternalError("join-irreducible supports failed to separate elements")
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def check_super_solvable(
    system: ClosureSystem, ordering: tuple[int, ...], bound: int | None = None
) -> Verdict:
    """Whether deleting the ordering-least new element of a closed set
    always leaves a closed set.

    ``ordering`` lists the ground elements from least to greatest.
    """
    n = system.ground.size
    if sorted(ordering) != list(range(n)):
        raise InputError("ordering must be a permutation of the ground set")
    rank = {e: r for r, e in enumerate(ordering)}
    lattice = system.enumerate_closed_sets(bound)
    fam = lattice.masks
    for a in fam:
        for b in fam:
            if is_subset(a, b):
                continue
            diff = a & ~b
            least = min(bits(diff), key=lambda e: rank[e])
            if a & ~(1 << least) not in lattice:
                g = system.ground
                return Verdict(
                    False,
                    {
                        "kind": "super-solvable",
                        "A": g.set_labels(a),
                        "B": g.set_labels(b),
                        "a": g.labels[least],
                    },
                )
    return _PASS


def find_super_solvable_order(
    system: ClosureSystem, bound: int | None = None
) -> tuple[int, ...] | None:
    """Search all orderings, pruning on pairs decided by the placed prefix.

    Returns the lexicographically least passing ordering, or None.
    """
    n = system.ground.size
    check_limit("ground set size", n, "super-solvable")
    lattice = system.enumerate_closed_sets(bound)
    fam = lattice.masks
    in_family = set(fam)
    # The condition for a pair (A, B) depends only on A and D = A \ B.
    conditions = sorted({(a, a & ~b) for a in fam for b in fam if not is_subset(a, b)})

    def extend(prefix: list[int], placed: int, remaining: list[int]) -> tuple[int, ...] | None:
        if not remaining:
            return tuple(prefix)
        for e in remaining:
            ebit = 1 << e
            ok = True
            for a, d in conditions:
                if d & ebit and not d & placed:
                    if a & ~ebit not in in_family:
                        ok = False
                        break
            if not ok:
                continue
            result = extend(
                prefix + [e], placed | ebit, [r for r in remaining if r != e]
            )
            if result is not None:
                return result
        return None

    try:
        return extend([], 0, list(range(n)))
    finally:
        del extend  # it refers to itself; dropping it frees the cycle now


def _median_defect(lat: Lattice) -> tuple[int, int, int] | None:
    for x in range(lat.size):
        for y in range(lat.size):
            for z in range(lat.size):
                if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
                    return (x, y, z)
    return None


def _modular_defect(lat: Lattice) -> tuple[int, int, int] | None:
    for x in range(lat.size):
        for z in range(lat.size):
            if not lat.leq(x, z):
                continue
            for y in range(lat.size):
                if lat.join(x, lat.meet(y, z)) != lat.meet(lat.join(x, y), z):
                    return (x, y, z)
    return None


def _is_m3_copy(lat: Lattice, elems: tuple[int, int, int, int, int]) -> bool:
    bot, a, b, c, top = elems
    if len(set(elems)) != 5:
        return False
    for u, v in ((a, b), (a, c), (b, c)):
        if lat.join(u, v) != top or lat.meet(u, v) != bot:
            return False
    return lat.leq(bot, top) and bot != top


def _is_n5_copy(lat: Lattice, elems: tuple[int, int, int, int, int]) -> bool:
    bot, p, q, y, top = elems
    if len(set(elems)) != 5:
        return False
    if not (lat.leq(p, q) and p != q):
        return False
    return (
        lat.join(p, y) == top
        and lat.join(q, y) == top
        and lat.meet(p, y) == bot
        and lat.meet(q, y) == bot
    )


def find_sublattice_copy(
    lattice: Lattice | ClosedSetLattice, pattern: str
) -> tuple[int, ...] | None:
    """Exhaustive search for an M3 or N5 sublattice copy."""
    lat = as_lattice(lattice)
    check_limit("lattice size", lat.size, "sublattice-search")
    n = lat.size
    if pattern == "M3":
        for a in range(n):
            for b in range(a + 1, n):
                top = lat.join(a, b)
                bot = lat.meet(a, b)
                if top in (a, b) or bot in (a, b):
                    continue
                for c in range(b + 1, n):
                    if (
                        lat.join(a, c) == top
                        and lat.join(b, c) == top
                        and lat.meet(a, c) == bot
                        and lat.meet(b, c) == bot
                        and c not in (top, bot)
                    ):
                        return (bot, a, b, c, top)
        return None
    if pattern == "N5":
        for p in range(n):
            for q in range(n):
                if p == q or not lat.leq(p, q):
                    continue
                for y in range(n):
                    top = lat.join(p, y)
                    bot = lat.meet(q, y)
                    cand = (bot, p, q, y, top)
                    if _is_n5_copy(lat, cand):
                        return cand
        return None
    raise InputError("pattern must be 'M3' or 'N5'")


def _semimodular(lat: Lattice) -> bool:
    """Upper and lower semimodularity on pairs of covers: two upper covers
    of an element join to a common upper cover of both, and two lower
    covers meet in a common lower cover of both."""
    for x in range(lat.size):
        for a, b in combinations(lat.upper_covers(x), 2):
            if not {a, b} <= set(lat.lower_covers(lat.join(a, b))):
                return False
        for a, b in combinations(lat.lower_covers(x), 2):
            if not {a, b} <= set(lat.upper_covers(lat.meet(a, b))):
                return False
    return True


def is_modular(lattice: Lattice | ClosedSetLattice) -> Verdict:
    """A finite lattice is modular iff it is upper and lower semimodular
    (Grätzer, Lattice Theory: Foundation, 2011), which is checked on
    pairs of covers.  Only on failure does the cubic modular-law scan
    run; for its failing triple x <= z, Dedekind's elements y ^ z,
    x v (y ^ z) < (x v y) ^ z, y and x v y always form an N5 copy."""
    lat = as_lattice(lattice)
    if _semimodular(lat):
        return _PASS
    defect = _modular_defect(lat)
    if defect is None:
        raise InternalError("semimodularity failed yet the modular law holds")
    x, y, z = defect
    p = lat.join(x, lat.meet(y, z))
    q = lat.meet(lat.join(x, y), z)
    elems = (lat.meet(y, z), p, q, y, lat.join(x, y))
    if not _is_n5_copy(lat, elems):
        raise InternalError("Dedekind's construction gave no N5 copy")
    return Verdict(
        False,
        {"kind": "N5", "elements": [lat.labels[e] for e in elems]},
    )


def is_distributive(lattice: Lattice | ClosedSetLattice) -> Verdict:
    """A finite lattice is distributive iff every join-irreducible is
    join-prime (Birkhoff 1937), i.e. J(x v y) = J(x) | J(y) for the masks
    J(x) of join-irreducibles below x.  On failure a non-modular lattice
    gets the N5 witness of ``is_modular``; otherwise the cubic median-law
    scan runs.  For its failing triple, m = (x ^ y) v (y ^ z) v (z ^ x)
    and t = (x v y) ^ (y v z) ^ (z v x), modularity gives
    x ^ m = (x ^ y) v (x ^ z) < x ^ (y v z) = x ^ t, so m < t, and
    Birkhoff's elements m, m v (x ^ t), m v (y ^ t), m v (z ^ t), t
    always form an M3 copy."""
    lat = as_lattice(lattice)
    jmask = sum(1 << j for j in lat.join_irreducibles())
    below = [lat.down(x) & jmask for x in range(lat.size)]
    pairs = combinations(range(lat.size), 2)
    if all(below[lat.join(x, y)] == below[x] | below[y] for x, y in pairs):
        return _PASS
    modular = is_modular(lat)
    if not modular:
        return Verdict(False, modular.witness)
    defect = _median_defect(lat)
    if defect is None:
        raise InternalError("a join-irreducible is not join-prime yet the median law holds")
    x, y, z = defect
    m = lat.join(lat.join(lat.meet(x, y), lat.meet(y, z)), lat.meet(z, x))
    top = lat.meet(lat.meet(lat.join(x, y), lat.join(y, z)), lat.join(z, x))
    a = lat.join(m, lat.meet(x, top))
    b = lat.join(m, lat.meet(y, top))
    c = lat.join(m, lat.meet(z, top))
    elems = (m, a, b, c, top)
    if not _is_m3_copy(lat, elems):
        raise InternalError("Birkhoff's construction gave no M3 copy")
    return Verdict(
        False,
        {"kind": "M3", "elements": [lat.labels[e] for e in elems]},
    )


def antimatroid_from_distributive(lattice: Lattice | ClosedSetLattice) -> ClosureSystem:
    """Zero-closed anti-exchange system on the meet-irreducibles of a
    distributive lattice; its closed-set lattice is dual to the input.

    close(Y) = {m meet-irreducible : m >= the meet of Y}, with the
    empty meet read as the top element.
    """
    lat = as_lattice(lattice)
    verdict = is_distributive(lat)
    if not verdict:
        raise InputError(f"lattice is not distributive: {verdict.witness}")
    mi = lat.meet_irreducibles()
    if not mi:
        raise InputError("lattice has no meet-irreducible elements")
    ground = GroundSet(tuple(lat.labels[m] for m in mi))
    family = set(antimatroid_dual_map(lat).values())
    if len(family) != lat.size:
        raise InternalError("meet-irreducible filters failed to separate elements")
    return ClosureSystem.from_closed_family(ground, family, _trusted=True)


def antimatroid_dual_map(lattice: Lattice | ClosedSetLattice) -> dict[int, int]:
    """The anti-isomorphism x -> {m meet-irreducible : m >= x} as masks."""
    lat = as_lattice(lattice)
    mi = lat.meet_irreducibles()
    out = {}
    for x in range(lat.size):
        mask = 0
        for p, m in enumerate(mi):
            if lat.leq(x, m):
                mask |= 1 << p
        out[x] = mask
    return out
