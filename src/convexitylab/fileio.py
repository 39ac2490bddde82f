"""On-disk formats.

Everything is JSON with deterministic serialization (sorted keys,
two-space indent).  The extensional system file is the interchange
format; intensional systems are materialized on export.  Rationals are
written as exact "p/q" strings; no format carries floats.

Formats:

* closure system: ``{"ground": [labels], "closed": [[ids], ...]}``
* join-semilattice: ``{"elements": [labels], "join": [[ids], ...]}``
* poset: ``{"elements": [names], "covers": [[below, above], ...]}``
* points: ``{"dim": d, "points": [{"label": s, "coords": ["p/q", ...]}]}``
* permutation: ``[images]``
* multichain: ``{"elements": [names], "orders": [[ranks], ...]}``
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .bitset import bits
from .closure import ClosedSetLattice, ClosureSystem, GroundSet
from .errors import InputError
from .lattices import JoinSemilattice
from .ordergen import Multichain
from .posets import FinitePoset
from .relconvex import PointConfig


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # a number past the integer-string limit, or nesting past the recursion limit
        raise InputError(f"unreadable JSON: {exc}")


def _names(payload: dict[str, Any], key: str, what: str) -> tuple[str, ...]:
    names = payload[key]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise InputError(f"'{key}' must be a list of {what}")
    return tuple(names)


def _entries(payload: dict[str, Any], key: str) -> list[Any]:
    value = payload[key]
    if not isinstance(value, list):
        raise InputError(f"'{key}' must be a list")
    return value


def _is_int_list(value: Any) -> bool:
    """A JSON array of integers (``true`` and ``false`` are not integers)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def system_to_payload(
    system: ClosureSystem,
    bound: int | None = None,
    provenance: dict[str, str] | None = None,
) -> dict[str, Any]:
    lattice = system.enumerate_closed_sets(bound)
    payload: dict[str, Any] = {
        "ground": list(system.ground.labels),
        "closed": [sorted(bits(m)) for m in lattice.masks],
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def system_from_payload(payload: Any) -> ClosureSystem:
    if not isinstance(payload, dict) or "ground" not in payload or "closed" not in payload:
        raise InputError("system file needs 'ground' and 'closed' keys")
    ground = GroundSet(_names(payload, "ground", "labels"))
    family = set()
    for ids in _entries(payload, "closed"):
        if not _is_int_list(ids):
            raise InputError("'closed' must be a list of id lists")
        family.add(ground.mask_of(ids))
    return ClosureSystem.from_closed_family(ground, family)


def lattice_to_payload(lattice: ClosedSetLattice) -> dict[str, Any]:
    return {
        "ground": list(lattice.ground.labels),
        "closed": [sorted(bits(m)) for m in lattice.masks],
        "covers": [list(edge) for edge in lattice.covers()],
    }


def semilattice_to_payload(semilattice: JoinSemilattice) -> dict[str, Any]:
    return {
        "elements": list(semilattice.labels),
        "join": semilattice.join_table(),
    }


def semilattice_from_payload(payload: Any) -> JoinSemilattice:
    if not isinstance(payload, dict) or "elements" not in payload or "join" not in payload:
        raise InputError("semilattice file needs 'elements' and 'join' keys")
    return JoinSemilattice.from_table(_names(payload, "elements", "labels"), payload["join"])


def poset_from_payload(payload: Any) -> FinitePoset:
    if not isinstance(payload, dict) or "elements" not in payload:
        raise InputError("poset file needs 'elements' and 'covers' keys")
    names = _names(payload, "elements", "names")
    index = {name: i for i, name in enumerate(names)}
    covers = []
    edges = _entries(payload, "covers") if "covers" in payload else []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise InputError("'covers' entries must be pairs")
        if not all(isinstance(x, str) and x in index for x in edge):
            raise InputError(f"cover edge {edge} references unknown elements")
        a, b = edge
        covers.append((index[a], index[b]))
    return FinitePoset.from_covers(names, covers)


def points_from_payload(payload: Any) -> PointConfig:
    if not isinstance(payload, dict) or "dim" not in payload or "points" not in payload:
        raise InputError("points file needs 'dim' and 'points' keys")
    dim = payload["dim"]
    if type(dim) is not int or dim < 1:
        raise InputError("'dim' must be a positive integer")
    coords = []
    labels = []
    for i, entry in enumerate(_entries(payload, "points")):
        if not isinstance(entry, dict) or not isinstance(entry.get("coords"), list):
            raise InputError(f"point {i} must be an object with a 'coords' list")
        try:
            coords.append([Fraction(str(c)) for c in entry["coords"]])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"point {i} has a malformed rational: {exc}")
        label = entry.get("label", f"p{i}")
        if not isinstance(label, str):
            raise InputError(f"point {i} has a label that is not a string")
        labels.append(label)
    return PointConfig.from_coords(dim, coords, labels)


def points_to_payload(config: PointConfig) -> dict[str, Any]:
    return {
        "dim": config.dim,
        "points": [
            {"label": label, "coords": [str(c) for c in point]}
            for label, point in zip(config.labels, config.points)
        ],
    }


def permutation_from_payload(payload: Any) -> tuple[int, ...]:
    if not _is_int_list(payload):
        raise InputError("permutation file must be a JSON array of images")
    return tuple(payload)


def multichain_from_payload(payload: Any) -> Multichain:
    if not isinstance(payload, dict) or "elements" not in payload or "orders" not in payload:
        raise InputError("multichain file needs 'elements' and 'orders' keys")
    ground = GroundSet(_names(payload, "elements", "names"))
    orders = []
    for order in _entries(payload, "orders"):
        if not _is_int_list(order):
            raise InputError("'orders' entries must be integer rank vectors")
        orders.append(tuple(order))
    return Multichain(ground, tuple(orders))


def parse_any(text: str) -> Any:
    return _load_json(text)


def lattice_to_dot(lattice: ClosedSetLattice) -> str:
    """Hasse diagram of the closed sets, edges pointing bottom-up."""
    lines = ["digraph closed_sets {", "  rankdir=BT;"]
    for i, mask in enumerate(lattice.masks):
        label = lattice.ground.format_set(mask).replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in lattice.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
