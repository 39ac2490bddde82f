"""Runtime limits.

The enumeration bound caps the ground-set size for which closed-set
families are enumerated (worst case 2**bound sets).  Order of
precedence: explicit argument, CONVEXITY_LAB_BOUND environment
variable, built-in default.  A bound that is not a nonnegative integer
is an input error.  It is the only limit that can be set; every other
one is an entry of the read-only ``LIMITS``, or is derived from an entry
where it is checked.  Every refusal is raised by ``check_limit``.
"""

import os
from types import MappingProxyType

from .errors import CapacityError, InputError

DEFAULT_ENUMERATION_BOUND = 20

ENV_BOUND = "CONVEXITY_LAB_BOUND"

LIMITS = MappingProxyType({
    "line-cover": 16,  # points of min_line_cover (point line cover is NP-hard)
    "super-solvable": 10,  # ground set of find_super_solvable_order
    "oracle": 10,  # elements of brute_force_join_dimension
    "oracle-chains": 4,  # and its k_max
    "sublattice-search": 200,  # elements of find_sublattice_copy
    "pattern": 32,  # pattern elements of the embedding search: boolean(5), omega_prefix(4)
    "host": 10000,  # and its host elements
    "omega-depth": 8,  # omega_prefix(d) has 2**(d + 1) - 1 elements
})


def check_limit(what: str, value: int, name: str, limit: int | None = None) -> None:
    """Raise ``CapacityError`` if value exceeds the limit: "<what> <value>
    exceeds the <name> bound <limit>" for ``LIMITS[name]`` or the given
    enumeration bound, and "... exceeds the bound <limit> derived from the
    <name> bound <entry>" for a limit the caller derived from an entry."""
    entry = LIMITS.get(name, limit)
    limit = entry if limit is None else limit
    if value > limit:
        bound = f"the {name} bound {entry}"
        if limit != entry:
            bound = f"the bound {limit} derived from {bound}"
        raise CapacityError(f"{what} {value} exceeds {bound}")


def enumeration_bound(explicit: int | None = None) -> int:
    if explicit is None:
        env = os.environ.get(ENV_BOUND)
        if env is None:
            return DEFAULT_ENUMERATION_BOUND
        try:
            explicit = int(env)
        except ValueError:
            raise InputError(f"{ENV_BOUND} must be an integer, got '{env}'")
    if explicit < 0:
        raise InputError(f"the enumeration bound must be nonnegative, got {explicit}")
    return explicit


def check_ground_size(n: int, bound: int | None = None) -> None:
    """Raise ``CapacityError`` if a ground set of n elements exceeds the
    enumeration bound."""
    check_limit("ground set size", n, "enumeration", enumeration_bound(bound))
