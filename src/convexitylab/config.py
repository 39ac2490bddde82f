"""Runtime limits.

The enumeration bound caps the ground-set size for which closed-set
families are enumerated (worst case 2**bound sets).  Order of
precedence: explicit argument, CONVEXITY_LAB_BOUND environment
variable, built-in default.  A bound that is not a nonnegative integer
is an input error.
"""

import os

from .errors import CapacityError, InputError

DEFAULT_ENUMERATION_BOUND = 20

ENV_BOUND = "CONVEXITY_LAB_BOUND"


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
    limit = enumeration_bound(bound)
    if n > limit:
        raise CapacityError(f"ground set size {n} exceeds the enumeration bound {limit}")
