"""convexitylab: finite closure systems, convex geometries, and
join-semilattice obstruction analysis with exact arithmetic."""

from .closure import (
    ClosedSetLattice,
    ClosureSystem,
    GroundSet,
    MaximalChain,
    chain_retraction,
    enumerate_closed_sets,
    join_of_systems,
    maximal_chains,
    restrict,
)
from .dimension import (
    ChainCover,
    brute_force_join_dimension,
    embed_via_chain_covers,
    join_dimension,
    meet_irreducibles,
    min_chain_cover,
    verify_duality,
)
from .errors import CapacityError, InputError, InternalError
from .geometry import (
    Verdict,
    antimatroid_from_distributive,
    check_anti_exchange,
    check_convexity_characterization,
    check_cover_structure,
    check_super_solvable,
    check_zero_closed,
    convex_geometry_from_lattice,
    find_sublattice_copy,
    find_super_solvable_order,
    is_convex_geometry,
    is_distributive,
    is_modular,
    spatial_support_reduction,
)
from .lattices import (
    JoinSemilattice,
    Lattice,
    as_lattice,
    boolean_lattice,
    chain_lattice,
    downset_lattice,
    m3,
    n5,
)
from .obstructions import (
    EmbeddingMap,
    Pattern,
    boolean_pattern,
    embeds_as_join_subsemilattice,
    independent_sets,
    interval_chain_pattern,
    obstruction_report,
    omega_prefix_pattern,
)
from .ordergen import (
    Multichain,
    OmegaPrefix,
    bichain_from_permutation,
    compact_semilattice_of_geometry,
    delta_semilattice,
    final_system,
    initial_system,
    interval_factorization,
    interval_system,
    multichain_system,
    omega_prefix,
    suborder_system,
    subsemilattice_system,
)
from .posets import FinitePoset
from .relconvex import (
    Line,
    PointConfig,
    check_es5,
    dimension_sandwich_report,
    hull_membership,
    hull_membership_caratheodory,
    max_convexly_independent,
    min_line_cover,
    relconvex_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
