"""Parking functions and parking sets over finite set systems.

Core objects: weighted universes and ordered set families, the two
membership predicates and their permutation certificates, the pair of
mutually inverse mappings between the families, exhaustive enumeration
oracles, and the matroid / multigraph applications (basis identities,
spanning-tree bijections, degree-defined parking functions).
"""

from .systems import (
    MAX_CHECK_SETS,
    ParkingSetCertificate,
    SetSystem,
    Universe,
    VerificationError,
    delta,
    drop_first_set,
    exactly_one,
    exactly_one_sets,
    is_parking_function,
    is_parking_set,
    parking_function_permutation,
    parking_set_permutation,
    reduce_function,
    reduce_set,
)
from .bijections import BijectionTrace, rho, sigma
from .enumeration import (
    ScanReport,
    VerificationReport,
    all_set_systems,
    enumerate_parking_functions,
    enumerate_parking_sets,
    exhaustive_roundtrip_scan,
    random_set_system,
    verify_bijection,
)
from .matroids import (
    BasesIdentityReport,
    Matroid,
    PreconditionError,
    cocircuit_union_subsets,
    corollary_full_cover,
    find_cocircuit_cover_families,
    parking_sets_vs_bases_circuit_side,
    parking_sets_vs_bases_cocircuit_side,
    theorem_bijection,
    uniform_matroid,
)
from .graphs import (
    GParkingReport,
    Multigraph,
    classic_correspondence,
    classic_parking_functions,
    complete_graph,
    deletion_contraction_count,
    face_boundary_bijection,
    g_parking_equals_s_parking,
    graphic_matroid,
    is_g_parking_function,
    random_connected_multigraph,
    spanning_tree_bijection,
    spanning_trees,
    star_sets,
    star_system,
)

__version__ = "0.1.0"
