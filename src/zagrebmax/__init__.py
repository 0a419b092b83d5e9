"""Extremal second-Zagreb-index graphs for prescribed degree sequences."""

from .bicyclic import (
    BicyclicMaxResult,
    bicyclic_max_m2,
    build_glued_cycles_with_paths,
    build_path_joined_cycles,
    build_theta,
    build_vertex_glued_cycles,
)
from .constructor import (
    ConstructionTrace,
    construct_extremal,
    construct_extremal_bicyclic,
    verify_bfs_ordering,
)
from .errors import CapExceededError, ConstructionError, DomainError, ParseError
from .graphs import (
    SimpleGraph,
    canonical_form,
    degree_sequence_of,
    is_connected,
    is_isomorphic,
    parse_edge_list,
    second_zagreb,
    serialize_edge_list,
    to_dot,
)
from .oracle import (
    EdgeSwap,
    NeighborTransfer,
    OracleResult,
    apply_edge_swap,
    apply_neighbor_transfer,
    enumerate_realizations,
    hill_climb,
    search_max_m2,
)
from .sequences import (
    DegreeSequence,
    MajorizationOrder,
    OptimalityConditions,
    SequenceClass,
    check_optimality_conditions,
    classify,
    connected_realizable_sequences,
    is_connected_realizable,
    is_graphic,
    majorization_chain,
    majorization_compare,
)

__version__ = "0.1.0"
