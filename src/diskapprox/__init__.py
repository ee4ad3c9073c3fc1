"""Approximation heuristics with provable guarantees for disk intersection
graphs, plus exact oracles and a reproducible benchmark harness."""

from .covering import (
    ArrivalSequence,
    Coloring,
    color_offline,
    color_online_firstfit,
    coloring_lower_bound,
    vertex_cover,
)
from .domination import (
    connected_dominating_set,
    dominating_set,
    independent_set_graph,
    total_dominating_set,
)
from .exact import (
    DEFAULT_LIMITS,
    OracleLimits,
    exact_chromatic,
    exact_clique,
    exact_domination,
    exact_mis,
    exact_vc,
)
from .geometry import (
    GeometricInstance,
    instance_to_graph,
    polygon_independence_bound,
    random_connected_instance,
    random_instance,
    sector_clique,
    sweep_order,
)
from .graphs import (
    Graph,
    VertexSet,
    bfs_levels,
    build_graph,
    components,
    degeneracy_ordering,
    greedy_maximal_independent_set,
    induced_subgraph,
    is_connected,
)
from .matching import NtDecomposition, nt_decompose

__version__ = "0.1.0"
