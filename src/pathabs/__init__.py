"""Digraph abstraction toolkit: contraction, detours, bypasses, and their
vertex/path abstractions, with weighted, random-model and temporal variants."""

from .digraph import (
    CyclicGraphError,
    Digraph,
    DigraphError,
    NeighborClassification,
    PathEnumeration,
    classify_vertex,
    contract_blocks,
    count_walks_dag,
    enumerate_paths,
    graph_sources,
    graph_targets,
    induced_subgraph,
    is_acyclic,
    reachability,
    strongly_connected_components,
    transitive_reduction_dag,
)
from .pabstract import (
    bypass,
    bypass_set,
    detour,
    detour_set,
    naive_bypass,
    path_abstract,
    project_path,
)
from .partitions import (
    Coloring,
    PartialPartition,
    PartitionError,
    canonicalize,
    complete_partial,
    drop_element,
    partition_from_labels,
    refines,
)
from .semirings import (
    BOOLEAN,
    COUNTING,
    MINPLUS_NONNEG,
    REAL,
    SemiringSpec,
    check_semiring_laws,
    get_semiring,
)
from .temporal import (
    DTCN,
    Contact,
    TemporalDigraph,
    build_temporal_digraph,
    dtcn_contract,
    dtcn_detour,
    dtcn_path_abstract,
    naive_dtcn_detour,
    sample_dtcn,
    temporal_fiber,
    temporal_path_probability,
)
from .vabstract import ColoredDigraph, block_contraction_morphism, vertex_abstract
from .weighted import (
    CommutationReport,
    detours_commute,
    double_detour,
    weighted_contract_commutes,
)

__version__ = "0.1.0"
