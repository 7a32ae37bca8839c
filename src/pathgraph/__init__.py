"""Recognition, certification, and realization of path graphs: the
vertex-intersection graphs of paths in a tree."""

from .attach import AttachednessGraph, quotient
from .chordal import (
    CliqueTree,
    EliminationOrder,
    HoleCertificate,
    clique_tree,
    is_chordal,
    is_clique_path_tree,
    is_valid_clique_tree,
    maximal_cliques,
    peo_or_hole,
)
from .coloring import (
    Refutation,
    Skeleton,
    WeakColoring,
    check_canonical_conditions,
    skeleton,
    weak_coloring,
)
from .decompose import (
    Decomposition,
    GammaComponent,
    clique_separators,
    gamma_components,
)
from .errors import (
    GenerationError,
    GuardRefusal,
    InputError,
    InvariantError,
    PathgraphError,
    PreconditionError,
)
from .generate import SplitMix64, gen_chordal, gen_path_graph, k4_hub
from .graphs import (
    EdgeColoredGraph,
    Graph,
    connected_components,
    graph_plus,
)
from .obstructions import (
    FAMILY_ALL,
    FAMILY_BASE,
    Obstruction,
    ObstructionPattern,
    build_family,
    refutation_to_obstruction,
    verify_obstruction,
)
from .oracle import oracle_clique_path_tree
from .realize import (
    HostRealization,
    clique_path_tree_to_host,
    realize,
    verify_realization,
)
from .recognize import (
    DirectedVerdict,
    SeparatorReport,
    Verdict,
    recognize_directed_path_graph,
    recognize_path_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AttachednessGraph",
    "CliqueTree",
    "Decomposition",
    "DirectedVerdict",
    "EdgeColoredGraph",
    "EliminationOrder",
    "FAMILY_ALL",
    "FAMILY_BASE",
    "GammaComponent",
    "GenerationError",
    "Graph",
    "GuardRefusal",
    "HoleCertificate",
    "HostRealization",
    "InputError",
    "InvariantError",
    "Obstruction",
    "ObstructionPattern",
    "PathgraphError",
    "PreconditionError",
    "Refutation",
    "SeparatorReport",
    "Skeleton",
    "SplitMix64",
    "Verdict",
    "WeakColoring",
    "build_family",
    "check_canonical_conditions",
    "clique_path_tree_to_host",
    "clique_separators",
    "clique_tree",
    "connected_components",
    "gamma_components",
    "gen_chordal",
    "gen_path_graph",
    "graph_plus",
    "is_chordal",
    "is_clique_path_tree",
    "is_valid_clique_tree",
    "k4_hub",
    "maximal_cliques",
    "oracle_clique_path_tree",
    "peo_or_hole",
    "quotient",
    "realize",
    "recognize_directed_path_graph",
    "recognize_path_graph",
    "refutation_to_obstruction",
    "skeleton",
    "verify_obstruction",
    "verify_realization",
    "weak_coloring",
]
