"""Tournament domination, transitive colorings, box covers, net arithmetic."""

from .core import (
    ColoredTournament,
    Hypergraph,
    Tournament,
    all_color_masks,
    build_colored_tournament,
    build_tournament,
    color_tournament,
    cyclic_triangle,
    dominates,
    domination_hypergraph,
    format_colored_tournament,
    format_tournament,
    is_enclosure,
    is_transitive_digraph,
    monochromatic,
    parse_colored_tournament,
    parse_tournament,
    rainbow_triangle,
    random_coloring,
    random_tournament,
    scramble,
    scrambled_orientations,
    transitive_tournament,
    verify_transitive_coloring,
)
from .colorsearch import (
    bipartite_tournament,
    blowup_c3,
    find_transitive_coloring,
    majority_tournament,
    permutation_tournament,
    recover_permutation,
    substitute,
)
from .geometry import (
    BoxCoverCertificate,
    PointSet,
    box_contains,
    box_cover,
    classify_scrambling_3d,
    coordinate_tournament,
    exists_point_in_box,
    extremal_pointset,
    point_set,
    verify_box_cover,
)
from .paley import (
    discrepancy,
    is_k_paradoxical,
    paley_tournament,
    pt7_transitive_coloring,
    refute_transitive_coloring,
    vertex_types,
)
from .solvers import (
    DominationCertificate,
    FractionalSolution,
    NoSetWithinLimit,
    enclosure_via_scramblings,
    fractional_transversal,
    greedy_dominating_set,
    min_dominating_set,
    min_enclosure_set,
)
from .vcnets import (
    FeasibilityReport,
    epsnet_feasibility,
    epsnet_sample,
    parity_trace_bound,
    shatter_function,
    shatter_function_k,
    vc_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
