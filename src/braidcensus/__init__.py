"""Braid-structured graphs: constructions, censuses, recognition, the
walk game, closed forms, and exhaustive small-n sweeps.

The package is organized bottom-up: graphs (bitmask graphs and graph6),
families (cluster braids and the named families built from them),
census (induced cycle and induced s-t path enumeration), formulas
(closed-form counts and bounds), recognition (verifying and discovering
braid structure), game (the Adversary/Builder walk game), sweep
(exhaustive maxima over all graphs on few vertices), and cli
(the command line surface over all of it).
"""

from .census import (
    QUANTITIES,
    CycleCensus,
    PathCensus,
    TreeStats,
    count_cycles_through,
    count_induced_cycles,
    count_induced_st_paths,
    cycles_per_vertex,
    p2_max,
    path_tree_stats,
    slow_census,
    visit_induced_cycles,
)
from .families import (
    FAMILY_TAGS,
    BraidSpec,
    ClusterPartition,
    FamilyId,
    build_braid,
    build_E,
    build_G,
    build_H,
    e_sizes,
    f_central_multisets,
    f_central_sequences,
    g_sizes,
    h_sizes,
    member_of_F,
    members_of_script_G,
    script_g_multisets,
)
from .formulas import (
    ExactCount,
    RealBound,
    f2,
    f2_even,
    f2_odd,
    m_lower,
    short_cycle_mass,
    vertex_cycle_bound,
)
from .game import (
    AtypicalReport,
    GameState,
    GameVerdict,
    apply_move,
    atypical_set,
    is_bad,
    legal_moves,
    local_structure,
    solve_typical_game,
)
from .graphs import (
    CanonicalCode,
    Graph,
    Graph6Error,
    InputError,
    InternalError,
    UnsupportedError,
    ball,
    canonical_code,
    distance,
    graph_from_pair_bits,
    is_connected,
    pair_bits_of,
    parse_graph6,
    to_graph6,
)
from .recognition import (
    RecognitionReport,
    candidate_cyclic_partitions,
    classify_family_all,
    discover_cyclic_braid,
    maximal_3braids,
    verify_braid,
)
from .sweep import (
    SweepResult,
    UniquenessReport,
    exhaustive_max,
    merge_sweeps,
    quantity_of_graph,
    verify_extremal_uniqueness,
)

__all__ = sorted(name for name in globals() if not name.startswith("_"))
