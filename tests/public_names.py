"""Why each public name of braidcensus stays public.

A name stays in `braidcensus.__all__` only if the CLI, a demo, a check
or a question of the paper needs it.  PUBLIC_NAMES maps every name in
`__all__` to (reason, detail), where reason is one of REASONS; the
tests fail when a name has no entry or an entry names nothing public.
A new public name comes with its reason here.
"""

CLI = "cli"            # a subcommand runs it, or it is a module the CLI loads
DEMO = "demo"          # a script under demos/ calls it
ORACLE = "oracle"      # a check compares an engine, or a solver's line, with it
RESULT = "result"      # a public function returns it or raises it
PROFILE = "profile"    # it lists a family's cluster sizes or members
# perfbench calls it and nothing else needs it; it goes when the
# benchmark's workloads stop calling it
BENCHMARK_ONLY = "benchmark only"
REASONS = (CLI, DEMO, ORACLE, RESULT, PROFILE, BENCHMARK_ONLY)

PUBLIC_NAMES = {
    # modules
    "census": (CLI, "count and paths"),
    "families": (CLI, "construct"),
    "formulas": (CLI, "formula"),
    "game": (CLI, "game and atypical"),
    "graphs": (CLI, "graph6 input and output"),
    "recognition": (CLI, "recognize"),
    "sweep": (CLI, "verify"),
    # graphs
    "FAMILY_TAGS": (CLI, "construct --family choices"),
    "QUANTITIES": (CLI, "verify --quantity choices"),
    "Graph": (CLI, "every subcommand's graph"),
    "Graph6Error": (RESULT, "parse_graph6 raises it"),
    "InputError": (RESULT, "every input check raises it; the CLI exits 2"),
    "InternalError": (RESULT, "a failed internal cross-check raises it"),
    "UnsupportedError": (RESULT, "raised past a supported size"),
    "ball": (DEMO, "game_walkthrough"),
    "canonical_code": (CLI, "verify's extremal codes"),
    "distance": (CLI, "game's input check"),
    "graph_from_pair_bits": (ORACLE, "checks enumerate every small graph by it"),
    "is_connected": (CLI, "game's input check"),
    "pair_bits_of": (ORACLE, "inverse of graph_from_pair_bits"),
    "parse_graph6": (CLI, "--input"),
    "to_graph6": (CLI, "construct"),
    # families
    "BraidSpec": (DEMO, "game_walkthrough builds a braid from one"),
    "ClusterPartition": (RESULT, "the builders and discover_cyclic_braid"),
    "FamilyId": (RESULT, "classify_family_all"),
    "build_braid": (CLI, "construct --family G_script"),
    "build_E": (CLI, "construct --family E"),
    "build_G": (CLI, "construct --family G"),
    "build_H": (CLI, "construct --family H"),
    "member_of_F": (CLI, "construct --family F, F_odd, F_even"),
    "e_sizes": (PROFILE, "E's cluster sizes"),
    "f_central_multisets": (PROFILE, "F's central sizes"),
    "f_central_sequences": (PROFILE, "F's members, by variant"),
    "g_sizes": (PROFILE, "G's cluster sizes"),
    "h_sizes": (PROFILE, "H's cluster sizes"),
    "members_of_script_G": (PROFILE, "G_script's members"),
    "script_g_multisets": (PROFILE, "G_script's cluster sizes"),
    # census
    "CycleCensus": (RESULT, "count_induced_cycles"),
    "PathCensus": (RESULT, "count_induced_st_paths"),
    "count_induced_cycles": (CLI, "count"),
    "count_induced_st_paths": (CLI, "paths"),
    "p2_max": (CLI, "verify --quantity p2"),
    "cycles_per_vertex": (DEMO, "census_tour"),
    "count_cycles_through": (ORACLE, "second route of cycles_per_vertex"),
    "slow_census": (ORACLE, "the subset oracle"),
    "visit_induced_cycles": (ORACLE, "the fold's enumerating oracle"),
    "path_tree_stats": (BENCHMARK_ONLY, "no question of the paper reads it"),
    "TreeStats": (BENCHMARK_ONLY, "path_tree_stats returns it"),
    # formulas
    "ExactCount": (RESULT, "the closed forms"),
    "RealBound": (RESULT, "vertex_cycle_bound"),
    "f2": (CLI, "formula --name f2"),
    "f2_even": (CLI, "formula --name f2_even"),
    "f2_odd": (CLI, "formula --name f2_odd"),
    "m_lower": (CLI, "formula --name m_lower"),
    "short_cycle_mass": (CLI, "formula --name short_mass"),
    "vertex_cycle_bound": (CLI, "formula --name vertex_bound"),
    # recognition
    "RecognitionReport": (RESULT, "verify_braid"),
    "classify_family_all": (CLI, "recognize"),
    "discover_cyclic_braid": (CLI, "recognize"),
    "verify_braid": (CLI, "recognize"),
    "maximal_3braids": (BENCHMARK_ONLY, "classify_family_all answers recognition"),
    # game
    "AtypicalReport": (RESULT, "atypical_set"),
    "GameVerdict": (RESULT, "solve_typical_game"),
    "atypical_set": (CLI, "atypical"),
    "solve_typical_game": (CLI, "game"),
    "local_structure": (DEMO, "game_walkthrough"),
    "GameState": (ORACLE, "the game's rules, move by move"),
    "apply_move": (ORACLE, "the game's rules, move by move"),
    "is_bad": (ORACLE, "the game's rules, move by move"),
    "legal_moves": (ORACLE, "the game's rules, move by move"),
    # sweep
    "SweepResult": (RESULT, "exhaustive_max"),
    "UniquenessReport": (RESULT, "verify_extremal_uniqueness"),
    "exhaustive_max": (CLI, "verify"),
    "merge_sweeps": (CLI, "verify --merge"),
    "quantity_of_graph": (CLI, "the score verify maximises"),
    "verify_extremal_uniqueness": (DEMO, "sweep_small_n"),
}
