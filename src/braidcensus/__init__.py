"""Braid-structured graphs: constructions, censuses, recognition, the
walk game, closed forms, and exhaustive small-n sweeps.

The package is organized bottom-up: graphs (bitmask graphs and graph6),
families (cluster braids and the named families built from them),
census (induced cycle and induced s-t path enumeration), formulas
(closed-form counts and bounds), recognition (verifying and discovering
braid structure), game (the Adversary/Builder walk game), sweep
(exhaustive maxima over all graphs on few vertices), and cli
(the command line surface over all of it).

The namespace is lazy (PEP 562): importing the package imports no
submodule.  Every read of a public name looks it up in its home module
(_EXPORTS), which the first read imports, so a process pays only for the
modules it uses.  Compiling a module from source costs several
milliseconds, about as much as a small CLI call's own work.  For the
same reason no module imports dataclasses, which loads inspect, ast, dis
and tokenize: the result types are frozen records on graphs._Record.

Nothing is cached in this namespace: every read of braidcensus.<name>
returns the home module's current attribute.  So a function patched in
its module (by monkeypatch, or by a tracer that wraps functions and
later restores them) is what the package hands out during the patch,
and the original is what it hands out after it.
"""

from importlib import import_module as _import_module

# home module -> the public names it defines
_EXPORTS = {
    "census": (
        "CycleCensus", "PathCensus", "TreeStats", "count_cycles_through",
        "count_induced_cycles", "count_induced_st_paths", "cycles_per_vertex",
        "p2_max", "path_tree_stats", "slow_census", "visit_induced_cycles",
    ),
    "families": (
        "BraidSpec", "ClusterPartition", "FamilyId", "build_braid", "build_E",
        "build_G", "build_H", "e_sizes", "f_central_multisets",
        "f_central_sequences", "g_sizes", "h_sizes", "member_of_F",
        "members_of_script_G", "script_g_multisets",
    ),
    "formulas": (
        "ExactCount", "RealBound", "f2", "f2_even", "f2_odd", "m_lower",
        "short_cycle_mass", "vertex_cycle_bound",
    ),
    "game": (
        "AtypicalReport", "GameState", "GameVerdict", "apply_move",
        "atypical_set", "is_bad", "legal_moves", "local_structure",
        "solve_typical_game",
    ),
    "graphs": (
        "FAMILY_TAGS", "QUANTITIES", "Graph", "Graph6Error", "InputError",
        "InternalError", "UnsupportedError", "ball", "canonical_code",
        "distance", "graph_from_pair_bits", "is_connected", "pair_bits_of",
        "parse_graph6", "to_graph6",
    ),
    "recognition": (
        "RecognitionReport", "classify_family_all", "discover_cyclic_braid",
        "maximal_3braids", "verify_braid",
    ),
    "sweep": (
        "SweepResult", "UniquenessReport", "exhaustive_max", "merge_sweeps",
        "quantity_of_graph", "verify_extremal_uniqueness",
    ),
}

# public name -> full name of its home module; a submodule is its own home
_HOME = {
    name: f"{__name__}.{home}"
    for home, names in _EXPORTS.items()
    for name in (home, *names)
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(home)
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
