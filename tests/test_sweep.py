"""Exhaustive sweeps on small n.

Every non-formula pin here was produced by the sweep itself and then
sanity-checked by hand against a construction: complete graphs maximize
induced cycle counts (only their triangles are chordless), balanced
complete bipartite graphs maximize the even count, and the path maxima
agree with the closed form with extremal classes that are exactly the
intra-edge variants of the admissible path braids.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

import braidcensus
from braidcensus import sweep
from braidcensus.cli import main
from braidcensus.census import PathCensus, slow_census
from braidcensus.families import member_of_F, build_H
from braidcensus.formulas import ExactCount, f2
from braidcensus.graphs import (
    QUANTITIES,
    Graph,
    InputError,
    InternalError,
    canonical_code,
    graph_from_pair_bits,
    parse_graph6,
    to_graph6,
)
from braidcensus.sweep import (
    A000088,
    SweepResult,
    checkpoint_line,
    exhaustive_max,
    merge_sweeps,
    parse_checkpoint_line,
    quantity_of_graph,
    shard_range,
    verify_extremal_uniqueness,
)

from graph_helpers import complete_bipartite, complete_graph, cycle_graph


def canon(g: Graph) -> str:
    return canonical_code(g)


# ======================================================================
# path-count sweeps against the closed form
# ======================================================================


def test_p2_sweep_matches_closed_form():
    for n in (4, 5, 6):
        result = exhaustive_max(n, "p2")
        assert result.max.value == f2(n).value
        assert result.graphs_scanned == 1 << (n * (n - 1) // 2)


def test_p2_extremal_classes_at_n4():
    result = exhaustive_max(4, "p2")
    square = cycle_graph(4)
    diamond = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    assert result.extremal_codes == {canon(square), canon(diamond)}


def test_p2_extremal_classes_are_intra_variants():
    # the extremal graphs are path braids with arbitrary edges inside
    # central clusters: one 3-cluster has 4 intra patterns up to
    # isomorphism at n=5; at n=6 a 4-cluster has 11 and a 2+2 split has 3
    assert len(exhaustive_max(5, "p2").extremal_codes) == 4
    assert len(exhaustive_max(6, "p2").extremal_codes) == 14


def test_p2_parity_sweeps():
    # 3-vertex paths have an odd vertex count, so the odd maximum and
    # its extremal classes coincide with the plain ones at n=4
    plain, odd = exhaustive_max(4, "p2"), exhaustive_max(4, "p2_odd")
    assert odd.max.value == 2
    assert odd.extremal_codes == plain.extremal_codes
    even5 = exhaustive_max(5, "p2_even")
    assert even5.max.value == 2
    assert len(even5.extremal_codes) == 2  # 2-cluster intra variants
    even6 = exhaustive_max(6, "p2_even")
    assert even6.max.value == 4
    assert len(even6.extremal_codes) == 3  # 2+2 central intra variants


# ======================================================================
# cycle-count sweeps
# ======================================================================


def test_m_sweep_is_maximized_by_complete_graphs():
    # every vertex triple of a complete graph is an induced triangle and
    # nothing longer is chordless, and no 6-vertex graph beats 20
    for n in (4, 5, 6):
        result = exhaustive_max(n, "m")
        assert result.max.value == n * (n - 1) * (n - 2) // 6
        assert result.extremal_codes == {canon(complete_graph(n))}
        odd = exhaustive_max(n, "m_odd")
        assert odd.max.value == result.max.value
        assert odd.extremal_codes == result.extremal_codes


def test_m_sweep_at_n7():
    result = exhaustive_max(7, "m")
    assert result.max.value == 35
    assert result.extremal_codes == {canon(complete_graph(7))}


def test_m_even_pins():
    assert exhaustive_max(4, "m_even").extremal_codes == {canon(cycle_graph(4))}
    five = exhaustive_max(5, "m_even")
    assert five.max.value == 3
    assert five.extremal_codes == {canon(complete_bipartite(2, 3))}
    six = exhaustive_max(6, "m_even")
    assert six.max.value == 9
    assert six.extremal_codes == {canon(complete_bipartite(3, 3))}


def test_m_odd_holes_pins():
    # below five vertices no odd hole fits, so every isomorphism class
    # on four vertices ties at zero
    four = exhaustive_max(4, "m_odd_holes")
    assert four.max.value == 0
    assert len(four.extremal_codes) == 11
    five = exhaustive_max(5, "m_odd_holes")
    assert five.max.value == 1
    assert five.extremal_codes == {canon(cycle_graph(5))}
    assert exhaustive_max(6, "m_odd_holes").max.value == 2


def test_odd_and_even_partition_the_total():
    n = 5
    for code in range(1 << 10):
        g = graph_from_pair_bits(n, code)
        total = quantity_of_graph(g, "m")
        odd = quantity_of_graph(g, "m_odd")
        even = quantity_of_graph(g, "m_even")
        assert total == odd + even


# ======================================================================
# the labelled scan this sweep replaced, and the isomorphism classes
# ======================================================================

# max, extremal codes and labelled count of every sweep with 2 <= n <= 7,
# as the vectorized scan over all 2^C(n,2) labelled graphs computed them;
# the n = 8 records come from the unit scan that scored every unit, before
# units that a twin swap maps onto an earlier one were skipped
with open(os.path.join(os.path.dirname(__file__), "sweep_golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("quantity", QUANTITIES)
def test_sweep_matches_the_labelled_scan(n, quantity):
    result = exhaustive_max(n, quantity)
    assert {
        "max": result.max.value,
        "graphs_scanned": result.graphs_scanned,
        "extremal_codes": sorted(result.extremal_codes),
    } == GOLDEN[f"{n}/{quantity}"]


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_n8_records_are_canonical_and_score_their_max(quantity):
    # every labelled graph, and codes that are canonical on 8 vertices
    # and score the max under the per-graph engines
    record = GOLDEN[f"8/{quantity}"]
    assert record["graphs_scanned"] == 1 << 28
    assert record["extremal_codes"] == sorted(set(record["extremal_codes"]))
    result = SweepResult(8, quantity, ExactCount(record["max"]),
                         frozenset(record["extremal_codes"]), 1 << 28)
    assert sweep._bad_code(result) is None


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_n8_resweep_matches_the_golden_records(quantity):
    result = exhaustive_max(8, quantity)
    assert {
        "max": result.max.value,
        "graphs_scanned": result.graphs_scanned,
        "extremal_codes": sorted(result.extremal_codes),
    } == GOLDEN[f"8/{quantity}"]


def test_path_lists_match_the_path_census():
    # every directed induced path of every class up to 7 vertices, by
    # ordered end pair and length
    for k in range(1, 8):
        for g, _ in sweep._classes(k):
            assert sweep._path_list_fault(g) is None, to_graph6(g)


def test_unit_tables_match_the_per_graph_engines():
    for n in range(2, 8):
        subs = sweep._submasks(n - 1)
        for parent, _ in sweep._classes(n - 1):
            graphs = [sweep._extend(parent, nbhd) for nbhd in range(1 << (n - 1))]
            for quantity in QUANTITIES:
                assert sweep._unit_scores(parent, quantity, subs) == \
                    [quantity_of_graph(g, quantity) for g in graphs], (n, quantity)


def unpruned_sweep(n: int, quantity: str, shards: int, shard: int,
                   scores: list[int]) -> SweepResult:
    """The unit scan before twin skips: it scores every unit of the shard
    (scores[unit] is quantity_of_graph of the unit's graph), and each
    unit stands for its class's labelled count."""
    lo, hi = shard_range(n, shards, shard)
    classes = sweep._classes(n - 1)
    best, winners = -1, []
    for unit in range(lo, hi):
        value = scores[unit]
        if value > best:
            best, winners = value, [unit]
        elif value == best:
            winners.append(unit)
    codes = {canonical_code(sweep._unit_graph(n, unit)) for unit in winners}
    return SweepResult(n, quantity, ExactCount(best), frozenset(codes),
                       sum(classes[unit >> (n - 1)][1] for unit in range(lo, hi)))


def test_twin_skips_change_no_shard_result():
    # every split at n <= 6, and the n = 7 splits of the benchmark, which
    # cut through classes: a skipped unit's twin image must lie in its shard
    cases = [(n, quantity, [k for k in (1, 2, 3, 7, 16) if k <= A000088[n - 1] << (n - 1)])
             for n in range(2, 7) for quantity in QUANTITIES]
    cases += [(7, "m", [16]), (7, "p2", [32])]
    for n, quantity, splits in cases:
        scores = [quantity_of_graph(sweep._unit_graph(n, unit), quantity)
                  for unit in range(A000088[n - 1] << (n - 1))]
        for shards in splits:
            for shard in range(shards):
                assert exhaustive_max(n, quantity, shards=shards, shard=shard) == \
                    unpruned_sweep(n, quantity, shards, shard, scores), (n, quantity, shards, shard)


def test_kept_neighbourhoods_follow_the_twin_classes():
    # one neighbourhood per orbit of twin swaps: a class T of twins holds
    # 0..|T| members of it, so a class on k vertices keeps the product of
    # |T| + 1 over its twin classes, singletons included, which sums to
    # the units of full sweeps on k + 1 vertices up to twin swaps
    def kept(g: Graph) -> int:
        product, left = 1, set(range(g.n))
        while left:
            u = min(left)
            twins = {w for w in left
                     if all(g.has_edge(u, v) == g.has_edge(w, v)
                            for v in range(g.n) if v not in (u, w))}
            left -= twins
            product *= len(twins) + 1
        return product

    units = {}
    for k in range(1, 8):
        counts = [kept(g) for g, _ in sweep._classes(k)]
        for index, count in enumerate(counts):
            twins = sweep._twins(k, index)
            assert sum(sweep._twin_least(nbhd, twins) == nbhd
                       for nbhd in range(1 << k)) == count, (k, index)
        units[k + 1] = sum(counts)
    assert (units[7], units[8]) == (6412, 94956)


def test_twins_are_the_twin_classes_of_two_or_more_vertices():
    for k in range(1, 8):
        for index, (g, _) in enumerate(sweep._classes(k)):
            larger = {twin for twin in sweep._twin_classes(g.adj) if twin.bit_count() > 1}
            assert sweep._twins(k, index) == tuple(sorted(larger, key=lambda t: t & -t)), \
                (k, index)


def test_dropped_ties_have_their_least_image_among_the_winners(monkeypatch):
    # the units whose graphs a shard's scan builds are its winners (the
    # audit, which builds sampled ones, is off); every other unit at the
    # shard's max has a least image that is a winner, of the same class
    unit_graph, built = sweep._unit_graph, set()

    def recording(n: int, unit: int) -> Graph:
        built.add(unit)
        return unit_graph(n, unit)

    monkeypatch.setattr(sweep, "_unit_graph", recording)
    monkeypatch.setattr(sweep, "_audit", lambda result, units, tables: None)
    dropped = 0
    for n in range(2, 8):
        subs = sweep._submasks(n - 1)
        scores = [score for g, _ in sweep._classes(n - 1)
                  for score in sweep._unit_scores(g, "p2", subs)]
        total = len(scores)
        for shards in (k for k in (1, 2, 3, 7, 16, 32) if k <= total):
            for shard in range(shards):
                built.clear()
                best = exhaustive_max(n, "p2", shards=shards, shard=shard).max.value
                lo, hi = shard_range(n, shards, shard)
                for unit in {u for u in range(lo, hi) if scores[u] == best} - built:
                    nbhd = unit & ((1 << (n - 1)) - 1)
                    twins = sweep._twins(n - 1, unit >> (n - 1))
                    image = unit - nbhd + sweep._twin_least(nbhd, twins)
                    assert image in built, (n, shards, shard, unit)
                    assert canon(unit_graph(n, image)) == canon(unit_graph(n, unit)), \
                        (n, shards, shard, unit)
                    dropped += 1
    assert dropped > 0


def raised_off_the_least_image(unit_scores):
    """unit_scores with one entry of each table raised above the table's
    max: the first neighbourhood that is not its own least twin image."""
    def lying(parent: Graph, quantity: str, subs) -> list[int]:
        scores = unit_scores(parent, quantity, subs)
        index = [g for g, _ in sweep._classes(parent.n)].index(parent)
        twins = sweep._twins(parent.n, index)
        for nbhd in range(1 << parent.n):
            if sweep._twin_least(nbhd, twins) != nbhd:
                scores[nbhd] = max(scores) + 1
                break
        return scores
    return lying


def test_a_wrong_entry_off_the_least_image_fails_the_post_sweep_check(monkeypatch, capsys):
    # the max reads the entries of every unit, and a lying entry's least
    # image does not tie it: the unit must stay a winner, so that the
    # second engine sees the lie, not drop out and leave no extremal code
    monkeypatch.setattr(sweep, "_unit_scores", raised_off_the_least_image(sweep._unit_scores))
    with pytest.raises(InternalError, match="post-sweep check failed"):
        exhaustive_max(6, "p2")
    assert main(["verify", "--n", "6", "--quantity", "p2"]) == 4
    assert capsys.readouterr().err.startswith("error: internal check failed: ")


def test_classes_follow_a000088_and_count_every_labelled_graph():
    for k in range(1, 7):
        classes = sweep._classes(k)
        assert len(classes) == sweep.A000088[k]
        assert sum(lab for _, lab in classes) == 1 << (k * (k - 1) // 2)
        assert len({canonical_code(g) for g, _ in classes}) == len(classes)
    for k in (5, 6):
        for g, lab in sweep._classes(k):
            # lab = k! / |Aut g|, the number of distinct relabelings
            assert lab == len({g.relabeled(p) for p in itertools.permutations(range(k))})


def clear_class_caches():
    sweep._classes.cache_clear()
    sweep._twins.cache_clear()


def test_merged_classes_fail_the_class_count_gate(monkeypatch):
    # a canonical form that merges non-isomorphic graphs (here: all with
    # the same edge count) must stop the sweep, not shrink it
    monkeypatch.setattr(
        sweep, "canonical_code", lambda g: str(sum(map(int.bit_count, g.adj)) // 2)
    )
    clear_class_caches()
    try:
        with pytest.raises(InternalError, match="isomorphism classes on 4"):
            exhaustive_max(5, "m")
    finally:
        clear_class_caches()


def test_wrong_orbit_sizes_fail_the_labelled_count_gate(monkeypatch):
    # weighting each kept neighbourhood once keeps every class, so only
    # the labelled count can see it: on 3 vertices each of the two
    # parents keeps 0, {0} and {0, 1}, and {0} stands for two
    monkeypatch.setattr(sweep, "_orbit_size", lambda nbhd, twins: 1)
    clear_class_caches()
    try:
        with pytest.raises(InternalError, match=r"count 6 labelled graphs, not 2\^3"):
            sweep._classes(3)
    finally:
        clear_class_caches()


def unit_tables(n: int, quantity: str) -> dict[int, list[int]]:
    subs = sweep._submasks(n - 1)
    return {index: sweep._unit_scores(g, quantity, subs)
            for index, (g, _) in enumerate(sweep._classes(n - 1))}


def test_audit_checks_sampled_units_against_the_result():
    # forged results, checked on all 32 units on 4 vertices: no unit has
    # an odd hole, so at max 0 every unit's class must be a code, and
    # some unit holds a triangle
    units = range(*shard_range(4, 1, 0))
    only_empty = SweepResult(4, "m_odd_holes", ExactCount(0), frozenset({"C?"}), 64)
    with pytest.raises(InternalError, match="class is missing from the codes"):
        sweep._audit(only_empty, units, unit_tables(4, "m_odd_holes"))
    every_class = frozenset(canonical_code(g) for g, _ in sweep._classes(4))
    no_triangle = SweepResult(4, "m", ExactCount(0), every_class, 64)
    with pytest.raises(InternalError, match="above the shard's max 0"):
        sweep._audit(no_triangle, units, unit_tables(4, "m"))


def test_audit_checks_the_tables_and_the_path_lists(monkeypatch):
    # on every unit on 5 vertices
    result = exhaustive_max(5, "p2")
    units = range(*shard_range(5, 1, 0))
    tables = unit_tables(5, "p2")
    sweep._audit(result, units, tables)
    lying = {index: [score + 1 for score in table] for index, table in tables.items()}
    with pytest.raises(InternalError, match="unit 0: path table 1, subset oracle 0"):
        sweep._audit(result, units, lying)
    paths = sweep._induced_paths
    monkeypatch.setattr(sweep, "_induced_paths", lambda adj: paths(adj)[1:])
    with pytest.raises(InternalError, match="path list of class"):
        sweep._audit(result, units, tables)


def paths_as_cycles_through_an_added_vertex(g: Graph) -> dict[str, int]:
    """The three path quantities of g from slow_census alone: g plus a
    vertex z adjacent to exactly x and y has one induced cycle with
    L + 2 vertices through z per induced x-y path of g with L edges, and
    no other cycle through z."""
    cycles = slow_census(g).by_length
    best = dict.fromkeys(("p2", "p2_odd", "p2_even"), 0)
    for x, y in itertools.combinations(range(g.n), 2):
        with_z = slow_census(sweep._extend(g, 1 << x | 1 << y)).by_length
        paths = PathCensus({size - 2: count - cycles.get(size, 0)
                            for size, count in with_z.items()})
        for quantity in best:
            best[quantity] = max(best[quantity], getattr(paths, quantity))
    return best


def test_subset_path_oracle_matches_cycles_through_an_added_vertex():
    # the two subset oracles on one graph per class on 7 vertices
    for g, _ in sweep._classes(7):
        assert {quantity: sweep._slow_quantity(g, quantity)
                for quantity in ("p2", "p2_odd", "p2_even")} == \
            paths_as_cycles_through_an_added_vertex(g), to_graph6(g)


# ======================================================================
# mechanics: shards, checkpoints, errors
# ======================================================================


# Run under python -O, where assert statements are stripped: the sweep's
# cross-checks must still catch wrong orbit sizes, a twin rule that
# keeps every neighbourhood and twin classes that make vertices 0 and 1
# twins in the class build, a shard result that
# misses a sampled unit's class, a per-graph engine that lowers every
# extremal code at n = 5, a path list that misses a path, a per-graph
# engine that lies at n = 4 and a table entry raised off the least twin
# image at n = 6, the last two in the library and through the CLI.
LYING_ENGINE_SCRIPT = """
import contextlib
import io
import sys
from braidcensus import sweep
from braidcensus.cli import main
from braidcensus.formulas import ExactCount
from braidcensus.graphs import InputError, InternalError, canonical_code, to_graph6

if __debug__:
    sys.exit("assertions are on: run with python -O")
orbit_size = sweep._orbit_size
sweep._orbit_size = lambda nbhd, twins: 1
try:
    sweep._classes(4)
except InternalError as exc:
    if "labelled graphs" not in str(exc):
        sys.exit(f"the labelled count, not another check, should trip: {exc}")
else:
    sys.exit("_classes accepted wrong orbit sizes")
sweep._orbit_size = orbit_size
sweep._classes.cache_clear()
twin_least = sweep._twin_least
sweep._twin_least = lambda nbhd, twins: nbhd
try:
    sweep._classes(4)
except InternalError as exc:
    if "labelled graphs" not in str(exc):
        sys.exit(f"the labelled count, not another check, should trip: {exc}")
else:
    sys.exit("_classes accepted a twin rule that keeps every neighbourhood")
sweep._twin_least = twin_least
sweep._classes.cache_clear()
twin_classes = sweep._twin_classes

def zero_and_one_twins(adj):
    classes = twin_classes(adj)
    if len(adj) > 1:
        classes[0] = classes[1] = classes[0] | classes[1]
    return classes

sweep._twin_classes = zero_and_one_twins
sweep._twins.cache_clear()
try:
    sweep._classes(4)
except InternalError as exc:
    if "isomorphism classes" not in str(exc) and "labelled graphs" not in str(exc):
        sys.exit(f"the class or labelled count, not another check, should trip: {exc}")
else:
    sys.exit("_classes accepted twin classes that make vertices 0 and 1 twins")
sweep._twin_classes = twin_classes
sweep._classes.cache_clear()
sweep._twins.cache_clear()
subs = sweep._submasks(3)
tables = {index: sweep._unit_scores(g, "m_odd_holes", subs)
          for index, (g, _) in enumerate(sweep._classes(3))}
try:
    sweep._audit(sweep.SweepResult(4, "m_odd_holes", ExactCount(0), frozenset({"C?"}), 64),
                 range(32), tables)
except InternalError:
    pass
else:
    sys.exit("the audit accepted a result missing a sampled unit's class")
honest = sweep.quantity_of_graph
sweep.quantity_of_graph = lambda g, q: honest(g, q) - (
    g.n == 5 and canonical_code(g) == to_graph6(g))
try:
    sweep.exhaustive_max(5, "m_even")
except InternalError as exc:
    if "post-sweep check failed" not in str(exc):
        sys.exit(f"the audit, not the post-sweep check, tripped: {exc}")
else:
    sys.exit("exhaustive_max accepted extremal codes that miss the max")
try:
    sweep.exhaustive_max(5, "m")
except InternalError as exc:
    if "post-sweep check failed" not in str(exc):
        sys.exit(f"the audit, not the post-sweep check, tripped: {exc}")
else:
    sys.exit("exhaustive_max accepted an engine that lowers every winner")
sweep.quantity_of_graph = honest
induced_paths = sweep._induced_paths
sweep._induced_paths = lambda adj: induced_paths(adj)[1:]
try:
    sweep.exhaustive_max(4, "p2")
except InternalError as exc:
    if "path list of class" not in str(exc):
        sys.exit(f"the path list check, not another check, should trip: {exc}")
else:
    sys.exit("exhaustive_max accepted a path list that misses a path")
sweep._induced_paths = induced_paths
sweep.quantity_of_graph = lambda g, q: honest(g, q) + (g.n == 4)
try:
    sweep.exhaustive_max(4, "p2")
except InternalError:
    pass
else:
    sys.exit("exhaustive_max accepted a lying engine")
with contextlib.redirect_stderr(io.StringIO()):
    if main(["verify", "--n", "4", "--quantity", "p2"]) != 4:
        sys.exit("verify accepted a lying engine")
sweep.quantity_of_graph = honest
unit_scores = sweep._unit_scores

def raised_off_the_least_image(parent, quantity, subs):
    scores = unit_scores(parent, quantity, subs)
    index = [g for g, _ in sweep._classes(parent.n)].index(parent)
    twins = sweep._twins(parent.n, index)
    for nbhd in range(1 << parent.n):
        if sweep._twin_least(nbhd, twins) != nbhd:
            scores[nbhd] = max(scores) + 1
            break
    return scores

sweep._unit_scores = raised_off_the_least_image
try:
    sweep.exhaustive_max(6, "p2")
except InternalError as exc:
    if "post-sweep check failed" not in str(exc):
        sys.exit(f"the audit, not the post-sweep check, tripped: {exc}")
except InputError as exc:
    sys.exit(f"a wrong entry dropped every winner: {exc}")
else:
    sys.exit("exhaustive_max accepted a table entry raised off the least image")
sys.exit(main(["verify", "--n", "6", "--quantity", "p2"]))
"""


def lowered_in_canonical_labelling(g: Graph, quantity: str) -> int:
    """An engine that scores 5-vertex graphs already in canonical
    labelling one lower: every extremal code is one, and the sweep's
    scores and audit do not use this engine."""
    lowered = g.n == 5 and canonical_code(g) == to_graph6(g)
    return quantity_of_graph(g, quantity) - lowered


def test_post_sweep_check_rescores_every_extremal_code(monkeypatch):
    monkeypatch.setattr(sweep, "quantity_of_graph", lowered_in_canonical_labelling)
    with pytest.raises(InternalError,
                       match="post-sweep check failed: DFw scores 2, not 3"):
        exhaustive_max(5, "m_even")


def test_post_sweep_check_is_a_second_engine(monkeypatch):
    # K5 has one labelling, which is canonical: an engine that lowers it
    # lowers every winner alike, so only an engine other than the one
    # that chose the winners can see it
    monkeypatch.setattr(sweep, "quantity_of_graph", lowered_in_canonical_labelling)
    with pytest.raises(InternalError,
                       match="post-sweep check failed: D~{ scores 9, not 10"):
        exhaustive_max(5, "m")


def test_cross_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(braidcensus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_ENGINE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: internal check failed: ")
    assert len(proc.stderr.splitlines()) == 1


def test_shards_merge_to_the_full_sweep():
    full = exhaustive_max(5, "p2")
    parts = [exhaustive_max(5, "p2", shards=3, shard=i) for i in range(3)]
    assert sum(p.graphs_scanned for p in parts) == full.graphs_scanned
    assert merge_sweeps(parts) == full


def test_checkpoint_roundtrip():
    part = exhaustive_max(5, "p2", shards=3, shard=1)
    line = checkpoint_line(1, part)
    shard, parsed = parse_checkpoint_line(5, "p2", 3, line)
    assert shard == 1 and parsed == part
    with pytest.raises(InputError):
        parse_checkpoint_line(5, "p2", 3, "1,2")
    with pytest.raises(InputError):
        merge_sweeps([])
    with pytest.raises(InputError):
        merge_sweeps([part, exhaustive_max(4, "p2")])


def test_shard_geometry():
    # 11 classes on 4 vertices, 2^4 neighbourhoods of the fifth vertex
    assert shard_range(5, 1, 0) == (0, 11 * 16)
    lo, hi = shard_range(5, 3, 2)
    assert hi == 11 * 16 and lo < hi
    with pytest.raises(InputError):
        shard_range(5, 3, 3)
    with pytest.raises(InputError):
        shard_range(2, 3, 0)  # fewer codes than shards: an empty shard
    with pytest.raises(InputError):
        shard_range(9, 1, 0)  # beyond the sweep limit


def test_input_errors():
    with pytest.raises(InputError):
        exhaustive_max(9, "m")
    with pytest.raises(InputError):
        exhaustive_max(5, "triangles")
    with pytest.raises(InputError):
        exhaustive_max(1, "m")
    with pytest.raises(InputError):
        quantity_of_graph(complete_graph(3), "q")


@pytest.mark.parametrize("n", [1, 9])
def test_one_sweep_limit(n):
    # shard_range is the one check of n, whoever calls it
    message = f"sweeps need 2 <= n <= 8, got {n}"
    for call in (lambda: exhaustive_max(n, "m"),
                 lambda: shard_range(n, 1, 0),
                 lambda: parse_checkpoint_line(n, "m", 2, "0,1,B~")):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == message


def test_long_run_is_no_longer_a_parameter():
    with pytest.raises(TypeError):
        exhaustive_max(8, "m", long_run=True)


def test_last_shard_at_n8():
    # the last of 4096 shards of the 133,632 units at n = 8: the last
    # class on 7 vertices is K7 (one labelled copy), extended by the 33
    # largest neighbourhoods, all of K7 among them; so the best graph
    # is K8 (56 triangles)
    shards = 1 << 12
    assert shard_range(8, shards, shards - 1) == (133_599, 133_632)
    part = exhaustive_max(8, "m", shards=shards, shard=shards - 1)
    assert part.max.value == 56
    assert part.graphs_scanned == 33
    assert part.extremal_codes == {canon(complete_graph(8))}
    for code in part.extremal_codes:
        assert quantity_of_graph(parse_graph6(code), "m") == 56


def test_result_validation_and_json():
    result = exhaustive_max(4, "p2")
    doc = result.to_json_dict()
    assert doc["max"] == "2"
    assert doc["graphs_scanned"] == "64"
    assert len(doc["extremal_codes"]) == 2
    with pytest.raises(InputError):
        SweepResult(4, "p2", result.max, frozenset(), 64)
    with pytest.raises(InputError):
        SweepResult(4, "nope", result.max, result.extremal_codes, 64)
    with pytest.raises(InputError):
        SweepResult(4, "p2", result.max, result.extremal_codes, 0)


def test_quantity_of_graph_matches_known_counts():
    g, _ = build_H(12)
    assert quantity_of_graph(g, "m") == 225
    braid, _ = member_of_F(6, variant=1)  # central sizes (2, 2)
    assert quantity_of_graph(braid, "p2") == 4
    assert quantity_of_graph(braid, "p2_even") == 4


# ======================================================================
# extremal uniqueness
# ======================================================================


def test_uniqueness_small_n():
    report = verify_extremal_uniqueness(4, exhaustive_max(4, "p2"))
    assert report.all_match
    assert report.pairs_checked == 3  # two pairs on the square, one on
    # the diamond
    assert report.central_multisets == {(2,)}
    five = verify_extremal_uniqueness(5, exhaustive_max(5, "p2"))
    assert five.central_multisets == {(3,)}
    six = verify_extremal_uniqueness(6, exhaustive_max(6, "p2"))
    assert six.all_match
    assert six.central_multisets == {(4,), (2, 2)}


def test_uniqueness_rejects_a_non_braid_at_the_maximum():
    # a forged sweep whose only extremal graph is C5: its five
    # non-adjacent pairs have two induced paths each, and none is the
    # pair of end clusters of a path braid
    forged = SweepResult(5, "p2", ExactCount(2), frozenset({canon(cycle_graph(5))}),
                         1 << 10)
    report = verify_extremal_uniqueness(5, sweep=forged)
    assert report.counterexample_codes == ("DLo",)
    assert report.all_match is False
    assert report.pairs_checked == 5


def test_uniqueness_rejects_layerings_that_are_not_admissible_braids():
    # In C6 an antipodal pair's distance layers end at the other vertex,
    # but the two middle layers are not completely joined.  P5 is a path
    # braid between its ends, with central sizes (1, 1, 1), which no F
    # member has.
    p5 = Graph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    for g, best, pairs in ((cycle_graph(6), 2, 9), (p5, 1, 10)):
        code = canon(g)
        forged = SweepResult(g.n, "p2", ExactCount(best), frozenset({code}),
                             1 << g.n * (g.n - 1) // 2)
        report = verify_extremal_uniqueness(g.n, forged)
        assert report.counterexample_codes == (code,)
        assert report.pairs_checked == pairs
        assert report.central_multisets == frozenset()


def test_uniqueness_input_checks():
    with pytest.raises(InputError):
        verify_extremal_uniqueness(3, exhaustive_max(3, "p2"))
    with pytest.raises(InputError):
        verify_extremal_uniqueness(4, sweep=exhaustive_max(4, "m"))
    report = verify_extremal_uniqueness(4, exhaustive_max(4, "p2"))
    assert report.all_match
    assert report.counterexample_codes == ()


def test_uniqueness_rejects_a_shard():
    # shard 0 of 3 at n = 6 holds one extremal class, whose one pair
    # matches: checked alone, it would pass for the whole sweep
    shard = exhaustive_max(6, "p2", shards=3, shard=0)
    with pytest.raises(InputError, match="full sweep"):
        verify_extremal_uniqueness(6, sweep=shard)
    full = exhaustive_max(6, "p2")
    report = verify_extremal_uniqueness(6, sweep=full)
    assert report.all_match and report.pairs_checked == 17
    assert report.central_multisets == {(2, 2), (4,)}


def test_uniqueness_at_n8_from_the_golden_record():
    # every extremal pair at n = 8 is the end pair of a path braid with
    # central sizes (3, 3); the record stands in for a resweep
    record = GOLDEN["8/p2"]
    full = SweepResult(8, "p2", ExactCount(record["max"]),
                       frozenset(record["extremal_codes"]), record["graphs_scanned"])
    report = verify_extremal_uniqueness(8, full)
    assert report.all_match and report.pairs_checked == 10
    assert report.central_multisets == {(3, 3)}
