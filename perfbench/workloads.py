"""The four workloads: task lists built from a seed, with their checks.

Every workload is a function ``setup_<name>(seed, small)`` that imports
braidcensus, generates its inputs, warms up and returns a ``Workload``.
A task runs one library call (or one CLI process) on inputs fixed at
set-up; its check compares the answer with a source that does not share
the engine under test (a closed form, the subset oracle, a counting
identity, or structure known from the construction).  ``small`` shrinks
every input for the smoke test.

Library tasks run with the default ``threads=1``; the only parallelism in
the benchmark is the CLI's own default pool.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    # check(answer, answers) -> None when right, else the reason it is
    # wrong; answers maps task name to that task's first answer
    check: Callable[[object, dict], str | None]
    layer: str = ""  # CLI tasks: the per-layer metric their time feeds


@dataclass
class Workload:
    tasks: list[Task]
    params: dict
    min_samples: int = 100
    cleanup: list[Path] = field(default_factory=list)


def _shuffled(n: int, rng: random.Random) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def _relabel(built, rng: random.Random):
    """(graph, partition) -> (relabeled graph, its clusters, the perm)."""
    g, part = built
    perm = _shuffled(g.n, rng)
    clusters = tuple(tuple(sorted(perm[v] for v in c)) for c in part.clusters)
    return g.relabeled(perm), clusters, perm


def _expect(ok: bool, reason: str) -> str | None:
    return None if ok else reason


# ======================================================================
# independent references
# ======================================================================


def cyclic_braid_census(sizes: tuple[int, ...], full: bool) -> dict[int, int]:
    """Induced cycle counts of a cyclic braid with k >= 5 clusters whose
    clusters are all independent sets (``full=False``) or all cliques.

    Two vertices of one cluster are twins, so an induced cycle through
    both has length 3 (cliques) or 4 (independent sets); every longer
    cycle takes one vertex per cluster and goes once around, k vertices.
    """
    k = len(sizes)
    assert k >= 5, "the closed form needs k >= 5 clusters"
    pairs = [math.comb(s, 2) for s in sizes]
    around = math.prod(sizes)
    out: dict[int, int] = {}
    if full:
        out[3] = sum(
            math.comb(sizes[i], 3)
            + pairs[i] * sizes[(i + 1) % k]
            + sizes[i] * pairs[(i + 1) % k]
            for i in range(k)
        )
    else:
        out[4] = sum(
            pairs[i] * pairs[(i + 1) % k]
            + pairs[i] * sizes[i - 1] * sizes[(i + 1) % k]
            for i in range(k)
        )
    out[k] = out.get(k, 0) + around
    return {length: c for length, c in out.items() if c}


def _cluster_distance(k: int, i: int, j: int) -> int:
    d = abs(i - j) % k
    return min(d, k - d)


def h_ring_atypical_rule(clusters, v: int) -> tuple[tuple, tuple, tuple]:
    """(atypical, typical, exempt) vertices of the walk game on H(3k)
    started at v.  The ring is vertex-transitive, so verdicts depend on
    the cluster distance d from v alone: d <= 4 is exempt, d = 5 is
    atypical, and beyond that a probe is typical once the ring has more
    than 12 clusters (with at most 12 the walk's terminal crash lands in
    every probe's ball; pinned at k = 10 and 12 by the game tests)."""
    k = len(clusters)
    home = next(i for i, c in enumerate(clusters) if v in c)
    atypical, typical, exempt = [], [], []
    for i, c in enumerate(clusters):
        d = _cluster_distance(k, home, i)
        bucket = exempt if d <= 4 else atypical if d == 5 or k <= 12 else typical
        bucket.extend(c)
    return tuple(sorted(atypical)), tuple(sorted(typical)), tuple(sorted(exempt))


# ======================================================================
# braid: extremal families at sizes that show 3^(n/3) growth
# ======================================================================


def setup_braid(seed: int, small: bool) -> Workload:
    import braidcensus as bc
    from braidcensus import formulas

    rng = random.Random(f"braid:{seed}")
    builders = {"H": bc.build_H, "G": bc.build_G, "E": bc.build_E}
    tasks: list[Task] = []

    cycle_cases = [("H", 15), ("G", 14), ("E", 15)] if small else [
        ("H", 33), ("H", 36), ("G", 33), ("E", 33)]
    for tag, n in cycle_cases:
        g, clusters, _ = _relabel(builders[tag](n), rng)
        sizes = tuple(len(c) for c in clusters)
        want = cyclic_braid_census(sizes, full=tag == "G")

        def check(census, _a, want=want, tag=tag, n=n):
            if census.by_length != want:
                return f"{tag}({n}) census {census.by_length} != {want}"
            if tag == "H" and census.f != formulas.m_lower(n).value:
                return f"H({n}) f={census.f} != m_lower"
            return None

        tasks.append(Task(f"count_induced_cycles/{tag}{n}",
                          lambda g=g: bc.count_induced_cycles(g), check))

    n = 15 if small else 30
    g, clusters, _ = _relabel(bc.build_H(n), rng)
    want = cyclic_braid_census(tuple(len(c) for c in clusters), full=False)

    def check_visit(tables, _a, want=want):
        total = sum(length * c for length, c in want.items())
        if sum(t.f for t in tables) != total:
            return "sum over v of f(v) != sum over L of L*c_L"
        return _expect(all(t == tables[0] for t in tables),
                       "vertex-transitive ring gave unequal per-vertex censuses")

    tasks.append(Task(f"cycles_per_vertex/H{n}",
                      lambda g=g: bc.cycles_per_vertex(g), check_visit))

    path_cases = [("all", 14), ("odd", 14), ("even", 14)] if small else [
        ("all", 36), ("odd", 36), ("even", 36)]
    closed = {"all": formulas.f2, "odd": formulas.f2_odd, "even": formulas.f2_even}
    field_of = {"all": "p2", "odd": "p2_odd", "even": "p2_even"}
    for parity, n in path_cases:
        g, clusters, _ = _relabel(bc.member_of_F(n, parity), rng)
        x, y = clusters[0][0], clusters[-1][0]
        want = closed[parity](n).value

        def check(pc, _a, parity=parity, want=want):
            got = getattr(pc, field_of[parity])
            return _expect(got == want, f"{field_of[parity]}={got}, closed form {want}")

        tasks.append(Task(f"count_induced_st_paths/F_{parity}{n}",
                          lambda g=g, x=x, y=y: bc.count_induced_st_paths(g, x, y),
                          check))
    for n in ((14,) if small else (36, 37)):
        g, clusters, _ = _relabel(bc.member_of_F(n), rng)
        x, y = clusters[0][0], clusters[-1][0]
        want = formulas.f2(n).value

        def check(ts, _a, want=want):
            return _expect(ts.y_leaf_count == want and ts.balanced,
                           f"tree y-leaves {ts.y_leaf_count} (f2 {want}), "
                           f"balanced={ts.balanced}")

        tasks.append(Task(f"path_tree_stats/F{n}",
                          lambda g=g, x=x, y=y: bc.path_tree_stats(g, x, y), check))

    # ~100 small tasks; classification and discovery build their input
    # inside the task, so the families layer is timed too
    sizes = (30, 45) if small else (30, 45, 60, 75, 90, 105, 120)
    for tag, n in itertools.product("HGE", sizes):
        perm = _shuffled(n, rng)
        _, part = builders[tag](n)
        want_clusters = {frozenset(perm[v] for v in c) for c in part.clusters}

        def build(tag=tag, n=n, perm=perm):
            return builders[tag](n)[0].relabeled(perm)

        def check_tags(fams, _a, tag=tag):
            tags = [f.tag for f in fams]
            return _expect(tag in tags, f"expected family {tag}, got {tags}")

        def check_part(part, _a, want=want_clusters):
            got = None if part is None else {frozenset(c) for c in part.clusters}
            return _expect(got == want, "discovered clusters differ from the construction")

        tasks.append(Task(f"classify_family_all/{tag}{n}",
                          lambda b=build: bc.classify_family_all(b()), check_tags))
        tasks.append(Task(f"discover_cyclic_braid/{tag}{n}",
                          lambda b=build: bc.discover_cyclic_braid(b()), check_part))

    for n in ((30, 36, 45) if small else range(30, 121, 3)):
        g, clusters, _ = _relabel(bc.build_H(n), rng)
        v = rng.randrange(n)
        want = h_ring_atypical_rule(clusters, v)

        def check(rep, _a, want=want):
            return _expect((rep.atypical, rep.typical, rep.exempt) == want,
                           "atypical/typical/exempt split breaks the cluster-distance rule")

        tasks.append(Task(f"atypical_set/H{n}",
                          lambda g=g, v=v: bc.atypical_set(g, v), check))

    for n in ((15,) if small else (15, 18, 21)):
        g, clusters, _ = _relabel(bc.build_H(n), rng)
        k = len(clusters)
        for z in rng.sample(range(n), 3 if small else 9):
            i = next(j for j, c in enumerate(clusters) if z in c)
            flanks = {clusters[i - 1], clusters[(i + 1) % k]}

            def check(found, _a, zc=clusters[i], flanks=flanks):
                ok = (found is not None and found["Z"] == zc
                      and {found["V"], found["W"]} == flanks)
                return _expect(ok, "local structure is not the construction's cluster triple")

            tasks.append(Task(f"local_structure/H{n}/z{z}",
                              lambda g=g, z=z: bc.local_structure(g, z), check))

    h12, _ = bc.build_H(12)
    f10, _ = bc.member_of_F(10)
    bc.count_induced_cycles(h12)
    bc.cycles_per_vertex(h12)
    bc.count_induced_st_paths(f10, 0, 9)
    bc.path_tree_stats(f10, 0, 9)
    bc.classify_family_all(h12)
    bc.discover_cyclic_braid(h12)
    bc.atypical_set(bc.build_H(30)[0], 0)
    bc.local_structure(h12, 0)
    return Workload(tasks, {"cycle_cases": cycle_cases, "path_cases": path_cases,
                            "small_sizes": list(sizes)})


# ======================================================================
# random: G(n, p) graphs with no modules to share
# ======================================================================


def gnp(n: int, p: float, rng: random.Random):
    from braidcensus import Graph

    return Graph.from_edge_list(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def _perturbed(tag: str, n: int, rng: random.Random):
    """One-edge perturbation of a relabeled H, G or E braid: drop a join
    edge between consecutive clusters or add one between far clusters."""
    import braidcensus as bc

    g, clusters, _ = _relabel({"H": bc.build_H, "G": bc.build_G, "E": bc.build_E}[tag](n), rng)
    k = len(clusters)
    i = rng.randrange(k)
    u = rng.choice(clusters[i])
    if rng.random() < 0.5:
        return g.without_edge(u, rng.choice(clusters[(i + 1) % k]))
    return g.with_edge(u, rng.choice(clusters[(i + 2 + rng.randrange(k - 3)) % k]))


def _check_3braids(g):
    import braidcensus as bc

    def check(parts, _a):
        for part in parts:
            if part.sizes() != (3,) * part.k or not bc.verify_braid(g, part).verified:
                return f"reported 3-braid {part.sizes()} does not verify"
        return None

    return check


def setup_random(seed: int, small: bool) -> Workload:
    import braidcensus as bc

    rng = random.Random(f"random:{seed}")
    # p = 0.15 stops at n = 34: above it the census cost of a sparse graph
    # is heavy-tailed across seeds and would dominate the pass
    census_grid = [(12, 0.3), (14, 0.25), (16, 0.3)] if small else (
        [(19, 0.3), (22, 0.25)]
        + [(n, p) for n in range(26, 41, 2) for p in (0.15, 0.25, 0.35)
           if p > 0.15 or n <= 34])
    p2_grid = [(12, 0.3), (13, 0.35)] if small else [
        (n, p) for n in range(26, 31) for p in (0.3, 0.35)]
    # two graphs per (n, p) cell: per-graph cost varies by a factor of
    # two between seeds, and the pass total should not; more would leave
    # too few passes in a run for steady per-task medians
    copies = range(1 if small else 2)
    tasks: list[Task] = []
    graphs = []
    for (n, p), j in itertools.product(census_grid, copies):
        g = gnp(n, p, rng)
        label = f"G({n},{p})#{j}"
        graphs.append((label, g, p))
        count_name, visit_name = f"count_induced_cycles/{label}", f"cycles_per_vertex/{label}"

        def check_count(census, _a, g=g):
            if g.n <= 22:
                slow = bc.slow_census(g).by_length
                return _expect(census.by_length == slow, "census differs from the subset oracle")
            return None

        def check_visit(tables, answers, count_name=count_name):
            census = answers[count_name]
            weighted = sum(length * c for length, c in census.by_length.items())
            return _expect(sum(t.f for t in tables) == weighted,
                           "sum over v of f(v) != sum over L of L*c_L")

        tasks.append(Task(count_name, lambda g=g: bc.count_induced_cycles(g), check_count))
        tasks.append(Task(visit_name, lambda g=g: bc.cycles_per_vertex(g), check_visit))

    for (n, p), j in itertools.product(p2_grid, copies):
        g = gnp(n, p, rng)
        label = f"G({n},{p})#{j + len(copies)}"  # the census grid has #0, #1 of a cell
        graphs.append((label, g, p))

        def check(answer, _a, g=g):
            value, (x, y) = answer
            leaves = bc.path_tree_stats(g, x, y).y_leaf_count
            return _expect(leaves == value, f"p2_max {value} at {(x, y)}, tree has {leaves}")

        tasks.append(Task(f"p2_max/{label}", lambda g=g: bc.p2_max(g), check))

    perturbed = [("H", 30), ("G", 36)] if small else [
        (tag, n) for tag in "HGE" for n in (30, 36, 42)]
    for tag, n in perturbed:
        graphs.append((f"{tag}({n})+-e", _perturbed(tag, n, rng), 0))
    for label, g, p in graphs:
        tasks.append(Task(f"classify_family_all/{label}",
                          lambda g=g: bc.classify_family_all(g),
                          lambda fams, _a: _expect(fams == [], f"non-braid classified as {fams}")))
        # on dense random graphs the triple chains explode (seconds per
        # graph, heavy-tailed across seeds); perturbed braids stay cheap
        if p <= 0.25:
            tasks.append(Task(f"maximal_3braids/{label}",
                              lambda g=g: bc.maximal_3braids(g), _check_3braids(g)))

    warm = gnp(12, 0.3, random.Random(0))
    bc.count_induced_cycles(warm)
    bc.cycles_per_vertex(warm)
    bc.p2_max(warm)
    bc.classify_family_all(warm)
    bc.maximal_3braids(warm)
    return Workload(tasks, {"census_grid": census_grid, "p2_grid": p2_grid,
                            "perturbed": perturbed, "model": "G(n,p)"})


# ======================================================================
# sweep: exhaustive maxima over all labelled graphs
# ======================================================================

# pinned maxima: m(7) = 35 and p2(7) = 6 = f2(7); n = 5 for the smoke run
SWEEP_PINNED = {7: {"m": 35, "p2": 6}, 5: {"m": 10, "p2": 3}}
# each sweep runs as contiguous shards merged by merge_sweeps, the
# library's own split; at n = 7 a shard takes a fifth of a second, so
# the host-speed reference taken between tasks brackets short spans
SWEEP_SHARDS = {"m": 16, "p2": 32}


def setup_sweep(seed: int, small: bool) -> Workload:
    import braidcensus as bc
    from braidcensus import formulas, sweep

    n = 5 if small else 7
    total = 2 ** math.comb(n, 2)
    parts: dict[str, list] = {q: [None] * k for q, k in SWEEP_SHARDS.items()}
    merged: dict[str, object] = {}

    def run_shard(quantity: str, shard: int):
        parts[quantity][shard] = bc.exhaustive_max(
            n, quantity, shards=SWEEP_SHARDS[quantity], shard=shard)
        return parts[quantity][shard]

    def run_merge(quantity: str):
        merged[quantity] = bc.merge_sweeps(parts[quantity])
        return merged[quantity]

    # only the maxima are pinned: how many graphs a sweep scans is its
    # own business (an isomorph-free sweep scans far fewer), so the
    # count is bounded by the labelled graphs, not fixed
    def check_shard(quantity: str):
        def check(result, _a):
            ok = (result.max.value <= SWEEP_PINNED[n][quantity]
                  and result.graphs_scanned <= total)
            return _expect(ok, f"shard max {result.max.value} over {result.graphs_scanned} graphs")
        return check

    def check_max(quantity: str):
        def check(result, _a):
            want = SWEEP_PINNED[n][quantity]
            if quantity == "p2" and want != formulas.f2(n).value:
                return f"pinned p2 max {want} != f2({n})"
            ok = result.max.value == want and result.graphs_scanned <= total
            return _expect(ok, f"{quantity} max {result.max.value} over "
                               f"{result.graphs_scanned} graphs, pinned {want}")
        return check

    def check_unique(report, _a):
        return _expect(report.all_match and report.max.value == SWEEP_PINNED[n]["p2"],
                       f"uniqueness counterexamples {report.counterexample_codes}")

    tasks = []
    for quantity in ("m", "p2"):
        tasks += [Task(f"exhaustive_max/{n}/{quantity}/shard{i}",
                       lambda q=quantity, i=i: run_shard(q, i), check_shard(quantity))
                  for i in range(SWEEP_SHARDS[quantity])]
        tasks.append(Task(f"merge_sweeps/{n}/{quantity}",
                          lambda q=quantity: run_merge(q), check_max(quantity)))
    tasks.append(Task(f"verify_extremal_uniqueness/{n}",
                      lambda: bc.verify_extremal_uniqueness(n, merged["p2"]), check_unique))
    # the scan plan is a per-process cache; it belongs to set-up
    plan = getattr(sweep, "_plan", None)
    for quantity in ("m", "p2"):
        if plan is not None:
            plan(n, quantity)
        bc.exhaustive_max(4, quantity)
    return Workload(tasks, {"n": n, "quantities": ["m", "p2"], "shards": SWEEP_SHARDS},
                    min_samples=1)


# ======================================================================
# cli: one process per call, from the tree under test
# ======================================================================

CLI_TIMEOUT_S = 120
CHECKPOINT_VAR = "BRAIDCENSUS_CHECKPOINT_DIR"


def cli_env(checkpoint_dir: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != CHECKPOINT_VAR}
    env["PYTHONPATH"] = str(SRC)
    if checkpoint_dir is not None:
        env[CHECKPOINT_VAR] = str(checkpoint_dir)
    return env


def run_cli(args: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "braidcensus.cli", *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _json_line(expected: Callable[[], dict | str]):
    """Check of a successful call whose one stdout line must equal the
    library's answer, a JSON document or a graph6 string.  The answer is
    computed at check time, outside set-up and the timed region."""
    import json

    def check(answer, _a):
        code, out = answer
        if code != 0:
            return f"exit {code}"
        want = expected()
        try:
            got = out.strip() if isinstance(want, str) else json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:80]!r}"
        return _expect(got == want and out.count("\n") == 1,
                       f"stdout {out[:120]!r} != library answer")

    return check


def _input_error(answer, _a):
    code, out = answer
    return _expect(code == 2 and out == "", f"exit {code}, stdout {out[:80]!r}; want exit 2")


def _recognize_doc(g) -> dict:
    """The recognize subcommand's document, built from library calls."""
    import braidcensus as bc

    part = bc.discover_cyclic_braid(g)
    if part is None:
        doc = dict.fromkeys(("verified", "family", "cluster_sizes", "intra_pattern",
                             "failure_witness", "clusters"))
        doc["verified"] = False
    else:
        doc = bc.verify_braid(g, part).to_json_dict()
        doc["clusters"] = [list(c) for c in part.clusters]
    doc["families"] = [f.tag for f in bc.classify_family_all(g)]
    return doc


def setup_cli(seed: int, small: bool) -> Workload:
    import braidcensus as bc
    from braidcensus import formulas

    rng = random.Random(f"cli:{seed}")
    env = cli_env()
    g6 = bc.to_graph6
    tasks: list[Task] = []

    def add(layer: str, args: list[str], expected, env=env):
        check = _input_error if expected is None else _json_line(expected)
        tasks.append(Task(f"{layer} " + " ".join(args[1:5]),
                          lambda: run_cli(args, env), check, layer=layer))

    builders = {"H": bc.build_H, "G": bc.build_G, "E": bc.build_E}
    formula_fns = {"f2": formulas.f2, "f2o": formulas.f2_odd,
                   "f2e": formulas.f2_even, "m_lower": formulas.m_lower}
    for _ in range(1 if small else 3):
        tag, n = rng.choice("HGE"), rng.randrange(14, 40)
        add("construct", ["construct", "--family", tag, "--n", str(n)],
            lambda tag=tag, n=n: g6(builders[tag](n)[0]))
        n = rng.randrange(8, 40)

        def construct_doc(n=n):
            g, part = bc.member_of_F(n)
            return {"n": n, "g6": g6(g), **part.to_json_dict()}

        add("construct", ["construct", "--family", "F", "--n", str(n), "--out", "json"],
            construct_doc)

        inputs = [_relabel(bc.build_H(rng.randrange(12, 19)), rng)[0],
                  gnp(rng.randrange(14, 20), 0.3, rng)]
        for g in inputs:
            add("count", ["count", "--input", g6(g)],
                lambda g=g: bc.count_induced_cycles(g).to_json_dict(n=g.n))
        n = rng.randrange(12, 19)
        add("count", ["count", "--family", "H", "--n", str(n)],
            lambda n=n: bc.count_induced_cycles(bc.build_H(n)[0]).to_json_dict(n=n))

        n = rng.randrange(14, 22)
        g, clusters, _ = _relabel(bc.member_of_F(n), rng)
        pairs = [(g, clusters[0][0], clusters[-1][0])]
        g = gnp(16, 0.3, rng)
        pairs.append((g, *rng.sample(range(16), 2)))
        for g, x, y in pairs:
            add("paths", ["paths", "--input", g6(g), "--x", str(x), "--y", str(y)],
                lambda g=g, x=x, y=y: bc.count_induced_st_paths(g, x, y).to_json_dict(x=x, y=y))

        for g in (_relabel(builders[rng.choice("HGE")](rng.randrange(15, 40)), rng)[0],
                  gnp(20, 0.3, rng)):
            add("recognize", ["recognize", "--input", g6(g)], lambda g=g: _recognize_doc(g))

        n = 3 * rng.randrange(10, 13)
        g, clusters, _ = _relabel(bc.build_H(n), rng)
        v = rng.randrange(n)
        atypical, typical, _ = h_ring_atypical_rule(clusters, v)
        w = rng.choice(atypical + typical)
        add("game", ["game", "--input", g6(g), "--v", str(v), "--w", str(w)],
            lambda g=g, v=v, w=w: bc.solve_typical_game(g, v, w).to_json_dict())
        v = rng.randrange(n)
        add("atypical", ["atypical", "--input", g6(g), "--v", str(v)],
            lambda g=g, v=v: bc.atypical_set(g, v).to_json_dict())

        quantity = rng.choice(("m", "p2"))
        add("verify", ["verify", "--n", "5", "--quantity", quantity],
            lambda q=quantity: bc.exhaustive_max(5, q).to_json_dict())
        name, n = rng.choice(tuple(formula_fns)), rng.randrange(12, 200)
        add("formula", ["formula", "--name", name, "--n", str(n)],
            lambda name=name, n=n: {"name": name, "n": n,
                                    "value": str(formula_fns[name](n).value)})
        n, d = rng.randrange(10, 100), rng.randrange(2, 9)
        add("formula", ["formula", "--name", "vertex_bound", "--n", str(n), "--d", str(d)],
            lambda n=n, d=d: {"name": "vertex_bound", "n": n, "d": d,
                              "value": repr(formulas.vertex_cycle_bound(n, d).value)})

    h15, h30 = g6(bc.build_H(15)[0]), g6(bc.build_H(30)[0])
    for args in (["count", "--input", "A"], ["paths", "--input", "", "--x", "0", "--y", "1"],
                 ["recognize", "--input", "~~"], ["count", "--input", "Bx"],
                 ["atypical", "--input", "C!", "--v", "0"],
                 ["paths", "--input", h15, "--x", "0", "--y", "99"],
                 ["game", "--input", h30, "--v", "0", "--w", "1"]):
        add("input-error", args, None)

    # sharded verify into a checkpoint directory that is fresh on every
    # pass (a rerun would skip finished shards), then the merge reading it
    n, shards = (4, 2) if small else (6, 4)
    base = OUT / f"ckpt-{os.getpid()}"
    current: list[Path] = []

    def run_shard(shard: int):
        if shard == 0:
            current.append(base / str(len(current)))
            current[-1].mkdir(parents=True)
        return run_cli(["verify", "--n", str(n), "--quantity", "p2",
                        "--shards", str(shards), "--shard", str(shard)], cli_env(current[-1]))

    for shard in range(shards):
        tasks.append(Task(
            f"verify shard {shard}/{shards}", lambda shard=shard: run_shard(shard),
            _json_line(lambda shard=shard: bc.exhaustive_max(
                n, "p2", shards=shards, shard=shard).to_json_dict()),
            layer="verify"))
    tasks.append(Task(
        "verify --merge",
        lambda: run_cli(["verify", "--n", str(n), "--quantity", "p2",
                         "--shards", str(shards), "--merge"], cli_env(current[-1])),
        _json_line(lambda: bc.exhaustive_max(n, "p2").to_json_dict()),
        layer="verify-merge"))

    run_cli(["formula", "--name", "f2", "--n", "12"], env)
    return Workload(tasks, {"calls_per_pass": len(tasks), "verify_shards": [n, shards]},
                    min_samples=1 if small else 100, cleanup=[base])


SETUPS = {"braid": setup_braid, "random": setup_random,
          "sweep": setup_sweep, "cli": setup_cli}


def cleanup(workload: Workload) -> None:
    for path in workload.cleanup:
        shutil.rmtree(path, ignore_errors=True)
