"""Benchmark of braidcensus: closed-loop, single-client workloads.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload braid --seed 3 --seconds 25 --trace 0

One client runs the workload's task list in passes, each task starting
when the previous one has returned, until the time is up (at least one
whole pass, and at least ``min_samples`` task latencies).  Every answer is
checked after the timed region.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` times two untraced passes and one traced pass and
reports per-layer self times and counts from spans recorded around the
public functions of each module.  The last line of standard output is
one JSON object; ``perfbench/out/`` keeps the full result, with
provenance, and the spans.  ``--workload all`` runs each workload in its
own process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import OUT, ROOT, SETUPS, SRC, cleanup, cli_env  # noqa: E402

WORKLOADS = tuple(SETUPS)
SETUP_PROBES = 8  # extra fresh-process set-ups; setup_s is the median of 1 + this
IMPORT_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the spans whose self times it sums
LAYER_SPANS = {
    "census.count_induced_cycles.ms": ["census.count_induced_cycles"],
    "census.cycles_per_vertex.ms": ["census.cycles_per_vertex"],
    "census.count_induced_st_paths.ms": ["census.count_induced_st_paths"],
    "census.path_tree_stats.ms": ["census.path_tree_stats"],
    "census.p2_max.ms": ["census.p2_max"],
    "census.slow_census.ms": ["census.slow_census"],
    "graphs.canonical_code.ms": ["graphs.canonical_code"],
    "graphs.parse_graph6.ms": ["graphs.parse_graph6"],
    "sweep.exhaustive_max.self_ms": ["sweep.exhaustive_max"],
    "sweep.verify_extremal_uniqueness.ms": ["sweep.verify_extremal_uniqueness"],
    "recognition.classify_family_all.ms": ["recognition.classify_family_all"],
    "recognition.discover_cyclic_braid.ms": ["recognition.discover_cyclic_braid"],
    "recognition.verify_braid.ms": ["recognition.verify_braid"],
    "recognition.maximal_3braids.ms": ["recognition.maximal_3braids"],
    "game.atypical_set.ms": ["game.atypical_set"],
    "game.solve_typical_game.ms": ["game.solve_typical_game"],
    "game.local_structure.ms": ["game.local_structure"],
    "families.build.ms": ["families.build_braid", "families.build_H", "families.build_G",
                          "families.build_E", "families.member_of_F"],
}
LAYER_CALLS = {
    "census.count_induced_cycles.calls": "census.count_induced_cycles",
    "census.slow_census.calls": "census.slow_census",
    "graphs.canonical_code.calls": "graphs.canonical_code",
}
LAYER_COUNTS = ("census.cycles_counted", "census.paths_counted", "sweep.graphs_scanned")
CLI_LAYERS = ("construct", "count", "paths", "recognize", "game", "atypical",
              "verify", "formula", "verify-merge", "input-error")

PER_LAYER = {
    **{name: "ms" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_CALLS},
    **{name: "count" for name in LAYER_COUNTS},
    "sweep.canonical_per_class": "count/class",
    "sweep.p2_canonical_share": "%",
    "cli.import.ms": "ms",
    **{f"cli.{layer}.ms": "ms" for layer in CLI_LAYERS},
    "trace.overhead_s": "s",
}


class Failed:
    """An answer replaced by the exception its task raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.reason == self.reason


def _cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# ======================================================================
# the host-speed reference
# ======================================================================

# Shared hosts change speed by up to 2x within seconds (measured with a
# fixed loop while nothing else of ours ran), far more than the bounds.
# Every time metric is therefore scaled by the speed of a fixed
# pure-Python kernel timed right before and right after each task:
# value = measured * REF_NOMINAL_S / kernel time.  Times read as seconds
# on a host that runs the kernel in REF_NOMINAL_S; raw times are kept
# in the result record.
REF_NOMINAL_S = 1e-3
REF_LOOPS = 4000


def _reference_kernel() -> int:
    acc, x = 0, 1
    for i in range(REF_LOOPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> (i & 15)
        acc += (x & 0xFF).bit_count()
    return acc


def reference_seconds() -> float:
    """One timing of the reference kernel."""
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


# ======================================================================
# the closed loop
# ======================================================================


class Passes:
    """Per-task samples of every pass.  Only a task's first answer is
    kept; later answers are compared with it as they arrive, so memory
    does not grow with the number of passes."""

    def __init__(self, n_tasks: int):
        self.times: list[list[float]] = [[] for _ in range(n_tasks)]
        self.cpu: list[list[float]] = [[] for _ in range(n_tasks)]
        # kernel time around each sample: mean of the timings before and after
        self.ref: list[list[float]] = [[] for _ in range(n_tasks)]
        self.first: list[object] = [None] * n_tasks
        self.repeats_equal: list[list[bool]] = [[] for _ in range(n_tasks)]
        self.wall: list[float] = []


def run_passes(workload, seconds: float, passes: Passes, tracer=None,
               count: int | None = None) -> None:
    """Run `count` whole passes over the task list or, without a count,
    start another only while it is expected to end within `seconds` or
    the sample floor is unmet."""
    tasks = workload.tasks
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        before = reference_seconds()
        for i, task in enumerate(tasks):
            c0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                answer = tracer.run_task(task.name, task.run) if tracer else task.run()
            except Exception as exc:  # a task that raises is a failed operation
                answer = Failed(exc)
            passes.times[i].append(time.perf_counter() - t0)
            passes.cpu[i].append(_cpu_seconds() - c0)
            after = reference_seconds()
            passes.ref[i].append((before + after) / 2)
            before = after
            if len(passes.times[i]) == 1:
                passes.first[i] = answer
            else:
                passes.repeats_equal[i].append(answer == passes.first[i])
        passes.wall.append(time.perf_counter() - pass_start)
        done += 1
        if count is not None:
            if done == count:
                return
            continue
        samples = done * len(tasks)
        elapsed = time.perf_counter() - start
        if samples >= workload.min_samples and elapsed + passes.wall[-1] > seconds:
            return


def check_answers(tasks, passes: Passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  A task's first answer is checked
    against its reference; later answers must equal the first."""
    first = {task.name: answer for task, answer in zip(tasks, passes.first)}
    attempted = failed = 0
    reasons: list[str] = []
    for task, head, repeats in zip(tasks, passes.first, passes.repeats_equal):
        if isinstance(head, Failed):
            verdict = head.reason
        else:
            try:
                verdict = task.check(head, first)
            except Exception as exc:  # a check that cannot run fails its task
                verdict = f"check raised {type(exc).__name__}: {exc}"
        whys = [verdict] + [verdict if same else "answer changed between passes"
                            for same in repeats]
        attempted += len(whys)
        for why in whys:
            if why is not None:
                failed += 1
                if len(reasons) < 20:
                    reasons.append(f"{task.name}: {why}")
    return attempted, failed, reasons


# ======================================================================
# one workload in this process
# ======================================================================


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: a function of the empirical distribution
    alone, so repeating a pass does not move it."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked) / 100) - 1)]


def scaled_pass_walls(passes: Passes) -> list[float]:
    """Wall time of each pass, scaled to the reference speed task by task."""
    return [sum(times[p] * REF_NOMINAL_S / refs[p]
                for times, refs in zip(passes.times, passes.ref))
            for p in range(len(passes.wall))]


def time_metrics(passes: Passes, nominal: float | None) -> dict:
    """Wall and CPU time of the task list (sum of per-task medians over
    passes) and per-task latency percentiles; scaled to the reference
    speed when `nominal` is given, raw otherwise."""
    def scaled(values, refs):
        return [v * nominal / r for v, r in zip(values, refs)] if nominal else values

    walls = [scaled(t, r) for t, r in zip(passes.times, passes.ref)]
    cpus = [scaled(c, r) for c, r in zip(passes.cpu, passes.ref)]
    samples = [t for times in walls for t in times]
    return {
        "wall_s": sum(statistics.median(times) for times in walls),
        "cpu_s": sum(statistics.median(cpu) for cpu in cpus),
        "task_p50_ms": 1e3 * _percentile(samples, 50),
        "task_p90_ms": 1e3 * _percentile(samples, 90),
    }


def timed_setup(name: str, seed: int, small: bool):
    """(workload, set-up seconds scaled to the reference speed, raw)."""
    before = reference_seconds()
    t0 = time.perf_counter()
    workload = SETUPS[name](seed, small)
    took = time.perf_counter() - t0
    ref = (before + reference_seconds()) / 2
    return workload, took * REF_NOMINAL_S / ref, took


def _probe(args: list[str]) -> list[float]:
    """The numbers a probe process prints on its last line."""
    proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                          env=cli_env(), timeout=120, check=True)
    return [float(x) for x in proc.stdout.strip().splitlines()[-1].split()]


def setup_probe_times(name: str, seed: int, count: int) -> list[list[float]]:
    """[scaled, raw] set-up times of `count` fresh processes."""
    return [
        _probe([sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", name, "--seed", str(seed)])
        for _ in range(count)
    ]


def import_probe_ms() -> float:
    code = ("import time; t = time.perf_counter(); import braidcensus.cli; "
            "print(time.perf_counter() - t)")
    return 1e3 * statistics.median(
        _probe([sys.executable, "-c", code])[0] for _ in range(IMPORT_PROBES))


def layer_metrics(summary: dict, passes: Passes, tasks, cli: bool) -> dict:
    self_ms, calls, counts = summary["self_ms"], summary["calls"], summary["counts"]
    out = {}
    for metric, spans in LAYER_SPANS.items():
        out[metric] = sum(self_ms.get(span, 0) for span in spans)
    for metric, span in LAYER_CALLS.items():
        out[metric] = calls.get(span, 0)
    for metric in LAYER_COUNTS:
        out[metric] = counts.get(metric, 0)
    classes = counts.get("sweep.classes", 0)
    out["sweep.canonical_per_class"] = summary["canonical_in_sweeps"] / classes if classes else 0
    out["sweep.p2_canonical_share"] = summary["p2_canonical_share"]
    out["cli.import.ms"] = import_probe_ms() if cli else 0
    for layer in CLI_LAYERS:
        samples = [t for task, times in zip(tasks, passes.times)
                   if task.layer == layer for t in times]
        out[f"cli.{layer}.ms"] = 1e3 * statistics.median(samples) if samples else 0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, probes: int = SETUP_PROBES) -> dict:
    workload, *setup = timed_setup(name, seed, small)
    setups = [setup]
    raw: dict[str, float] = {}
    import braidcensus

    if not Path(braidcensus.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"braidcensus imported from {braidcensus.__file__}, not the tree")
    is_cli = name == "cli"
    OUT.mkdir(parents=True, exist_ok=True)
    passes = Passes(len(workload.tasks))
    metrics: dict[str, float] = {}
    try:
        if trace:
            from tracing import Tracer

            # the first pass after set-up runs cold; the second is the baseline
            run_passes(workload, seconds, passes, count=2)
            tracer = Tracer()
            tracer.install()
            try:
                run_passes(workload, seconds, passes, tracer, count=1)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{name}-s{seed}.jsonl")
            metrics = layer_metrics(tracer.summary(), passes, workload.tasks, is_cli)
            _, untraced, traced = scaled_pass_walls(passes)
            metrics["trace.overhead_s"] = traced - untraced
        else:
            run_passes(workload, seconds, passes)
            who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
            metrics = {**time_metrics(passes, REF_NOMINAL_S),
                       "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
            raw = time_metrics(passes, None)
        attempted, failed, reasons = check_answers(workload.tasks, passes)
    finally:
        cleanup(workload)
    if not trace:
        setups += setup_probe_times(name, seed, probes)
        metrics = {"setup_s": statistics.median(s[0] for s in setups), **metrics}
        raw["setup_s"] = statistics.median(s[1] for s in setups)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    record = {
        **result,
        "failed_frac": failed / attempted,
        "failures": reasons,
        "task_samples": sum(len(t) for t in passes.times),
        "passes": len(passes.wall),
        "setup_samples_s": setups,
        "raw": raw,
        "reference_kernel_s": statistics.median(r for refs in passes.ref for r in refs),
        "task_times_s": {t.name: times for t, times in zip(workload.tasks, passes.times)},
        "provenance": provenance(name, seed, seconds, trace, workload.params),
    }
    (OUT / f"result-{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="ascii")
    return record


# ======================================================================
# provenance
# ======================================================================


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    # the ceiling keeps git from adopting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(name: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    numpy = sys.modules.get("numpy")
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": commit or "unknown",
        "git_dirty": None if status is None else bool(status),
        "unix_time": time.time(),
    }


# ======================================================================
# command line
# ======================================================================


def _print_record(name: str, record: dict) -> None:
    for metric, entry in record["metrics"].items():
        print(f"{name:7s} {metric:40s} {entry['value']:>14.4f} {entry['unit']}")
    for metric, value in record["raw"].items():
        print(f"{name:7s} {metric + ' (raw)':40s} {value:>14.4f}")
    print(f"{name:7s} {'reference kernel (nominal 1 ms)':40s} "
          f"{1e3 * record['reference_kernel_s']:>14.4f} ms")
    print(f"{name:7s} {'failed_frac':40s} {record['failed_frac']:>14.4f} "
          f"({record['failed']}/{record['attempted']}; "
          f"{record['task_samples']} task samples in {record['passes']} passes)")
    for reason in record["failures"]:
        print(f"{name:7s} FAILED {reason}")


def run_all(args) -> dict:
    """Each workload in its own process, so that peak RSS and the
    library's per-process caches belong to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "braidcensus" / "__init__.py").is_file():
        print(f"error: no braidcensus source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(*timed_setup(args.workload, args.seed, False)[1:])
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_record(args.workload, record)
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
