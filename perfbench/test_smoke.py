"""Reduced-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload on small inputs, untraced and traced, and checks
that each metric named in BENCHMARK.json is emitted with its unit and
that a deliberately wrong expected value is counted as a failure.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))


def _small_run(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace, small=True, probes=0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = _small_run(name, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: e["unit"] for m, e in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(e["value"], (int, float)) for e in record["metrics"].values())
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failures"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_wrong_closed_form_fails_braid_tasks(monkeypatch):
    from braidcensus import formulas

    real = formulas.m_lower
    monkeypatch.setattr(formulas, "m_lower",
                        lambda n: types.SimpleNamespace(value=real(n).value + 1))
    record = _small_run("braid", False)
    assert record["failed_frac"] > 0
    assert not record["correct"]


def test_wrong_pinned_sweep_maximum_fails(monkeypatch):
    monkeypatch.setitem(workloads.SWEEP_PINNED[5], "m", 11)
    record = _small_run("sweep", False)
    assert record["failed_frac"] > 0
    assert not record["correct"]


def test_p2_max_time_includes_its_path_counts():
    import braidcensus as bc
    from tracing import Tracer

    g, _ = bc.member_of_F(8)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_task("p2_max", lambda: bc.p2_max(g))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["census.count_induced_st_paths"] == 8 * 7 // 2
    assert "census.count_induced_st_paths" not in summary["self_ms"]
    assert summary["self_ms"]["census.p2_max"] > 0
