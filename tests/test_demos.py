"""The narrated demos run end to end.

Each demo checks its own numbers with assert and prints MISMATCH where a
count and its closed form disagree, so each one runs in a fresh
interpreter with assertions on (never under -O) and must exit 0 with no
MISMATCH on stdout.
"""

import os
import subprocess
import sys

import pytest

import braidcensus

SRC = os.path.dirname(os.path.dirname(braidcensus.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", ["census_tour.py", "sweep_small_n.py", "game_walkthrough.py"])
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
