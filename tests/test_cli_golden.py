"""The CLI golden corpus: replay tests/cli_golden.jsonl.

Each line of the corpus is one CLI call and what it gave: argv, the
files in a scratch directory before the call ("files"), the environment
("env"), the exit code, stdout, stderr and, where the call could touch
the directory, the files after it ("dir").  "{dir}" stands for the
scratch directory and "{pid}" for the process id in the names of
temporary checkpoint files.  Files are written and read as latin-1, so
any byte string round-trips.

Every record is replayed in process through cli.main, and a few as
`python -O -m braidcensus.cli` subprocesses.  A record may change only
when the change says why.  To regenerate the corpus after such a change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest

from braidcensus.cli import CHECKPOINT_DIR_VAR, main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.jsonl")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# argparse wraps --help to the terminal width
FIXED_ENV = {"COLUMNS": "80"}


def _fill(text, directory):
    return text.replace("{dir}", directory)


def _normalise(text, directory, pid):
    return text.replace(directory, "{dir}").replace(f".{pid}.tmp", ".{pid}.tmp")


def _prepare(case, directory):
    for name, text in case.get("files", {}).items():
        with open(os.path.join(directory, name), "w", encoding="latin-1",
                  newline="") as fh:
            fh.write(text)
    argv = [_fill(arg, directory) for arg in case["argv"]]
    env = {key: _fill(value, directory) for key, value in case.get("env", {}).items()}
    return argv, env


def _record(case, directory, pid, code, out, err):
    record = dict(case, exit=code, stdout=_normalise(out, directory, pid),
                  stderr=_normalise(err, directory, pid))
    if "files" in case or "env" in case:
        record["dir"] = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), encoding="latin-1",
                      newline="") as fh:
                record["dir"][_normalise(name, directory, pid)] = fh.read()
    return record


def run_in_process(case):
    """The record of one call of cli.main on case's argv, files and env."""
    with tempfile.TemporaryDirectory() as directory:
        argv, env = _prepare(case, directory)
        out, err = io.StringIO(), io.StringIO()
        limit = sys.get_int_max_str_digits()
        with mock.patch.dict(os.environ, {**FIXED_ENV, **env}):
            if CHECKPOINT_DIR_VAR not in env:
                os.environ.pop(CHECKPOINT_DIR_VAR, None)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: --help, or bad arguments
                    code = exc.code
                finally:
                    sys.set_int_max_str_digits(limit)
        return _record(case, directory, os.getpid(), code, out.getvalue(),
                       err.getvalue())


def run_subprocess(case):
    """The record of case run as `python -O -m braidcensus.cli`."""
    with tempfile.TemporaryDirectory() as directory:
        argv, env = _prepare(case, directory)
        full_env = {**os.environ, **FIXED_ENV, "PYTHONPATH": SRC, **env}
        if CHECKPOINT_DIR_VAR not in env:
            full_env.pop(CHECKPOINT_DIR_VAR, None)
        with subprocess.Popen(
                [sys.executable, "-O", "-m", "braidcensus.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=full_env) as proc:
            out, err = proc.communicate(timeout=120)
        return _record(case, directory, proc.pid, proc.returncode, out, err)


def load_corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


RECORDED = ("exit", "stdout", "stderr", "dir")


def _case(record):
    return {key: value for key, value in record.items() if key not in RECORDED}


def test_corpus_replays_in_process():
    mismatches = [
        (record["argv"], got)
        for record in load_corpus()
        if (got := run_in_process(_case(record))) != record
    ]
    assert mismatches == []


# one of each kind: a family, a sweep with canonical codes, a formula, an
# input error, a parser error, and a merge of checkpoint files
SUBPROCESS_CASES = [
    ["construct", "--family", "G_script", "--n", "71", "--variant", "593",
     "--out", "json"],
    ["verify", "--n", "6", "--quantity", "p2_odd"],
    ["formula", "--name", "m_lower", "--n", "200"],
    ["count", "--input", "~~??????"],
    ["verify", "--n", "4", "--quantity", "m", "--threads", "2"],
    ["verify", "--n", "5", "--quantity", "p2", "--shards", "3", "--merge"],
]


@pytest.mark.parametrize("argv", SUBPROCESS_CASES, ids=" ".join)
def test_corpus_replays_under_python_O(argv):
    records = [record for record in load_corpus() if record["argv"] == argv]
    assert records, argv
    for record in records:
        assert run_subprocess(_case(record)) == record


# ======================================================================
# the cases, and the generator of the corpus
# ======================================================================

COMMANDS = ("construct", "count", "paths", "recognize", "game", "atypical",
            "verify", "formula")
FAMILY_MIN_N = {"H": 8, "G": 14, "E": 14, "F": 4, "F_odd": 10, "F_even": 10,
                "G_script": 14}
FAMILY_MAX_N = 128
C5, C6, P5, K4 = "Dhc", "EhEG", "DhC", "C~"
# checkpoints of the n = 4 p2 sweep in two shards
N4_ARGS = ["verify", "--n", "4", "--quantity", "p2", "--shards", "2"]
N4_FILES = {"sweep_p2_n4_s2_0.txt": "0,2,C]\n", "sweep_p2_n4_s2_1.txt": "1,2,C],C^\n"}
CHECKPOINTS = {CHECKPOINT_DIR_VAR: "{dir}"}


def _variant_count(tag, n):
    from braidcensus import families

    if tag in ("H", "G", "E"):
        return 1
    if tag == "G_script":
        return sum(1 for _ in families.members_of_script_G(n))
    parity = {"F": "all", "F_odd": "odd", "F_even": "even"}[tag]
    return len(families.f_central_sequences(n, parity))


def _family_cases():
    for tag, low in FAMILY_MIN_N.items():
        for n in (low, (low + FAMILY_MAX_N) // 2, FAMILY_MAX_N):
            count = _variant_count(tag, n)
            for variant in sorted({0, count // 2, count - 1}):
                yield {"argv": ["construct", "--family", tag, "--n", str(n),
                                "--variant", str(variant), "--out", "json"]}
            yield {"argv": ["count", "--family", tag, "--n", str(n)]}
        yield {"argv": ["construct", "--family", tag, "--n", str(low)]}
        yield {"argv": ["construct", "--family", tag, "--n", str(low - 1)]}
        yield {"argv": ["construct", "--family", tag, "--n", str(FAMILY_MAX_N + 1)]}
        yield {"argv": ["paths", "--family", tag, "--n", str(low), "--x", "0",
                        "--y", str(low - 1)]}


def _graph_cases():
    from braidcensus.families import build_family
    from braidcensus.graphs import to_graph6

    h15, h18, h30 = (to_graph6(build_family("H", n, 0)[0]) for n in (15, 18, 30))
    members = [to_graph6(build_family(tag, n, 0)[0]) for tag, n in
               [("G", 14), ("E", 14), ("F", 10), ("F_odd", 13), ("G_script", 17),
                ("H", 12), ("H", 13)]]
    for g6 in (C5, C6, P5, K4, "@", "A_", h15, *members):
        yield {"argv": ["count", "--input", g6]}
        yield {"argv": ["recognize", "--input", g6]}
    for g6, x, y in [(C6, 0, 2), (C6, 0, 3), (C5, 1, 1), (h15, 0, 6), (P5, 0, 4),
                     (K4, 0, 4), (K4, -1, 0)]:
        yield {"argv": ["paths", "--input", g6, "--x", str(x), "--y", str(y)]}
    yield {"argv": ["paths", "--input", "{dir}/graph.g6", "--x", "0", "--y", "6"],
           "files": {"graph.g6": h15 + "\n"}}
    yield {"argv": ["recognize", "--input", h15, "--expect", "H"]}
    yield {"argv": ["recognize", "--input", h15, "--expect", "G"]}
    yield {"argv": ["recognize", "--input", h15, "--expect", "X"]}
    for g6, v, w in [(h30, 0, 15), (h30, 0, 16), (h18, 0, 9), (h30, 0, 30),
                     (h30, 0, 0)]:
        yield {"argv": ["game", "--input", g6, "--v", str(v), "--w", str(w)]}
    for g6, v in [(h30, 0), (h30, 7), (h18, 0), (C6, 0), (h30, 31)]:
        yield {"argv": ["atypical", "--input", g6, "--v", str(v)]}


def _formula_cases():
    for name, ns in [("f2", (3, 4, 5, 6, 7, 30, 301)),
                     ("f2o", (9, 10, 11, 12, 13, 14, 15, 100)),
                     ("f2e", (9, 10, 11, 12, 13, 14, 15, 100)),
                     ("m_lower", (11, 12, 13, 14, 200)),
                     ("short_mass", (0, 1, 9, 10, 100, 1000, 100001))]:
        for n in ns:
            yield {"argv": ["formula", "--name", name, "--n", str(n)]}
    for n, d in [(16, 6), (1, 0), (5, 5), (5, -1), (0, 0), (40, 3), (1000, 2),
                 (3000, 2)]:
        yield {"argv": ["formula", "--name", "vertex_bound", "--n", str(n),
                        "--d", str(d)]}
    yield {"argv": ["formula", "--name", "vertex_bound", "--n", "16"]}
    yield {"argv": ["formula", "--name", "f2", "--n", "12", "--d", "3"]}
    yield {"argv": ["formula", "--name", "f3", "--n", "12"]}


def _verify_cases():
    from braidcensus.graphs import QUANTITIES

    for n in range(2, 8):
        for quantity in QUANTITIES:
            yield {"argv": ["verify", "--n", str(n), "--quantity", quantity]}
    yield {"argv": ["verify", "--n", "4", "--quantity", "p2", "--expect", "2"]}
    yield {"argv": ["verify", "--n", "4", "--quantity", "p2", "--expect", "7"]}
    yield {"argv": ["verify", "--n", "5", "--quantity", "m", "--shards", "3",
                    "--shard", "2"]}
    for n, flags in [("1", []), ("8", []), ("9", ["--long-run"])]:
        yield {"argv": ["verify", "--n", n, "--quantity", "m", *flags]}
    yield {"argv": ["verify", "--n", "4", "--quantity", "m", "--shards", "0"]}
    yield {"argv": ["verify", "--n", "4", "--quantity", "m", "--shards", "2",
                    "--shard", "2"]}
    yield {"argv": ["verify", "--n", "4", "--quantity", "q"]}


def _sharded_cases():
    """Each shard of a sweep, a replay of one, and the merge, each call
    starting from the files the calls before it left."""
    for args in (["verify", "--n", "5", "--quantity", "p2", "--shards", "3"],
                 ["verify", "--n", "6", "--quantity", "m_odd_holes", "--shards", "2"]):
        files = {}
        shards = int(args[-1])
        for step in [["--shard", str(i)] for i in range(shards)] + [
                ["--shard", "1"], ["--merge"]]:
            record = run_in_process({"argv": args + step, "env": CHECKPOINTS,
                                     "files": files})
            files = record["dir"]
            yield record


def _checkpoint_error_cases():
    """Every checkpoint input error of tests/test_cli.py."""
    n4_merge = N4_ARGS + ["--merge"]
    yield {"argv": n4_merge, "env": CHECKPOINTS, "files": N4_FILES}
    yield {"argv": N4_ARGS + ["--shard", "1"], "env": CHECKPOINTS, "files": N4_FILES}
    for line in ["x,2,C~\n", "0,2,C]\n", "1,2,C],C^,Cl\n", "1,2,C],C^,D~{\n",
                 "1,2,C\xff\n", "1,2\n", ""]:
        files = dict(N4_FILES, **{"sweep_p2_n4_s2_1.txt": line})
        yield {"argv": n4_merge, "env": CHECKPOINTS, "files": files}
    yield {"argv": n4_merge, "env": CHECKPOINTS,
           "files": dict(N4_FILES, **{"sweep_p2_n4_s2_0.txt": "0,5,C~\n"})}
    yield {"argv": N4_ARGS + ["--shard", "1"], "env": CHECKPOINTS,
           "files": {"sweep_p2_n4_s2_1.txt": "0,2,C]\n"}}
    yield {"argv": n4_merge, "env": CHECKPOINTS,
           "files": {"sweep_p2_n4_s2_0.txt": "0,2,C]\n"}}
    yield {"argv": n4_merge}
    yield {"argv": n4_merge, "env": {CHECKPOINT_DIR_VAR: "{dir}/missing"}}
    yield {"argv": N4_ARGS + ["--shard", "0"],
           "env": {CHECKPOINT_DIR_VAR: "{dir}/missing"}}
    n9 = ["verify", "--n", "9", "--quantity", "m", "--shards", "2", "--merge"]
    yield {"argv": n9, "env": CHECKPOINTS}
    yield {"argv": n9, "env": CHECKPOINTS,
           "files": {f"sweep_m_n9_s2_{i}.txt": f"{i},1,B~\n" for i in range(2)}}
    m5 = ["verify", "--n", "5", "--quantity", "m", "--shards", "3"]
    yield {"argv": m5 + ["--shard", "0"], "env": CHECKPOINTS,
           "files": {"sweep_m_n5_s3.txt": "0,10,D~{\n",
                     "sweep_m_n5_s3_classes.txt": "0,10,D~{\n"}}
    yield {"argv": m5 + ["--merge"], "env": CHECKPOINTS,
           "files": {"sweep_m_n5_s3_0.txt.4242.tmp": ""}}
    yield {"argv": ["verify", "--n", "8", "--quantity", "m", "--shards", "2",
                    "--shard", "0"], "env": CHECKPOINTS}


def _input_error_cases():
    """The remaining input errors of tests/test_cli.py, and the parser's."""
    yield {"argv": ["construct", "--family", "H", "--n", "12", "--variant", "1"]}
    yield {"argv": ["construct", "--family", "F", "--n", "6", "--variant", "9"]}
    for tag, count in [("H", 1), ("E", 1), ("F", 1), ("F_odd", 19), ("F_even", 1),
                       ("G_script", 2)]:
        for variant in (count, -1):
            yield {"argv": ["construct", "--family", tag, "--n", "20",
                            "--variant", str(variant)]}
    for argv in [["count", "--family", "F_odd", "--n", "100003"],
                 ["construct", "--family", "F", "--n", "3000"],
                 ["construct", "--family", "H", "--n", "100000000"],
                 ["paths", "--family", "G", "--n", "500", "--x", "0", "--y", "1"],
                 ["construct", "--family", "G_script", "--n", "14", "--variant", "-1"],
                 ["count", "--input", C5, "--family", "H", "--n", "12"],
                 ["count"],
                 ["count", "--input", "~~??????"],
                 ["count", "--input", "~?!?"],
                 ["count", "--input", "~??@"],
                 ["count", "--input", "\x01\x02 not graph6"],
                 ["count", "--input", "D"],
                 ["count", "--input", "Dhcc"],
                 ["count", "--input", "A`"],
                 ["count", "--family", "H", "--n", "12", "--frobnicate"],
                 ["frobnicate"],
                 ["verify", "--n", "4", "--quantity", "m", "--threads", "2"],
                 ["construct", "--family", "X", "--n", "12"],
                 ["construct", "--family", "H", "--n", "twelve"],
                 []]:
        yield {"argv": argv}
    yield {"argv": ["count", "--input", "{dir}/blank.g6"],
           "files": {"blank.g6": "\n   \n"}}
    yield {"argv": ["count", "--input", "{dir}/latin.g6"],
           "files": {"latin.g6": "D\xe9c\n"}}
    yield {"argv": ["count", "--input", C5, "--variant", "1"]}


def cases():
    yield {"argv": ["--help"]}
    for command in COMMANDS:
        yield {"argv": [command, "--help"]}
    yield from _family_cases()
    yield from _graph_cases()
    yield from _formula_cases()
    yield from _verify_cases()
    yield from _sharded_cases()
    yield from _checkpoint_error_cases()
    yield from _input_error_cases()


def write_corpus():
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for case in cases():
            record = case if "exit" in case else run_in_process(case)
            fh.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_corpus()
