"""Golden coverage of every CLI subcommand.

Each test drives main() in process and checks the single output line
(parsed JSON is compared as a document, so key order stays free) plus
the exit code contract: 0 for success, 2 for input problems, 3 for a
failed --expect assertion.  Exit 4, a failed internal cross-check, is
forced in test_sweep.py under python -O.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import braidcensus
from braidcensus.cli import _load_graph, main
from braidcensus import sweep
from braidcensus.census import count_induced_cycles
from braidcensus import families
from braidcensus.families import build_braid, build_H, members_of_script_G
from braidcensus.formulas import f2
from braidcensus.game import atypical_set
from braidcensus.graphs import InputError, InternalError, to_graph6
from braidcensus.recognition import classify_family_all, discover_cyclic_braid, verify_braid
from braidcensus.sweep import exhaustive_max

from public_names import PUBLIC_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    lines = out.strip().splitlines()
    assert len(lines) == 1, f"expected one output line, got {out!r}"
    return code, json.loads(lines[0]), err


H15_G6 = to_graph6(build_H(15)[0])


# ======================================================================
# construct
# ======================================================================


def test_construct_g6_line(capsys):
    code, out, err = run(capsys, "construct", "--family", "H", "--n", "12")
    assert code == 0
    assert out == "KFz_ww[w~F[[\n"
    assert err == ""


def test_construct_json(capsys):
    code, doc, _ = run_json(
        capsys, "construct", "--family", "F", "--n", "6", "--variant", "1",
        "--out", "json",
    )
    assert code == 0
    assert doc["clusters"] == [[0], [1, 2], [3, 4], [5]]
    assert doc["cyclic"] is False
    assert doc["n"] == 6 and doc["g6"]


def test_construct_bad_variant(capsys):
    code, out, err = run(
        capsys, "construct", "--family", "H", "--n", "12", "--variant", "1"
    )
    assert code == 2
    assert out == "" and "error" in err
    code, _, err = run(capsys, "construct", "--family", "F", "--n", "6",
                       "--variant", "9")
    assert code == 2 and "variant" in err


def _construct_doc(g, part):
    return {"n": g.n, "g6": to_graph6(g), **part.to_json_dict()}


def test_construct_builds_only_the_member_asked_for(capsys, monkeypatch):
    members = list(members_of_script_G(30))
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_braid(spec)

    monkeypatch.setattr(families, "build_braid", counted)
    code, doc, _ = run_json(capsys, "construct", "--family", "G_script", "--n", "30",
                            "--variant", str(len(members) - 1), "--out", "json")
    assert code == 0 and len(calls) == 1
    assert doc == _construct_doc(*members[-1])


# variant count and error message of every family at n = 20
VARIANTS_AT_20 = {
    "H": (1, "family H has a single variant per n"),
    "E": (1, "family E has a single variant per n"),
    "F": (1, "variant {v} out of range: all family at n=20 has 1 variants"),
    "F_odd": (19, "variant {v} out of range: odd family at n=20 has 19 variants"),
    "F_even": (1, "variant {v} out of range: even family at n=20 has 1 variants"),
    "G_script": (2, "G_script at n=20 has no variant {v}"),
}


@pytest.mark.parametrize("family", VARIANTS_AT_20)
def test_construct_variant_out_of_range_exits_2(capsys, family):
    count, message = VARIANTS_AT_20[family]
    for v in (count, -1):
        code, out, err = run(capsys, "construct", "--family", family, "--n", "20",
                             "--variant", str(v))
        assert (code, out, err) == (2, "", f"error: {message.format(v=v)}\n")


@pytest.mark.parametrize("argv", [
    ("count", "--family", "F_odd", "--n", "100003"),
    ("construct", "--family", "F", "--n", "3000"),
    ("construct", "--family", "H", "--n", "100000000"),
    ("paths", "--family", "G", "--n", "500", "--x", "0", "--y", "1"),
    ("construct", "--family", "G_script", "--n", "14", "--variant", "-1"),
])
def test_construct_oversized_families_exit_2(capsys, argv):
    # refused before the sizes or orderings are computed: no recursion
    # error and no long wait
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# ======================================================================
# count and paths
# ======================================================================


def test_count_family(capsys):
    code, doc, _ = run_json(capsys, "count", "--family", "H", "--n", "13")
    assert code == 0
    assert doc["f"] == "315"
    assert doc["by_length"] == {"4": "315"}


def test_count_inline_graph(capsys):
    code, doc, _ = run_json(capsys, "count", "--input", "Dhc")  # the 5-cycle
    assert code == 0
    assert doc["f"] == "1" and doc["odd_holes"] == "1"


def test_count_input_source_is_exclusive(capsys):
    code, out, err = run(
        capsys, "count", "--input", "Dhc", "--family", "H", "--n", "12"
    )
    assert code == 2 and out == ""
    # --variant picks a family member, so it has no meaning next to --input
    for argv in (("count",), ("paths", "--x", "0", "--y", "2")):
        code, out, err = run(capsys, *argv, "--input", "Dhc", "--variant", "1")
        assert code == 2 and out == "" and "--variant" in err
    code, out, err = run(capsys, "count")
    assert code == 2 and "input source" in err


def test_paths_golden(capsys):
    code, doc, _ = run_json(
        capsys, "paths", "--input", "EhEG", "--x", "0", "--y", "2"
    )  # the 6-cycle: one 2-edge and one 4-edge path between antipodes
    assert code == 0
    assert doc == {
        "x": 0,
        "y": 2,
        "by_length": {"2": "1", "4": "1"},
        "p2": "2",
        "p2_odd": "2",
        "p2_even": "0",
    }


def test_paths_from_file(tmp_path, capsys):
    target = tmp_path / "graph.g6"
    target.write_text(H15_G6 + "\n")
    code, doc, _ = run_json(
        capsys, "paths", "--input", str(target), "--x", "0", "--y", "6"
    )
    assert code == 0
    # three 2-edge paths through the shared neighbor cluster plus nine
    # 3-edge paths around the other side of the cycle
    assert doc["p2"] == "12"


# ======================================================================
# recognize
# ======================================================================


def test_recognize_family_member(capsys):
    code, doc, _ = run_json(capsys, "recognize", "--input", H15_G6)
    assert code == 0
    assert doc["verified"] is True
    assert doc["family"] == {"tag": "H", "n": 15}
    assert doc["clusters"][0] == [0, 1, 2]
    assert doc["families"] == ["H", "G_script"]


def test_recognize_expect_exit_codes(capsys):
    code, out, err = run(capsys, "recognize", "--input", H15_G6,
                         "--expect", "H")
    assert code == 0
    code, out, err = run(capsys, "recognize", "--input", H15_G6,
                         "--expect", "G")
    assert code == 3
    assert out.strip()  # the report is still printed
    assert "expected family G" in err


def test_recognize_non_braid(capsys):
    code, doc, _ = run_json(capsys, "recognize", "--input", "DhC")  # a path
    assert code == 0
    assert doc["verified"] is False
    assert doc["families"] == [] and doc["clusters"] is None


# ======================================================================
# game and atypical
# ======================================================================


def test_game_golden(capsys):
    g6 = to_graph6(build_H(30)[0])
    code, doc, _ = run_json(capsys, "game", "--input", g6, "--v", "0",
                            "--w", "15")
    assert code == 0
    assert doc == {
        "winner": "Adversary",
        "trace": [0, 3],
        "reason": "bad-vertex-in-N4",
    }


def test_game_precondition_is_an_input_error(capsys):
    g6 = to_graph6(build_H(18)[0])
    code, out, err = run(capsys, "game", "--input", g6, "--v", "0", "--w", "9")
    assert code == 2 and out == ""
    assert "distance is 3" in err


def test_atypical_golden(capsys):
    g6 = to_graph6(build_H(30)[0])
    code, doc, _ = run_json(capsys, "atypical", "--input", g6, "--v", "0")
    assert code == 0
    assert doc["atypical"] == [15, 16, 17]
    assert doc["typical"] == []
    assert len(doc["exempt"]) == 27


# ======================================================================
# verify
# ======================================================================


def test_verify_golden(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n", "5", "--quantity", "p2")
    assert code == 0
    assert doc["max"] == "3"
    assert doc["graphs_scanned"] == "1024"
    assert len(doc["extremal_codes"]) == 4


def test_verify_expect(capsys):
    code, _, _ = run_json(capsys, "verify", "--n", "4", "--quantity", "p2",
                          "--expect", "2")
    assert code == 0
    code, out, err = run(capsys, "verify", "--n", "4", "--quantity", "p2",
                         "--expect", "7")
    assert code == 3 and "expected max 7" in err


def test_verify_sharded_checkpoints(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    args = ("verify", "--n", "5", "--quantity", "p2", "--shards", "3")
    docs = []
    for shard in range(3):
        code, doc, _ = run_json(capsys, *args, "--shard", str(shard))
        assert code == 0
        docs.append(doc)
    # one file per shard, holding its line and nothing else
    files = sorted(tmp_path.iterdir())
    assert [path.name for path in files] == [
        f"sweep_p2_n5_s3_{shard}.txt" for shard in range(3)]
    texts = [path.read_text() for path in files]
    assert texts == [
        sweep.checkpoint_line(i, exhaustive_max(5, "p2", shards=3, shard=i)) + "\n"
        for i in range(3)]

    # a completed shard is replayed from its file, not rescanned
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "exhaustive_max", lambda *a, **k: calls.append(a))
        code, replayed, _ = run_json(capsys, *args, "--shard", "1")
    assert code == 0 and replayed == docs[1] and calls == []
    assert [path.read_text() for path in sorted(tmp_path.iterdir())] == texts

    code, merged, _ = run_json(capsys, *args, "--merge")
    assert code == 0
    code, full, _ = run_json(capsys, "verify", "--n", "5", "--quantity", "p2")
    assert merged == full


def _verify_env(directory):
    return dict(os.environ, PYTHONPATH=SRC, BRAIDCENSUS_CHECKPOINT_DIR=str(directory))


def _communicate(procs):
    """Wait for every process; (exit code, stdout, stderr) of each."""
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    return [(proc.returncode, *out) for proc, out in zip(procs, outs)]


def test_concurrent_shards_write_their_own_checkpoints(tmp_path):
    # the parallel recipe: one process per shard, started together
    env = _verify_env(tmp_path)
    args = [sys.executable, "-m", "braidcensus.cli", "verify", "--n", "6",
            "--quantity", "p2", "--shards", "2"]
    results = _communicate([
        subprocess.Popen(args + ["--shard", str(i)], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
        for i in range(2)
    ])
    assert [code for code, _, _ in results] == [0, 0], results
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "sweep_p2_n6_s2_0.txt", "sweep_p2_n6_s2_1.txt"]
    for i in range(2):
        text = (tmp_path / f"sweep_p2_n6_s2_{i}.txt").read_text()
        assert text.startswith(f"{i},") and text.count("\n") == 1
    merged = subprocess.run(args + ["--merge"], capture_output=True, text=True,
                            env=env, timeout=120)
    assert merged.returncode == 0, merged.stderr
    assert merged.stdout == json.dumps(exhaustive_max(6, "p2").to_json_dict()) + "\n"


# runs verify with the sweep replaced: STALL reports that the sweep has
# begun and never returns; TOGETHER sweeps only once as many processes as
# its second argument says have reached the sweep (or after 30 s), so
# that all of them hold their temporary files at once
STALL_SCRIPT = """
import sys, time
from braidcensus import sweep
from braidcensus.cli import main

def stall(*args, **kwargs):
    print("sweeping", file=sys.stderr, flush=True)
    time.sleep(600)

sweep.exhaustive_max = stall
sys.exit(main(sys.argv[1:]))
"""

TOGETHER_SCRIPT = """
import os, sys, time
from braidcensus import sweep
from braidcensus.cli import main

barrier, count, real = sys.argv[1], int(sys.argv[2]), sweep.exhaustive_max

def together(*args, **kwargs):
    open(os.path.join(barrier, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(barrier)) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return real(*args, **kwargs)

sweep.exhaustive_max = together
sys.exit(main(sys.argv[3:]))
"""


def test_verify_killed_mid_sweep_leaves_no_checkpoint(tmp_path, capsys, monkeypatch):
    # SIGKILL cannot be caught: the shard dies holding its temporary file,
    # its checkpoint is never written, and so the shard simply reruns
    args = ["verify", "--n", "5", "--quantity", "m", "--shards", "3"]
    proc = subprocess.Popen(
        [sys.executable, "-c", STALL_SCRIPT, *args, "--shard", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_verify_env(tmp_path))
    try:
        assert proc.stderr.readline() == "sweeping\n"
    finally:
        proc.kill()
        proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGKILL
    temp = f"sweep_m_n5_s3_0.txt.{proc.pid}.tmp"
    assert [path.name for path in tmp_path.iterdir()] == [temp]

    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == "" and "missing shards [0, 1, 2]" in err
    for shard in range(3):
        assert run_json(capsys, *args, "--shard", str(shard))[0] == 0
    code, merged, _ = run_json(capsys, *args, "--merge")
    assert code == 0
    assert merged == exhaustive_max(5, "m").to_json_dict()
    assert (tmp_path / temp).read_text() == ""


def test_the_same_shard_twice_at_once_leaves_one_checkpoint(tmp_path):
    # both processes create their temporary files before either sweeps;
    # each moves its own into place, and the later replace wins
    barrier, checkpoints = tmp_path / "barrier", tmp_path / "checkpoints"
    barrier.mkdir()
    checkpoints.mkdir()
    argv = [sys.executable, "-c", TOGETHER_SCRIPT, str(barrier), "2", "verify",
            "--n", "5", "--quantity", "m", "--shards", "3", "--shard", "1"]
    results = _communicate([
        subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=_verify_env(checkpoints))
        for _ in range(2)
    ])
    shard = exhaustive_max(5, "m", shards=3, shard=1)
    assert results == [(0, json.dumps(shard.to_json_dict()) + "\n", "")] * 2
    assert [path.name for path in checkpoints.iterdir()] == ["sweep_m_n5_s3_1.txt"]
    assert (checkpoints / "sweep_m_n5_s3_1.txt").read_text() == (
        sweep.checkpoint_line(1, shard) + "\n")


def test_verify_merge_incomplete(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    args = ("verify", "--n", "5", "--quantity", "p2", "--shards", "3")
    code, _, _ = run_json(capsys, *args, "--shard", "0")
    assert code == 0
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and "missing shards [1, 2]" in err


def test_verify_merge_needs_checkpoints(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDCENSUS_CHECKPOINT_DIR", raising=False)
    code, out, err = run(capsys, "verify", "--n", "5", "--quantity", "p2",
                         "--shards", "3", "--merge")
    assert code == 2


def _checkpointed_n4(tmp_path, capsys, monkeypatch):
    """Run both shards of the n = 4 p2 sweep; returns (args, the two
    checkpoint files)."""
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    args = ("verify", "--n", "4", "--quantity", "p2", "--shards", "2")
    for shard in range(2):
        assert run_json(capsys, *args, "--shard", str(shard))[0] == 0
    return args, [tmp_path / f"sweep_p2_n4_s2_{shard}.txt" for shard in range(2)]


def test_verify_merge_rejects_bad_integers(tmp_path, capsys, monkeypatch):
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[1].write_text("x,2,C~\n")
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == ""
    assert "malformed checkpoint line" in err and "Traceback" not in err


def test_verify_merge_rejects_the_line_of_another_shard(tmp_path, capsys, monkeypatch):
    # shard 0's true line is well formed and scores its max, but in shard
    # 1's file it would leave shard 1 unswept
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[1].write_text(files[0].read_text())
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == ""
    assert f"checkpoint {files[1]} holds the line of shard 0" in err
    code, out, err = run(capsys, *args, "--shard", "1")
    assert code == 2 and out == ""


def test_verify_merge_rescores_extremal_codes(tmp_path, capsys, monkeypatch):
    # a forged shard line claiming p2 = 5 for K4 used to merge to max 5
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[0].write_text("0,5,C~\n")
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == ""
    assert "C~ scores 1, not 5" in err


def test_verify_merge_rejects_non_canonical_codes(tmp_path, capsys, monkeypatch):
    # "Cl" is C] relabeled: it scores the max, but merged it would be
    # reported as a third extremal class
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    assert files[1].read_text() == "1,2,C],C^\n"
    files[1].write_text("1,2,C],C^,Cl\n")
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == ""
    assert "Cl is not canonical" in err


def test_verify_merge_rejects_codes_on_the_wrong_vertex_count(
        tmp_path, capsys, monkeypatch):
    # K5 ("D~{") is a well-formed canonical code, but not on 4 vertices
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[1].write_text("1,2,C],C^,D~{\n")
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == ""
    assert "D~{ has 5 vertices, not 4" in err
    with pytest.raises(InputError):
        sweep.parse_checkpoint_line(4, "p2", 2, "1,2,C],C^,D~{")


@pytest.mark.parametrize("line, reason", [
    ("1,2,C!\n", "'C!' is not a graph6 code: bad graph6 body byte 33 (byte offset 1)"),
    ("1,2,\n", "'' is not a graph6 code: empty graph6 string"),
])
def test_verify_merge_rejects_codes_that_are_not_graph6(
        tmp_path, capsys, monkeypatch, line, reason):
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[1].write_text(line)
    code, out, err = run(capsys, *args, "--merge")
    assert (code, out) == (2, "")
    assert err == f"error: checkpoint line of shard 1: {reason}\n"


def test_verify_merge_beyond_the_sweep_limit(tmp_path, capsys, monkeypatch):
    # n is checked before any file is read, whether the files are there
    # or not
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    argv = ("verify", "--n", "9", "--quantity", "m", "--shards", "2", "--merge")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "got 9" in err
    for shard in range(2):
        (tmp_path / f"sweep_m_n9_s2_{shard}.txt").write_text(f"{shard},1,B~\n")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "got 9" in err


def test_verify_ignores_labelled_scan_checkpoints(tmp_path, capsys, monkeypatch):
    # the shared log of the class sweep and the untagged file of the older
    # labelled-code shards; each line is well formed and scores its max
    # (K5 has 10 triangles), but neither layout is read, so shard 0 reruns
    # and both files stay as they were
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    old = [tmp_path / "sweep_m_n5_s3.txt", tmp_path / "sweep_m_n5_s3_classes.txt"]
    for path in old:
        path.write_text("0,10,D~{\n")
    args = ("verify", "--n", "5", "--quantity", "m", "--shards", "3")
    code, doc, _ = run_json(capsys, *args, "--shard", "0")
    assert code == 0
    assert doc == exhaustive_max(5, "m", shards=3, shard=0).to_json_dict()
    assert doc["max"] != "10"
    assert (tmp_path / "sweep_m_n5_s3_0.txt").read_text().count("\n") == 1
    assert [path.read_text() for path in old] == ["0,10,D~{\n"] * 2
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and "missing shards [1, 2]" in err


def test_verify_checks_the_checkpoint_directory_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(sweep, "exhaustive_max", lambda *a, **k: calls.append(a))
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path / "missing"))
    code, out, err = run(capsys, "verify", "--n", "4", "--quantity", "p2",
                         "--shards", "2", "--shard", "0")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert calls == []


def test_verify_checks_the_shard_before_the_checkpoint_directory(
    tmp_path, capsys, monkeypatch
):
    # the bad shard is reported, not the temporary file it cannot create
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path / "missing"))
    code, out, err = run(capsys, "verify", "--n", "4", "--quantity", "p2",
                         "--shards", "2", "--shard", "5")
    assert code == 2 and out == "" and err == "error: bad shard 5 of 2\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_removes_its_temporary_file_when_the_sweep_fails(
    tmp_path, capsys, monkeypatch
):
    # the temporary file is made, then the sweep fails
    def fail(*args, **kwargs):
        raise InternalError("sweep failed")

    monkeypatch.setattr(sweep, "exhaustive_max", fail)
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    code, out, err = run(capsys, "verify", "--n", "4", "--quantity", "m",
                         "--shards", "2", "--shard", "0")
    assert code == 4 and out == "" and "sweep failed" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_unreadable_checkpoints_are_input_errors(tmp_path, capsys, monkeypatch):
    args, files = _checkpointed_n4(tmp_path, capsys, monkeypatch)
    files[1].write_bytes(b"1,2,C\xff\n")
    code, out, err = run(capsys, *args, "--merge")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert str(files[1]) in err
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path / "missing"))
    code, out, err = run(capsys, *args, "--shard", "0")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("n", [1, 9])
def test_verify_sweep_limit(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setenv("BRAIDCENSUS_CHECKPOINT_DIR", str(tmp_path))
    message = f"error: sweeps need 2 <= n <= 8, got {n}\n"
    for extra in ([], ["--shards", "2", "--merge"]):
        code, out, err = run(capsys, "verify", "--n", str(n), "--quantity", "m",
                             *extra)
        assert (code, out, err) == (2, "", message)
    assert list(tmp_path.iterdir()) == []


# ======================================================================
# formula
# ======================================================================


def test_formula_golden(capsys):
    code, doc, _ = run_json(capsys, "formula", "--name", "f2", "--n", "30")
    assert code == 0
    assert doc == {"name": "f2", "n": 30, "value": "26244"}
    code, doc, _ = run_json(capsys, "formula", "--name", "m_lower", "--n", "12")
    assert doc["value"] == "225"


def test_formula_prints_values_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        code, doc, _ = run_json(capsys, "formula", "--name", "f2", "--n", "30000")
        assert code == 0
        assert doc["value"] == str(f2(30000).value)
        assert len(doc["value"]) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_formula_vertex_bound_needs_d(capsys):
    code, out, err = run(capsys, "formula", "--name", "vertex_bound",
                         "--n", "16")
    assert code == 2 and "--d" in err
    code, doc, _ = run_json(capsys, "formula", "--name", "vertex_bound",
                            "--n", "16", "--d", "6")
    assert code == 0
    assert float(doc["value"]) == 15.0 * 3.0 ** 3

    code, out, err = run(capsys, "formula", "--name", "f2", "--n", "12",
                         "--d", "3")
    assert code == 2


# ======================================================================
# parser behavior
# ======================================================================


def test_unknown_flags_and_commands_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "--family", "H", "--n", "12", "--frobnicate"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage" in err
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    # sweeps run in one process per shard: there is no worker count
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "4", "--quantity", "m", "--threads", "2"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--threads" in err
    # every n up to the sweep limit runs: there is no flag to unlock one
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "8", "--quantity", "m", "--long-run"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --long-run" in err


# ======================================================================
# start-up
# ======================================================================

IMPORT_SCRIPT = """
import json, sys
import braidcensus, braidcensus.cli, braidcensus.sweep
names = {}
exec("from braidcensus import *", names)
m4 = braidcensus.exhaustive_max(4, "m").max.value
h12 = braidcensus.slow_census(braidcensus.build_H(12)[0]).f
heavy = ("numpy", "multiprocessing", "concurrent.futures.process", "dataclasses",
         "inspect")
print(json.dumps([m for m in heavy if m in sys.modules]))
print(json.dumps(sorted(k for k in names if k != "__builtins__")))
print(m4, h12)
"""


def test_import_leaves_numpy_and_the_pool_unloaded():
    # nothing loads numpy, a process pool or dataclasses (with inspect,
    # its costliest import): not start-up, not a sweep with its audit,
    # not the subset oracle
    src = os.path.dirname(os.path.dirname(braidcensus.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    heavy, names, counts = proc.stdout.splitlines()
    assert json.loads(heavy) == []
    # what "from braidcensus import *" binds
    assert json.loads(names) == sorted(PUBLIC_NAMES) == sorted(braidcensus.__all__)
    assert counts == f"{exhaustive_max(4, 'm').max.value} 225"


SRC = os.path.dirname(os.path.dirname(braidcensus.__file__))


def _python(*argv, **env):
    """A fresh interpreter on this tree; (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    env.pop("PYTHONOPTIMIZE", None)  # the scripts below check with assert
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_loads_no_submodule():
    code, out, err = _python("-c", (
        "import sys, braidcensus; "
        "print(sorted(m for m in sys.modules if m.startswith('braidcensus.')))"))
    assert code == 0, err
    assert out == "[]\n"


NAMESPACE_SCRIPT = """
import braidcensus, inspect, sys
assert set(braidcensus.__all__) <= set(dir(braidcensus))
assert not hasattr(braidcensus, "no_such_name")
for name in braidcensus.__all__:
    obj = getattr(braidcensus, name)
    home = sys.modules[braidcensus._HOME[name]]
    if inspect.ismodule(obj):
        assert obj is home, name
    else:
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
print("ok")
"""


def test_every_public_name_is_its_home_modules_attribute():
    code, out, err = _python("-c", NAMESPACE_SCRIPT)
    assert code == 0, err
    assert out == "ok\n"


def test_public_names_are_read_at_call_time(monkeypatch):
    # nothing is cached in the package: a patch in the home module is
    # what the package hands out, and so is its undoing
    from braidcensus import census

    real = census.count_induced_cycles
    monkeypatch.setattr(census, "count_induced_cycles", len)
    assert braidcensus.count_induced_cycles is len
    monkeypatch.undo()
    assert braidcensus.count_induced_cycles is real


LOADED_SCRIPT = """
import contextlib, io, json, sys
from braidcensus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
print(code, json.dumps(sorted(m for m in sys.modules if m.startswith("braidcensus."))))
"""

H30_G6 = to_graph6(build_H(30)[0])
SWEEP = {"census", "formulas", "sweep"}


@pytest.mark.parametrize("argv, engines", [
    (("construct", "--family", "H", "--n", "12"), {"families"}),
    (("construct", "--family", "G_script", "--n", "23", "--variant", "5"), {"families"}),
    (("count", "--input", H15_G6), {"census"}),
    (("count", "--family", "H", "--n", "12"), {"census", "families"}),
    (("count", "--family", "F_odd", "--n", "20"), {"census", "families"}),
    (("paths", "--input", H15_G6, "--x", "0", "--y", "6"), {"census"}),
    (("paths", "--family", "G", "--n", "14", "--x", "0", "--y", "8"),
     {"census", "families"}),
    (("recognize", "--input", H15_G6), {"families", "recognition"}),
    (("game", "--input", H30_G6, "--v", "0", "--w", "15"), {"game"}),
    (("atypical", "--input", H30_G6, "--v", "0"), {"game"}),
    (("formula", "--name", "f2", "--n", "40"), {"families", "formulas"}),
    (("formula", "--name", "m_lower", "--n", "40"), {"formulas"}),
    (("formula", "--name", "short_mass", "--n", "40"), {"formulas"}),
    (("formula", "--name", "vertex_bound", "--n", "40", "--d", "3"), {"formulas"}),
    (("verify", "--n", "4", "--quantity", "m"), SWEEP),
    (("verify", "--n", "4", "--quantity", "p2", "--shards", "2", "--merge"), SWEEP),
])
def test_each_subcommand_loads_only_its_engines(tmp_path, argv, engines):
    # besides cli and graphs, which hold the parser, a call loads the
    # engine it runs and what that engine imports: a sweep and its audit
    # need census and formulas; families and recognition load only for
    # the uniqueness check, and the game never
    if "--merge" in argv:
        for i in range(2):
            (tmp_path / f"sweep_p2_n4_s2_{i}.txt").write_text(sweep.checkpoint_line(
                i, exhaustive_max(4, "p2", shards=2, shard=i)) + "\n")
    assert _loaded(tmp_path, argv) == (0, sorted(
        f"braidcensus.{name}" for name in engines | {"cli", "graphs"}))


@pytest.mark.parametrize("argv", [
    ("count", "--input", "A"),
    ("count", "--input", "Bx"),
    ("paths", "--input", "", "--x", "0", "--y", "1"),
    ("recognize", "--input", "~~"),
    ("atypical", "--input", "C!", "--v", "0"),
])
def test_input_errors_load_no_engine(tmp_path, argv):
    # a handler parses its graph before it imports its engine, so a bad
    # graph exits 2 having compiled no engine module
    assert _loaded(tmp_path, argv) == (2, ["braidcensus.cli", "braidcensus.graphs"])


def _loaded(tmp_path, argv):
    """main(argv) in a fresh process: its exit code, and the braidcensus
    modules it loaded, sorted."""
    code, out, err = _python("-c", LOADED_SCRIPT, *argv,
                             BRAIDCENSUS_CHECKPOINT_DIR=str(tmp_path))
    assert code == 0, err
    code, loaded = out.split(" ", 1)
    return int(code), json.loads(loaded)


G20_LAST = len(list(members_of_script_G(20))) - 1


def _recognize_doc(g):
    """The recognize document of a braid, from the library calls."""
    part = discover_cyclic_braid(g)
    doc = verify_braid(g, part).to_json_dict()
    doc["clusters"] = part.to_json_dict()["clusters"]
    doc["families"] = [family.tag for family in classify_family_all(g)]
    return doc


@pytest.mark.parametrize("argv, answer", [
    (("verify", "--n", "5", "--quantity", "m"),
     lambda: exhaustive_max(5, "m").to_json_dict()),
    (("count", "--family", "H", "--n", "12"),
     lambda: count_induced_cycles(build_H(12)[0]).to_json_dict(n=12)),
    (("formula", "--name", "f2", "--n", "40"),
     lambda: {"name": "f2", "n": 40, "value": str(f2(40).value)}),
    (("construct", "--family", "G_script", "--n", "20", "--variant", str(G20_LAST),
      "--out", "json"),
     lambda: _construct_doc(*list(members_of_script_G(20))[G20_LAST])),
    (("recognize", "--input", H15_G6), lambda: _recognize_doc(build_H(15)[0])),
    (("atypical", "--input", H30_G6, "--v", "0"),
     lambda: atypical_set(build_H(30)[0], 0).to_json_dict()),
])
def test_cli_under_python_O_gives_the_library_answer(argv, answer):
    # -O strips assert: the lazy imports and the internal cross-checks
    # (the sweep's audit, the census identities) must not rest on one
    code, out, err = _python("-O", "-m", "braidcensus.cli", *argv)
    assert code == 0, err
    assert out.count("\n") == 1 and json.loads(out) == answer()


# Run under python -O, where assert statements are stripped: a broken
# residue row must still stop the closed form the CLI prints.
BROKEN_ROW_SCRIPT = """
import sys
from braidcensus import cli, families

if __debug__:
    sys.exit("assertions are on: run with python -O")
families._F_ODD_SPECIALS[2] = [[2, 2]]
sys.exit(cli.main(["formula", "--name", "f2o", "--n", "14"]))
"""


def test_broken_residue_row_fails_the_formula_under_python_O():
    code, out, err = _python("-O", "-c", BROKEN_ROW_SCRIPT)
    assert code == 4 and out == ""
    assert "internal check failed" in err


@pytest.mark.parametrize("argv", [
    ("count", "--input", "BLANK_FILE"),  # a file with no graph6 line
    ("count", "--input", "~~??????"),  # the graph6 long-size form
    ("count", "--input", "~?!?"),  # a bad byte inside the 4-byte size header
    ("verify", "--n", "4", "--quantity", "m", "--shards", "0"),
    ("count", "--input", "~"),  # a 4-byte size header cut short
    ("count", "--input", "~A"),
    ("count", "--input", "~AB"),
])
def test_rejected_inputs_exit_2(tmp_path, capsys, argv):
    blank = tmp_path / "blank.g6"
    blank.write_text("\n   \n")
    argv = [str(blank) if a == "BLANK_FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    if argv[0] == "count":
        with pytest.raises(InputError):
            _load_graph(argv[2])


def test_garbage_graph6_is_an_input_error(capsys):
    code, out, err = run(capsys, "count", "--input", "\x01\x02 not graph6")
    assert code == 2 and out == ""
