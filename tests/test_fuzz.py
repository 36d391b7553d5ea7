"""Fuzzing of the graph6 parser and of the CLI.

parse_graph6 must turn any string into a graph or raise InputError.  The
CLI must answer with exit 0 and exactly one line on stdout, or with exit
2 and nothing on stdout; never with a traceback.  That holds for any
graph6 text and vertex arguments of count, paths, recognize, game and
atypical, for any --family/--n/--variant of construct, count and paths,
for any --name/--n/--d of formula with n up to 10^7, for any checkpoint
files read by verify --merge, and for any bytes in an --input file or a
shard file, which the error names when they are not ASCII.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcensus.cli import CHECKPOINT_DIR_VAR, main
from braidcensus.families import FAMILY_TAGS
from braidcensus.sweep import checkpoint_line, exhaustive_max
from braidcensus.graphs import (
    Graph,
    InputError,
    graph_from_pair_bits,
    parse_graph6,
    to_graph6,
)

MAX_N = 11


@st.composite
def small_graph6(draw):
    n = draw(st.integers(1, MAX_N))
    return to_graph6(graph_from_pair_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))


@st.composite
def long_graph6(draw):
    """A path with a few chords, so that the game has probes far from
    its start: a random graph this small rarely has a pair 5 apart."""
    n = draw(st.integers(6, MAX_N + 1))
    g = Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if u != v:
            g = g.with_edge(u, v)
    return to_graph6(g)


@st.composite
def damaged_graph6(draw):
    """A valid code with one character replaced, dropped or added."""
    code = draw(small_graph6())
    i = draw(st.integers(0, len(code)))
    ch = draw(st.characters())
    return draw(st.sampled_from([
        code[:i] + ch + code[i + 1:], code[:i] + code[i + 1:], code[:i] + ch + code[i:],
    ]))


GRAPH6_TEXT = st.one_of(
    small_graph6(),
    long_graph6(),
    damaged_graph6(),
    # graph6 bytes only: at most 11 of them keeps a parsed graph at n <= 12
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=11),
    st.text(max_size=11),
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(GRAPH6_TEXT, st.text()))
def test_parse_graph6_returns_a_graph_or_raises_input_error(text):
    try:
        g = parse_graph6(text)
    except InputError:
        return
    assert isinstance(g, Graph)
    # one graph, one code: an accepted code is the graph's own encoding
    assert to_graph6(g) == text.strip()


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["count", "paths", "recognize", "game", "atypical"]))
    argv = [command, "--input=" + draw(GRAPH6_TEXT)]
    vertex = st.one_of(st.integers(0, MAX_N), st.integers(-2, MAX_N + 2)).map(str)
    if command == "paths":
        argv += ["--x", draw(vertex), "--y", draw(vertex)]
    elif command == "game":
        argv += ["--v", draw(vertex), "--w", draw(vertex)]
    elif command == "atypical":
        argv += ["--v", draw(vertex)]
    return argv


@settings(max_examples=600, deadline=None)
@given(cli_calls())
def test_cli_answers_or_rejects_any_graph6_input(argv):
    code, out, err = run_main(argv)
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1, out
    else:
        assert code == 2 and out == "", (code, out, err)
        assert err


def assert_one_line_or_exit_2(code, out, err):
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1, out
    else:
        assert code == 2 and out == "", (code, out, err)
        assert err


@st.composite
def family_calls(draw):
    command = draw(st.sampled_from(["construct", "count", "paths"]))
    n = draw(st.one_of(st.integers(-3, 140), st.integers(-3, 5000)))
    argv = [command, "--family", draw(st.sampled_from(FAMILY_TAGS)),
            "--n", str(n), "--variant", str(draw(st.integers(-3, 8)))]
    if command == "paths":
        vertex = st.integers(-2, 140).map(str)
        argv += ["--x", draw(vertex), "--y", draw(vertex)]
    elif command == "construct" and draw(st.booleans()):
        argv += ["--out", "json"]
    return argv


@settings(max_examples=300, deadline=None)
@given(family_calls())
def test_cli_answers_or_rejects_any_family_argument(argv):
    assert_one_line_or_exit_2(*run_main(argv))


@st.composite
def formula_calls(draw):
    name = draw(st.sampled_from(["f2", "f2o", "f2e", "m_lower", "short_mass",
                                 "vertex_bound", "f3"]))
    n = draw(st.one_of(st.integers(-3, 40), st.integers(-3, 10 ** 4),
                       st.integers(-3, 10 ** 7)))
    argv = ["formula", "--name", name, "--n", str(n)]
    d = draw(st.one_of(st.none(), st.integers(-3, n + 3), st.integers()))
    return argv if d is None else argv + ["--d", str(d)]


@settings(max_examples=300, deadline=None)
@given(formula_calls())
@example(["formula", "--name", "vertex_bound", "--n", "3000", "--d", "2"])
def test_cli_answers_or_rejects_any_formula_argument(argv):
    assert_one_line_or_exit_2(*run_main(argv))


# every shard line of the n = 4 p2 sweep in three shards, and the three
# files verify writes; the fuzzed files drop, swap, cut and bury the lines
MERGE_ARGS = ["verify", "--n", "4", "--quantity", "p2", "--shards", "3", "--merge"]
SHARD_LINES = [
    checkpoint_line(i, exhaustive_max(4, "p2", shards=3, shard=i)) for i in range(3)
]
SHARD_FILES = tuple((line + "\n").encode() for line in SHARD_LINES)


JUNK_LINE = st.one_of(
    st.builds(lambda shard, best, codes: ",".join([shard, best] + codes),
              st.integers(-2, 4).map(str), st.integers(-1, 4).map(str),
              st.lists(small_graph6(), max_size=3)),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    st.text(max_size=8),
)


@st.composite
def shard_file(draw, own):
    """What one shard's file holds, or None for no file: mostly its own
    line; else arbitrary bytes, another shard's line, its own line cut
    short, or its own line among junk lines."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return None
    if kind == 1:
        return draw(st.binary(max_size=40))
    if kind == 2:
        text = draw(st.sampled_from(SHARD_LINES))
    elif kind == 3:
        text = own[:draw(st.integers(0, len(own)))]
    elif kind == 4:
        junk = draw(st.lists(JUNK_LINE, min_size=1, max_size=2))
        text = "\n".join(draw(st.permutations([own] + junk)))
    else:
        text = own
    return (text + draw(st.sampled_from(["\n", ""]))).encode()


@settings(max_examples=300, deadline=None)
@given(st.tuples(*map(shard_file, SHARD_LINES)))
@example(SHARD_FILES)
def test_verify_merge_answers_or_rejects_any_checkpoint(files):
    with tempfile.TemporaryDirectory() as directory:
        for shard, data in enumerate(files):
            if data is not None:
                name = f"sweep_p2_n4_s3_{shard}.txt"
                with open(os.path.join(directory, name), "wb") as fh:
                    fh.write(data)
        with mock.patch.dict(os.environ, {CHECKPOINT_DIR_VAR: directory}):
            code, out, err = run_main(MERGE_ARGS)
    assert_one_line_or_exit_2(code, out, err)
    if code == 0:
        assert out == run_main(["verify", "--n", "4", "--quantity", "p2"])[1]
    if files == SHARD_FILES:
        assert code == 0, err


@st.composite
def damaged_file(draw, valid):
    """Arbitrary bytes, or the bytes of a valid file with one byte
    replaced or added."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    data = draw(valid)
    i = draw(st.integers(0, len(data)))
    byte = bytes([draw(st.integers(0, 255))])
    return draw(st.sampled_from([data[:i] + byte + data[i + 1:], data[:i] + byte + data[i:]]))


@st.composite
def named_file(draw):
    """(name, bytes) of the --input file of count, or of one shard's file
    among the true files of a merge."""
    if draw(st.booleans()):
        valid = small_graph6().map(lambda code: (code + "\n").encode())
        return "graph.g6", draw(damaged_file(valid))
    shard = draw(st.integers(0, 2))
    return f"sweep_p2_n4_s3_{shard}.txt", draw(damaged_file(st.just(SHARD_FILES[shard])))


@settings(max_examples=300, deadline=None)
@given(named_file())
@example(("graph.g6", b"D\xe9c\n"))
@example(("sweep_p2_n4_s3_1.txt", b"1,2,C\xff\n"))
def test_cli_answers_or_rejects_any_file_and_names_it_if_not_ascii(file):
    name, data = file
    with tempfile.TemporaryDirectory() as directory:
        for shard, true in enumerate(SHARD_FILES):
            with open(os.path.join(directory, f"sweep_p2_n4_s3_{shard}.txt"), "wb") as fh:
                fh.write(true)
        path = os.path.join(directory, name)
        with open(path, "wb") as fh:
            fh.write(data)
        argv = ["count", "--input", path] if name == "graph.g6" else MERGE_ARGS
        with mock.patch.dict(os.environ, {CHECKPOINT_DIR_VAR: directory}):
            code, out, err = run_main(argv)
    assert_one_line_or_exit_2(code, out, err)
    if not data.isascii():
        assert code == 2 and path in err, err
