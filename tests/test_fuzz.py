"""Fuzzing of the graph6 parser and of the CLI's graph subcommands.

parse_graph6 must turn any string into a graph or raise InputError.  The
CLI must answer any graph6 text and vertex arguments for count, paths,
recognize, game and atypical with exit 0 and exactly one line on stdout,
or with exit 2 and nothing on stdout; never with a traceback.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from braidcensus.cli import main
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
    assert parse_graph6(to_graph6(g)) == g
    if not text.strip().startswith("~"):  # the long size form may pad small n
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
