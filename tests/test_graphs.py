"""Core graph type, graph6 codec, BFS layers and balls, canonical labeling,
and the frozen record base of the result types.

networkx is used as an independent oracle for graph6 encoding, BFS
layers and distances, components, and isomorphism; the package itself
never imports it.  canonical_code is checked against its definition by
brute force over all n! labelings, and against an earlier list-based
branch and bound kept here as a second oracle.
"""

import itertools
import os
import random
import subprocess
import sys
import types

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import braidcensus
from braidcensus.census import (
    CycleCensus,
    PathCensus,
    count_cycles_through,
    count_induced_st_paths,
    path_tree_stats,
)
from braidcensus.families import BraidSpec, FamilyId, build_H
from braidcensus.formulas import ExactCount
from braidcensus.game import (
    GameState,
    apply_move,
    atypical_set,
    is_bad,
    local_structure,
    solve_typical_game,
)
from braidcensus.graphs import (
    CANON_MAX_N,
    Graph,
    Graph6Error,
    InputError,
    UnsupportedError,
    _layers,
    _twin_classes,
    ball,
    canonical_code,
    distance,
    graph_from_pair_bits,
    is_connected,
    mask_of,
    pair_bits_of,
    parse_graph6,
    to_graph6,
    vertices_of,
)
from braidcensus.recognition import _components
from braidcensus.sweep import _classes


def pair_order(n: int) -> list[tuple[int, int]]:
    """The pairs of a packed upper triangle, column-major: (0,1), (0,2),
    (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


@st.composite
def graphs(draw, min_n=1, max_n=16):
    n = draw(st.integers(min_n, max_n))
    k = n * (n - 1) // 2
    bits = draw(st.integers(0, (1 << k) - 1))
    return graph_from_pair_bits(n, bits)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_from_edge_list_basic():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(2) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph.from_edge_list(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(2, [1, 0])  # asymmetric: 0 ~ ... wait bit0 of row0 is a loop
    with pytest.raises(InputError):
        Graph(2, [2, 0])  # asymmetric 0~1 without 1~0
    with pytest.raises(InputError):
        Graph(2, [4, 0])  # bit 2 names no vertex of a 2-vertex graph
    with pytest.raises(InputError):
        Graph(2, [0, 0, 0])  # row count mismatch
    with pytest.raises(InputError):
        Graph(0, [])
    g = Graph.from_edge_list(3, [(0, 1)])
    with pytest.raises(InputError):
        g.with_edge(2, 2)  # a loop
    with pytest.raises(InputError):
        g.relabeled((0, 0, 1))  # not a permutation


def test_edge_edit_helpers():
    g = Graph.from_edge_list(4, [(0, 1)])
    g2 = g.with_edge(2, 3)
    assert g2.has_edge(2, 3) and not g.has_edge(2, 3)
    assert g2.without_edge(2, 3) == g
    with pytest.raises(InputError):
        g.without_edge(2, 3)


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)


@given(graphs())
@settings(max_examples=100)
def test_relabel_identity(g):
    assert g.relabeled(tuple(range(g.n))) == g


# ----------------------------------------------------------------------
# graph6 codec, oracled against networkx
# ----------------------------------------------------------------------


@given(graphs(max_n=70))
@settings(max_examples=250, deadline=None)
def test_graph6_round_trip_bit_exact(g):
    assert parse_graph6(to_graph6(g)) == g


@given(graphs(max_n=40))
@settings(max_examples=150, deadline=None)
def test_graph6_matches_networkx(g):
    ours = to_graph6(g)
    ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert ours == ref, f"graph6 mismatch: ours={ours!r} ref={ref!r}"


@given(graphs(max_n=40))
@settings(max_examples=150, deadline=None)
def test_pair_bits_follow_pair_order(g):
    want = sum(1 << t for t, (i, j) in enumerate(pair_order(g.n)) if g.has_edge(i, j))
    assert pair_bits_of(g) == want
    assert graph_from_pair_bits(g.n, want) == g


def test_graph6_of_a_long_path_matches_networkx():
    # 1,500 vertices: 1,124,250 pair bits; the codec used to shift the
    # whole packed integer once per bit and took over a minute here
    n = 1500
    g = Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    ours = to_graph6(g)
    assert ours == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert parse_graph6(ours) == g


def test_graph6_long_size_header():
    g = graph_from_pair_bits(63, 0).with_edge(0, 62)
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_to_graph6_rejects_n_past_the_size_header_before_encoding():
    # a stand-in with no rows: reading one, or building the C(n, 2) bits,
    # would mean the size was checked after the work it guards
    with pytest.raises(UnsupportedError):
        to_graph6(types.SimpleNamespace(n=258048, adj=()))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        " ",
        "\x1cA",  # size byte below 63
        "D" + "~",  # n=5 needs 2 body bytes, got 1
        "C~~",  # n=4 needs 1 body byte, got 2
        "~??@",  # n=1 in the 4-byte size header, which starts at n=63
        "~??}" + "?" * 316,  # n=62, the largest 1-byte size
        "~~??????",  # the 8-byte long-size form
        "~?!?",  # a byte below 63 inside the 4-byte size header
    ],
)
def test_graph6_rejects_malformed(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # n=3 has k=3 pair bits; set a padding bit below them.
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("B" + chr(63 + 1))
    assert ei.value.offset == 1


def test_graph6_error_offset_points_at_bad_byte():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("D~" + chr(5))
    assert ei.value.offset == 2


# ----------------------------------------------------------------------
# balls and distances, oracled against networkx BFS
# ----------------------------------------------------------------------


@given(graphs(max_n=12), st.data())
@settings(max_examples=150, deadline=None)
def test_ball_matches_bfs_oracle(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    r = data.draw(st.integers(0, g.n + 1))
    dist = nx.single_source_shortest_path_length(to_nx(g), v)
    want = mask_of(u for u, d in dist.items() if d <= r)
    assert ball(g, v, r) == want


@given(graphs(max_n=12), st.data())
@settings(max_examples=100, deadline=None)
def test_ball_zero_and_monotone(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    assert ball(g, v, 0) == 1 << v
    prev = 0
    for r in range(g.n + 1):
        cur = ball(g, v, r)
        assert cur & prev == prev, "balls must be nested"
        prev = cur


@given(graphs(max_n=10), st.data())
@settings(max_examples=100, deadline=None)
def test_distance_matches_networkx(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    dist = nx.single_source_shortest_path_length(to_nx(g), u)
    assert distance(g, u, v) == dist.get(v, -1)


def test_is_connected():
    assert is_connected(Graph.from_edge_list(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph.from_edge_list(3, [(0, 1)]))


def test_ball_input_errors():
    g = Graph.from_edge_list(3, [(0, 1)])
    with pytest.raises(InputError):
        ball(g, 3, 1)
    with pytest.raises(InputError):
        ball(g, 0, -1)


@given(graphs(max_n=12), st.data())
@settings(max_examples=150, deadline=None)
def test_layers_match_networkx_bfs_layers_of_an_induced_subgraph(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    within = data.draw(st.integers(0, g.full_mask())) | 1 << v

    def want(h):
        return [mask_of(layer) for layer in nx.bfs_layers(h, v)]

    assert _layers(g.adj, v, within) == want(to_nx(g).subgraph(vertices_of(within)))
    assert _layers(g.adj, v) == want(to_nx(g))


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_components_match_networkx(g):
    full = g.full_mask()
    complement = tuple(full & ~(row | 1 << v) for v, row in enumerate(g.adj))
    for rows, h in ((g.adj, to_nx(g)), (complement, nx.complement(to_nx(g)))):
        want = sorted((mask_of(c) for c in nx.connected_components(h)),
                      key=lambda m: m & -m)
        assert _components(rows, full) == want


VERTEX_CALLS = {
    "ball": lambda g, x: ball(g, x, 1),
    "distance-from": lambda g, x: distance(g, x, 0),
    "distance-to": lambda g, x: distance(g, 0, x),
    "count_cycles_through": count_cycles_through,
    "count_induced_st_paths": lambda g, x: count_induced_st_paths(g, x, 1),
    "path_tree_stats": lambda g, x: path_tree_stats(g, 0, x),
    "local_structure": local_structure,
    "atypical_set": atypical_set,
    "solve_typical_game-v": lambda g, x: solve_typical_game(g, x, 7),
    "solve_typical_game-w": lambda g, x: solve_typical_game(g, 0, x),
    "GameState.start": GameState.start,
    "apply_move": lambda g, x: apply_move(g, GameState.start(g, 0), x),
    "is_bad": lambda g, x: is_bad(g, GameState.start(g, 0), x),
    "Graph.with_edge-u": lambda g, x: g.with_edge(x, 2),
    "Graph.with_edge-v": lambda g, x: g.with_edge(0, x),
    "Graph.without_edge-u": lambda g, x: g.without_edge(x, 1),
    "Graph.without_edge-v": lambda g, x: g.without_edge(0, x),
    "Graph.has_edge-u": lambda g, x: g.has_edge(x, 1),
    "Graph.has_edge-v": lambda g, x: g.has_edge(0, x),
    "Graph.degree": Graph.degree,
}


@pytest.mark.parametrize("name", VERTEX_CALLS)
def test_every_vertex_argument_is_range_checked(name):
    g, _ = build_H(15)
    for x in (-1, g.n, g.n + 5):
        with pytest.raises(InputError):
            VERTEX_CALLS[name](g, x)


# ----------------------------------------------------------------------
# canonical labeling
# ----------------------------------------------------------------------


def brute_canonical_g6(g: Graph) -> str:
    """The definition of canonical_code: graph6 of the relabeling whose
    pair bits, read in pair_order, are lexicographically least over all
    n! labelings."""
    pairs = pair_order(g.n)
    best = min(
        tuple(g.adj[perm[i]] >> perm[j] & 1 for i, j in pairs)
        for perm in itertools.permutations(range(g.n))
    )
    return to_graph6(graph_from_pair_bits(g.n, sum(b << t for t, b in enumerate(best))))


def reference_canonical_g6(g: Graph) -> str:
    """An earlier implementation of canonical_code, kept as an oracle: the
    same branch and bound over labelings, with the incumbent and each
    prefix held as lists of bits."""
    n = g.n
    best: list[list[int] | None] = [None]
    placed = [0] * n

    def extend(depth: int, used_mask: int, acc: list[int]) -> None:
        if depth == n:
            if best[0] is None or acc < best[0]:
                best[0] = list(acc)
            return
        tried: list[int] = []
        cands = []
        for v in range(n):
            if used_mask >> v & 1:
                continue
            newbits = [g.adj[v] >> placed[k] & 1 for k in range(depth)]
            cands.append((newbits, v))
        cands.sort()
        for newbits, v in cands:
            skip = False
            for u in tried:
                pairm = ~((1 << u) | (1 << v))
                if g.adj[u] & pairm == g.adj[v] & pairm:
                    skip = True  # (u v) swap is an automorphism
                    break
            if skip:
                continue
            incumbent = best[0]
            if incumbent is not None:
                if acc + newbits > incumbent[: len(acc) + depth]:
                    continue
            tried.append(v)
            placed[depth] = v
            acc.extend(newbits)
            extend(depth + 1, used_mask | 1 << v, acc)
            del acc[len(acc) - depth:]

    extend(0, 0, [])
    packed = sum(b << t for t, b in enumerate(best[0]))
    return to_graph6(graph_from_pair_bits(n, packed))


def random_graph(rng: random.Random, n: int) -> Graph:
    """G(n, p) with p drawn from sparse to dense."""
    p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
    k = n * (n - 1) // 2
    return graph_from_pair_bits(n, sum(1 << t for t in range(k) if rng.random() < p))


def test_canonical_code_is_the_least_labeling_of_every_small_graph():
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            g = graph_from_pair_bits(n, bits)
            assert canonical_code(g) == brute_canonical_g6(g), (n, bits)


def test_canonical_code_is_the_least_labeling_of_every_six_vertex_class():
    for g, _ in _classes(6):
        assert canonical_code(g) == brute_canonical_g6(g), to_graph6(g)


def test_canonical_code_is_the_least_labeling_of_random_seven_vertex_graphs():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, 7)
        assert canonical_code(g) == brute_canonical_g6(g), to_graph6(g)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_canonical_code_matches_the_reference_search(n):
    rng = random.Random(n)
    for _ in range(40):
        g = random_graph(rng, n)
        assert canonical_code(g) == reference_canonical_g6(g), to_graph6(g)


@given(graphs(max_n=CANON_MAX_N), st.randoms())
@settings(max_examples=100, deadline=None)
def test_canonical_is_relabel_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(tuple(perm))
    assert canonical_code(g) == canonical_code(h)


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_canonical_graph_is_isomorphic_to_input(g):
    back = parse_graph6(canonical_code(g))
    assert back.n == g.n
    assert nx.is_isomorphic(to_nx(g), to_nx(back))


def test_four_vertex_graphs_have_eleven_classes():
    codes = {canonical_code(graph_from_pair_bits(4, b)) for b in range(64)}
    assert len(codes) == 11, f"expected 11 classes, got {len(codes)}"


def test_canonical_handles_twin_heavy_graphs_quickly():
    empty = graph_from_pair_bits(10, 0)
    full = graph_from_pair_bits(10, (1 << 45) - 1)
    assert canonical_code(empty) == to_graph6(empty)
    assert canonical_code(full) == to_graph6(full)


def twins_by_definition(g: Graph) -> list[set[int]]:
    """Entry v: the vertices u whose neighbours besides v are v's
    neighbours besides u, v itself included."""
    nbrs = [set(vertices_of(row)) for row in g.adj]
    return [{u for u in range(g.n) if nbrs[u] - {v} == nbrs[v] - {u}} for v in range(g.n)]


def test_twin_classes_follow_the_pairwise_definition():
    rng = random.Random(27)
    cases = [graph_from_pair_bits(n, bits)
             for n in range(1, 7) for bits in range(1 << (n * (n - 1) // 2))]
    cases += [g for g, _ in _classes(7)]
    cases += [random_graph(rng, rng.randint(8, 10)) for _ in range(300)]
    for g in cases:
        classes = _twin_classes(g.adj)
        assert list(map(set, map(vertices_of, classes))) == twins_by_definition(g), to_graph6(g)
        # a partition: any two entries are equal or disjoint
        assert all(a == b or not a & b for a in classes for b in classes), to_graph6(g)


def test_canonical_code_round_trips_through_graph6():
    g = Graph.from_edge_list(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
    c = canonical_code(g)
    assert to_graph6(parse_graph6(c)) == c


def test_canonical_rejects_large_n():
    g = graph_from_pair_bits(CANON_MAX_N + 1, 0)
    with pytest.raises(UnsupportedError):
        canonical_code(g)


# ======================================================================
# frozen records
# ======================================================================


def test_records_compare_by_class_and_fields():
    assert CycleCensus({3: 1}) == CycleCensus({3: 1})
    assert CycleCensus({3: 1}) != CycleCensus({3: 2})
    # the same fields in another record type, or a bare value, differ
    assert CycleCensus({3: 1}) != PathCensus({3: 1})
    assert CycleCensus({3: 1}).__eq__(PathCensus({3: 1})) is NotImplemented
    assert ExactCount(3) != 3


def test_records_hash_their_field_tuple():
    assert hash(FamilyId("H", 12)) == hash(("H", 12))
    assert hash(ExactCount(7)) == hash((7,))
    assert len({FamilyId("H", 12), FamilyId("H", 12), FamilyId("G", 12)}) == 2
    assert {ExactCount(1), ExactCount(1)} == {ExactCount(1)}
    with pytest.raises(TypeError):
        hash(CycleCensus({3: 1}))  # a dict field is unhashable


def test_record_repr_names_every_field():
    assert repr(FamilyId("H", 12)) == "FamilyId(tag='H', n=12)"
    assert repr(BraidSpec((2, 3))) == (
        "BraidSpec(cluster_sizes=(2, 3), cyclic=False, intra='empty')")


def test_records_are_frozen():
    family = FamilyId("H", 12)
    for change in (lambda: setattr(family, "n", 13), lambda: delattr(family, "n"),
                   lambda: setattr(family, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert family == FamilyId("H", 12) and not hasattr(family, "extra")


def test_braid_spec_defaults_keywords_and_normalised_sizes():
    spec = BraidSpec([2, 3])
    # __post_init__ turns the list into a tuple through object.__setattr__
    assert spec.cluster_sizes == (2, 3) and type(spec.cluster_sizes) is tuple
    assert (spec.cyclic, spec.intra) == (False, "empty")
    assert BraidSpec(intra="full", cluster_sizes=(1, 1, 1), cyclic=True) == (
        BraidSpec((1, 1, 1), True, "full"))


@pytest.mark.parametrize("make", [
    lambda: FamilyId("H"),
    lambda: FamilyId("H", 12, 0),
    lambda: FamilyId(tag="H", n=12, size=3),
    lambda: BraidSpec(cyclic=True),
    lambda: ExactCount(),
])
def test_a_missing_or_unknown_field_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


# one record per __post_init__ check, each violating it
BAD_RECORDS = [
    "CycleCensus({2: 1})",
    "CycleCensus({3: -1})",
    "PathCensus({0: 1})",
    "PathCensus({1: -1})",
    "TreeStats(1, 2, frozenset(), True)",
    "ClusterPartition((), False)",
    "ClusterPartition(((0,), (1,)), True)",
    "ClusterPartition(((0,), ()), False)",
    "ClusterPartition(((0, 1), (1,)), False)",
    "FamilyId('X', 5)",
    "BraidSpec((1, 0))",
    "BraidSpec((1, 1), cyclic=True)",
    "BraidSpec((1,))",
    "ExactCount(-1)",
    "RealBound(float('inf'))",
    "RealBound(-0.5)",
    "GameState(1, (0,), 0)",
    "GameVerdict('Adversary', (0,), None)",
    "GameVerdict('Builder', (0,), 'bad-vertex-in-N4')",
    "RecognitionReport(False, None, (1, 1), ('empty', 'empty'), None)",
    "SweepResult(4, 'q', ExactCount(1), frozenset({'C~'}), 1)",
    "SweepResult(4, 'm', ExactCount(1), frozenset(), 1)",
    "SweepResult(4, 'm', ExactCount(1), frozenset({'C~'}), 0)",
]

BAD_RECORDS_SCRIPT = """
import sys, braidcensus
if __debug__:
    sys.exit("assertions are on: run with python -O")
names = {name: getattr(braidcensus, name) for name in braidcensus.__all__}
for expression in sys.argv[1:]:
    try:
        eval(expression, names)
        print("accepted", expression)
    except braidcensus.InputError:
        print("InputError")
"""


@pytest.mark.parametrize("expression", BAD_RECORDS)
def test_record_checks_raise_input_errors(expression):
    names = {name: getattr(braidcensus, name) for name in braidcensus.__all__}
    with pytest.raises(InputError):
        eval(expression, names)


def test_record_checks_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(braidcensus.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BAD_RECORDS_SCRIPT, *BAD_RECORDS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["InputError"] * len(BAD_RECORDS)
