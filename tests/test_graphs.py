"""Core graph type, graph6 codec, BFS layers and balls, canonical labeling.

networkx is used as an independent oracle for graph6 encoding, BFS
layers and distances, components, and isomorphism; the package itself
never imports it.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from braidcensus.census import count_cycles_through, count_induced_st_paths, path_tree_stats
from braidcensus.families import build_H
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
    ball,
    canonical_code,
    distance,
    graph_from_pair_bits,
    is_connected,
    mask_of,
    pair_bits_of,
    pair_order,
    parse_graph6,
    to_graph6,
    vertices_of,
)
from braidcensus.recognition import _components


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
    assert g.neighbors(1) == (0, 2)
    assert g.degree(2) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3


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
    g = Graph.from_edge_list(4, [(0, 1), (1, 2)])
    assert g.closed(1) == mask_of([0, 1, 2])
    assert g.closed_of(mask_of([0, 3])) == mask_of([0, 1, 3])


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
    complement = tuple(full & ~g.closed(v) for v in range(g.n))
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


@given(graphs(max_n=8), st.randoms())
@settings(max_examples=100, deadline=None)
def test_canonical_is_relabel_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(tuple(perm))
    assert canonical_code(g) == canonical_code(h)


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_canonical_graph_is_isomorphic_to_input(g):
    c = canonical_code(g)
    back = c.graph()
    assert back.n == g.n
    assert nx.is_isomorphic(to_nx(g), to_nx(back))


def test_four_vertex_graphs_have_eleven_classes():
    codes = {canonical_code(graph_from_pair_bits(4, b)).g6 for b in range(64)}
    assert len(codes) == 11, f"expected 11 classes, got {len(codes)}"


def test_canonical_handles_twin_heavy_graphs_quickly():
    empty = graph_from_pair_bits(10, 0)
    full = graph_from_pair_bits(10, (1 << 45) - 1)
    assert canonical_code(empty).g6 == to_graph6(empty)
    assert canonical_code(full).g6 == to_graph6(full)


def test_canonical_code_round_trips_through_graph6():
    g = Graph.from_edge_list(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
    c = canonical_code(g)
    assert pair_bits_of(c.graph()) == pair_bits_of(parse_graph6(c.g6))


def test_canonical_rejects_large_n():
    g = graph_from_pair_bits(CANON_MAX_N + 1, 0)
    with pytest.raises(UnsupportedError):
        canonical_code(g)
