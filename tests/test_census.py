"""Census engine tests.

The memoized counts are checked three independent ways: a from-scratch
subset filter written here (shares no code with the package), the pruned
slow_census subset oracle (itself checked against that filter), and
hand-pinned values for structured graphs whose counts have closed forms.
Random graphs rarely have twins, so the memo is also exercised on
blow-ups of small graphs and on braids up to n = 120; path-tree
statistics are checked against a plain recursive walk, among others on
every ordered pair of every graph class up to seven vertices.  The
per-vertex counts are checked against a tally of the enumerated cycles,
against the single rooted fold of count_cycles_through, and by the
identity sum_v f_v(L) = L c_L, whose built-in check must also fire
under -O.  On cyclic braids whose clusters hold any graph, both counts
also meet a closed form over the clusters, which are modules.  Spies
check where each search starts, and that each hand-picked example still
reaches the branch of the fold it was found for.
"""

import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidcensus
from braidcensus.census import (
    CycleCensus,
    PathCensus,
    TreeStats,
    count_cycles_through,
    count_induced_cycles,
    count_induced_st_paths,
    cycles_per_vertex,
    p2_max,
    path_tree_stats,
    slow_census,
    visit_induced_cycles,
)
from braidcensus.families import (
    BraidSpec,
    build_braid,
    build_E,
    build_G,
    build_H,
    f_central_multisets,
    f_central_sequences,
    h_sizes,
    member_of_F,
)
from braidcensus.formulas import f2, f2_even, f2_odd, m_lower, vertex_cycle_bound
from braidcensus.graphs import (
    Graph,
    InputError,
    InternalError,
    UnsupportedError,
    _twin_classes,
    bits_of,
    graph_from_pair_bits,
    to_graph6,
)
from braidcensus.sweep import _classes

from graph_helpers import complete_graph, cycle_graph, path_graph, random_intra


# ======================================================================
# reference implementations (independent of the package internals)
# ======================================================================


def naive_cycles(g: Graph):
    """Filter every vertex subset for 'induces a connected 2-regular
    graph', and yield each such subset as a tuple."""
    for size in range(3, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if all((g.adj[v] & mask).bit_count() == 2 for v in combo):
                seen = {combo[0]}
                frontier = [combo[0]]
                while frontier:
                    u = frontier.pop()
                    for w in bits_of(g.adj[u] & mask):
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if len(seen) == size:
                    yield combo


def naive_cycle_census(g: Graph) -> dict[int, int]:
    """naive_cycles counted by length."""
    out: dict[int, int] = {}
    for cycle in naive_cycles(g):
        out[len(cycle)] = out.get(len(cycle), 0) + 1
    return out


def naive_path_census(g: Graph, x: int, y: int) -> dict[int, int]:
    """Filter every subset containing x and y for 'induces a path with
    endpoint set {x, y}'."""
    out: dict[int, int] = {}
    rest = [v for v in range(g.n) if v not in (x, y)]
    base = (1 << x) | (1 << y)
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            mask = base
            for v in combo:
                mask |= 1 << v
            degs = {v: (g.adj[v] & mask).bit_count() for v in bits_of(mask)}
            if degs[x] != 1 or degs[y] != 1:
                continue
            if any(degs[v] != 2 for v in combo):
                continue
            seen = {x}
            frontier = [x]
            while frontier:
                u = frontier.pop()
                for w in bits_of(g.adj[u] & mask):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size + 2:
                out[size + 1] = out.get(size + 1, 0) + 1
    return out


def per_vertex_tally(g: Graph) -> list[dict[int, int]]:
    """Entry v counts the enumerated cycles through v, by length."""
    tables: list[dict[int, int]] = [{} for _ in range(g.n)]

    def visit(mask, length):
        for v in bits_of(mask):
            tables[v][length] = tables[v].get(length, 0) + 1

    visit_induced_cycles(g, visit)
    return tables


def exploration_leaves(g: Graph, v: int) -> tuple[int, int]:
    """Leaf count of the direction-free walk tree rooted at v.

    Walks every induced path out of v in both directions, so a closure
    back into N(v) fires exactly twice per induced cycle through v.
    Returns (total leaves, closure leaves)."""
    leaves = closures_total = 0
    if not g.adj[v]:
        return 1, 0
    stack = [(u, 0) for u in bits_of(g.adj[v])]
    while stack:
        cur, blocked = stack.pop()
        cands = g.adj[cur] & ~blocked & ~(1 << v)
        closing = cands & g.adj[v]
        closures_total += closing.bit_count()
        leaves += closing.bit_count()
        new_blocked = blocked | g.adj[cur] | (1 << cur)
        pushed = False
        for z in bits_of(cands & ~g.adj[v]):
            stack.append((z, new_blocked))
            pushed = True
        if not closing and not pushed:
            leaves += 1
    return leaves, closures_total


def recursive_tree_stats(g: Graph, x: int, y: int) -> TreeStats:
    """The x-y path tree walked node by node, recursively, with no memo."""
    adj = g.adj
    ybit = 1 << y
    multisets: set[tuple[int, ...]] = set()
    balanced = True

    # returns (leaf_count, y_leaf_count) of the subtree at (cur, blocked)
    def walk(cur: int, blocked: int, acc: tuple[int, ...]) -> tuple[int, int]:
        nonlocal balanced
        if adj[cur] & ybit:
            multisets.add(tuple(sorted(acc)))
            return 1, 1
        cands = adj[cur] & ~blocked
        if not cands:
            multisets.add(tuple(sorted(acc)))
            return 1, 0
        new_blocked = blocked | adj[cur] | (1 << cur)
        acc_d = acc + (cands.bit_count(),)
        leaves = 0
        y_counts = []
        for z in bits_of(cands):
            l, ly = walk(z, new_blocked, acc_d)
            leaves += l
            y_counts.append(ly)
        if sum(y_counts) > 0 and len(set(y_counts)) > 1:
            balanced = False
        return leaves, sum(y_counts)

    leaf_count, y_leaf_count = walk(x, 1 << x, ())
    return TreeStats(leaf_count, y_leaf_count, frozenset(multisets), balanced)


def cyclic_braid_census(clusters: list[Graph]) -> tuple[dict[int, int], list[dict[int, int]]]:
    """Induced cycles by length of the cyclic braid with k >= 5 clusters
    whose cluster B_i induces clusters[i]: in all, and through each
    vertex, numbered cluster by cluster as build_braid numbers them.

    Each B_i is a module, and the quotient is C_k.  A cycle through two
    vertices of a module and one outside it is a triangle on an edge of
    the module or a C4 on a non-edge; every other cycle lies inside a
    cluster or takes one vertex of each cluster around the ring.  With
    s_i, e_i and ne_i the vertices, edges and non-edges of B_i:
      c_3 = sum_i t_i + e_i (s_{i-1} + s_{i+1}),
      c_4 = sum_i q_i + ne_i s_{i-1} s_{i+1} + ne_i ne_{i+1},
      c_L = sum_i c_L(B_i) + [L = k] prod_i s_i for L >= 5,
    where t_i and q_i are the triangles and C4s inside B_i.  The cycles
    inside a cluster come from the subset filter."""
    k = len(clusters)
    s = [b.n for b in clusters]
    e = [len(b.edges()) for b in clusters]
    ne = [math.comb(b.n, 2) - edges for b, edges in zip(clusters, e)]
    total: dict[int, int] = {k: math.prod(s)}
    per_vertex = []
    for i, b in enumerate(clusters):
        before, after = (i - 1) % k, (i + 1) % k
        inside = [{} for _ in range(b.n)]
        for cycle in naive_cycles(b):
            total[len(cycle)] = total.get(len(cycle), 0) + 1
            for u in cycle:
                inside[u][len(cycle)] = inside[u].get(len(cycle), 0) + 1
        total[3] = total.get(3, 0) + e[i] * (s[before] + s[after])
        total[4] = total.get(4, 0) + ne[i] * s[before] * s[after] + ne[i] * ne[after]
        for u, tally in enumerate(inside):
            deg = b.adj[u].bit_count()
            tally[3] = tally.get(3, 0) + deg * (s[before] + s[after]) + e[before] + e[after]
            tally[4] = (tally.get(4, 0)
                        + (b.n - 1 - deg) * (s[before] * s[after] + ne[before] + ne[after])
                        + ne[before] * s[(i - 2) % k] + ne[after] * s[(i + 2) % k])
            tally[k] = tally.get(k, 0) + math.prod(s) // s[i]
            per_vertex.append({length: c for length, c in tally.items() if c})
    return {length: c for length, c in total.items() if c}, per_vertex


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_bits(n, bits)


@st.composite
def blow_ups(draw, max_n=14):
    """A random base graph on k <= 6 vertices with each vertex replaced by
    an independent set or a clique of twins, then relabeled: random G(n,p)
    graphs almost never have twins, so they rarely exercise the memo."""
    k = draw(st.integers(min_value=1, max_value=6))
    base = graph_from_pair_bits(k, draw(st.integers(0, (1 << (k * (k - 1) // 2)) - 1)))
    sizes = draw(st.lists(st.integers(1, min(4, max_n // k)), min_size=k, max_size=k))
    cliques = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    home = [i for i, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(home))))
    home = [home[v] for v in order]
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(len(home)), 2)
        if (cliques[home[u]] if home[u] == home[v] else base.has_edge(home[u], home[v]))
    ]
    return Graph.from_edge_list(len(home), edges)


# An 8-vertex graph with lopsided branching: 0=x, 1..3 = a middle layer
# with uneven reach (2 is cut off from x, and x has a direct edge into
# the far layer), 4..6 = far layer, 7 = y.
UNEVEN_EDGES = [
    (0, 1), (0, 3), (0, 5),
    (1, 4), (1, 5), (1, 6),
    (2, 4), (2, 6),
    (3, 4), (3, 5), (3, 6),
    (7, 4), (7, 5), (7, 6),
]


def uneven_graph() -> Graph:
    return Graph.from_edge_list(8, UNEVEN_EDGES)


# ======================================================================
# cycle census
# ======================================================================


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8))
def test_cycle_census_matches_naive(g):
    assert count_induced_cycles(g).by_length == naive_cycle_census(g)


def test_cycle_census_matches_slow_oracle_random():
    rng = random.Random(0xC0FFEE)
    for _ in range(120):
        n = rng.randint(1, 12)
        bits = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_pair_bits(n, bits)
        fast = count_induced_cycles(g)
        assert fast.by_length == slow_census(g).by_length


@settings(max_examples=150, deadline=None)
@given(blow_ups())
def test_cycle_census_twin_rich_matches_slow_oracle(g):
    assert count_induced_cycles(g).by_length == slow_census(g).by_length


def test_memo_matches_oracles_on_mid_size_random_graphs():
    # below about ten vertices two DFS states with equal cands almost
    # never differ in blocked, so a memo key that drops blocked passes
    # every smaller test; at 12-14 vertices it fails here
    rng = random.Random(0xB1A5)
    for _ in range(40):
        n = rng.randint(12, 14)
        g = Graph.from_edge_list(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        assert count_induced_cycles(g).by_length == slow_census(g).by_length
        x, y = rng.sample(range(n), 2)
        assert count_induced_st_paths(g, x, y).by_length == naive_path_census(g, x, y)
        assert path_tree_stats(g, x, y) == recursive_tree_stats(g, x, y)


def test_cycle_census_braids_at_scale():
    # about 3^40 cycles at n = 120: only the memo can count them
    for n in (30, 60, 90, 120):
        g, part = build_H(n)
        census = count_induced_cycles(g)
        assert census.f == m_lower(n).value, f"H({n})"
        assert census.by_length == cyclic_braid_census(
            [Graph.from_edge_list(s, ()) for s in part.sizes()])[0]
        g, part = build_G(n)
        assert count_induced_cycles(g).by_length == cyclic_braid_census(
            [complete_graph(s) for s in part.sizes()])[0], f"G({n})"
        g, part = build_E(n)
        assert count_induced_cycles(g).by_length == cyclic_braid_census(
            [Graph.from_edge_list(s, ()) for s in part.sizes()])[0], f"E({n})"


def test_cycle_pins_small():
    assert count_induced_cycles(cycle_graph(5)).by_length == {5: 1}
    c5 = count_induced_cycles(cycle_graph(5))
    assert (c5.f, c5.f_o, c5.holes, c5.odd_holes) == (1, 1, 1, 1)
    k4 = count_induced_cycles(complete_graph(4))
    assert k4.by_length == {3: 4}
    assert k4.holes == 0 and k4.odd_holes == 0
    assert count_induced_cycles(complete_graph(5)).by_length == {3: 10}
    assert count_induced_cycles(cycle_graph(6)).by_length == {6: 1}
    assert count_induced_cycles(Graph(4, [0, 0, 0, 0])).by_length == {}
    assert count_induced_cycles(path_graph(6)).by_length == {}


def test_cycle_census_h_family_closed_form():
    # the lower-bound formula is exactly the census of the H construction
    for n in range(12, 22):
        g, _ = build_H(n)
        assert count_induced_cycles(g).f == m_lower(n).value, f"n={n}"


def test_cycle_census_h13_by_length():
    # with four clusters every induced cycle is a C4: the 108 all-cluster
    # cycles land on top of the 207 two- and three-cluster ones
    census = count_induced_cycles(build_H(13)[0])
    assert census.f == 315
    assert census.by_length == {4: 315}
    assert census.by_length == slow_census(build_H(13)[0]).by_length


def test_cycle_census_h16_type_split():
    # five clusters separate the lengths: C4s split into pairs of adjacent
    # clusters (3(n+5)) and middle-cluster wedges (9(n+4)); the all-cluster
    # cycles are C5s, one per choice of cluster representatives
    census = count_induced_cycles(build_H(16)[0])
    assert census.by_length == {4: 3 * 21 + 9 * 20, 5: 4 * 3**4}


def test_cycle_census_h12_h15():
    assert count_induced_cycles(build_H(12)[0]).f == 225
    assert slow_census(build_H(12)[0]).f == 225
    assert slow_census(build_H(15)[0]).f == 423


def test_h10_triangles():
    assert count_induced_cycles(build_H(10)[0]).by_length[3] == 36


def test_h_triangle_free_above_ten():
    for n in range(11, 31):
        census = count_induced_cycles(build_H(n)[0])
        assert 3 not in census.by_length, f"n={n}"


def test_slow_census_agrees_on_families():
    graphs_to_check = [build_H(n)[0] for n in range(8, 19)]
    graphs_to_check += [member_of_F(n, "all", 0)[0] for n in range(4, 19)]
    full_f = BraidSpec((1, *f_central_sequences(14, "all")[0], 1), intra="full")
    graphs_to_check += [build_braid(full_f)[0]]
    for g in graphs_to_check:
        assert count_induced_cycles(g).by_length == slow_census(g).by_length


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=10), blow_ups()))
def test_slow_census_matches_naive(g):
    # the oracle prunes on degree; the plain filter prunes nothing
    assert slow_census(g).by_length == naive_cycle_census(g)


def test_slow_census_empty_and_limits():
    assert slow_census(Graph(3, [0, 0, 0])).by_length == {}
    with pytest.raises(UnsupportedError):
        slow_census(Graph(25, [0] * 25))


def test_visit_induced_cycles_masks():
    seen = []
    visit_induced_cycles(cycle_graph(5), lambda mask, length: seen.append((mask, length)))
    assert seen == [(0b11111, 5)]


# ======================================================================
# per-vertex cycle counts
# ======================================================================


def test_cycles_through_pins():
    c5 = cycle_graph(5)
    for v in range(5):
        assert count_cycles_through(c5, v).f == 1
    k4 = complete_graph(4)
    for v in range(4):
        assert count_cycles_through(k4, v).f == 3


def test_cycles_through_h12_uniform():
    g, _ = build_H(12)
    counts = {c.f for c in cycles_per_vertex(g)}
    assert len(counts) == 1


def test_cycles_through_range_error():
    with pytest.raises(InputError):
        count_cycles_through(cycle_graph(5), 5)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_per_vertex_sum_identity(g):
    per_vertex = cycles_per_vertex(g)
    total = count_induced_cycles(g)
    assert sum(c.f for c in per_vertex) == sum(
        length * cnt for length, cnt in total.by_length.items()
    )
    for v in range(g.n):
        assert per_vertex[v].by_length == count_cycles_through(g, v).by_length


def test_per_vertex_bound_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = graph_from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
        per_vertex = cycles_per_vertex(g)
        for v in range(n):
            d = g.degree(v)
            bound = vertex_cycle_bound(n, d).value
            assert per_vertex[v].f <= bound + 1e-9, f"n={n} v={v} d={d}"


# C6 with each vertex doubled into a pair of false twins: each pair is a
# group of the crediting fold, expanded once for both, so every credit
# below it must count two paths
TWIN_RING = Graph.from_edge_list(12, [
    (u, v) for u, v in itertools.combinations(range(12), 2) if (u // 2 - v // 2) % 6 in (1, 5)])

# From anchor 1 the fold starts at 3; vertices 6 and 7, which differ only
# at vertex 0 below the anchor, so are no twins (the graph has none), are
# siblings with the same cands, and the crediting fold groups them (found
# by a search over random graphs)
NON_TWIN_GROUP = Graph.from_edge_list(8, [
    (0, 1), (0, 4), (0, 6), (1, 3), (1, 5), (2, 5), (3, 6), (3, 7), (4, 5), (4, 6),
    (4, 7)])

# From anchor 0, the fold hits one stored state along two prefixes of five
# steps and two of six, so the forward pass starts from a state seeded at
# two depths at once; the other examples' hits come at one depth each
# (found by a search over random graphs)
SEEDS_AT_TWO_DEPTHS = Graph.from_edge_list(12, [
    (0, 3), (0, 5), (1, 2), (1, 5), (2, 6), (2, 9), (3, 10), (4, 8), (4, 9), (4, 10),
    (4, 11), (6, 7), (6, 8), (6, 9), (7, 9), (7, 11), (8, 9), (8, 10), (8, 11), (10, 11)])

# From anchor 0 the fold's tree credits vertex 3 with a 7-cycle, and then
# the forward pass credits it with a 6-cycle, so the pass must lower that
# vertex's base; no other example here makes the pass do so (found by a
# search over random graphs)
FORWARD_LOWERS_A_BASE = Graph.from_edge_list(12, [
    (0, 2), (0, 7), (1, 5), (1, 8), (1, 9), (2, 8), (2, 9), (3, 5), (3, 7), (5, 9),
    (7, 11), (8, 11), (9, 11), (10, 11)])

# A cyclic braid whose clusters have some intra edges: cluster members that
# differ only there are no twins, yet once the cluster's neighbours are
# blocked they have the same cands, so the crediting fold expands them
# once as a group (found by a search over seeds of random_intra)
MIXED_INTRA_BRAID = build_braid(BraidSpec((2, 3, 3, 3, 3), cyclic=True, intra=(
    (), ((0, 2), (1, 2)), ((0, 2),), ((0, 1), (0, 2)), ((1, 2),))))[0]


def gadget_ring(k: int) -> Graph:
    """A ring of k gadgets {s, a, b, c} with edges sa, sb, ab, ac, bc, at
    and ct, where t is the next gadget's s.  The routes s-a-t and s-b-c-t
    block the same vertices, so they meet in one state at t, one step
    apart; a and b have different cands, so no group joins them."""
    n = 4 * k
    return Graph.from_edge_list(n, [
        (4 * i + u, (4 * i + v) % n) for i in range(k)
        for u, v in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4))])


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=10), blow_ups()))
@example(TWIN_RING)
@example(NON_TWIN_GROUP)
@example(SEEDS_AT_TWO_DEPTHS)
@example(FORWARD_LOWERS_A_BASE)
@example(MIXED_INTRA_BRAID)
@example(gadget_ring(3))
def test_per_vertex_censuses_match_enumeration(g):
    # both fast routes against the cycles the plain search walks, twin-rich
    # blow-ups included, where twins form the crediting fold's groups
    want = per_vertex_tally(g)
    assert [c.by_length for c in cycles_per_vertex(g)] == want
    assert [count_cycles_through(g, v).by_length for v in range(g.n)] == want


def line_of(fn, text: str) -> int:
    """The line number of the one source line of fn that holds text."""
    lines, start = inspect.getsourcelines(fn)
    (i,) = [i for i, line in enumerate(lines) if text in line]
    return start + i


def test_hand_picked_examples_reach_their_branches(monkeypatch):
    # each example above was found for one branch of the crediting fold or
    # the forward pass, and the census stays right when a change to the
    # search moves it off that branch; so spy on the branches themselves.
    # A group's members other than the child take their credits through
    # _add on one line of _fold, and a lowered base through _add on one
    # line of _forward with a credit below a non-empty histogram
    census = braidcensus.census
    forward, add = census._forward, census._add
    group_at = census._fold.__code__, line_of(census._fold, "bases[u], packs[u] = _add(")
    lower_at = forward.__code__, line_of(forward, "bases[z], packs[z] = _add(")
    seen = {}

    def spy_add(hist, off, val, width):
        caller = sys._getframe(1)
        at = caller.f_code, caller.f_lineno
        if at == group_at:
            seen["group"] += 1
        elif at == lower_at and hist[1] and off < hist[0]:
            seen["lowered base"] += 1
        return add(hist, off, val, width)

    def spy_forward(adj, above, stop, close, width, memo, credit):
        # reach holds the seeded states; a prefix with a second field
        # counts paths at two depths
        seen["seeded at two depths"] += sum(
            prefix >> width != 0 for _, prefix in credit[2].values())
        forward(adj, above, stop, close, width, memo, credit)

    monkeypatch.setattr(census, "_add", spy_add)
    monkeypatch.setattr(census, "_forward", spy_forward)
    cases = [(NON_TWIN_GROUP, "group"), (SEEDS_AT_TWO_DEPTHS, "seeded at two depths"),
             (FORWARD_LOWERS_A_BASE, "lowered base"), (MIXED_INTRA_BRAID, "group")]
    for g, branch in cases:
        seen.update(dict.fromkeys(("group", "seeded at two depths", "lowered base"), 0))
        cycles_per_vertex(g)
        assert seen[branch], (to_graph6(g), branch, seen)
    assert all(not members & (members - 1) for members in _twin_classes(NON_TWIN_GROUP.adj))


def test_each_search_starts_at_its_thin_end(monkeypatch):
    # a branch dies once its closing vertices are blocked, which comes
    # sooner for a vertex with more neighbours, so each search starts at
    # the end with fewer: a cycle at that one of its two neighbours of the
    # anchor with fewer neighbours in above (ties: the lower id), an x-y
    # fold at the endpoint of lower degree (x on a tie)
    fold = braidcensus.census._fold
    roots = []

    def spy(adj, above, stop, close, start, *rest):
        roots.append((start, close, above))
        return fold(adj, above, stop, close, start, *rest)

    monkeypatch.setattr(braidcensus.census, "_fold", spy)
    rng = random.Random(33)
    cases = [Graph.from_edge_list(n, [
        e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for n in range(12, 21) for p in (0.25, 0.4)]
    perm = list(range(30))
    rng.shuffle(perm)
    cases.append(build_H(30)[0].relabeled(tuple(perm)))
    flipped = 0
    for g in cases:
        adj = g.adj
        runs = [lambda: count_induced_cycles(g), lambda: cycles_per_vertex(g)]
        runs += [lambda v=v: count_cycles_through(g, v) for v in range(g.n)]
        for run in runs:
            roots.clear()
            run()
            for start, close, above in roots:
                def key(u, above=above):
                    return (adj[u] & above).bit_count(), u
                assert all(key(start) < key(c) for c in bits_of(close)), to_graph6(g)
                flipped += start > (close & -close).bit_length() - 1
        for x, y in itertools.combinations(range(g.n), 2):
            if g.has_edge(x, y):
                continue
            for s, t in ((x, y), (y, x)):
                roots.clear()
                count_induced_st_paths(g, s, t)
                thin = t if g.degree(t) < g.degree(s) else s
                assert [root[:2] for root in roots] == [(thin, 1 << (s + t - thin))]
            roots.clear()
            path_tree_stats(g, x, y)
            assert [root[:2] for root in roots] == [(x, 1 << y)]
    # the rule differs from the id order on some roots
    assert flipped


def test_per_vertex_census_where_memo_hits_are_rare():
    # G(n, p) graphs have almost no twins: few siblings share a state and
    # few children hit the memo, so nearly every credit comes from the
    # fold's own search tree.  The graphs above stop at n = 10 and the
    # braids below are group-rich; the second route shares the fold but
    # none of the crediting.
    for seed, (n, p) in enumerate([(24, 0.35), (26, 0.3), (28, 0.25), (30, 0.15)]):
        rng = random.Random(seed)
        g = Graph.from_edge_list(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        per_vertex = cycles_per_vertex(g)
        for v in range(n):
            assert per_vertex[v] == count_cycles_through(g, v), (n, p, v)


def test_per_vertex_census_braids_at_scale():
    # about 3^40 cycles at n = 120: enumeration could never finish, so
    # this also guards against a fallback to it.  The relabelled braid
    # with random intra edges guards the crediting fold's sibling groups
    # where they are no twins: cluster members share their cands below
    # the cluster's neighbours only.  Its counts come from the module
    # closed form, which shares no code with the fold.  The gadget ring
    # guards the memo: routes of two lengths meet in one state at every
    # gadget and no group joins them, so a crediting search without the
    # memo would expand the rest of the ring once per route, 2^30 times
    # at n = 120
    rng = random.Random(30)
    for n in (60, 120):
        sizes = h_sizes(n)
        intra = random_intra(sizes, rng)
        mixed = build_braid(BraidSpec(sizes, cyclic=True, intra=intra))[0]
        perm = list(range(n))
        rng.shuffle(perm)
        mixed = mixed.relabeled(tuple(perm))
        total, by_vertex = cyclic_braid_census(
            [Graph.from_edge_list(size, pairs) for size, pairs in zip(sizes, intra)])
        assert count_induced_cycles(mixed).by_length == total, n
        want = [None] * n
        for v, tally in enumerate(by_vertex):
            want[perm[v]] = tally
        assert [c.by_length for c in cycles_per_vertex(mixed)] == want, n
        cases = [(build.__name__, build(n)[0]) for build in (build_H, build_G, build_E)]
        cases += [("mixed intra", mixed), ("gadget ring", gadget_ring(n // 4))]
        for name, g in cases:
            per_vertex = cycles_per_vertex(g)
            census = count_induced_cycles(g).by_length
            for length, count in census.items():
                assert sum(c.by_length.get(length, 0) for c in per_vertex) == \
                    length * count, (name, n, length)
            for v in (0, n // 2, n - 1):
                assert count_cycles_through(g, v) == per_vertex[v], (name, n, v)
        # 3 divides n, so H(n) is a ring of equal clusters: vertex-transitive
        h = build_H(n)[0]
        share = {length: length * count // n
                 for length, count in count_induced_cycles(h).by_length.items()}
        assert cycles_per_vertex(h) == [CycleCensus(share)] * n


def test_censuses_of_mixed_intra_braids_match_the_module_closed_form():
    # clusters of 1-4 vertices holding any graph, inner triangles and C4s
    # among them, which the triples of the braids at scale never hold
    rng = random.Random(31)
    for _ in range(300):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(5, 8)))
        intra = random_intra(sizes, rng)
        g = build_braid(BraidSpec(sizes, cyclic=True, intra=intra))[0]
        total, by_vertex = cyclic_braid_census(
            [Graph.from_edge_list(size, pairs) for size, pairs in zip(sizes, intra)])
        assert count_induced_cycles(g).by_length == total, (sizes, intra)
        assert [c.by_length for c in cycles_per_vertex(g)] == by_vertex, (sizes, intra)


# Run under python -O, where assert statements are stripped: the identity
# check of cycles_per_vertex must still catch one corrupted credit.
CORRUPT_CREDIT_SCRIPT = """
import sys
from braidcensus import census
from braidcensus.families import build_H
from braidcensus.graphs import InternalError

if __debug__:
    sys.exit("assertions are on: run with python -O")
honest = census._unpack
calls = []

def corrupt_first(packed, width, shift):
    out = honest(packed, width, shift)
    calls.append(shift)
    if len(calls) == 1:
        # the first histogram unpacked is vertex 0's credit
        out[min(out)] += 1
    return out

census._unpack = corrupt_first
try:
    census.cycles_per_vertex(build_H(12)[0])
except InternalError as exc:
    print(exc)
else:
    sys.exit("cycles_per_vertex accepted a corrupted credit")
"""


def test_per_vertex_identity_check_catches_a_false_credit(monkeypatch):
    honest = braidcensus.census._forward
    calls = []

    def one_more(adj, above, stop, close, width, memo, credit):
        honest(adj, above, stop, close, width, memo, credit)
        calls.append(close)
        if len(calls) == 1:
            packs = credit[1]
            u = next(u for u, packed in enumerate(packs) if packed)
            packs[u] += 1  # one cycle more at u's lowest depth

    monkeypatch.setattr(braidcensus.census, "_forward", one_more)
    with pytest.raises(InternalError, match="do not sum to length times"):
        cycles_per_vertex(build_H(12)[0])


def test_per_vertex_identity_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(braidcensus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_CREDIT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "do not sum to length times the census" in proc.stdout


def test_exploration_tree_leaf_bound():
    rng = random.Random(99)
    cases = [(build_H(12)[0], 0)]
    for _ in range(60):
        n = rng.randint(2, 9)
        g = graph_from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
        cases.append((g, rng.randrange(n)))
    for g, v in cases:
        leaves, closures = exploration_leaves(g, v)
        f_v = count_cycles_through(g, v).f
        assert closures == 2 * f_v
        assert 2 * f_v <= leaves


# ======================================================================
# induced x-y paths
# ======================================================================


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7), st.data())
def test_path_census_matches_naive(g, data):
    if g.n < 2:
        return
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    if x == y:
        return
    assert count_induced_st_paths(g, x, y).by_length == naive_path_census(g, x, y)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8), st.data())
def test_path_census_symmetric(g, data):
    if g.n < 2:
        return
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    if x == y:
        return
    assert (
        count_induced_st_paths(g, x, y).by_length
        == count_induced_st_paths(g, y, x).by_length
    )


@settings(max_examples=150, deadline=None)
@given(blow_ups(max_n=12), st.data())
def test_path_census_twin_rich_matches_naive(g, data):
    if g.n < 2:
        return
    x, y = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    assert count_induced_st_paths(g, x, y).by_length == naive_path_census(g, x, y)


def test_path_pins():
    p4 = path_graph(4)
    pc = count_induced_st_paths(p4, 0, 3)
    assert pc.by_length == {3: 1}
    assert (pc.p2, pc.p2_odd, pc.p2_even) == (1, 0, 1)

    c6 = cycle_graph(6)
    antipodal = count_induced_st_paths(c6, 0, 3)
    assert antipodal.by_length == {3: 2}
    adjacent = count_induced_st_paths(c6, 0, 1)
    assert adjacent.by_length == {1: 1}

    # an edge between endpoints makes the edge the unique induced path
    k3 = complete_graph(3)
    assert count_induced_st_paths(k3, 0, 1).by_length == {1: 1}


def test_path_pins_uneven_graph():
    pc = count_induced_st_paths(uneven_graph(), 0, 7)
    assert pc.by_length == {2: 1, 3: 4}
    assert (pc.p2, pc.p2_odd, pc.p2_even) == (5, 1, 4)


def test_path_errors():
    g = path_graph(4)
    with pytest.raises(InputError):
        count_induced_st_paths(g, 2, 2)
    with pytest.raises(InputError):
        count_induced_st_paths(g, 0, 4)


def test_f_member_odd_paths():
    g = member_of_F(10, "odd", 0)[0]
    pc = count_induced_st_paths(g, 0, 9)
    assert pc.p2_odd == 18 and pc.p2_even == 0
    assert pc.p2_odd == f2_odd(10).value


def test_p2_max_pins():
    g8 = member_of_F(8, "all", 0)[0]
    assert p2_max(g8) == (9, (0, 7))
    assert p2_max(g8)[0] == f2(8).value

    # every x-z-y walk in a triangle carries the chord xy, so only the
    # edge itself counts
    assert p2_max(complete_graph(3)) == (1, (0, 1))

    # distance-2 pairs already reach the maximum in C6, so the lex rule
    # picks (0, 2) over the antipodal pair
    assert p2_max(cycle_graph(6)) == (2, (0, 2))

    g10 = member_of_F(10, "odd", 0)[0]
    assert p2_max(g10, "odd") == (18, (0, 9))


def test_p2_max_errors():
    with pytest.raises(InputError):
        p2_max(Graph(1, [0]))
    with pytest.raises(InputError):
        p2_max(cycle_graph(4), "weird")


def test_f_members_hit_closed_form_any_intra():
    rng = random.Random(5)
    for n in range(4, 17):
        for parity, formula in (("all", f2),):
            target = formula(n).value
            for variant, central in enumerate(f_central_sequences(n, parity)):
                sizes = (1, *central, 1)
                for intra in ("empty", "full"):
                    g = build_braid(BraidSpec(sizes, intra=intra))[0]
                    assert p2_max(g)[0] == target, (n, variant, intra)
                for _ in range(3):
                    pattern = random_intra(sizes, rng)
                    g = build_braid(BraidSpec(sizes, intra=pattern))[0]
                    assert p2_max(g)[0] == target, (n, variant, "random")


def test_f_members_hit_parity_closed_forms():
    for n in range(10, 17):
        odd = member_of_F(n, "odd", 0)[0]
        assert p2_max(odd, "odd")[0] == f2_odd(n).value
        even = member_of_F(n, "even", 0)[0]
        assert p2_max(even, "even")[0] == f2_even(n).value


# the central-size multisets of every F, F_odd and F_even member at sizes
# where the ~3^(n/3) paths are out of reach of enumeration; every residue
# of n mod 6 occurs
SCALE_SIZES = (30, 60, 90) + tuple(range(115, 121))
CLOSED_FORMS = {"all": (f2, "p2"), "odd": (f2_odd, "p2_odd"), "even": (f2_even, "p2_even")}


def f_members_at_scale(parity: str):
    for n in SCALE_SIZES:
        for central in f_central_multisets(n, parity):
            for intra in ("empty", "full"):
                spec = BraidSpec((1,) + central + (1,), cyclic=False, intra=intra)
                yield n, build_braid(spec)[0]


def test_f_members_hit_closed_forms_at_scale():
    for parity, (formula, field) in CLOSED_FORMS.items():
        for n, g in f_members_at_scale(parity):
            pc = count_induced_st_paths(g, 0, n - 1)
            assert getattr(pc, field) == formula(n).value, (parity, n)


# ======================================================================
# path-tree statistics
# ======================================================================


def fold_states_after_children(g: Graph, above: int, stop: int, close: int,
                                start: int) -> int:
    """Run one fold and assert that every internal child of each state in
    its memo was stored before that state, the order the path-tree pass
    reads; returns how many states were checked."""
    memo: dict = {}
    braidcensus.census._fold(g.adj, above, stop, close, start, g.n + 1, memo)
    order = {key: i for i, key in enumerate(memo)}
    for i, (cands, blocked) in enumerate(memo):
        below = blocked | cands
        for z in bits_of(cands & ~stop):
            c = g.adj[z] & above & ~below
            if c & ~stop and close & ~(below | c):
                assert order[c, below] < i
    return len(memo)


def test_fold_stores_every_state_after_its_children():
    rng = random.Random(0x5EED)
    cases = [build_H(15)[0], build_G(14)[0], member_of_F(16, "all", 0)[0]]
    for _ in range(12):
        n = rng.randint(8, 14)
        cases.append(Graph.from_edge_list(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]))
    checked = 0
    for g in cases:
        full = g.full_mask()
        for a in range(g.n):
            # the cycle folds of anchor a, one per first neighbour u1
            above = full & (-1 << (a + 1))
            for u1 in bits_of(g.adj[a] & above):
                close = g.adj[a] & (-1 << (u1 + 1))
                if close:
                    checked += fold_states_after_children(g, above, g.adj[a], close, u1)
        for x, y in itertools.permutations(range(g.n), 2):
            if not g.has_edge(x, y):
                checked += fold_states_after_children(g, full, 1 << y, 1 << y, x)
    assert checked > 1000


def test_tree_stats_match_recursive_walk_on_every_small_class():
    pairs = 0
    for k in range(2, 8):
        for g, _ in _classes(k):
            for x, y in itertools.permutations(range(k), 2):
                assert path_tree_stats(g, x, y) == recursive_tree_stats(g, x, y), (
                    to_graph6(g), x, y)
                pairs += 1
    assert pairs == 49_368


@settings(max_examples=150, deadline=None)
@given(blow_ups(), st.data())
def test_tree_stats_twin_rich_match_recursive_walk(g, data):
    if g.n < 2:
        return
    x, y = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    assert path_tree_stats(g, x, y) == recursive_tree_stats(g, x, y)


def test_tree_stats_f_members_at_scale():
    for n, g in f_members_at_scale("all"):
        stats = path_tree_stats(g, 0, n - 1)
        assert stats.y_leaf_count == f2(n).value, n
        assert stats.balanced, n


def test_tree_stats_f8():
    g = member_of_F(8, "all", 0)[0]
    stats = path_tree_stats(g, 0, 7)
    assert stats.leaf_count == 9
    assert stats.y_leaf_count == 9
    assert stats.child_count_multisets == frozenset({(3, 3)})
    assert stats.balanced


def test_tree_stats_p4():
    stats = path_tree_stats(path_graph(4), 0, 3)
    assert stats.leaf_count == 1 and stats.y_leaf_count == 1
    assert stats.child_count_multisets == frozenset({(1, 1)})
    assert stats.balanced


def test_tree_stats_uneven_branching():
    stats = path_tree_stats(uneven_graph(), 0, 7)
    assert stats.leaf_count == 5
    assert stats.y_leaf_count == 5
    assert stats.child_count_multisets == frozenset({(3,), (2, 3)})
    assert not stats.balanced


def test_tree_stats_dead_end():
    # from the middle of a path one sibling dead-ends, the other reaches y
    stats = path_tree_stats(path_graph(4), 1, 3)
    assert stats.leaf_count == 2 and stats.y_leaf_count == 1
    assert stats.child_count_multisets == frozenset({(2,)})
    assert not stats.balanced


def test_tree_stats_adjacent_endpoints():
    stats = path_tree_stats(complete_graph(3), 0, 1)
    assert stats.leaf_count == 1 and stats.y_leaf_count == 1
    assert stats.child_count_multisets == frozenset({()})
    assert stats.balanced


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.data())
def test_tree_y_leaves_equal_p2(g, data):
    if g.n < 2:
        return
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    if x == y or g.has_edge(x, y):
        return
    # the tree and count_induced_st_paths share the fold, so the subset
    # filter is the independent check
    stats = path_tree_stats(g, x, y)
    assert stats.y_leaf_count == count_induced_st_paths(g, x, y).p2
    assert stats.y_leaf_count == sum(naive_path_census(g, x, y).values())


def test_extremal_members_balanced():
    for n in range(4, 21):
        for variant, _ in enumerate(f_central_sequences(n, "all")):
            g = member_of_F(n, "all", variant)[0]
            assert path_tree_stats(g, 0, n - 1).balanced, (n, variant)


# ======================================================================
# long inputs: no recursion limit, memory bounded
# ======================================================================

LONG_N = 1500
LONG_PEAK_BYTES = 32 << 20


def traced_peak(fn):
    """(result, peak bytes allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_cycle():
    g = cycle_graph(LONG_N)
    census, peak = traced_peak(lambda: count_induced_cycles(g))
    assert census.by_length == {LONG_N: 1}
    assert peak < LONG_PEAK_BYTES


def test_long_cycle_per_vertex():
    # per-vertex histograms are stored relative to their lowest length,
    # or each would hold O(n^2) bits
    g = cycle_graph(LONG_N)
    tables, peak = traced_peak(lambda: cycles_per_vertex(g))
    assert tables == [CycleCensus({LONG_N: 1})] * LONG_N
    assert count_cycles_through(g, LONG_N // 2) == tables[0]
    assert peak < LONG_PEAK_BYTES


def test_long_path_census():
    g = path_graph(LONG_N)
    pc, peak = traced_peak(lambda: count_induced_st_paths(g, 0, LONG_N - 1))
    assert pc.by_length == {LONG_N - 1: 1}
    assert peak < LONG_PEAK_BYTES


def test_long_path_tree():
    g = path_graph(LONG_N)
    stats, peak = traced_peak(lambda: path_tree_stats(g, 0, LONG_N - 1))
    # every vertex before the last interior one has one child
    assert stats == TreeStats(1, 1, frozenset({(1,) * (LONG_N - 2)}), True)
    assert peak < LONG_PEAK_BYTES


# ======================================================================
# result types and serialization
# ======================================================================


def test_cycle_census_json():
    census = count_induced_cycles(build_H(13)[0])
    doc = census.to_json_dict(n=13)
    assert doc["n"] == 13
    assert doc["by_length"]["4"] == "315"
    assert doc["f"] == "315"
    assert doc["f_odd"] == str(census.f_o)
    assert doc["f_even"] == str(census.f_e)
    assert doc["holes"] == str(census.holes)
    assert doc["odd_holes"] == str(census.odd_holes)
    assert int(doc["f_odd"]) + int(doc["f_even"]) == 315


def test_path_census_json():
    pc = count_induced_st_paths(cycle_graph(6), 0, 3)
    doc = pc.to_json_dict(x=0, y=3)
    assert doc == {
        "x": 0,
        "y": 3,
        "by_length": {"3": "2"},
        "p2": "2",
        "p2_odd": "0",
        "p2_even": "2",
    }


def test_result_type_validation():
    with pytest.raises(InputError):
        CycleCensus({2: 1})
    with pytest.raises(InputError):
        CycleCensus({3: -1})
    with pytest.raises(InputError):
        PathCensus({0: 1})
    with pytest.raises(InputError):
        TreeStats(1, 2, frozenset(), True)
