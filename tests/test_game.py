"""Walk-game solver, atypical-vertex reporting, and local structure.

The braid pins are hand-derived from the walk mechanics: a straight walk
around the cluster cycle keeps exactly the next cluster unseen (good),
the second vertex of a walk out of a size-3 cluster has 5 unseen
neighbors (two start-cluster mates plus the next cluster, bad), and the
walk crashes with 0 unseen neighbors two clusters short of wrapping.  A
probe is atypical when both directions hit one of those defects inside
its radius-4 ball.
"""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidcensus import cli, game
from braidcensus.families import BraidSpec, build_braid, build_G, build_H
from braidcensus.game import (
    REASON_BAD_VERTEX,
    REASON_UNSEEN_VERTEX,
    GameState,
    GameVerdict,
    _solve,
    apply_move,
    atypical_set,
    is_bad,
    legal_moves,
    local_structure,
    solve_typical_game,
)
from braidcensus.graphs import (
    Graph,
    InputError,
    ball,
    bits_of,
    graph_from_pair_bits,
    mask_of,
    to_graph6,
)

from graph_helpers import complete_graph, cycle_graph, path_graph


def build_custom34():
    """Cyclic braid with three consecutive singleton clusters, ten
    triples, then one more singleton: the two walk directions out of
    vertex 0 behave differently, giving both verdicts on one graph."""
    return build_braid(
        BraidSpec((1, 1, 1) + (3,) * 10 + (1,), cyclic=True, intra="empty")
    )


def replay(g: Graph, v: int, w: int, verdict: GameVerdict) -> None:
    """Re-walk the trace, checking move legality, the induced-path
    invariant, zone goodness along a winning line, and that the stated
    end condition really holds at the end."""
    n4w = ball(g, w, 4)
    assert verdict.trace[0] == v
    state = GameState.start(g, v)
    states = [state]
    for u in verdict.trace[1:]:
        state = apply_move(g, state, u)  # raises if the move is illegal
        states.append(state)
    seq = verdict.trace
    for i, j in itertools.combinations(range(len(seq)), 2):
        adjacent = g.has_edge(seq[i], seq[j])
        assert adjacent == (j == i + 1), "trace must induce a path"
    last = states[-1]
    in_zone = (n4w >> last.current) & 1
    if verdict.winner == "Builder":
        for st in states:
            assert not ((n4w >> st.current) & 1 and is_bad(g, st, st.current))
        assert legal_moves(g, last) == 0
        dominated = last.seen | g.adj[last.current] | (1 << last.current)
        assert not (n4w & ~dominated), "a zone vertex stayed unseen"
    elif verdict.reason == "bad-vertex-in-N4":
        assert in_zone and is_bad(g, last, last.current)
    else:
        assert legal_moves(g, last) == 0
        dominated = last.seen | g.adj[last.current] | (1 << last.current)
        assert n4w & ~dominated


def recursive_solve(g: Graph, v: int, n4w: int):
    """The solver as plain recursion, kept as the reference for the
    explicit-stack search: same memo key, same move order, same
    short-circuits.  Its depth grows with the walk, so it only serves
    short walks."""
    adj = g.adj
    memo = {}

    def builder_wins(seen, cur):
        moves = adj[cur] & ~seen
        in_zone = (n4w >> cur) & 1
        if in_zone and moves.bit_count() != 3:
            return False
        if not moves:
            return not (n4w & ~(seen | adj[cur] | (1 << cur)))
        key = (seen, cur)
        if key in memo:
            return memo[key]
        grown = seen | adj[cur] | (1 << cur)
        if in_zone:
            win = all(builder_wins(grown, m) for m in bits_of(moves))
        else:
            win = any(builder_wins(grown, m) for m in bits_of(moves))
        memo[key] = win
        return win

    seen, cur, trace, reason = 0, v, [v], None
    while True:
        moves = adj[cur] & ~seen
        in_zone = (n4w >> cur) & 1
        if in_zone and moves.bit_count() != 3:
            reason = REASON_BAD_VERTEX
            break
        if not moves:
            if n4w & ~(seen | adj[cur] | (1 << cur)):
                reason = REASON_UNSEEN_VERTEX
            break
        grown = seen | adj[cur] | (1 << cur)
        want = not in_zone
        pick = next((m for m in bits_of(moves) if builder_wins(grown, m) == want),
                    (moves & -moves).bit_length() - 1)
        seen, cur = grown, pick
        trace.append(pick)
    return reason is None, tuple(trace), reason


# ======================================================================
# states, moves, badness
# ======================================================================


def test_legal_moves_at_start():
    g, _ = build_H(15)
    state = GameState.start(g, 0)
    assert legal_moves(g, state) == mask_of((3, 4, 5, 12, 13, 14))
    assert is_bad(g, state, 0)  # 6 unseen neighbors


def test_straight_walk_turns_good():
    g, _ = build_H(15)
    state = GameState.start(g, 0)
    state = apply_move(g, state, 3)
    assert is_bad(g, state, 3)  # two cluster mates of 0 still unseen
    state = apply_move(g, state, 6)
    assert legal_moves(g, state) == mask_of((9, 10, 11))
    assert not is_bad(g, state, 6)


def test_path_graph_vertices_are_bad():
    g = path_graph(6)
    state = GameState.start(g, 2)
    assert legal_moves(g, state) == mask_of((1, 3))
    assert is_bad(g, state, 2)
    state = apply_move(g, state, 3)
    assert legal_moves(g, state) == mask_of((4,))  # interior: one move
    state = apply_move(g, state, 4)
    state = apply_move(g, state, 5)
    assert legal_moves(g, state) == 0  # terminal


def test_state_and_move_validation():
    g, _ = build_H(15)
    state = GameState.start(g, 0)
    with pytest.raises(InputError):
        apply_move(g, state, 6)  # not a neighbor of 0
    with pytest.raises(InputError):
        is_bad(g, state, 3)  # badness is evaluated at the current vertex
    with pytest.raises(InputError):
        GameState(current=1, chosen=(0,), seen=0)
    state = apply_move(g, state, 3)
    with pytest.raises(InputError):
        apply_move(g, state, 0)  # moving back into the seen set


def test_verdict_validation():
    with pytest.raises(InputError):
        GameVerdict(winner="Adversary", trace=(0,), reason=None)
    with pytest.raises(InputError):
        GameVerdict(winner="Builder", trace=(0,), reason="bad-vertex-in-N4")


# ======================================================================
# the solver
# ======================================================================


def test_path_graph_walker_loses():
    g = path_graph(10)
    verdict = solve_typical_game(g, 0, 9)
    assert verdict.winner == "Adversary"
    assert verdict.reason == "bad-vertex-in-N4"
    # the forced walk enters the probe's ball at vertex 5 with a single
    # unseen neighbor
    assert verdict.trace == (0, 1, 2, 3, 4, 5)
    replay(g, 0, 9, verdict)


def test_precondition_names_the_distance():
    g, _ = build_H(18)  # diameter 3: everything is within the v-ball
    with pytest.raises(InputError, match="distance is 3"):
        solve_typical_game(g, 0, 9)
    two = Graph.from_edge_list(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    with pytest.raises(InputError, match="connected"):
        solve_typical_game(two, 0, 7)


def test_every_small_braid_is_exempt():
    # Radius-4 balls in compact braids swallow the whole graph; with a
    # pendant vertex attached the diameter is still at most 4 from
    # everywhere, so nothing becomes probeable either.
    g, _ = build_H(18)
    report = atypical_set(g, 0)
    assert report.atypical == () and report.typical == ()
    assert report.exempt == tuple(range(18))
    pendant = Graph.from_edge_list(
        19, [(u, v) for u in range(18) for v in range(u) if g.has_edge(u, v)]
        + [(17, 18)]
    )
    report = atypical_set(pendant, 0)
    assert report.atypical == () and report.typical == ()


def test_path_graph_atypical_set():
    report = atypical_set(path_graph(12), 0)
    assert report.exempt == (0, 1, 2, 3, 4)
    assert report.atypical == (5, 6, 7, 8, 9, 10, 11)
    assert report.typical == ()


def test_h30_exactly_the_antipodal_cluster_is_atypical():
    # Ten clusters: the only probes past distance 4 sit in cluster 5,
    # and both clusters next to the start are then inside the probe's
    # ball, so the 5-unseen second step is always a bad zone vertex.
    g, _ = build_H(30)
    report = atypical_set(g, 0)
    assert report.atypical == (15, 16, 17)
    assert report.typical == ()
    assert len(report.exempt) == 27
    for w in report.atypical:
        verdict = solve_typical_game(g, 0, w)
        assert verdict.winner == "Adversary"
        replay(g, 0, w, verdict)


def test_h36_three_atypical_clusters():
    # Twelve clusters, probes in clusters 5, 6, 7.  Either the entry
    # step (5 unseen) or the terminal crash two clusters short of the
    # wrap (0 unseen) lands inside the probe's ball in both directions.
    g, _ = build_H(36)
    report = atypical_set(g, 0)
    assert report.atypical == tuple(range(15, 24))
    assert report.typical == ()


def test_custom34_has_both_verdicts():
    # Walking out through the lone singleton keeps every step good (the
    # unseen count is 3 from the start), so probes on that side are
    # typical; the three-singleton side crashes into a 1-unseen vertex
    # inside the ball of cluster-5 probes, which stay atypical.
    g, _ = build_custom34()
    report = atypical_set(g, 0)
    assert report.atypical == (9, 10, 11)
    assert report.typical == tuple(range(12, 24))
    verdict = solve_typical_game(g, 0, 21)
    assert verdict.winner == "Builder"
    assert verdict.trace == (0, 33, 30, 27, 24, 21, 18, 15, 12, 9, 6, 3, 2)
    replay(g, 0, 21, verdict)
    verdict = solve_typical_game(g, 0, 9)
    assert verdict.winner == "Adversary"
    replay(g, 0, 9, verdict)


def test_all_verdict_traces_replay():
    g, _ = build_custom34()
    for w in range(9, 24):
        replay(g, 0, w, solve_typical_game(g, 0, w))


def test_verdict_label_invariance():
    g, _ = build_H(30)
    rng = random.Random(41)
    perm = list(range(30))
    rng.shuffle(perm)
    g2 = g.relabeled(perm)
    for w in (15, 16, 17):
        original = solve_typical_game(g, 0, w)
        mapped = solve_typical_game(g2, perm[0], perm[w])
        assert mapped.winner == original.winner


def balls_of(g: Graph, radius: int) -> list[int]:
    return [ball(g, x, radius) for x in range(g.n)]


@st.composite
def game_inputs(draw):
    """A graph on up to 14 vertices, a start, a probe and the balls of
    one radius 0-4 around every vertex: the solver itself needs neither
    connectivity nor distance."""
    n = draw(st.integers(2, 14))
    g = graph_from_pair_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    v, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return g, v, balls_of(g, draw(st.integers(0, 4))), w


@settings(max_examples=300, deadline=None)
@given(game_inputs())
def test_stack_solver_matches_recursive_reference(case):
    g, v, balls, w = case
    assert _solve(g, v, balls, w) == recursive_solve(g, v, balls[w])


def test_stack_solver_matches_recursive_reference_on_braids():
    for g in (build_custom34()[0], build_H(30)[0], build_H(36)[0], build_H(45)[0]):
        balls = balls_of(g, 4)
        for w in range(g.n):
            assert _solve(g, 0, balls, w) == recursive_solve(g, 0, balls[w]), w


@st.composite
def probed_graphs(draw):
    """A path or cycle on 10-20 vertices with a few chords, each vertex
    blown up into three independent twins except a few singletons, pairs
    and clique clusters, relabelled, with a start that has probes.
    Random G(n, p) graphs this small almost never have a vertex 5 steps
    from another, and without runs of triples no probe is typical."""
    k = draw(st.integers(10, 20))
    base = {(i, i + 1) for i in range(k - 1)}
    if draw(st.booleans()):
        base.add((0, k - 1))
    for u, v in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=3)):
        if u != v:
            base.add((min(u, v), max(u, v)))
    sizes = [3] * k
    for i, size in draw(st.dictionaries(st.integers(0, k - 1), st.integers(1, 2),
                                        max_size=3)).items():
        sizes[i] = size
    cliques = draw(st.sets(st.integers(0, k - 1), max_size=2))
    home = [i for i, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(home))))
    home = [home[x] for x in order]
    g = Graph.from_edge_list(len(home), [
        (x, y) for x, y in itertools.combinations(range(len(home)), 2)
        if (home[x] in cliques if home[x] == home[y]
            else (min(home[x], home[y]), max(home[x], home[y])) in base)
    ])
    v = draw(st.integers(0, g.n - 1))
    assume(g.full_mask() & ~ball(g, v, 4))
    return g, v


@st.composite
def zone_sets(draw):
    """A graph on up to 14 vertices, a start, the balls of one radius 0-4
    around every vertex and 1-6 zones named by their centres, the start
    included."""
    n = draw(st.integers(2, 14))
    g = graph_from_pair_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    v = draw(st.integers(0, n - 1))
    centres = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=6))
    return g, v, balls_of(g, draw(st.integers(0, 4))), mask_of(centres)


@settings(max_examples=300, deadline=None)
@given(zone_sets())
def test_mask_search_matches_per_zone_solves(case):
    g, v, balls, zones = case
    wins = game._builder_wins(g.adj, balls, zones, {}, 0, v, game._lone(g.adj, balls, zones, v))
    assert wins & ~zones == 0
    for r in bits_of(zones):
        assert (wins >> r) & 1 == recursive_solve(g, v, balls[r])[0], r


@settings(max_examples=150, deadline=None)
@given(probed_graphs())
def test_atypical_set_matches_per_probe_solves(case):
    g, v = case
    report = atypical_set(g, v)
    exempt = ball(g, v, 4)
    builder = {w: recursive_solve(g, v, ball(g, w, 4))[0]
               for w in range(g.n) if not (exempt >> w) & 1}
    assert report.atypical == tuple(w for w in sorted(builder) if not builder[w])
    assert report.typical == tuple(w for w in sorted(builder) if builder[w])
    assert report.exempt == tuple(bits_of(exempt))


@pytest.mark.parametrize("k", [13, 14, 15, 16])
def test_true_twins_match_per_probe_solves(k):
    # G(3k) has clique clusters, so its twins are true twins: adjacent,
    # with equal closed rows
    g = build_G(3 * k)[0]
    rng = random.Random(k)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = g.relabeled(perm)
    balls = balls_of(g, 4)
    assert any(g.has_edge(x, y) and g.adj[x] | 1 << x == g.adj[y] | 1 << y
               for x, y in itertools.combinations(range(g.n), 2))
    for v in rng.sample(range(g.n), 3):
        report = atypical_set(g, v)
        for w in report.typical + report.atypical:
            builder, *_ = want = recursive_solve(g, v, balls[w])
            assert builder == (w in report.typical), (v, w)
            assert _solve(g, v, balls, w) == want, (v, w)


@pytest.mark.parametrize("k", [13, 20, 40])
def test_h_ring_cluster_distance_rule(k):
    # H(3k) is vertex-transitive, so a verdict depends on the cluster
    # distance d from the start alone: d <= 4 is exempt, d = 5 is
    # atypical (the 5-unseen entry step lands in the ball) and d >= 6 is
    # typical once the ring has more than 12 clusters.
    g, part = build_H(3 * k)
    rng = random.Random(k)
    perm = list(range(3 * k))
    rng.shuffle(perm)
    g = g.relabeled(perm)
    start = rng.randrange(k)
    want = {"exempt": [], "atypical": [], "typical": []}
    for i, cluster in enumerate(part.clusters):
        d = min((i - start) % k, (start - i) % k)
        want["exempt" if d <= 4 else "atypical" if d == 5 else "typical"] += [
            perm[x] for x in cluster]
    report = atypical_set(g, perm[part.clusters[start][0]])
    assert report.exempt == tuple(sorted(want["exempt"]))
    assert report.atypical == tuple(sorted(want["atypical"]))
    assert report.typical == tuple(sorted(want["typical"]))


def test_atypical_set_is_one_search(monkeypatch):
    # H(120) from 0: 93 probes in 31 clusters, twins share a zone, and one
    # search decides all 31 zones.  Per-zone searches expand 1,215 states
    # in all, of which 75 are distinct; the mask search expands each of
    # the states it needs once, one twin move per cluster.
    memos = []
    search = game._builder_wins

    def counted(adj, balls, zones, memo, *rest):
        memos.append((balls, zones, memo))
        return search(adj, balls, zones, memo, *rest)

    monkeypatch.setattr(game, "_builder_wins", counted)
    g = build_H(120)[0]
    report = atypical_set(g, 0)
    assert (len(report.atypical), len(report.typical), len(report.exempt)) == (6, 87, 27)
    assert len(memos) == 1
    balls, zones, memo = memos[0]
    assert balls == balls_of(g, 4)
    assert zones.bit_count() == len({balls[r] for r in bits_of(zones)}) == 31
    assert len(memo) == 75
    # a node stops once every bit is decided: one zone alone expands the
    # 38 states of a per-zone search
    memo, zones = {}, 1 << 60
    search(g.adj, balls, zones, memo, 0, 0, game._lone(g.adj, balls, zones, 0))
    assert len(memo) == 38


def test_long_walks():
    # the recursive solver raised RecursionError from about 400 vertices
    path = path_graph(1500)
    verdict = solve_typical_game(path, 0, 1499)
    assert verdict.winner == "Adversary" and verdict.reason == "bad-vertex-in-N4"
    assert verdict.trace == tuple(range(1496))
    verdict = solve_typical_game(cycle_graph(1500), 0, 750)
    assert verdict.winner == "Adversary" and verdict.reason == "bad-vertex-in-N4"
    assert verdict.trace == tuple(range(747))
    report = atypical_set(path_graph(500), 0)
    assert report.atypical == tuple(range(5, 500)) and report.typical == ()


def test_cli_long_walks(tmp_path, capsys):
    for name, g, w, steps in (("path", path_graph(1500), 1499, 1496),
                              ("cycle", cycle_graph(1500), 750, 747)):
        target = tmp_path / f"{name}.g6"
        target.write_text(to_graph6(g) + "\n")
        code = cli.main(["game", "--input", str(target), "--v", "0", "--w", str(w)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["trace"] == list(range(steps))
    target = tmp_path / "p500.g6"
    target.write_text(to_graph6(path_graph(500)) + "\n")
    assert cli.main(["atypical", "--input", str(target), "--v", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["atypical"] == list(range(5, 500))


# ======================================================================
# local structure
# ======================================================================


def test_local_structure_is_the_cluster_triple():
    for n in (15, 18, 21):
        g, p = build_H(n)
        k = p.k
        for z in range(n):
            found = local_structure(g, z)
            assert found is not None, f"n={n} z={z}"
            idx = next(i for i, c in enumerate(p.clusters) if z in c)
            assert found["Z"] == p.clusters[idx]
            flanks = {p.clusters[(idx - 1) % k], p.clusters[(idx + 1) % k]}
            assert {found["V"], found["W"]} == flanks
            assert min(found["V"]) < min(found["W"])


def test_local_structure_pins():
    g, _ = build_H(15)
    assert local_structure(g, 0) == {
        "V": (3, 4, 5),
        "Z": (0, 1, 2),
        "W": (12, 13, 14),
    }
    assert local_structure(g, 7) == {
        "V": (3, 4, 5),
        "Z": (6, 7, 8),
        "W": (9, 10, 11),
    }


def test_local_structure_absent():
    assert local_structure(complete_graph(5), 0) is None
    assert local_structure(cycle_graph(9), 0) is None
    # with four clusters the two flanks share their far cluster, so the
    # cross common neighborhoods are strictly larger than the middle set
    g, _ = build_H(12)
    for z in range(12):
        assert local_structure(g, z) is None
    # an edge from B_1 to B_4 of H(15) leaves every cross pair around
    # Z = B_0 with common neighborhood Z; only the V-W edge rules it out
    assert local_structure(build_H(15)[0].with_edge(3, 12), 0) is None


def test_reports_are_json_friendly():
    g, _ = build_H(30)
    doc = atypical_set(g, 0).to_json_dict()
    assert doc["atypical"] == [15, 16, 17]
    assert doc["v"] == 0
    verdict = solve_typical_game(g, 0, 15).to_json_dict()
    assert verdict["winner"] == "Adversary"
    assert isinstance(verdict["trace"], list)
