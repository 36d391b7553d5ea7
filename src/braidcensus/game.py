"""Exact solver for the two-player walk game behind vertex typicality.

The game walks an induced path from a start vertex v.  Standing at the
current vertex, the active player (the blocker when the vertex is within
distance 4 of the probe vertex w, the walker otherwise) moves to a
neighbor not yet dominated by the earlier path vertices.  The walk ends
when no such neighbor exists.  The blocker wins if some vertex chosen
inside the radius-4 ball of w had an unseen-neighbor count other than 3
at the moment it was chosen, or if at the end some vertex of that ball
was never dominated by the walk; the walker wins otherwise.  The probe
vertex is typical when the walker has a winning strategy, and atypical
otherwise; vertices inside the radius-4 ball of v are exempt from the
classification.

The solver is exact minimax.  Legal moves and both win conditions at a
state depend only on the dominated-set bits and the current vertex, so
verdicts memoize on that pair.  The reachable states are not few: H(3k)
has about 3^k induced paths from v.  A solve stays small because a node
stops at its first winning move (walker) or first losing one (blocker),
and twins lead to memoized states.

Atypical sets: a verdict depends only on (g, v, ball(g, w, 4)), and
twin probes share that zone, so `atypical_set` solves once per distinct
zone, with a fresh memo, and reads only the root verdict.

Also here: the search for the local three-cluster pattern around a
vertex (its own 3-set sandwiched by two non-adjacent 3-sets whose cross
pairs share exactly that 3-set as common neighborhood), which is the
structural fingerprint typicality forces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, InputError, ball, bits_of, distance, is_connected, mask_of, vertices_of

WINNER_BUILDER = "Builder"
WINNER_ADVERSARY = "Adversary"
REASON_BAD_VERTEX = "bad-vertex-in-N4"
REASON_UNSEEN_VERTEX = "unseen-vertex-at-termination"


# ======================================================================
# game states
# ======================================================================


@dataclass(frozen=True)
class GameState:
    """A position: the walk so far and the set it dominates.

    seen holds the closed neighborhood of all chosen vertices except the
    current one; the current vertex's own neighborhood joins the set
    only when the walk moves on.  The chosen sequence always induces a
    path (each move is adjacent to the previous vertex and outside the
    closed neighborhood of everything before it)."""

    current: int
    chosen: tuple[int, ...]
    seen: int

    def __post_init__(self):
        if not self.chosen or self.chosen[-1] != self.current:
            raise InputError("current must be the last chosen vertex")

    @classmethod
    def start(cls, g: Graph, v: int) -> "GameState":
        _check_vertex(g, v)
        return cls(current=v, chosen=(v,), seen=0)


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n={g.n}")


def legal_moves(g: Graph, state: GameState) -> int:
    """Mask of neighbors of the current vertex not dominated by the
    earlier path.  Zero means the walk has terminated."""
    _check_vertex(g, state.current)
    return g.adj[state.current] & ~state.seen


def is_bad(g: Graph, state: GameState, u: int) -> bool:
    """Whether u, the vertex just chosen, fails the exactly-3-unseen-
    neighbors test.  The first vertex compares against an empty path, so
    its whole neighborhood counts as unseen."""
    if u != state.current:
        raise InputError(f"badness is defined at the current vertex, not {u}")
    return (g.adj[u] & ~state.seen).bit_count() != 3


def apply_move(g: Graph, state: GameState, u: int) -> GameState:
    moves = legal_moves(g, state)
    if not (moves >> u) & 1:
        raise InputError(f"vertex {u} is not a legal move from {state.current}")
    return GameState(
        current=u,
        chosen=state.chosen + (u,),
        seen=state.seen | g.adj[state.current] | (1 << state.current),
    )


# ======================================================================
# the solver
# ======================================================================


@dataclass(frozen=True)
class GameVerdict:
    """Outcome with one optimal play line; reason set exactly for
    blocker wins."""

    winner: str
    trace: tuple[int, ...]
    reason: str | None

    def __post_init__(self):
        if (self.winner == WINNER_ADVERSARY) != (self.reason is not None):
            raise InputError("reason must be present exactly for Adversary wins")

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "trace": list(self.trace),
            "reason": self.reason,
        }


def _check_game_input(g: Graph, v: int, w: int) -> int:
    _check_vertex(g, v)
    _check_vertex(g, w)
    if not is_connected(g):
        raise InputError("the game needs a connected graph")
    if (ball(g, v, 4) >> w) & 1:
        raise InputError(
            f"w={w} must lie outside the radius-4 ball of v={v}: "
            f"distance is {distance(g, v, w)}"
        )
    return ball(g, w, 4)


def _builder_wins(adj: tuple[int, ...], n4w: int, memo: dict, seen: int, cur: int) -> bool:
    """Whether the walker wins from (seen, cur) against the zone n4w.
    Depth-first over the moves in ascending order with an explicit
    stack, so the walk length is no limit.  The open node is (key, its
    grown seen set, moves not yet tried, in_zone); a blocker's node
    (in_zone) falls at its first losing child, a walker's node stands at
    its first winning one, and otherwise it takes the value of its last
    child.  memo maps (seen, cur) to verdicts and is valid for one n4w."""
    stack = []
    key = grown = todo = zone = None
    while True:
        moves = adj[cur] & ~seen
        in_zone = (n4w >> cur) & 1
        if in_zone and moves.bit_count() != 3:
            win = False
        elif not moves:
            win = not (n4w & ~(seen | adj[cur] | (1 << cur)))
        else:
            win = memo.get((seen, cur))
            if win is None:
                if key is not None:
                    stack.append((key, grown, todo, zone))
                key, grown, todo, zone = (
                    (seen, cur), seen | adj[cur] | (1 << cur), moves, in_zone)
        while win is not None:
            if key is None:
                return win
            if win != zone or not todo:
                memo[key] = win
                key, grown, todo, zone = (
                    stack.pop() if stack else (None, None, None, None))
            else:
                win = None
        bit = todo & -todo
        todo ^= bit
        seen, cur = grown, bit.bit_length() - 1


def _solve(g: Graph, v: int, n4w: int) -> tuple[bool, tuple[int, ...], str | None]:
    adj = g.adj
    memo: dict[tuple[int, int], bool] = {}
    # one optimal line: each active player takes its first winning move
    seen, cur = 0, v
    trace = [v]
    reason = None
    while True:
        moves = adj[cur] & ~seen
        in_zone = (n4w >> cur) & 1
        if in_zone and moves.bit_count() != 3:
            reason = REASON_BAD_VERTEX
            break
        if not moves:
            dominated = seen | adj[cur] | (1 << cur)
            if n4w & ~dominated:
                reason = REASON_UNSEEN_VERTEX
            break
        grown = seen | adj[cur] | (1 << cur)
        want = not in_zone  # builder hunts wins, the blocker hunts losses
        pick = None
        for m in bits_of(moves):
            if _builder_wins(adj, n4w, memo, grown, m) == want:
                pick = m
                break
        if pick is None:
            pick = (moves & -moves).bit_length() - 1
        seen, cur = grown, pick
        trace.append(pick)
    return reason is None, tuple(trace), reason


def solve_typical_game(g: Graph, v: int, w: int) -> GameVerdict:
    """Exact verdict of the probe-w game started at v, with one optimal
    line of play.  Raises when w is within distance 4 of v or the graph
    is disconnected."""
    n4w = _check_game_input(g, v, w)
    builder, trace, reason = _solve(g, v, n4w)
    return GameVerdict(
        winner=WINNER_BUILDER if builder else WINNER_ADVERSARY,
        trace=trace,
        reason=reason,
    )


# ======================================================================
# atypical vertex reporting
# ======================================================================


@dataclass(frozen=True)
class AtypicalReport:
    """Partition of the vertices by game outcome from a fixed start:
    exempt vertices are those within distance 4 of the start, which the
    game never probes."""

    v: int
    atypical: tuple[int, ...]
    typical: tuple[int, ...]
    exempt: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "atypical": list(self.atypical),
            "typical": list(self.typical),
            "exempt": list(self.exempt),
        }


def atypical_set(g: Graph, v: int) -> AtypicalReport:
    """Classify every vertex outside the radius-4 ball of v by solving
    the game once per distinct probe zone, reading the root verdict
    only."""
    _check_vertex(g, v)
    if not is_connected(g):
        raise InputError("the game needs a connected graph")
    exempt_mask = ball(g, v, 4)
    probes = vertices_of(g.full_mask() & ~exempt_mask)
    zones = {w: ball(g, w, 4) for w in probes}
    builder = {z: _builder_wins(g.adj, z, {}, 0, v) for z in set(zones.values())}
    return AtypicalReport(
        v=v,
        atypical=tuple(w for w in probes if not builder[zones[w]]),
        typical=tuple(w for w in probes if builder[zones[w]]),
        exempt=vertices_of(exempt_mask),
    )


# ======================================================================
# local structure around a vertex
# ======================================================================


def local_structure(g: Graph, z: int) -> dict[str, tuple[int, ...]] | None:
    """First triple of disjoint 3-sets (V, Z, W) with z in Z such that
    every cross pair from V and W has common neighborhood exactly Z,
    every Z-vertex's neighborhood is sandwiched between V + W and
    V + W + Z, and V has no edges to W.  None when no such pattern
    exists.  Candidates are scanned in ascending vertex order, with V
    the side holding the lowest vertex, so the result is canonical."""
    _check_vertex(g, z)
    full = g.full_mask()
    others = [x for x in range(g.n) if x != z]
    for z2, z3 in itertools.combinations(others, 2):
        zmask = (1 << z) | (1 << z2) | (1 << z3)
        outside = 0
        common = full
        for zi in (z, z2, z3):
            outside |= g.adj[zi] & ~zmask
            common &= g.adj[zi]
        if outside.bit_count() != 6 or outside & ~common:
            continue
        six = vertices_of(outside)
        for trio in itertools.combinations(six[1:], 2):
            vmask = mask_of((six[0],) + trio)
            wmask = outside & ~vmask
            if _sides_ok(g, vmask, wmask, zmask):
                return {
                    "V": vertices_of(vmask),
                    "Z": vertices_of(zmask),
                    "W": vertices_of(wmask),
                }
    return None


def _sides_ok(g: Graph, vmask: int, wmask: int, zmask: int) -> bool:
    for a in bits_of(vmask):
        if g.adj[a] & wmask:
            return False
        for b in bits_of(wmask):
            if g.adj[a] & g.adj[b] != zmask:
                return False
    return True
