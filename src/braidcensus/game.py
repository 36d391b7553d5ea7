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
twin probes share that zone.  `atypical_set` decides every distinct
zone in one search whose value at a state is a bitmask over the zones
(`_builder_wins`), with one memo on (seen, cur) for all of them, so the
walk from v that the zones' games share is expanded once.  The balls
come from squaring closed neighborhoods twice.

Also here: the search for the local three-cluster pattern around a
vertex (its own 3-set sandwiched by two non-adjacent 3-sets whose cross
pairs share exactly that 3-set as common neighborhood), which is the
structural fingerprint typicality forces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, InputError, ball, bits_of, distance, is_connected, mask_of, vertices_of
from .graphs import _check_vertex

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
    _check_vertex(g, u)
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
    if (d := distance(g, v, w)) <= 4:
        raise InputError(f"w={w} must lie outside the radius-4 ball of v={v}: "
                         f"distance is {d}")
    return ball(g, w, 4)


def _holding(zones: tuple[int, ...]) -> dict[int, int]:
    """Vertex -> mask of the zones that hold it."""
    holding: dict[int, int] = {}
    for j, zone in enumerate(zones):
        for x in bits_of(zone):
            holding[x] = holding.get(x, 0) | 1 << j
    return holding


def _builder_wins(adj: tuple[int, ...], zones: tuple[int, ...], memo: dict,
                  seen: int, cur: int, holding: dict[int, int] | None = None) -> int:
    """Mask of the zones the walker beats from (seen, cur): bit j is set
    when the walker wins the game against the probe zone zones[j].

    One search serves every zone.  At a node the blocker moves for the
    zones that hold cur: the bad-vertex rule clears their bits, and the
    rest take the AND of the children.  The walker moves for the other
    zones, which take the OR.  A leaf sets bit j iff zones[j] is
    dominated.  A node stops as soon as no AND bit is left set and every
    OR bit is set; otherwise its value is fixed after its last child.

    Depth-first over the moves in ascending order with an explicit
    stack, so the walk length is no limit.  The open node is (key, its
    grown seen set, moves not yet tried, its OR bits, its open bits):
    an open bit is an AND bit still set or an OR bit still clear, so
    the node stops when none is left.  memo maps (seen, cur) to masks
    and is valid for one zones tuple; holding is _holding(zones), which a
    caller that searches many times passes in to build it once."""
    every = (1 << len(zones)) - 1
    if holding is None:
        holding = _holding(zones)
    stack = []
    key = grown = todo = ors = rest = None
    while True:
        moves = adj[cur] & ~seen
        if not moves:
            # the zones that hold cur lose to the bad-vertex rule
            win = 0
            undominated = ~(seen | adj[cur])
            for j, zone in enumerate(zones):
                if not (zone >> cur & 1 or zone & undominated):
                    win |= 1 << j
        else:
            win = memo.get((seen, cur))
            if win is None:
                inside = holding.get(cur, 0)
                live = every if moves.bit_count() == 3 else every ^ inside
                if live:
                    if key is not None:
                        stack.append((key, grown, todo, ors, rest))
                    key, grown, todo, ors, rest = (
                        (seen, cur), seen | adj[cur] | (1 << cur), moves, every ^ inside, live)
                else:
                    win = 0
        while win is not None:
            if key is None:
                return win
            rest &= win ^ ors
            if not rest or not todo:
                memo[key] = win = rest ^ ors
                key, grown, todo, ors, rest = (
                    stack.pop() if stack else (None, None, None, None, None))
            else:
                win = None
        bit = todo & -todo
        todo ^= bit
        seen, cur = grown, bit.bit_length() - 1


def _solve(g: Graph, v: int, n4w: int) -> tuple[bool, tuple[int, ...], str | None]:
    adj = g.adj
    zones = (n4w,)
    holding = _holding(zones)
    memo: dict[tuple[int, int], int] = {}
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
        want = 0 if in_zone else 1  # builder hunts wins, the blocker hunts losses
        pick = None
        for m in bits_of(moves):
            if _builder_wins(adj, zones, memo, grown, m, holding) == want:
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
    """Classify every vertex outside the radius-4 ball of v by one game
    search over the distinct probe zones, reading the root mask only."""
    _check_vertex(g, v)
    if not is_connected(g):
        raise InputError("the game needs a connected graph")
    # radius-4 balls by squaring closed neighborhoods: B2 = B1 B1, B4 = B2 B2
    b1 = [g.closed(x) for x in range(g.n)]
    b2 = _compose(b1, b1)
    b4 = _compose(b2, b2)
    exempt_mask = b4[v]
    probes = vertices_of(g.full_mask() & ~exempt_mask)
    zones = tuple(dict.fromkeys(b4[w] for w in probes))
    wins = _builder_wins(g.adj, zones, {}, 0, v)
    won = {zone for j, zone in enumerate(zones) if wins >> j & 1}
    return AtypicalReport(
        v=v,
        atypical=tuple(w for w in probes if b4[w] not in won),
        typical=tuple(w for w in probes if b4[w] in won),
        exempt=vertices_of(exempt_mask),
    )


def _compose(rows: list[int], masks: list[int]) -> list[int]:
    """For each mask, the union of rows[x] over its vertices x.  Each
    distinct mask is spread once, so twins share the work."""
    spread: dict[int, int] = {}
    for mask in set(masks):
        out = 0
        for x in bits_of(mask):
            out |= rows[x]
        spread[mask] = out
    return [spread[mask] for mask in masks]


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
