"""Exact enumeration of induced cycles and induced s-t paths.

Cycle engine.  Every chordless cycle has a unique *anchor* (its lowest
vertex id) and a unique orientation (the anchor's smaller cycle-neighbor
comes first), so enumerating, per anchor a, the induced paths that start
at a neighbor u1 of a, stay above a, avoid N[a], and finally close at a
neighbor z of a with z > u1, visits each induced cycle exactly once.  The
"avoid N[a]" rule makes a-chords impossible; ordinary chords are excluded
by keeping a running closed-neighborhood mask of the path interior.  All
of this is integer mask algebra: one AND per candidate set, popcounts for
batch closure counting.

Path engine.  Induced x-y paths grow from x the same way; a branch dies
as soon as y falls inside the interior's closed neighborhood (no
completion can then reach y without a chord), which is the whole pruning
story.  If xy is an edge, the single-edge path is the only induced x-y
path (anything longer has the chord xy).

Path-tree statistics.  The x-y path tree is the rooted tree whose nodes
are the growing induced paths, except that a node whose endpoint is
adjacent to y has exactly one child, y itself.  We never materialize it;
leaf counts, per-root-to-leaf child-count multisets (the forced unary
y-step excluded), and the sibling-balance flag fall out of one recursion.

slow_census is the independent oracle: scan all 2^n vertex subsets with
numpy, keep those inducing a 2-regular graph, and confirm connectivity
per candidate.  It shares no traversal logic with the fast engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, InputError, UnsupportedError, bits_of

SLOW_CENSUS_MAX_N = 24


# ======================================================================
# result types
# ======================================================================


def _check_counts(by_length: dict[int, int], min_key: int, kind: str) -> None:
    for length, count in by_length.items():
        if length < min_key:
            raise InputError(f"{kind} length {length} below {min_key}")
        if count < 0:
            raise InputError(f"negative count at length {length}")


@dataclass(frozen=True)
class CycleCensus:
    """Induced cycle counts keyed by cycle length (vertex count >= 3)."""

    by_length: dict[int, int]

    def __post_init__(self):
        _check_counts(self.by_length, 3, "cycle")

    @property
    def f(self) -> int:
        return sum(self.by_length.values())

    @property
    def f_o(self) -> int:
        return sum(c for length, c in self.by_length.items() if length % 2 == 1)

    @property
    def f_e(self) -> int:
        return sum(c for length, c in self.by_length.items() if length % 2 == 0)

    @property
    def holes(self) -> int:
        return self.f - self.by_length.get(3, 0)

    @property
    def odd_holes(self) -> int:
        return self.f_o - self.by_length.get(3, 0)

    def to_json_dict(self, n: int | None = None) -> dict:
        out: dict = {}
        if n is not None:
            out["n"] = n
        out["by_length"] = {
            str(k): str(v) for k, v in sorted(self.by_length.items())
        }
        out["f"] = str(self.f)
        out["f_odd"] = str(self.f_o)
        out["f_even"] = str(self.f_e)
        out["holes"] = str(self.holes)
        out["odd_holes"] = str(self.odd_holes)
        return out


@dataclass(frozen=True)
class PathCensus:
    """Induced x-y path counts keyed by edge count (length >= 1).

    Parity is by vertex count: a path with L edges has L + 1 vertices, so
    the odd paths are exactly those with even L.
    """

    by_length: dict[int, int]

    def __post_init__(self):
        _check_counts(self.by_length, 1, "path")

    @property
    def p2(self) -> int:
        return sum(self.by_length.values())

    @property
    def p2_odd(self) -> int:
        return sum(c for length, c in self.by_length.items() if length % 2 == 0)

    @property
    def p2_even(self) -> int:
        return sum(c for length, c in self.by_length.items() if length % 2 == 1)

    def to_json_dict(self, x: int | None = None, y: int | None = None) -> dict:
        out: dict = {}
        if x is not None:
            out["x"], out["y"] = x, y
        out["by_length"] = {
            str(k): str(v) for k, v in sorted(self.by_length.items())
        }
        out["p2"] = str(self.p2)
        out["p2_odd"] = str(self.p2_odd)
        out["p2_even"] = str(self.p2_even)
        return out


@dataclass(frozen=True)
class TreeStats:
    """Shape summary of the x-y path tree.

    child_count_multisets: for every leaf, the sorted tuple of child
    counts along its root-to-leaf path, excluding the forced unary step
    into y; collected as a set.
    balanced: at every internal node with a positive y-leaf count, all
    children carry equal y-leaf counts.
    """

    leaf_count: int
    y_leaf_count: int
    child_count_multisets: frozenset[tuple[int, ...]]
    balanced: bool

    def __post_init__(self):
        if self.y_leaf_count > self.leaf_count:
            raise InputError("y-leaves cannot exceed total leaves")


# ======================================================================
# induced cycle enumeration
# ======================================================================


def _scan_roots(g: Graph, by_length: dict[int, int], visit) -> None:
    """Run the DFS from every (anchor, first-neighbor) root."""
    for a in range(g.n):
        for u1 in bits_of(g.adj[a] & (-1 << (a + 1))):
            _scan_root(g, a, u1, by_length, visit)


def _scan_root(g: Graph, a: int, u1: int, by_length: dict[int, int], visit) -> None:
    adj = g.adj
    above = (-1 << (a + 1)) & g.full_mask()
    adj_a = adj[a]
    base = 1 << a  # cycle mask accumulates only in visit mode

    # Iterative DFS over (cur, blocked, depth, mask); blocked is the
    # closed neighborhood of the path vertices before cur.
    stack = [(u1, 0, 1, base | (1 << u1))]
    above_u1 = (-1 << (u1 + 1)) & g.full_mask()
    while stack:
        cur, blocked, depth, mask = stack.pop()
        cands = adj[cur] & above & ~blocked
        closures = cands & adj_a & above_u1
        if closures:
            if visit is None:
                length = depth + 2
                by_length[length] = by_length.get(length, 0) + closures.bit_count()
            else:
                for z in bits_of(closures):
                    visit(mask | (1 << z), depth + 2)
        new_blocked = blocked | adj[cur] | (1 << cur)
        for z in bits_of(cands & ~adj_a):
            stack.append((z, new_blocked, depth + 1, mask | (1 << z)))


def count_induced_cycles(g: Graph) -> CycleCensus:
    """Exact census of induced cycles (triangles included)."""
    by_length: dict[int, int] = {}
    _scan_roots(g, by_length, None)
    return CycleCensus(by_length)


def visit_induced_cycles(g: Graph, visit) -> None:
    """Call visit(vertex_mask, length) once per induced cycle."""
    _scan_roots(g, {}, visit)


def count_cycles_through(g: Graph, v: int) -> CycleCensus:
    """Census restricted to induced cycles containing v."""
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n={g.n}")
    bit = 1 << v
    by_length: dict[int, int] = {}

    def visit(mask, length):
        if mask & bit:
            by_length[length] = by_length.get(length, 0) + 1

    visit_induced_cycles(g, visit)
    return CycleCensus(by_length)


def cycles_per_vertex(g: Graph) -> list[CycleCensus]:
    """All per-vertex restrictions in one sweep (bulk count_cycles_through)."""
    tables: list[dict[int, int]] = [{} for _ in range(g.n)]

    def visit(mask, length):
        for v in bits_of(mask):
            t = tables[v]
            t[length] = t.get(length, 0) + 1

    visit_induced_cycles(g, visit)
    return [CycleCensus(t) for t in tables]


# ======================================================================
# induced x-y paths
# ======================================================================


def _check_pair(g: Graph, x: int, y: int) -> None:
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise InputError(f"pair ({x},{y}) out of range for n={g.n}")
    if x == y:
        raise InputError(f"endpoints must differ, got x = y = {x}")


def count_induced_st_paths(g: Graph, x: int, y: int) -> PathCensus:
    """Exact census of induced paths with endpoint set {x, y}."""
    _check_pair(g, x, y)
    adj = g.adj
    ybit = 1 << y
    if adj[x] & ybit:
        # the edge is the unique induced x-y path: anything longer
        # carries xy as a chord
        return PathCensus({1: 1})
    by_length: dict[int, int] = {}
    stack = [(x, 1 << x, 0)]
    while stack:
        cur, blocked, depth = stack.pop()
        cands = adj[cur] & ~blocked
        if cands & ybit:
            by_length[depth + 1] = by_length.get(depth + 1, 0) + 1
        new_blocked = blocked | adj[cur] | (1 << cur)
        if new_blocked & ybit:
            continue  # y swallowed: no extension can ever close
        for z in bits_of(cands & ~ybit):
            stack.append((z, new_blocked, depth + 1))
    return PathCensus(by_length)


def p2_max(g: Graph, parity: str = "all") -> tuple[int, tuple[int, int]]:
    """Maximum of the requested path count over unordered vertex pairs,
    with the lexicographically first maximizing pair."""
    if g.n < 2:
        raise InputError(f"p2_max needs n >= 2, got {g.n}")
    if parity not in ("all", "odd", "even"):
        raise InputError(f"parity must be all|odd|even, got {parity!r}")
    best = -1
    best_pair = (0, 1)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            pc = count_induced_st_paths(g, x, y)
            val = {"all": pc.p2, "odd": pc.p2_odd, "even": pc.p2_even}[parity]
            if val > best:
                best, best_pair = val, (x, y)
    return best, best_pair


# ======================================================================
# path-tree statistics
# ======================================================================


def path_tree_stats(g: Graph, x: int, y: int) -> TreeStats:
    """Statistics of the x-y path tree (see module docstring)."""
    _check_pair(g, x, y)
    adj = g.adj
    ybit = 1 << y
    multisets: set[tuple[int, ...]] = set()
    balanced = True

    # returns (leaf_count, y_leaf_count) of the subtree at (cur, blocked)
    def walk(cur: int, blocked: int, acc: tuple[int, ...]) -> tuple[int, int]:
        nonlocal balanced
        if adj[cur] & ybit:
            # unique child y, a y-leaf; the forced unary step is not
            # recorded in the path's child-count multiset
            multisets.add(tuple(sorted(acc)))
            return 1, 1
        cands = adj[cur] & ~blocked
        if not cands:
            multisets.add(tuple(sorted(acc)))
            return 1, 0
        d = cands.bit_count()
        new_blocked = blocked | adj[cur] | (1 << cur)
        acc_d = acc + (d,)
        leaves = 0
        y_counts = []
        for z in bits_of(cands):
            l, ly = walk(z, new_blocked, acc_d)
            leaves += l
            y_counts.append(ly)
        total_y = sum(y_counts)
        if total_y > 0 and len(set(y_counts)) > 1:
            balanced = False
        return leaves, total_y

    leaf_count, y_leaf_count = walk(x, 1 << x, ())
    return TreeStats(leaf_count, y_leaf_count, frozenset(multisets), balanced)


# ======================================================================
# independent subset oracle
# ======================================================================

_POP16 = None


def _pop16():
    global _POP16
    if _POP16 is None:
        table = np.zeros(1 << 16, dtype=np.uint8)
        for b in range(16):
            table[(np.arange(1 << 16) >> b) & 1 == 1] += 1
        _POP16 = table
    return _POP16


def _is_single_cycle(g: Graph, mask: int) -> bool:
    """mask already induces a 2-regular graph; true iff it is connected."""
    start = (mask & -mask).bit_length() - 1
    prev, cur = -1, start
    steps = 0
    size = mask.bit_count()
    while steps < size:
        nxt_mask = g.adj[cur] & mask
        if prev >= 0:
            nxt_mask &= ~(1 << prev)
        nxt = (nxt_mask & -nxt_mask).bit_length() - 1
        prev, cur = cur, nxt
        steps += 1
        if cur == start:
            return steps == size
    return False


def slow_census(g: Graph, chunk_bits: int = 20) -> CycleCensus:
    """Subset-scan oracle: every vertex subset inducing a connected
    2-regular graph is one induced cycle.  Exponential; n <= 24 only."""
    n = g.n
    if n > SLOW_CENSUS_MAX_N:
        raise UnsupportedError(f"slow_census supports n <= {SLOW_CENSUS_MAX_N}")
    pop = _pop16()
    by_length: dict[int, int] = {}
    adj32 = [np.uint32(a) for a in g.adj]
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    for lo in range(0, total, step):
        arr = np.arange(lo, min(lo + step, total), dtype=np.uint32)
        ok = np.ones(arr.shape, dtype=bool)
        size = pop[arr & np.uint32(0xFFFF)].astype(np.uint8) + pop[arr >> np.uint32(16)]
        ok &= size >= 3
        for v in range(n):
            if not ok.any():
                break
            member = (arr >> np.uint32(v)) & np.uint32(1)
            inter = arr & adj32[v]
            deg = pop[inter & np.uint32(0xFFFF)] + pop[inter >> np.uint32(16)]
            ok &= (member == 0) | (deg == 2)
        for code in arr[ok]:
            mask = int(code)
            if _is_single_cycle(g, mask):
                length = mask.bit_count()
                by_length[length] = by_length.get(length, 0) + 1
    return CycleCensus(by_length)
