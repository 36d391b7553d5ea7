"""Exact counts of induced cycles and induced x-y paths.

Cycle search.  Every chordless cycle has a unique *anchor* (its lowest
vertex id) and a unique orientation (the anchor's smaller cycle-neighbor
comes first), so enumerating, per anchor a, the induced paths that start
at a neighbor u1 of a, stay above a, avoid N[a], and finally close at a
neighbor z of a with z > u1, visits each induced cycle exactly once.  The
"avoid N[a]" rule makes a-chords impossible; ordinary chords are excluded
by keeping a running closed-neighborhood mask `blocked` of the path.  A
branch dies once every closing vertex is blocked.

Path search.  Induced x-y paths grow from x the same way, with y the only
closing vertex: a branch dies as soon as y falls inside the path's closed
neighborhood.  If xy is an edge, the single-edge path is the only induced
x-y path (anything longer has the chord xy).

Memo.  Within one search (one (a, u1) root, one x-y pair), let blocked be
the closed neighborhood of the path before its endpoint cur (cur lies in
it) and cands = adj[cur] & ~blocked the endpoint's usable neighbors, both
restricted to the vertices the search may use.  What can still happen below the path depends on
(cands, blocked) alone: the next blocked mask is blocked | cands, the
closures are cands & close, and each child z starts from adj[z] & ~that.
So the subtree below a state is cached under that key.  Twins share an
entry: false twins have equal adjacency, and true twins, each inside the
other's cands, are both blocked below the parent, so either way their
states get equal keys.  Plain (adj[cur], blocked) would miss true twins.
In a braid every cluster is a module of twins, which is why the ~3^(n/3)
objects of H_n or of a path braid fold into a polynomial number of states.

Packed histogram.  A cached value is the subtree's count per length, packed
into one int with one field of n + 1 bits per length (no count reaches
2^(n+1)): adding two histograms is an int add and one step deeper is a
shift.  Each value is kept as (base, packed) with the lowest field of
packed non-zero, so its size follows the spread of lengths and not the
depth (a long path would otherwise store O(n^2) bits per entry).  Leaves,
whose only contribution is their closure count, are folded into their
parent and never stored.  The search is iterative, so depth is no limit.

Per-vertex counts.  One root's memo is a DAG of states, each holding the
histogram B of the completions below it.  A forward pass walks the states
in order of blocked size, which is topological (a child's blocked mask
strictly contains its parent's), recomputing each state's children from
its key, and sums into every state the histogram F of the depths at which
the root's paths reach it.  The edge from state P through vertex z into
state C then carries (F[P] << width) * B[C] cycles through z, by length:
packed histograms multiply as polynomials in 2^width (a Kronecker
substitution), and every field of the product counts distinct cycles, so
stays below 2^(n+1) and never carries into the next.  A closing vertex
takes F one step on, summed per closing set before it is handed out; the
anchor takes the root's total.  Twins share states here as in the fold,
so a braid still costs polynomially many.  A state's entry is dropped once
it is expanded: every edge into it comes from a smaller blocked mask.
Each vertex's credits are kept as (base, packed) like the memo's values,
so a long cycle does not cost O(n^2) bits per vertex.

count_cycles_through(g, v) is a second route: one fold per neighbour u1
of v, with no anchor order (every vertex but v may be used) and closure
only at neighbours of v above u1.  It shares the fold but not the forward
pass.  visit_induced_cycles walks every cycle with the plain search; that
walk and slow_census share nothing with the memo.  With the second route
and the identity sum_v f_v(L) = L c_L, checked on every call of
cycles_per_vertex, they are the checks on the memo and the forward pass.

Path-tree statistics.  The x-y path tree is the rooted tree whose nodes
are the growing induced paths, except that a node whose endpoint is
adjacent to y has exactly one child, y itself.  We never materialize it.
Leaf counts, the sibling-balance flag and the set of child-count multisets
along root-to-leaf paths (the forced unary y-step excluded) are cached per
(cands, blocked) the same way; a node's value holds the multisets of its
root-to-leaf suffixes, each packed as an int of per-child-count fields.

slow_census is the independent oracle.  It decides vertices 0..n-1 in
order and drops a branch once a chosen vertex has three chosen neighbours,
or too few undecided ones left to reach two.  So every vertex set that
survives induces a 2-regular graph, and it is one induced cycle when it
is connected.  It shares no traversal logic with the fast engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, InputError, InternalError, UnsupportedError, bits_of
from .graphs import _check_vertex, _layers

# defined in graphs, which the CLI parser loads, and re-exported here
from .graphs import CYCLE_QUANTITIES, PATH_QUANTITIES, QUANTITIES  # noqa: F401

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
# the memoized path fold (cycle and path counts)
# ======================================================================


def _fold(adj, above: int, stop: int, close: int, start: int, blocked: int,
          width: int, memo: dict) -> tuple[int, int]:
    """Packed length histogram of the induced paths that grow from start
    inside `above` and end at a vertex of `close`.  `blocked` holds the
    vertices of `above` the path up to start may no longer use (start
    included).  A vertex of `stop` is never passed through.

    Returns (base, packed): field k of packed << (width * base) counts the
    completions whose closing vertex lies k steps beyond the vertex
    before start.  Every state expanded is left in memo, keyed
    (cands, blocked), with its histogram as (base, packed).
    """
    stack = []
    # the current frame: memo key, blocked below it, children left, and
    # its histogram as (base, packed); the first frame stands for the
    # vertex before start
    key, nb, todo, base, acc = None, blocked, 1 << start, 0, 0
    while True:
        if todo:
            bit = todo & -todo
            todo ^= bit
            cands = adj[bit.bit_length() - 1] & above & ~nb
            below = nb | cands
            closed = (cands & close).bit_count()
            # once every closing vertex is blocked, no extension can close
            ext = cands & ~stop if close & ~below else 0
            if not ext:
                if not closed:
                    continue
                off, val = 2, closed
            else:
                child = (cands, nb)
                hit = memo.get(child)
                if hit is None:
                    stack.append((key, nb, todo, base, acc))
                    key, nb, todo = child, below, ext
                    base, acc = (1, closed) if closed else (0, 0)
                    continue
                off, val = hit
                if not val:
                    continue
                off += 1
        else:
            if not stack:
                return base, acc
            memo[key] = (base, acc)
            off, val = base + 1, acc
            key, nb, todo, base, acc = stack.pop()
            if not val:
                continue
        # add val at offset off, keeping the lowest field of acc non-zero
        # so that no value grows with the depth of the path
        if not acc:
            base, acc = off, val
        elif off >= base:
            acc += val << (width * (off - base))
        else:
            acc = (acc << (width * (base - off))) + val
            base = off


def _unpack(packed: int, width: int, shift: int) -> dict[int, int]:
    """{k + shift: field k} over the non-zero fields of a packed histogram."""
    out: dict[int, int] = {}
    if not packed:
        return out
    k = ((packed & -packed).bit_length() - 1) // width
    packed >>= width * k
    mask = (1 << width) - 1
    while packed:
        count = packed & mask
        if count:
            out[k + shift] = count
        packed >>= width
        k += 1
    return out


def _add(hist: tuple[int, int], off: int, val: int, width: int) -> tuple[int, int]:
    """The (base, packed) histogram hist plus val shifted by off fields,
    with the lowest field of packed kept non-zero."""
    base, acc = hist
    if not acc:
        return off, val
    if off >= base:
        return base, acc + (val << (width * (off - base)))
    return off, (acc << (width * (base - off))) + val


# ======================================================================
# induced cycles
# ======================================================================


def _cycles_through(adj, v: int, above: int, width: int,
                    credit: tuple[list[int], list[int]] | None = None) -> int:
    """Packed histogram of the induced cycles through v inside above + v,
    each once: field k counts those whose closing vertex lies k steps
    beyond v, so they have k + 1 vertices.  If credit is a pair of lists
    (bases, packs), the (bases[u], packs[u]) histogram of every vertex u
    also gains these cycles that pass through u."""
    adj_v = adj[v]
    total = 0
    for u1 in bits_of(adj_v & above):
        # a cycle leaves v through u1 and returns through a higher
        # neighbour, which fixes its orientation
        close = adj_v & (-1 << (u1 + 1))
        if close:
            memo: dict[tuple[int, int], tuple[int, ...]] = {}
            base, packed = _fold(adj, above, adj_v, close, u1, 1 << u1, width, memo)
            if packed and credit is not None:
                bases, packs = credit
                bases[v], packs[v] = _add((bases[v], packs[v]), base, packed, width)
                _forward(adj, above, adj_v, close, u1, width, memo, bases, packs)
            total += packed << (width * base)
    return total


def _forward(adj, above: int, stop: int, close: int, start: int, width: int,
             memo: dict, bases: list[int], packs: list[int]) -> None:
    """Credit every vertex but the anchor on the paths of one fold from
    start with the cycles through it (see "Per-vertex counts" above).

    Consumes the fold's memo: a state reached here has its entry
    extended from (base, packed) to (base, packed, pbase, prefix), where
    field j of prefix counts the paths that reach the state with their
    endpoint j + pbase steps beyond the anchor, and it is deleted once
    expanded."""
    # the reached states by the size of their blocked mask
    levels: list[list[tuple[int, int]]] = [[] for _ in range(above.bit_count() + 1)]
    # closing set -> histogram of the depths of the endpoints next to it
    shut_at: dict[int, tuple[int, int]] = {}
    # the first state is the anchor at depth 0, with start its one child
    below = ext = 1 << start
    base, acc = 0, 1
    level = 0
    while True:
        step = base + 1
        later = levels[below.bit_count()]
        while ext:
            bit = ext & -ext
            ext ^= bit
            z = bit.bit_length() - 1
            cands = adj[z] & above & ~below
            shut = cands & close
            if cands & ~stop and close & ~(below | cands):
                child = (cands, below)
                hist = memo[child]
                off, val = hist[0], hist[1]
                if not val:
                    continue
                # sum the prefixes of all edges into the state, twins too
                if len(hist) == 2:
                    memo[child] = (off, val, step, acc)
                    later.append(child)
                else:
                    memo[child] = (off, val) + _add(hist[2:], step, acc, width)
            elif shut:
                # a leaf: its closures are all it has
                off, val = 1, shut.bit_count()
                shut_at[shut] = _add(shut_at.get(shut, (0, 0)), step, acc, width)
            else:
                continue
            # the paths into z times the completions below it; every field
            # of the product counts distinct cycles, so none overflows
            # (inlined _add: this is the hot path)
            off += step
            shift = off - bases[z]
            if shift >= 0:
                packs[z] += (acc * val) << (width * shift)
            else:
                packs[z] = (packs[z] << (width * -shift)) + acc * val
                bases[z] = off
        # the next state in order of blocked size, which is topological:
        # a child's blocked mask strictly contains its parent's
        while not levels[level]:
            level += 1
            if level == len(levels):
                for shut, (base, acc) in shut_at.items():
                    for c in bits_of(shut):
                        bases[c], packs[c] = _add((bases[c], packs[c]), base + 1, acc, width)
                return
        key = levels[level].pop()
        _, _, base, acc = memo.pop(key)
        cands, blocked = key
        below = blocked | cands
        ext = cands & ~stop
        shut = cands & close
        if shut:
            shut_at[shut] = _add(shut_at.get(shut, (0, 0)), base, acc, width)


def count_induced_cycles(g: Graph) -> CycleCensus:
    """Exact census of induced cycles (triangles included)."""
    width = g.n + 1
    total = 0
    for a in range(g.n):
        total += _cycles_through(g.adj, a, g.full_mask() & (-1 << (a + 1)), width)
    # k steps from the anchor to the closing vertex make a (k + 1)-cycle
    return CycleCensus(_unpack(total, width, 1))


def _scan_root(g: Graph, a: int, u1: int, visit) -> None:
    """Plain DFS from one (anchor, first-neighbor) root, calling
    visit(vertex_mask, length) at every closure."""
    adj = g.adj
    above = (-1 << (a + 1)) & g.full_mask()
    adj_a = adj[a]

    # Iterative DFS over (cur, blocked, depth, mask); blocked is the
    # closed neighborhood of the path vertices before cur.
    stack = [(u1, 0, 1, (1 << a) | (1 << u1))]
    above_u1 = (-1 << (u1 + 1)) & g.full_mask()
    while stack:
        cur, blocked, depth, mask = stack.pop()
        cands = adj[cur] & above & ~blocked
        for z in bits_of(cands & adj_a & above_u1):
            visit(mask | (1 << z), depth + 2)
        new_blocked = blocked | adj[cur] | (1 << cur)
        for z in bits_of(cands & ~adj_a):
            stack.append((z, new_blocked, depth + 1, mask | (1 << z)))


def visit_induced_cycles(g: Graph, visit) -> None:
    """Call visit(vertex_mask, length) once per induced cycle."""
    for a in range(g.n):
        for u1 in bits_of(g.adj[a] & (-1 << (a + 1))):
            _scan_root(g, a, u1, visit)


def count_cycles_through(g: Graph, v: int) -> CycleCensus:
    """Census restricted to induced cycles containing v: one fold per
    neighbour of v, with every other vertex allowed on the cycle."""
    _check_vertex(g, v)
    width = g.n + 1
    return CycleCensus(_unpack(
        _cycles_through(g.adj, v, g.full_mask() & ~(1 << v), width), width, 1))


def cycles_per_vertex(g: Graph) -> list[CycleCensus]:
    """Entry v is the census of the induced cycles through v.  One fold
    and one forward pass per root; raises InternalError unless every
    length L has sum_v f_v(L) = L c_L."""
    width = g.n + 1
    # per vertex a (base, packed) histogram by the depth of the closing
    # vertex; an empty one has base width, above every real offset
    bases, packs = [width] * g.n, [0] * g.n
    total = 0
    for a in range(g.n):
        above = g.full_mask() & (-1 << (a + 1))
        total += _cycles_through(g.adj, a, above, width, (bases, packs))
    tables = [_unpack(packed, width, base + 1) for base, packed in zip(bases, packs)]
    # an L-cycle is credited once to each of its L vertices
    weighted: dict[int, int] = {}
    for t in tables:
        for length, count in t.items():
            weighted[length] = weighted.get(length, 0) + count
    census = _unpack(total, width, 1)
    if weighted != {length: length * c for length, c in census.items()}:
        raise InternalError(f"per-vertex credits {weighted} do not sum to "
                            f"length times the census {census}")
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
    ybit = 1 << y
    if g.adj[x] & ybit:
        # the edge is the unique induced x-y path: anything longer
        # carries xy as a chord
        return PathCensus({1: 1})
    width = g.n + 1
    base, packed = _fold(g.adj, g.full_mask(), ybit, ybit, x, 1 << x, width, {})
    # k steps from the vertex before x to y make a path of k - 1 edges
    return PathCensus(_unpack(packed << (width * base), width, -1))


def p2_max(g: Graph, parity: str = "all") -> tuple[int, tuple[int, int]]:
    """Maximum of the requested path count over unordered vertex pairs,
    with the lexicographically first maximizing pair."""
    if g.n < 2:
        raise InputError(f"p2_max needs n >= 2, got {g.n}")
    field = {"all": "p2", "odd": "p2_odd", "even": "p2_even"}.get(parity)
    if field is None:
        raise InputError(f"parity must be all|odd|even, got {parity!r}")
    best = -1
    best_pair = (0, 1)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            val = getattr(count_induced_st_paths(g, x, y), field)
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
    width = g.n.bit_length()
    memo: dict[tuple[int, int], tuple[int, int, set[int], bool]] = {}
    stack = []
    # the current frame: memo key, blocked below it, children left, its
    # child count as a packed multiset, then its running statistics:
    # leaves, y-leaves, the first child's y-leaves, balanced, and the
    # packed child-count multisets of its root-to-leaf suffixes.  The
    # first frame stands for the vertex before x and counts nothing.
    key, nb, todo, step = None, 1 << x, 1 << x, 0
    leaves, y_leaves, first, balanced, suffixes = 0, 0, -1, True, set()
    while True:
        if todo:
            bit = todo & -todo
            todo ^= bit
            z = bit.bit_length() - 1
            cands = adj[z] & ~nb
            if adj[z] & ybit or not cands:
                # a y-leaf (z's unique child is y; that forced step is not
                # recorded in the multiset) or a dead end
                sub = (1, 1 if adj[z] & ybit else 0, None, True)
            else:
                child = (cands, nb)
                sub = memo.get(child)
                if sub is None:
                    stack.append((key, nb, todo, step, leaves, y_leaves, first,
                                  balanced, suffixes))
                    key, nb, todo = child, nb | cands, cands
                    step = 1 << (width * cands.bit_count())
                    leaves, y_leaves, first, balanced, suffixes = 0, 0, -1, True, set()
                    continue
        else:
            if not stack:
                break
            sub = memo[key] = (leaves, y_leaves, suffixes, balanced)
            (key, nb, todo, step, leaves, y_leaves, first, balanced,
             suffixes) = stack.pop()
        sub_leaves, sub_y, sub_suffixes, sub_balanced = sub
        leaves += sub_leaves
        y_leaves += sub_y
        # balanced: every node's children carry equal y-leaf counts
        if first < 0:
            first = sub_y
        elif first != sub_y:
            balanced = False
        balanced = balanced and sub_balanced
        if sub_suffixes is None:
            suffixes.add(step)
        else:
            suffixes.update(m + step for m in sub_suffixes)
    multisets = frozenset(
        tuple(d for d, count in _unpack(packed, width, 0).items() for _ in range(count))
        for packed in suffixes
    )
    return TreeStats(leaves, y_leaves, multisets, balanced)


# ======================================================================
# independent subset oracle
# ======================================================================


def slow_census(g: Graph) -> CycleCensus:
    """Subset-scan oracle: every vertex subset inducing a connected
    2-regular graph is one induced cycle.  Exponential; n <= 24 only."""
    n = g.n
    if n > SLOW_CENSUS_MAX_N:
        raise UnsupportedError(f"slow_census supports n <= {SLOW_CENSUS_MAX_N}")
    adj = g.adj
    by_length: dict[int, int] = {}
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == n:
            # every chosen vertex has exactly two chosen neighbours
            low = (chosen & -chosen).bit_length() - 1
            if chosen and sum(_layers(adj, low, chosen)) == chosen:
                length = chosen.bit_count()
                by_length[length] = by_length.get(length, 0) + 1
            continue
        # deciding i changes the counts of i and its chosen neighbours
        # only: taking i gives each one more chosen neighbour, leaving it
        # out takes one of their undecided ones
        undecided = -1 << (i + 1)
        nbrs = adj[i] & chosen
        have = nbrs.bit_count()
        take = have <= 2 and have + (adj[i] & undecided).bit_count() >= 2
        leave = True
        while nbrs and (take or leave):
            low = nbrs & -nbrs
            nbrs ^= low
            a = adj[low.bit_length() - 1]
            have = (a & chosen).bit_count()
            take = take and have < 2
            leave = leave and have + (a & undecided).bit_count() >= 2
        if leave:
            stack.append((i + 1, chosen))
        if take:
            stack.append((i + 1, chosen | 1 << i))
    return CycleCensus(by_length)
