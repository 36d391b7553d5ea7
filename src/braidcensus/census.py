"""Exact counts of induced cycles and induced x-y paths.

Cycle search.  Every chordless cycle has a unique *anchor* (its lowest
vertex id) and a unique orientation: of the anchor's two cycle-neighbors,
the one with fewer neighbors above the anchor comes first (ties: the
smaller id).  So enumerating, per anchor a, the induced paths that start
at a neighbor u1 of a, stay above a, avoid N[a], and finally close at a
neighbor of a after u1 in that order visits each induced cycle exactly
once.  The "avoid N[a]" rule makes a-chords impossible; ordinary chords
are excluded by keeping a running closed-neighborhood mask `blocked` of
the path.  A branch dies once every closing vertex is blocked, sooner
for one with more neighbors, so the search starts at the thin end.

Path search.  Induced x-y paths grow from the endpoint of lower degree
(x on a tie; paths are undirected) the same way, with the other endpoint
the only closing vertex: a branch dies as soon as that endpoint falls
inside the path's closed neighborhood.  If xy is an edge, the single-edge path is
the only induced x-y path (anything longer has the chord xy).

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
histogram B of the completions below it.  Let F[P] be the histogram of
the depths at which the root's paths reach state P.  The edge from state
P through vertex z into state C then carries (F[P] << width) * B[C]
cycles through z, by length: packed histograms multiply as polynomials
in 2^width (a Kronecker substitution), and every field of the product
counts distinct cycles, so stays below 2^(n+1) and never carries into
the next.  Siblings share their blocked mask, so children of one frame
with equal cands lead into one state; when it credits, the fold takes
such siblings, twins or not, as one group that expands once.  Its own
search tree then reaches each state it expands along mult paths at the
depth of its stack, mult being the product of the group sizes on the
stack.  F splits in two: tree(P) is those paths, and extra(P) = F[P] -
tree(P) counts the other paths into P, each of which takes a memo hit
on its way.  The fold credits its tree as it goes: a popped group's
members take the frame's histogram, a memo hit's vertex the hit's, a
closing leaf's vertex its closures, each times the parent frame's mult
at its depth on the stack; each hit also seeds the state it hits.  A
forward pass then carries only the extra paths.  A child's blocked mask
strictly contains its parent's, so the pass takes the reached states by
the size of that mask, each after all of its parents, recomputes their
children from their keys and sums the extra paths' prefixes into them.
Extra paths come only where branches that part above a state meet in
it again, which is rare in a braid once cluster-mates are grouped.  A
closing vertex takes the depths of the paths next to it one step on,
summed per closing set, tree and extra paths alike, before they are
handed out; the anchor takes the root's total.  Each vertex's credits
are kept as (base, packed) like the memo's values, so a long cycle does
not cost O(n^2) bits per vertex.

count_cycles_through(g, v) is a second route: one fold per neighbour u1
of v, with no anchor order (every vertex but v may be used) and closure
only at the neighbours of v that follow u1 in the order above.  It
shares the fold but none of the crediting.  visit_induced_cycles walks
every cycle with the plain search, which keeps the id orientation (the
anchor's smaller cycle-neighbor first), so its roots do not follow the
fold's; that walk and slow_census share nothing with the memo.  With the
second route and the identity sum_v f_v(L) = L c_L, checked on every
call of cycles_per_vertex, they are the checks on the memo and the
credits.

Path-tree statistics.  The x-y path tree is the rooted tree whose nodes
are the growing induced paths, except that a node whose endpoint is
adjacent to y has exactly one child, y itself.  We never materialize it.
Its internal nodes are the states of the x-y fold (whose prune never
fires there, as a path next to y ends), so a second pass reads the memo
children first, recomputes each state's children from its key, and
replaces each histogram by leaf counts, the sibling-balance flag and the
multisets of child counts along its root-to-leaf suffixes (the forced
unary y-step excluded), each packed as an int of per-child-count fields.

slow_census is the independent oracle.  It decides vertices 0..n-1 in
order and drops a branch once a chosen vertex has three chosen neighbours,
or too few undecided ones left to reach two.  So every vertex set that
survives induces a 2-regular graph, and it is one induced cycle when it
is connected.  It shares no traversal logic with the fast engine.
"""

from __future__ import annotations


from .graphs import Graph, InputError, InternalError, UnsupportedError, bits_of
from .graphs import _Record, _check_vertex, _layers

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


class CycleCensus(_Record):
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

    def to_json_dict(self, n: int) -> dict:
        return {
            "n": n,
            "by_length": {str(k): str(v) for k, v in sorted(self.by_length.items())},
            "f": str(self.f),
            "f_odd": str(self.f_o),
            "f_even": str(self.f_e),
            "holes": str(self.holes),
            "odd_holes": str(self.odd_holes),
        }


class PathCensus(_Record):
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

    def to_json_dict(self, x: int, y: int) -> dict:
        return {
            "x": x,
            "y": y,
            "by_length": {str(k): str(v) for k, v in sorted(self.by_length.items())},
            "p2": str(self.p2),
            "p2_odd": str(self.p2_odd),
            "p2_even": str(self.p2_even),
        }


class TreeStats(_Record):
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


def _fold(adj, above: int, stop: int, close: int, start: int, width: int,
          memo: dict, credit: tuple | None = None) -> tuple[int, int]:
    """Packed length histogram of the induced paths that grow from start
    inside `above` and end at a vertex of `close`, with only start
    blocked at the first step.  A vertex of `stop` is never passed
    through.

    Returns (base, packed): field k of packed << (width * base) counts the
    completions whose closing vertex lies k steps beyond the vertex
    before start.  Every state expanded is left in memo, keyed
    (cands, blocked), with its histogram as (base, packed), and stored
    only after all of its children: path_tree_stats reads the memo in
    that order.

    If credit is (bases, packs, reach, shut_at), the fold groups the
    siblings that share a state and gives the per-vertex credits of its
    own search tree, the mult paths along which it first reaches each
    state (see "Per-vertex counts" above): a vertex z on such a path
    gains the completions below it in (bases[z], packs[z]), a closing set
    gains the paths' depth in shut_at, and a memo hit adds the depth of
    its vertex to reach, for _forward.
    """
    if credit:
        bases, packs, reach, shut_at = credit
        mult = 1  # the tree paths into the current frame
    stack = []
    # the current frame: memo key, blocked below it, the vertices of
    # `above` not blocked and the closing vertices among them, children
    # left, and its histogram as (base, packed); the first frame stands
    # for the vertex before start.  A frame lies len(stack) steps beyond
    # that vertex, and one on the stack also keeps the child z it was
    # left for and z's peers, the rest of z's group.
    keep = ~stop
    key, nb, todo, base, acc = None, 1 << start, 1 << start, 0, 0
    free = above & ~nb
    opened = close & free
    while True:
        if todo:
            bit = todo & -todo
            todo ^= bit
            z = bit.bit_length() - 1
            cands = adj[z] & free
            shut = cands & close
            # once every closing vertex is blocked, no extension can close
            left = opened ^ shut  # shut lies in opened, as cands in free
            ext = cands & keep if left else 0
            if not ext:
                if not shut:
                    continue
                off, val = 2, shut.bit_count()
                if credit:
                    peers = 0
                    shut_at[shut] = shut_at.get(shut, 0) + (mult << (width * (len(stack) + 1)))
            else:
                child = (cands, nb)
                hit = memo.get(child)
                if hit is None:
                    peers = 0
                    if credit and todo:
                        # the siblings left with z's cands lead into z's
                        # state; each is a neighbour of every vertex in cands
                        rest = todo & adj[(ext & -ext).bit_length() - 1]
                        while rest:
                            bit = rest & -rest
                            rest ^= bit
                            if adj[bit.bit_length() - 1] & free == cands:
                                peers |= bit
                        if peers:
                            todo ^= peers
                            mult *= peers.bit_count() + 1
                    stack.append((key, nb, free, opened, todo, base, acc, z, peers))
                    key, nb, free, opened, todo = child, nb | cands, free & ~cands, left, ext
                    base, acc = (1, shut.bit_count()) if shut else (0, 0)
                    if shut and credit:
                        shut_at[shut] = shut_at.get(shut, 0) + (mult << (width * len(stack)))
                    continue
                off, val = hit
                if not val:
                    continue
                if credit:
                    peers = 0
                    reach[child] = _add(reach.get(child, (0, 0)), len(stack) + 1, mult, width)
                off += 1
        else:
            if not stack:
                return base, acc
            memo[key] = (base, acc)
            off, val = base + 1, acc
            key, nb, free, opened, todo, base, acc, z, peers = stack.pop()
            if peers:
                mult //= peers.bit_count() + 1
            if not val:
                continue
        if credit:
            # mult paths run through z, the child just done, and through
            # each of its peers, and each closes val ways len(stack) + off
            # steps out (inlined add; _add lowers the base)
            at, paths = off + len(stack), val * mult
            shift = at - bases[z]
            if shift >= 0:
                packs[z] += paths << (width * shift)
            else:
                bases[z], packs[z] = _add((bases[z], packs[z]), at, paths, width)
            if peers:
                for u in bits_of(peers):
                    bases[u], packs[u] = _add((bases[u], packs[u]), at, paths, width)
                val *= peers.bit_count() + 1
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
    each once, leaving v through the neighbour with fewer neighbours in
    above (ties: the lower id): field k counts those whose closing vertex
    lies k steps beyond v, so they have k + 1 vertices.  If credit is a
    pair of lists (bases, packs), the (bases[u], packs[u]) histogram of
    every vertex u also gains these cycles that pass through u."""
    adj_v = adj[v]
    total = 0
    close = 0
    # a cycle leaves v through u1 and returns through a neighbour passed
    # before it, with more neighbours in above (ties: a higher id)
    for u1 in sorted(bits_of(adj_v & above), reverse=True,
                     key=lambda u: ((adj[u] & above).bit_count(), u)):
        if close:
            memo: dict[tuple[int, int], tuple[int, int]] = {}
            # this root's reach and shut_at (see _forward) go with the lists
            root = None if credit is None else (*credit, {}, {})
            base, packed = _fold(adj, above, adj_v, close, u1, width, memo, root)
            if root and packed:
                bases, packs = credit
                bases[v], packs[v] = _add((bases[v], packs[v]), base, packed, width)
                _forward(adj, above, adj_v, close, width, memo, root)
            total += packed << (width * base)
        close |= 1 << u1
    return total


def _forward(adj, above: int, stop: int, close: int, width: int,
             memo: dict, credit: tuple) -> None:
    """Give the credits of one fold that its search tree did not (see
    "Per-vertex counts" above): those of the extra paths, which enter a
    state through a memo hit.  credit is the fold's (bases, packs, reach,
    shut_at), with reach seeded by its hits.

    reach holds each state reached and not yet expanded as (pbase,
    prefix), where field j of prefix counts the extra paths that reach
    the state with their endpoint j + pbase steps beyond the anchor.  A
    child's blocked mask strictly contains its parent's, so the states
    are expanded in rounds by the size of that mask, each after all of
    its parents.  shut_at holds, per closing set, the paths next to it as
    one packed int with field j for the paths j steps beyond the anchor
    (transient, so kept without a base); last, each closing set's sum,
    tree paths included, goes to its vertices."""
    bases, packs, reach, shut_at = credit
    while reach:
        # the reached states with the fewest blocked vertices have all
        # their paths: their parents have fewer
        least = min(blocked.bit_count() for _, blocked in reach)
        for key in [key for key in reach if key[1].bit_count() == least]:
            base, acc = reach.pop(key)
            cands, blocked = key
            below = blocked | cands
            free = above & ~below
            shut = cands & close
            if shut:
                shut_at[shut] = shut_at.get(shut, 0) + (acc << (width * base))
            step = base + 1
            ext = cands & ~stop
            while ext:
                bit = ext & -ext
                ext ^= bit
                z = bit.bit_length() - 1
                cands = adj[z] & free
                child = (cands, below)
                hist = memo.get(child)
                if hist is not None:
                    off, val = hist
                    if not val:
                        continue
                    # sum the prefixes of all edges into the state, twins too
                    reach[child] = _add(reach.get(child, (0, 0)), step, acc, width)
                elif cands & close:
                    # a leaf: its closures are all it has
                    shut = cands & close
                    off, val = 1, shut.bit_count()
                    shut_at[shut] = shut_at.get(shut, 0) + (acc << (width * step))
                else:
                    continue
                # the paths into z times the completions below it; every
                # field of the product counts distinct cycles, so none
                # overflows (the add in place is inlined, as in _fold)
                off += step
                shift = off - bases[z]
                if shift >= 0:
                    packs[z] += (acc * val) << (width * shift)
                else:
                    bases[z], packs[z] = _add((bases[z], packs[z]), off, acc * val, width)
    for shut, acc in shut_at.items():
        base = ((acc & -acc).bit_length() - 1) // width
        acc >>= width * base
        for c in bits_of(shut):
            bases[c], packs[c] = _add((bases[c], packs[c]), base + 1, acc, width)


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
    visit(vertex_mask, length) at every closure.  It closes only at
    neighbours of the anchor above u1: the plain walk keeps the id
    orientation, so its roots stay independent of the fold's."""
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
    neighbour of v but the one with the most neighbours (ties: the
    highest id), with every other vertex allowed on the cycle."""
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
    if g.adj[y].bit_count() < g.adj[x].bit_count():
        # paths are undirected: grow them from the end with fewer neighbours
        x, ybit = y, 1 << x
    width = g.n + 1
    base, packed = _fold(g.adj, g.full_mask(), ybit, ybit, x, width, {})
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
    memo: dict = {}
    _fold(adj, g.full_mask(), ybit, ybit, x, g.n + 1, memo)
    width = g.n.bit_length()
    # children first, each state's histogram gives way to its statistics;
    # last comes the root, the vertex before x (blocked 0), whose one child x is no branching
    for cands, blocked in [*memo, (1 << x, 0)]:
        below = blocked | cands
        step = 1 << (width * cands.bit_count()) if blocked else 0
        leaves, y_leaves, balanced, subs = 0, 0, True, []
        todo = cands
        while todo:
            bit = todo & -todo
            todo ^= bit
            adj_z = adj[bit.bit_length() - 1]
            c = adj_z & ~below
            if adj_z & ybit or not c:
                # a y-leaf (z's unique child is y; that forced step is not
                # recorded in the multiset) or a dead end
                sub = 1, adj_z >> y & 1, (0,), True
            else:
                sub = memo[c, below]
            sub_leaves, sub_y, sub_suffixes, sub_balanced = sub
            if not subs:
                first_y = sub_y
            leaves += sub_leaves
            y_leaves += sub_y
            # every child balanced, with the y-leaf count of the first
            balanced = balanced and sub_balanced and sub_y == first_y
            subs.append(sub_suffixes)
        suffixes = {m + step for sub in subs for m in sub}
        memo[cands, blocked] = (leaves, y_leaves, suffixes, balanced)
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
