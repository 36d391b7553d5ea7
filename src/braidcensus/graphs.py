"""Core graph type and codecs.

Graphs here are simple, undirected and labeled 0..n-1.  The adjacency
structure is stored as one Python int per vertex (bit j of adj[v] set iff
v ~ j), which makes neighborhood algebra (unions, exclusions, popcounts)
single integer operations.  That representation is what keeps the induced
cycle/path search in census.py fast enough to be useful, so everything in
this package speaks bitmasks at the boundary as well.

Also provided:

* graph6 encode/parse (the standard printable ASCII format: column-major
  upper triangle packed into 6-bit chunks offset by 63),
* breadth-first distance layers, and from them balls N^r[v], distances
  and connectivity,
* a canonical labeling for small graphs (exhaustive branch and bound over
  vertex orderings, minimizing the packed upper-triangle bit string).

The canonical code is emitted as the graph6 encoding of the relabeled
graph, so codes are directly printable and decodable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# ======================================================================
# errors
# ======================================================================


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class Graph6Error(InputError):
    """Raised on malformed graph6 input.  Carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedError(InputError):
    """Raised when an argument is valid but outside the supported range."""


class InternalError(RuntimeError):
    """Raised when an internal cross-check fails: a bug, never bad input.
    Unlike assert, it also fires under python -O."""


# ======================================================================
# the CLI parser's choices, kept in the one module every CLI call loads
# ======================================================================

# the named families of families.py
FAMILY_TAGS = ("H", "G", "E", "F", "F_odd", "F_even", "G_script")

# the census quantities a sweep can maximize (see sweep.quantity_of_graph)
CYCLE_QUANTITIES = ("m", "m_odd", "m_even", "m_odd_holes")
PATH_QUANTITIES = ("p2", "p2_odd", "p2_even")
QUANTITIES = CYCLE_QUANTITIES + PATH_QUANTITIES


# ======================================================================
# bitmask helpers
# ======================================================================


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(bits_of(mask))


# ======================================================================
# the Graph type
# ======================================================================


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bit-row adjacency.

    adj[v] is an int whose bit j is set iff v ~ j.  Instances validate on
    construction (symmetry, no loops, rows in range) and are hashable, so
    they can be used as dict keys in memo tables.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: Iterable[int]):
        rows = tuple(adj)
        if n < 1:
            raise InputError(f"graph needs at least one vertex, got n={n}")
        if len(rows) != n:
            raise InputError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise InputError(f"adjacency row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits_of(row):
                if not rows[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = rows
        self._hash = hash((n, rows))

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs.  Rejects loops and out-of-range ids."""
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    def with_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge (u, v) added."""
        if u == v:
            raise InputError(f"loop at vertex {u}")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge (u, v) removed (must be present)."""
        if not self.adj[u] >> v & 1:
            raise InputError(f"no edge ({u},{v}) to remove")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)

    def relabeled(self, perm: tuple[int, ...]) -> "Graph":
        """Apply a permutation: vertex v of self becomes perm[v] of the result."""
        if sorted(perm) != list(range(self.n)):
            raise InputError("perm is not a permutation of 0..n-1")
        rows = [0] * self.n
        for v, row in enumerate(self.adj):
            for u in bits_of(row):
                rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, rows)

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return vertices_of(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits_of(higher):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a mask."""
        return self.adj[v] | (1 << v)

    def closed_of(self, mask: int) -> int:
        """Closed neighborhood of a vertex set, as a mask."""
        out = mask
        for v in bits_of(mask):
            out |= self.adj[v]
        return out

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        e = self.edges()
        shown = ", ".join(f"{u}-{v}" for u, v in e[:12])
        more = "" if len(e) <= 12 else f", ... {len(e)} edges total"
        return f"Graph(n={self.n}: {shown}{more})"


# ======================================================================
# distances and balls
# ======================================================================


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n={g.n}")


def _layers(rows: tuple[int, ...], v: int, within: int = -1) -> list[int]:
    """Breadth-first distance layers of v, as masks, in the subgraph of
    the adjacency rows induced by within, which holds v.  The layers are
    disjoint, so their sum is their union: v's component."""
    seen = frontier = 1 << v
    layers = []
    while frontier:
        layers.append(frontier)
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return layers


def ball(g: Graph, v: int, radius: int) -> int:
    """Vertices within distance `radius` of v, as a bitmask (v included)."""
    _check_vertex(g, v)
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    return sum(_layers(g.adj, v)[:radius + 1])


def distance(g: Graph, u: int, v: int) -> int:
    """BFS distance between u and v; -1 if disconnected."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    return next((d for d, layer in enumerate(_layers(g.adj, u)) if layer >> v & 1), -1)


def is_connected(g: Graph) -> bool:
    return sum(_layers(g.adj, 0)) == g.full_mask()


# ======================================================================
# graph6
# ======================================================================

# Pair order used everywhere a packed upper triangle appears: column-major,
# i.e. (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...  Bit t of a packed
# code corresponds to pair_order(n)[t].


def pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph_from_pair_bits(n: int, bits: int) -> Graph:
    """Inverse of packing: bit t of `bits` toggles edge pair_order(n)[t]."""
    rows = [0] * n
    t = 0
    for j in range(1, n):
        # column j holds the pairs (0, j) .. (j - 1, j)
        col = bits >> t & ((1 << j) - 1)
        rows[j] |= col
        for i in bits_of(col):
            rows[i] |= 1 << j
        t += j
    return Graph(n, rows)


def pair_bits_of(g: Graph) -> int:
    bits = 0
    for j in range(g.n - 1, 0, -1):
        bits = bits << j | (g.adj[j] & ((1 << j) - 1))
    return bits


def to_graph6(g: Graph) -> str:
    """Encode as graph6, n up to 258047 (the 4-byte size header covers
    n >= 63).  Linear in the code length."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise UnsupportedError(f"graph6 size header for n={n} not supported")
    k = n * (n - 1) // 2
    # the pair bits first pair first, padded to whole 6-bit groups, each
    # group read with its first bit high
    stream = format(pair_bits_of(g), f"0{k}b")[::-1] + "0" * (-k % 6) if k else ""
    body = "".join(
        chr(int(stream[i:i + 6], 2) + 63) for i in range(0, len(stream), 6)
    )
    return head + body


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string.  Raises Graph6Error with a byte offset on
    bad characters, a 4-byte size header for n < 63, wrong body length,
    or nonzero padding."""
    data = text.strip()
    if not data:
        raise Graph6Error("empty graph6 string")
    pos = 0
    first = ord(data[0])
    if data[0] == "~":
        if len(data) >= 2 and data[1] == "~":
            raise Graph6Error("graph6 long-size form not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size header", len(data))
        n = 0
        for pos in range(1, 4):
            c = ord(data[pos])
            if not 63 <= c <= 126:
                raise Graph6Error(f"bad graph6 byte {c!r}", pos)
            n = n << 6 | (c - 63)
        if n < 63:
            # one graph, one code: n < 63 takes the 1-byte header
            raise Graph6Error(f"4-byte graph6 size header for n={n} < 63", 0)
        pos = 4
    else:
        if not 63 <= first <= 126:
            raise Graph6Error(f"bad graph6 size byte {first!r}", 0)
        n = first - 63
        pos = 1
    if n < 1:
        raise Graph6Error(f"graph6 header gives n={n}, need n >= 1", 0)
    k = n * (n - 1) // 2
    need = (k + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise Graph6Error(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}", pos
        )
    groups = []
    for c_i, ch in enumerate(body):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"bad graph6 body byte {c!r}", pos + c_i)
        groups.append(format(c - 63, "06b"))
    stream = "".join(groups)
    if "1" in stream[k:]:
        # padding fills the last byte only
        raise Graph6Error("nonzero padding bits", pos + len(body) - 1)
    return graph_from_pair_bits(n, int(stream[:k][::-1] or "0", 2))


# ======================================================================
# canonical labeling (small n)
# ======================================================================

CANON_MAX_N = 10


@dataclass(frozen=True)
class CanonicalCode:
    """Isomorphism-invariant code: graph6 of the minimal relabeling."""

    g6: str

    def graph(self) -> Graph:
        return parse_graph6(self.g6)


def canonical_code(g: Graph) -> CanonicalCode:
    """Canonical form by exhaustive branch and bound over labelings.

    Minimizes the packed upper-triangle bit string (pair_order order) over
    all n! relabelings, with two prunings: lexicographic prefix cutoff
    against the incumbent, and skipping a candidate vertex when swapping it
    with an already-tried sibling is an automorphism of the whole graph
    (that collapses the factorial blowup on graphs with many twins, e.g.
    empty or complete graphs).  Exact but exponential in the worst case,
    hence the hard cap at n = CANON_MAX_N.
    """
    n = g.n
    if n > CANON_MAX_N:
        raise UnsupportedError(
            f"canonical_code supports n <= {CANON_MAX_N}, got {n}"
        )
    if n == 1:
        return CanonicalCode(to_graph6(g))

    best: list[list[int] | None] = [None]
    placed = [0] * n  # placed[k] = original vertex put at position k

    def extend(depth: int, used_mask: int, acc: list[int]) -> None:
        # acc holds the packed bits contributed by positions 0..depth-1.
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
                # Prune only if the whole extended prefix already exceeds the
                # incumbent; comparing newbits alone is wrong when acc is
                # strictly below the incumbent's prefix.
                if acc + newbits > incumbent[: len(acc) + depth]:
                    continue
            tried.append(v)  # only subtrees actually explored justify twin skips
            placed[depth] = v
            acc.extend(newbits)
            extend(depth + 1, used_mask | 1 << v, acc)
            del acc[len(acc) - depth:]
        return

    extend(0, 0, [])
    bits_list = best[0]
    if bits_list is None:
        raise InternalError(f"canonical_code found no labeling of an n={n} graph")
    packed = 0
    for t, b in enumerate(bits_list):
        if b:
            packed |= 1 << t
    return CanonicalCode(to_graph6(graph_from_pair_bits(n, packed)))
