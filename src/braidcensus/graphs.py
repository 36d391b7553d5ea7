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
* a canonical labeling for small graphs: an exhaustive branch and bound
  over vertex orderings, on plain ints, for the least upper-triangle bit
  string of a relabeling, skipping a candidate when the candidate's twin
  class meets the explored siblings.

That least string, written top bit first, is the graph6 body of the
canonical code: a canonical code is a graph6 string, directly printable
and decodable with parse_graph6.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

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
# frozen records
# ======================================================================


class _Record:
    """Base of the package's result types, in place of a frozen dataclass:
    importing dataclasses loads inspect, ast, dis and tokenize, which cost
    a CLI call more time than a small input's own work.

    A subclass's fields are its annotated names, in order; a class
    attribute of a field's name is its default.  Each subclass gets an
    __init__ generated once, as dataclasses and namedtuple do: it sets the
    fields, then calls __post_init__ if the class has one, which may
    normalise a field with object.__setattr__.  Records are immutable,
    compare and hash by their field tuple, and print as Name(field=value, ...).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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

    __slots__ = ("n", "adj")

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
        _check_vertex(self, u)
        _check_vertex(self, v)
        if u == v:
            raise InputError(f"loop at vertex {u}")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge (u, v) removed (must be present)."""
        _check_vertex(self, u)
        _check_vertex(self, v)
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
        _check_vertex(self, u)
        _check_vertex(self, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits_of(higher):
                out.append((v, u))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

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
# code corresponds to the t-th pair in this order.


def graph_from_pair_bits(n: int, bits: int) -> Graph:
    """Inverse of packing: bit t of `bits` toggles the t-th pair in
    column order."""
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


def _graph6(n: int, stream: int) -> str:
    """graph6 of the n-vertex graph, n <= 258047, whose C(n, 2) pair bits,
    in column order, are written top bit first in stream."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    k = n * (n - 1) // 2
    # padded to whole 6-bit groups, each group read with its first bit high
    bits = bin(1 << k | stream)[3:] + "0" * (-k % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def to_graph6(g: Graph) -> str:
    """Encode as graph6, n up to 258047 (the 4-byte size header covers
    n >= 63).  Linear in the code length."""
    if g.n > 258047:
        # checked before the C(n, 2)-character bit string is built
        raise UnsupportedError(f"graph6 size header for n={g.n} not supported")
    k = g.n * (g.n - 1) // 2
    # pair_bits_of holds the first pair in its low bit
    return _graph6(g.n, int(format(pair_bits_of(g), f"0{k}b")[::-1], 2))


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string.  Raises Graph6Error with a byte offset on
    bad characters, a 4-byte size header for n < 63, wrong body length,
    or nonzero padding."""
    data = text.strip()
    if not data:
        raise Graph6Error("empty graph6 string")
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


def _twin_classes(adj: tuple[int, ...]) -> list[int]:
    """Entry v is the mask of v's twin class, v included: twins have the
    same neighbours besides each other, so swapping two is an automorphism."""
    return [sum(1 << u for u, row in enumerate(adj) if (row ^ adj[v]) & ~(1 << u | 1 << v) == 0)
            for v in range(len(adj))]


def canonical_code(g: Graph) -> str:
    """Canonical form by exhaustive branch and bound over labelings.

    The code, an isomorphism invariant, is the graph6 string of the
    relabeling whose pair bits, read in column order as one number with the
    first pair on top, are least over all n! labelings: that number, top
    bit first, is the graph6 body.
    Vertices are placed one position at a time.  Each unplaced vertex
    carries its column against the placed ones as an int, the first placed
    on top, so a prefix grows as prefix << depth | col.  Candidates go in
    (column, vertex) order.  A prefix above the incumbent's prefix of the
    same length cuts off its candidate and every later one, and a
    candidate is skipped when the candidate's twin class meets the
    explored siblings, which collapses the factorial blowup on graphs
    with many twins (e.g. empty or complete graphs).  Exact but
    exponential in the worst case, hence the hard cap at n = CANON_MAX_N.
    """
    n = g.n
    if n > CANON_MAX_N:
        raise UnsupportedError(
            f"canonical_code supports n <= {CANON_MAX_N}, got {n}"
        )
    adj = g.adj
    twins = _twin_classes(adj)
    total = n * (n - 1) // 2
    best = 1 << total  # above every code, so the first leaf replaces it

    def extend(depth: int, prefix: int, cols: list[tuple[int, int]]) -> None:
        nonlocal best
        if not cols:
            best = prefix  # not cut off, so at most best
            return
        shift = total - depth * (depth + 1) // 2
        tried = 0
        for col, v in sorted(cols):
            if twins[v] & tried:
                continue  # swapping v with an explored twin is an automorphism
            grown = prefix << depth | col
            if grown > best >> shift:
                break  # the candidates after v have columns at least col
            tried |= 1 << v  # only subtrees actually explored justify twin skips
            extend(depth + 1, grown,
                   [(c << 1 | adj[u] >> v & 1, u) for c, u in cols if u != v])

    extend(0, 0, [(0, v) for v in range(n)])
    return _graph6(n, best)
