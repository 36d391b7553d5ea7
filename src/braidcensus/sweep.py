"""Exhaustive ground truth over all graphs on few vertices.

A sweep evaluates one census quantity on every graph on n vertices and
reports the maximum with the graphs achieving it, up to isomorphism:
the oracle that checks the closed forms where "all graphs" is literal.
It scores each graph from an induced-path list of the graph less its
last vertex (see Scores).

Classes.  _classes(k) holds one graph per isomorphism class on k
vertices with its labelled count lab, the number of graphs on 0..k-1
isomorphic to it.  It extends every class on k - 1 vertices by vertex
k - 1 once per orbit of neighbourhoods under swaps of the parent's
twins (swapping two is an automorphism; graphs._twin_classes is the
rule's one home), keeping the neighbourhood N only if it is its least
twin image (each twin class's members of N moved to its lowest
vertices), and deduplicates on canonical_code.  lab of a class sums lab
of the parents times the orbit sizes over the extensions landing on it.
The class counts must equal OEIS A000088 and the labs must sum to
2^C(k,2), or the build raises InternalError.

Units.  A sweep on n vertices ranges over every unit (class P on n - 1
vertices, neighbourhood N of vertex v = n - 1); unit u is (class
u >> (n - 1), N = its low n - 1 bits).  A labelled graph is its
restriction to 0..n-2 plus the neighbourhood of n - 1, and relabelling
the restriction onto P maps exactly lab(P) labelled graphs, all
isomorphic to it, onto each unit.  So the best unit is the best graph,
and graphs_scanned, lab(P) times P's units in the shard summed over the
classes, is 2^C(n,2) for a full sweep.  A shard is scanned by class: one
max over the class's table, then its units at the running maximum are
canonicalized, less each whose least twin image N' < N is in the shard
and ties too (the two are isomorphic).  A sweep runs in one process;
shards, contiguous unit ranges merged by merge_sweeps, are the way to
run one in parallel (one process per shard), and any shard split gives
the same result.

Scores.  One list of P's directed induced paths (start, end, vertex
mask span, edge count L, neighbours of the span) scores all 2^(n-1)
units of P: deleting v from G = P + v leaves P, and what v adds comes
from paths of P that N meets only at their ends.
- Cycles through v: a path s..e (s < e, L >= 1) with N & span = {s, e}
  closes one with L + 2 vertices.  So the path counts for every N =
  {s, e} | sub, sub a subset of the vertices off the span.  The cycles
  of P itself are those that the same rule closes at their top vertex.
- Paths between x and v: a path x..a with N & span = {a} and L + 1
  edges.  Paths x..y through v: x..a, v, b..y for two such paths whose
  spans are disjoint with no edge between them, L1 + L2 + 2 edges.
  Paths of P are paths of every unit.  A unit's score is the largest
  count over its pairs.
quantity_of_graph, the per-graph engines, is the second engine: it
re-scores every extremal code and every checkpoint line.

Audit.  The subset oracle re-scores sampled units of the shard:
slow_census for the cycles, and for the paths one scan of the vertex
sets, a set being an induced path between its two vertices with one
neighbour in it when every vertex has one or two and it is connected.
Each sampled unit's table entry must match it, score at most the
shard's maximum, and at the maximum have its class among the shard's
codes; its parent's path list must match count_induced_st_paths on
every ordered pair.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .census import (
    CycleCensus,
    PathCensus,
    count_induced_cycles,
    count_induced_st_paths,
    p2_max,
    slow_census,
)
from .formulas import ExactCount
from .graphs import (
    CYCLE_QUANTITIES,
    PATH_QUANTITIES,
    QUANTITIES,
    Graph,
    InputError,
    InternalError,
    _Record,
    _layers,
    _twin_classes,
    canonical_code,
    parse_graph6,
    vertices_of,
)

SWEEP_MAX_N = 8
AUDIT_SAMPLES = 10
# OEIS A000088: the number of isomorphism classes of graphs on k vertices
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)


# ======================================================================
# result type
# ======================================================================


class SweepResult(_Record):
    """Outcome of one exhaustive scan (possibly one shard of it)."""

    n: int
    quantity: str
    max: ExactCount
    extremal_codes: frozenset[str]
    graphs_scanned: int

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise InputError(f"unknown quantity {self.quantity!r}")
        if not self.extremal_codes:
            raise InputError("a sweep always has at least one extremal code")
        if self.graphs_scanned <= 0:
            raise InputError("a sweep scans at least one graph")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "quantity": self.quantity,
            "max": str(self.max.value),
            "graphs_scanned": str(self.graphs_scanned),
            "extremal_codes": sorted(self.extremal_codes),
        }


# ======================================================================
# isomorphism classes, units and their scores
# ======================================================================


def _extend(parent: Graph, nbhd: int) -> Graph:
    """parent plus a new last vertex adjacent to exactly the mask nbhd."""
    k = parent.n
    rows = [row | (nbhd >> v & 1) << k for v, row in enumerate(parent.adj)]
    return Graph(k + 1, rows + [nbhd])


@lru_cache(maxsize=None)
def _classes(k: int) -> tuple[tuple[Graph, int], ...]:
    """One (graph, labelled count) per isomorphism class on k vertices."""
    if k == 1:
        return ((Graph(1, (0,)), 1),)
    found: dict[str, list] = {}
    for index, (parent, lab) in enumerate(_classes(k - 1)):
        twins = _twins(k - 1, index)
        for nbhd in range(1 << (k - 1)):
            # the least of each orbit is the first this loop meets, so
            # no class changes its representative
            if _twin_least(nbhd, twins) != nbhd:
                continue
            g = _extend(parent, nbhd)
            weight = lab * _orbit_size(nbhd, twins)
            found.setdefault(canonical_code(g), [g, 0])[1] += weight
    if len(found) != A000088[k]:
        raise InternalError(f"{len(found)} isomorphism classes on {k} "
                            f"vertices, not {A000088[k]}")
    # the class count cannot see a wrong weight
    labelled = sum(lab for _, lab in found.values())
    if labelled != 1 << k * (k - 1) // 2:
        raise InternalError(f"the classes on {k} vertices count {labelled} "
                            f"labelled graphs, not 2^{k * (k - 1) // 2}")
    return tuple((g, lab) for g, lab in found.values())


@lru_cache(maxsize=None)
def _twins(k: int, index: int) -> tuple[int, ...]:
    """The twin classes of two or more of _classes(k)[index], by lowest vertex."""
    classes = _twin_classes(_classes(k)[index][0].adj)
    return tuple(twin for v, twin in enumerate(classes) if twin & -twin == 1 << v != twin)


def _twin_least(nbhd: int, twins: tuple[int, ...]) -> int:
    """The least neighbourhood that swaps of twins map nbhd to: each twin
    class's members of nbhd move to the lowest vertices of the class."""
    for twin in twins:
        high = twin
        for _ in range((nbhd & twin).bit_count()):
            high &= high - 1
        nbhd = nbhd & ~twin | twin & ~high
    return nbhd


def _orbit_size(nbhd: int, twins: tuple[int, ...]) -> int:
    """How many neighbourhoods swaps of twins map nbhd to."""
    return math.prod(math.comb(twin.bit_count(), (nbhd & twin).bit_count())
                     for twin in twins)


def _unit_graph(n: int, unit: int) -> Graph:
    parent = _classes(n - 1)[unit >> (n - 1)][0]
    return _extend(parent, unit & ((1 << (n - 1)) - 1))


def _class_slices(n: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(class index, first N, end N) for each class's units in [lo, hi)."""
    size = 1 << (n - 1)
    return [(index, max(lo - index * size, 0), min(hi - index * size, size))
            for index in range(lo // size, (hi - 1) // size + 1)]


def _labelled_count(n: int, lo: int, hi: int) -> int:
    """How many labelled graphs the units [lo, hi) stand for."""
    classes = _classes(n - 1)
    return sum(classes[index][1] * (end - first)
               for index, first, end in _class_slices(n, lo, hi))

_CENSUS_FIELD = dict(m="f", m_odd="f_o", m_even="f_e", m_odd_holes="odd_holes",
                     p2="p2", p2_odd="p2_odd", p2_even="p2_even")


def quantity_of_graph(g: Graph, quantity: str) -> int:
    """The swept quantity of one graph, via the per-graph engines."""
    if quantity in CYCLE_QUANTITIES:
        return getattr(count_induced_cycles(g), _CENSUS_FIELD[quantity])
    if quantity not in PATH_QUANTITIES:
        raise InputError(f"unknown quantity {quantity!r}")
    parity = {"p2": "all", "p2_odd": "odd", "p2_even": "even"}[quantity]
    return p2_max(g, parity)[0]


def _induced_paths(adj: tuple[int, ...]) -> list[tuple[int, int, int, int, int]]:
    """Every directed induced path of the graph with these adjacency rows,
    single vertices included, as (start, end, span, edges, nbrs): span is
    its vertex mask and nbrs the union of its vertices' rows.  A path
    grows by a neighbour of its end that sees no other vertex of it."""
    paths = []
    for start in range(len(adj)):
        stack = [(start, 1 << start, 0, adj[start])]
        while stack:
            end, span, edges, nbrs = stack.pop()
            paths.append((start, end, span, edges, nbrs))
            ext = adj[end] & ~span
            while ext:
                bit = ext & -ext
                ext ^= bit
                w = bit.bit_length() - 1
                if adj[w] & span == 1 << end:
                    stack.append((w, span | bit, edges + 1, nbrs | adj[w]))
    return paths


def _submasks(k: int) -> list[list[int]]:
    """subs[mask] lists every submask of mask, for each mask on k bits."""
    subs = []
    for mask in range(1 << k):
        sub, out = mask, [mask]
        while sub:
            sub = (sub - 1) & mask
            out.append(sub)
        subs.append(out)
    return subs


def _unit_scores(parent: Graph, quantity: str, subs: list[list[int]]) -> list[int]:
    """Entry N is the quantity of parent plus a vertex v adjacent to
    exactly N, for every N, read off the parent's induced paths (see
    Scores in the module docstring); subs is _submasks(parent.n)."""
    k, adj = parent.n, parent.adj
    full = (1 << k) - 1
    paths = _induced_paths(adj)
    field = _CENSUS_FIELD[quantity]
    if quantity in CYCLE_QUANTITIES:
        # keep[L]: whether the cycle that a path of L edges closes counts
        keep = [0] + [getattr(CycleCensus({edges + 2: 1}), field)
                      for edges in range(1, k)]
        closing = [(1 << s | 1 << e, span) for s, e, span, edges, _ in paths
                   if s < e and keep[edges]]
        # the cycles of parent, each closed at its top vertex w
        scores = [sum(adj[w] & span == ends for ends, span in closing
                      for w in range(span.bit_length(), k))] * (1 << k)
        for ends, span in closing:
            for sub in subs[full & ~span]:
                scores[ends | sub] += 1
        return scores
    keep = [0] + [getattr(PathCensus({edges: 1}), field) for edges in range(1, k + 1)]
    inside: dict[tuple[int, int], int] = {}
    by_span: dict[int, list] = {}
    for path in paths:
        s, e, span, edges, _ = path
        if s < e and keep[edges]:
            inside[s, e] = inside.get((s, e), 0) + 1
        by_span.setdefault(span, []).append(path)
    # rows[x][y][N]: the x-y paths of the unit N, y = k standing for v
    rows = [{y: [inside.get((x, y), 0)] * (1 << k) for y in range(x + 1, k + 1)}
            for x in range(k)]
    for s1, e1, span1, edges1, nbrs1 in paths:
        row = rows[s1]
        if keep[edges1 + 1]:
            to_v = row[k]
            for sub in subs[full & ~span1]:
                to_v[1 << e1 | sub] += 1
        # a second path off the closed neighbourhood of this one
        for span2 in subs[full & ~(span1 | nbrs1)]:
            for s2, e2, _, edges2, _ in by_span.get(span2, ()):
                if s1 < s2 and keep[edges1 + edges2 + 2]:
                    through_v, ends = row[s2], 1 << e1 | 1 << e2
                    for sub in subs[full & ~(span1 | span2)]:
                        through_v[ends | sub] += 1
    return list(map(max, zip(*(r for x_rows in rows for r in x_rows.values()))))


def _path_list_fault(g: Graph) -> str | None:
    """How g's induced path list differs from count_induced_st_paths on
    the first ordered end pair where it does, or None."""
    found: dict[tuple[int, int], dict[int, int]] = {}
    for s, e, _, edges, _ in _induced_paths(g.adj):
        counts = found.setdefault((s, e), {})
        counts[edges] = counts.get(edges, 0) + 1
    for x, y in itertools.combinations_with_replacement(range(g.n), 2):
        want = count_induced_st_paths(g, x, y).by_length if x != y else {0: 1}
        for pair in (x, y), (y, x):
            if found.get(pair, {}) != want:
                return f"{pair} paths by length {found.get(pair, {})}, not {want}"
    return None


def _slow_quantity(g: Graph, quantity: str) -> int:
    """The swept quantity of one graph, via the subset oracles alone."""
    if quantity in CYCLE_QUANTITIES:
        return getattr(slow_census(g), _CENSUS_FIELD[quantity])
    adj, by_pair = g.adj, {}
    for subset in range(1 << g.n):
        # an induced path: one or two neighbours inside for every vertex,
        # one for exactly two, and connected
        ends, left = [], subset
        while left:
            low = left & -left
            left ^= low
            inside = (adj[low.bit_length() - 1] & subset).bit_count()
            if inside == 1:
                ends.append(low.bit_length() - 1)
            elif inside != 2:
                break
        else:
            if len(ends) == 2 and sum(_layers(adj, ends[0], subset)) == subset:
                counts = by_pair.setdefault(tuple(ends), {})
                edges = subset.bit_count() - 1
                counts[edges] = counts.get(edges, 0) + 1
    return max((getattr(PathCensus(counts), _CENSUS_FIELD[quantity])
                for counts in by_pair.values()), default=0)


def _audit(result: SweepResult, units: list[int], tables: dict[int, list[int]]) -> None:
    """Cross-check of a shard on sampled units: tables[class index] is the
    scan's _unit_scores of each unit's class.  The subset oracle must agree
    with the unit's entry, and must not beat the result's max, nor reach it
    with a class missing from its codes; the class's path list must be right."""
    n, quantity, best = result.n, result.quantity, result.max.value
    for index in sorted({unit >> (n - 1) for unit in units}):
        fault = _path_list_fault(_classes(n - 1)[index][0])
        if fault:
            raise InternalError(f"path list of class {index} on {n - 1} "
                                f"vertices: {fault}")
    for unit in units:
        index, nbhd = unit >> (n - 1), unit & ((1 << (n - 1)) - 1)
        g = _unit_graph(n, unit)
        fast, slow = tables[index][nbhd], _slow_quantity(g, quantity)
        if fast != slow:
            raise InternalError(
                f"engine mismatch at unit {unit}: path table {fast}, "
                f"subset oracle {slow}"
            )
        if slow > best:
            raise InternalError(f"unit {unit} scores {slow} under the subset "
                                f"oracle, above the shard's max {best}")
        if slow == best and canonical_code(g) not in result.extremal_codes:
            raise InternalError(f"unit {unit} scores the shard's max {best}, "
                                f"but its class is missing from the codes")


# ======================================================================
# the sweep
# ======================================================================


def shard_range(n: int, shards: int, shard: int) -> tuple[int, int]:
    """Half-open unit range owned by one shard (contiguous, near-equal
    slices of the A000088(n - 1) * 2^(n - 1) units)."""
    if shards < 1 or not 0 <= shard < shards:
        raise InputError(f"bad shard {shard} of {shards}")
    if not 2 <= n <= SWEEP_MAX_N:
        raise InputError(f"sweeps need 2 <= n <= {SWEEP_MAX_N}, got {n}")
    total = A000088[n - 1] << (n - 1)
    lo = shard * total // shards
    hi = (shard + 1) * total // shards
    if lo == hi:
        raise InputError(f"shard {shard} of {shards} is empty at n={n}")
    return lo, hi


def exhaustive_max(n: int, quantity: str, shards: int = 1, shard: int = 0) -> SweepResult:
    """Maximize the quantity over all graphs on n vertices (or one shard
    of them); path quantities maximize over unordered endpoint pairs
    within each graph first, and graphs_scanned counts every labelled
    graph the shard covers (see Units in the module docstring).

    shard_range bounds n by SWEEP_MAX_N: n = 8 scans 133,632 units in
    1,044 tables, standing for a quarter billion labelled graphs.  Shards
    split the units for checkpointed runs and for parallel ones, one
    process per shard; combine shard results with merge_sweeps.
    """
    if quantity not in QUANTITIES:
        raise InputError(f"quantity must be one of {QUANTITIES}")
    lo, hi = shard_range(n, shards, shard)
    classes, subs = _classes(n - 1), _submasks(n - 1)
    rng = random.Random(f"sweep:{n}:{quantity}")
    units = [rng.randrange(lo, hi) for _ in range(AUDIT_SAMPLES)]
    audited = {unit >> (n - 1) for unit in units}
    tables: dict[int, list[int]] = {}
    best, winners = -1, []
    for index, first, end in _class_slices(n, lo, hi):
        scores = _unit_scores(classes[index][0], quantity, subs)
        if index in audited:
            tables[index] = scores
        top = max(scores[first:end])
        if top > best:
            best, winners = top, []
        if top < best:
            continue
        for nbhd in itertools.compress(range(first, end),
                                       map(top.__eq__, scores[first:end])):
            # an earlier tie of the shard at the least image is isomorphic;
            # any other tie stays, so a wrong entry meets the post-sweep check
            least = _twin_least(nbhd, _twins(n - 1, index))
            if not (first <= least < nbhd and scores[least] == top):
                winners.append(index << (n - 1) | nbhd)
    codes = {canonical_code(_unit_graph(n, unit)) for unit in winners}
    result = SweepResult(
        n=n,
        quantity=quantity,
        max=ExactCount(best),
        extremal_codes=frozenset(codes),
        graphs_scanned=_labelled_count(n, lo, hi),
    )
    _audit(result, units, tables)
    bad = _bad_code(result)
    if bad:
        raise InternalError(f"post-sweep check failed: {bad}")
    return result


def _bad_code(result: SweepResult) -> str | None:
    """Why the first extremal code that is not a canonical code on n
    vertices scoring the result's max fails, or None if every code is."""
    for code in sorted(result.extremal_codes):
        try:
            g = parse_graph6(code)
        except InputError as exc:
            return f"{code!r} is not a graph6 code: {exc}"
        if g.n != result.n:
            return f"{code} has {g.n} vertices, not {result.n}"
        achieved = quantity_of_graph(g, result.quantity)
        if achieved != result.max.value:
            return f"{code} scores {achieved}, not {result.max.value}"
        # an isomorphic relabeling would merge as one more extremal class
        if canonical_code(g) != code:
            return f"{code} is not canonical"
    return None


def merge_sweeps(parts: list[SweepResult]) -> SweepResult:
    """Join shard results: the max wins, code sets at the max unite."""
    if not parts:
        raise InputError("nothing to merge")
    n, quantity = parts[0].n, parts[0].quantity
    if any((p.n, p.quantity) != (n, quantity) for p in parts):
        raise InputError("cannot merge sweeps of different (n, quantity)")
    best = max(p.max.value for p in parts)
    codes = {c for p in parts if p.max.value == best for c in p.extremal_codes}
    return SweepResult(
        n=n,
        quantity=quantity,
        max=ExactCount(best),
        extremal_codes=frozenset(codes),
        graphs_scanned=sum(p.graphs_scanned for p in parts),
    )


# ======================================================================
# checkpoint lines (used by the CLI's sharded verify mode)
# ======================================================================


def checkpoint_line(shard: int, result: SweepResult) -> str:
    """One completed shard as a plain line: shard,max,codes..."""
    return ",".join(
        [str(shard), str(result.max.value)]
        + sorted(result.extremal_codes)
    )


def parse_checkpoint_line(
    n: int, quantity: str, shards: int, line: str
) -> tuple[int, SweepResult]:
    """Rebuild (shard index, shard result) from a checkpoint line; the
    scanned count is recomputed from the shard's units, and every code
    must be canonical and score the line's max."""
    fields = line.strip().split(",")
    if len(fields) < 3:
        raise InputError(f"malformed checkpoint line: {line!r}")
    try:
        shard, best = int(fields[0]), int(fields[1])
    except ValueError:
        raise InputError(f"malformed checkpoint line: {line!r}") from None
    lo, hi = shard_range(n, shards, shard)
    result = SweepResult(
        n=n,
        quantity=quantity,
        max=ExactCount(best),
        extremal_codes=frozenset(fields[2:]),
        graphs_scanned=_labelled_count(n, lo, hi),
    )
    bad = _bad_code(result)
    if bad:
        raise InputError(f"checkpoint line of shard {shard}: {bad}")
    return shard, result


# ======================================================================
# extremal uniqueness at the path maximum
# ======================================================================


class UniquenessReport(_Record):
    """Check of every (graph, pair) achieving the p2 sweep maximum: the
    graph must be a path braid with singleton end clusters at the pair,
    its central sizes drawn from the admissible table for n."""

    n: int
    max: ExactCount
    pairs_checked: int
    counterexample_codes: tuple[str, ...]
    central_multisets: frozenset[tuple[int, ...]]

    @property
    def all_match(self) -> bool:
        return not self.counterexample_codes


def _path_braid_central(g: Graph, x: int, y: int) -> tuple[int, ...] | None:
    """Central cluster sizes if g is a path braid with end clusters {x}
    and {y} and admissible central sizes, else None.  In such a braid
    the clusters are exactly the distance layers from x, so recognition
    reduces to verifying that layering."""
    from .families import ClusterPartition, f_central_multisets
    from .recognition import verify_braid

    layers = _layers(g.adj, x)
    if sum(layers) != g.full_mask() or len(layers) < 3 or layers[-1] != 1 << y:
        return None
    part = ClusterPartition(tuple(map(vertices_of, layers)), cyclic=False)
    if not verify_braid(g, part).verified:
        return None
    central = part.sizes()[1:-1]
    # every ordering of an admissible multiset is admissible
    if tuple(sorted(central)) not in f_central_multisets(g.n):
        return None
    return central


def verify_extremal_uniqueness(n: int, sweep: SweepResult) -> UniquenessReport:
    """Confirm the path-maximum extremal graphs are path braids with the
    achieving pair as end clusters, for 4 <= n <= SWEEP_MAX_N.  sweep is
    the p2 sweep at n, such as exhaustive_max(n, "p2") or the merge of its
    shards, and must cover all 2^C(n,2) graphs."""
    if not 4 <= n <= SWEEP_MAX_N:
        raise InputError(f"uniqueness check supports 4 <= n <= {SWEEP_MAX_N}, got {n}")
    if (sweep.n, sweep.quantity) != (n, "p2"):
        raise InputError("uniqueness check needs a p2 sweep for the same n")
    if sweep.graphs_scanned != 1 << (n * (n - 1) // 2):
        # a shard's maximum and codes need not be the sweep's
        raise InputError("uniqueness check needs a full sweep, not a shard")
    best = sweep.max.value
    bad: set[str] = set()
    multisets: set[tuple[int, ...]] = set()
    checked = 0
    for code in sorted(sweep.extremal_codes):
        g = parse_graph6(code)
        for x, y in itertools.combinations(range(n), 2):
            if count_induced_st_paths(g, x, y).p2 != best:
                continue
            checked += 1
            central = _path_braid_central(g, x, y)
            if central is None:
                bad.add(code)
            else:
                multisets.add(tuple(sorted(central)))
    return UniquenessReport(
        n=n,
        max=ExactCount(best),
        pairs_checked=checked,
        counterexample_codes=tuple(sorted(bad)),
        central_multisets=frozenset(multisets),
    )
