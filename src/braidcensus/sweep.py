"""Exhaustive ground truth over all labelled graphs on few vertices.

A sweep scans every edge-bit code on n vertices, evaluates one census
quantity per graph, and reports the maximum together with the graphs
achieving it, deduplicated up to isomorphism.  This is the oracle of
last resort: the closed forms and the per-graph engines are checked
against it at the only scale where "all graphs" is literal.

The scan is vectorized over blocks of codes by a subset-pattern trick.
An induced cycle occupies a vertex subset S and forces an exact edge
pattern there (the cycle's edges, nothing else), so the number of
induced cycles in G is the number of pairs (S, cycle pattern on S)
whose pattern equals G's restriction to S.  Induced x-y paths work the
same way with path patterns anchored at x and y.  For a block of
codes, the restriction to S packs into one small integer per code, and
a 0/1 table indexed by packed pattern turns the whole block's counts
into a single gather.  Blocks are contiguous code ranges, so workers
own disjoint slices and merging is a (value, code-set) join; results
are identical for any worker count.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .census import (
    CYCLE_QUANTITIES,
    PATH_QUANTITIES,
    QUANTITIES,
    count_induced_cycles,
    count_induced_st_paths,
    p2_max,
    slow_census,
)
from .families import ClusterPartition, f_central_sequences
from .formulas import ExactCount
from .graphs import (
    CanonicalCode,
    Graph,
    InputError,
    InternalError,
    ball,
    canonical_code,
    graph_from_pair_bits,
    pair_order,
    vertices_of,
)
from .recognition import verify_braid

SWEEP_MAX_N = 7
LONG_RUN_MAX_N = 8
BLOCK_BITS = 16
AUDIT_SAMPLES = 10
# pattern tables larger than this many index bits switch to binary search
TABLE_BITS_CAP = 16


# ======================================================================
# result type
# ======================================================================


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one exhaustive scan (possibly one shard of it)."""

    n: int
    quantity: str
    max: ExactCount
    extremal_codes: frozenset[CanonicalCode]
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
            "extremal_codes": sorted(c.g6 for c in self.extremal_codes),
        }


# ======================================================================
# pattern plans
# ======================================================================


def _cycle_sizes(n: int, quantity: str) -> list[int]:
    lo = 5 if quantity == "m_odd_holes" else 3
    if quantity == "m":
        step = 1
    elif quantity == "m_even":
        lo, step = 4, 2
    else:
        step = 2  # m_odd and m_odd_holes keep odd sizes only
    return list(range(lo, n + 1, step))


def _path_sizes(n: int, quantity: str) -> list[int]:
    # parity is by vertex count: an s-vertex path has s - 1 edges
    if quantity == "p2":
        return list(range(2, n + 1))
    lo = 3 if quantity == "p2_odd" else 2
    return list(range(lo, n + 1, 2))


def _local_positions(verts: tuple[int, ...], pidx: dict) -> tuple[int, ...]:
    """Global pair-bit positions inside the subset, ascending; local bit
    j of a packed pattern is the j-th of these."""
    return tuple(
        sorted(pidx[i, j] for i, j in itertools.combinations(verts, 2))
    )


def _pack_pattern(edges, positions: tuple[int, ...], pidx: dict) -> int:
    local = {pos: j for j, pos in enumerate(positions)}
    out = 0
    for a, b in edges:
        out |= 1 << local[pidx[min(a, b), max(a, b)]]
    return out


def _cycle_patterns(verts: tuple[int, ...], positions, pidx) -> list[int]:
    """Every labelled cycle through all of `verts`, one per direction."""
    first, rest = verts[0], verts[1:]
    out = []
    for perm in itertools.permutations(rest):
        if len(perm) > 1 and perm[0] > perm[-1]:
            continue  # the reversed traversal is the same cycle
        order = (first,) + perm
        edges = list(zip(order, order[1:] + (first,)))
        out.append(_pack_pattern(edges, positions, pidx))
    return out


def _path_patterns(verts, x: int, y: int, positions, pidx) -> list[int]:
    """Every labelled x-y path through all of `verts`."""
    interior = tuple(v for v in verts if v != x and v != y)
    out = []
    for perm in itertools.permutations(interior):
        order = (x,) + perm + (y,)
        out.append(_pack_pattern(edges=list(zip(order, order[1:])),
                                 positions=positions, pidx=pidx))
    return out


@lru_cache(maxsize=None)
def _plan(n: int, quantity: str) -> tuple:
    """Per-subset work list.  Cycle quantities: (positions, patterns)
    steps.  Path quantities: (positions, ((pair index, patterns), ...))
    steps, so each subset is bit-packed once for all its endpoint pairs.
    """
    pidx = {pair: t for t, pair in enumerate(pair_order(n))}
    steps = []
    if quantity in CYCLE_QUANTITIES:
        for s in _cycle_sizes(n, quantity):
            for verts in itertools.combinations(range(n), s):
                positions = _local_positions(verts, pidx)
                patterns = tuple(sorted(_cycle_patterns(verts, positions, pidx)))
                steps.append((positions, patterns))
        return tuple(steps)
    for s in _path_sizes(n, quantity):
        for verts in itertools.combinations(range(n), s):
            positions = _local_positions(verts, pidx)
            per_pair = []
            for x, y in itertools.combinations(verts, 2):
                patterns = tuple(
                    sorted(_path_patterns(verts, x, y, positions, pidx))
                )
                per_pair.append((pidx[x, y], patterns))
            steps.append((positions, tuple(per_pair)))
    return tuple(steps)


# ======================================================================
# vectorized block scan
# ======================================================================


def _pack_codes(codes: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    packed = np.zeros_like(codes)
    for j, pos in enumerate(positions):
        packed |= ((codes >> pos) & 1) << j
    return packed


def _pattern_hits(packed: np.ndarray, patterns: tuple[int, ...],
                  width: int) -> np.ndarray:
    """Per-code count of patterns equal to the packed restriction (0/1,
    since patterns are distinct and the match is exact equality)."""
    if width <= TABLE_BITS_CAP:
        table = np.zeros(1 << width, dtype=np.int64)
        table[list(patterns)] = 1
        return table[packed]
    arr = np.asarray(patterns, dtype=np.int64)
    idx = np.minimum(np.searchsorted(arr, packed), len(arr) - 1)
    return (arr[idx] == packed).astype(np.int64)


def _values_for_codes(n: int, quantity: str, codes: np.ndarray) -> np.ndarray:
    """The quantity of every code in the array, as one int64 array."""
    plan = _plan(n, quantity)
    if quantity in CYCLE_QUANTITIES:
        total = np.zeros(len(codes), dtype=np.int64)
        for positions, patterns in plan:
            packed = _pack_codes(codes, positions)
            total += _pattern_hits(packed, patterns, len(positions))
        return total
    per_pair = np.zeros((len(pair_order(n)), len(codes)), dtype=np.int64)
    for positions, pair_steps in plan:
        packed = _pack_codes(codes, positions)
        for pair_t, patterns in pair_steps:
            per_pair[pair_t] += _pattern_hits(packed, patterns, len(positions))
    return per_pair.max(axis=0)


def _scan_block(args: tuple) -> tuple[int, frozenset[str], int]:
    """Worker unit: scan [start, stop) and return (block max, canonical
    graph6 codes achieving it, codes scanned).  Module level so process
    pools can pickle it."""
    n, quantity, start, stop = args
    codes = np.arange(start, stop, dtype=np.int64)
    values = _values_for_codes(n, quantity, codes)
    best = int(values.max())
    achievers = codes[values == best]
    canon = {
        canonical_code(graph_from_pair_bits(n, int(c))).g6 for c in achievers
    }
    return best, frozenset(canon), len(codes)


# ======================================================================
# per-graph evaluation (audits and re-verification)
# ======================================================================


def quantity_of_graph(g: Graph, quantity: str) -> int:
    """The swept quantity of one graph, via the per-graph engines."""
    if quantity in CYCLE_QUANTITIES:
        census = count_induced_cycles(g)
        return {
            "m": census.f,
            "m_odd": census.f_o,
            "m_even": census.f_e,
            "m_odd_holes": census.odd_holes,
        }[quantity]
    if quantity not in PATH_QUANTITIES:
        raise InputError(f"unknown quantity {quantity!r}")
    parity = {"p2": "all", "p2_odd": "odd", "p2_even": "even"}[quantity]
    return p2_max(g, parity)[0]


def _audit(n: int, quantity: str, lo: int, hi: int) -> None:
    """Sampled cross-check: the vectorized engine, the per-graph engine,
    and the independent subset oracle must agree on random codes."""
    rng = random.Random(f"sweep:{n}:{quantity}")
    for _ in range(AUDIT_SAMPLES):
        code = rng.randrange(lo, hi)
        g = graph_from_pair_bits(n, code)
        vec = int(_values_for_codes(n, quantity, np.array([code]))[0])
        ref = quantity_of_graph(g, quantity)
        if vec != ref:
            raise InternalError(
                f"engine mismatch at code {code}: vectorized {vec}, census {ref}"
            )
        fast, slow = count_induced_cycles(g), slow_census(g)
        if fast.by_length != slow.by_length:
            raise InternalError(f"cycle engines disagree at code {code}")


# ======================================================================
# the sweep
# ======================================================================


def shard_range(n: int, shards: int, shard: int) -> tuple[int, int]:
    """Half-open code range owned by one shard (contiguous, near-equal
    slices of the 2^C(n,2) code space)."""
    if shards < 1 or not 0 <= shard < shards:
        raise InputError(f"bad shard {shard} of {shards}")
    total = 1 << (n * (n - 1) // 2)
    lo = shard * total // shards
    hi = (shard + 1) * total // shards
    if lo == hi:
        raise InputError(f"shard {shard} of {shards} is empty at n={n}")
    return lo, hi


def exhaustive_max(
    n: int,
    quantity: str,
    threads: int = 1,
    long_run: bool = False,
    shards: int = 1,
    shard: int = 0,
) -> SweepResult:
    """Scan all labelled graphs on n vertices (or one shard of them) and
    maximize the quantity; path quantities maximize over unordered
    endpoint pairs within each graph first.

    n <= 7 is always allowed; n = 8 needs long_run=True (a quarter
    billion graphs).  Shards split the code space for checkpointed runs;
    combine shard results with merge_sweeps.
    """
    if quantity not in QUANTITIES:
        raise InputError(f"quantity must be one of {QUANTITIES}")
    if n < 2:
        raise InputError(f"sweep needs n >= 2, got {n}")
    limit = LONG_RUN_MAX_N if long_run else SWEEP_MAX_N
    if n > limit:
        raise InputError(
            f"n={n} exceeds the sweep limit {limit}"
            + ("" if long_run else " (pass long_run=True up to n=8)")
        )
    lo, hi = shard_range(n, shards, shard)
    blocks = [
        (n, quantity, start, min(start + (1 << BLOCK_BITS), hi))
        for start in range(lo, hi, 1 << BLOCK_BITS)
    ]
    if threads > 1 and len(blocks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(_scan_block, blocks))
        except (OSError, BrokenExecutor):
            # no pool here (sandboxes) or a worker died: scan in-process
            parts = [_scan_block(b) for b in blocks]
    else:
        parts = [_scan_block(b) for b in blocks]
    best = max(p[0] for p in parts)
    codes = set()
    for value, canon, _ in parts:
        if value == best:
            codes.update(canon)
    scanned = sum(p[2] for p in parts)
    _audit(n, quantity, lo, hi)
    result = SweepResult(
        n=n,
        quantity=quantity,
        max=ExactCount(best),
        extremal_codes=frozenset(CanonicalCode(g6) for g6 in codes),
        graphs_scanned=scanned,
    )
    misscored = _misscored(result)
    if misscored:
        raise InternalError(f"post-sweep check failed: {misscored}")
    return result


def _misscored(result: SweepResult) -> str | None:
    """Why the first extremal code that does not score the result's max on
    n vertices fails, or None if every code does."""
    for code in sorted(result.extremal_codes, key=lambda c: c.g6):
        g = code.graph()
        if g.n != result.n:
            return f"{code.g6} has {g.n} vertices, not {result.n}"
        achieved = quantity_of_graph(g, result.quantity)
        if achieved != result.max.value:
            return f"{code.g6} scores {achieved}, not {result.max.value}"
    return None


def merge_sweeps(parts: list[SweepResult]) -> SweepResult:
    """Join shard results: the max wins, code sets at the max unite."""
    if not parts:
        raise InputError("nothing to merge")
    n, quantity = parts[0].n, parts[0].quantity
    for p in parts:
        if (p.n, p.quantity) != (n, quantity):
            raise InputError("cannot merge sweeps of different (n, quantity)")
    best = max(p.max.value for p in parts)
    codes: set[CanonicalCode] = set()
    for p in parts:
        if p.max.value == best:
            codes.update(p.extremal_codes)
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
        + sorted(c.g6 for c in result.extremal_codes)
    )


def parse_checkpoint_line(
    n: int, quantity: str, shards: int, line: str
) -> tuple[int, SweepResult]:
    """Rebuild (shard index, shard result) from a checkpoint line; the
    scanned count is recomputed from the shard geometry, and every code
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
        extremal_codes=frozenset(CanonicalCode(g6) for g6 in fields[2:]),
        graphs_scanned=hi - lo,
    )
    misscored = _misscored(result)
    if misscored:
        raise InputError(f"checkpoint line of shard {shard}: {misscored}")
    for code in sorted(result.extremal_codes, key=lambda c: c.g6):
        # an isomorphic relabeling would merge as one more extremal class
        if canonical_code(code.graph()) != code:
            raise InputError(
                f"checkpoint line of shard {shard}: {code.g6} is not canonical"
            )
    return shard, result


# ======================================================================
# extremal uniqueness at the path maximum
# ======================================================================


@dataclass(frozen=True)
class UniquenessReport:
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max": str(self.max.value),
            "pairs_checked": self.pairs_checked,
            "counterexample_codes": list(self.counterexample_codes),
            "central_multisets": sorted(
                list(m) for m in self.central_multisets
            ),
            "all_match": self.all_match,
        }


def _layers_from(g: Graph, x: int) -> list[tuple[int, ...]]:
    """Breadth-first distance layers seeded at x, as vertex tuples."""
    layers = []
    inner, r = 0, 0
    while (outer := ball(g, x, r)) != inner:
        layers.append(vertices_of(outer & ~inner))
        inner, r = outer, r + 1
    return layers


def _path_braid_central(g: Graph, x: int, y: int) -> tuple[int, ...] | None:
    """Central cluster sizes if g is a path braid with end clusters {x}
    and {y} and admissible central sizes, else None.  In such a braid
    the clusters are exactly the distance layers from x, so recognition
    reduces to verifying that layering."""
    layers = _layers_from(g, x)
    covered = sum(len(layer) for layer in layers)
    if covered != g.n or len(layers) < 3 or layers[-1] != (y,):
        return None
    part = ClusterPartition(tuple(layers), cyclic=False)
    if not verify_braid(g, part).verified:
        return None
    central = part.sizes()[1:-1]
    allowed = set(f_central_sequences(g.n))
    if min(central, central[::-1]) not in allowed:
        return None
    return central


def verify_extremal_uniqueness(
    n: int, sweep: SweepResult | None = None
) -> UniquenessReport:
    """Confirm the path-maximum extremal graphs are path braids with the
    achieving pair as end clusters, for 4 <= n <= 7."""
    if not 4 <= n <= 7:
        raise InputError(f"uniqueness check supports 4 <= n <= 7, got {n}")
    if sweep is None:
        sweep = exhaustive_max(n, "p2")
    if (sweep.n, sweep.quantity) != (n, "p2"):
        raise InputError("uniqueness check needs a p2 sweep for the same n")
    best = sweep.max.value
    bad: set[str] = set()
    multisets: set[tuple[int, ...]] = set()
    checked = 0
    for code in sorted(sweep.extremal_codes, key=lambda c: c.g6):
        g = code.graph()
        for x, y in itertools.combinations(range(n), 2):
            if count_induced_st_paths(g, x, y).p2 != best:
                continue
            checked += 1
            central = _path_braid_central(g, x, y)
            if central is None:
                bad.add(code.g6)
            else:
                multisets.add(tuple(sorted(central)))
    return UniquenessReport(
        n=n,
        max=ExactCount(best),
        pairs_checked=checked,
        counterexample_codes=tuple(sorted(bad)),
        central_multisets=frozenset(multisets),
    )
