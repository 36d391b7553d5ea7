"""Exhaustive ground truth over all graphs on few vertices.

A sweep evaluates one census quantity on every graph on n vertices and
reports the maximum with the graphs achieving it, up to isomorphism:
the oracle that checks the closed forms where "all graphs" is literal.
It scores graphs with quantity_of_graph, the per-graph engines that also
re-check its extremal codes and every checkpoint line.

Classes.  _classes(k) holds one graph per isomorphism class on k
vertices with its labelled count lab, the number of graphs on 0..k-1
isomorphic to it.  It extends every class on k - 1 vertices by vertex
k - 1 once per neighbourhood and deduplicates on canonical_code; lab of
a class sums lab of the parents over the extensions landing on it.  The
class counts must equal OEIS A000088, or the build raises InternalError.

Units.  A sweep on n vertices scores every unit (class P on n - 1
vertices, neighbourhood N of vertex n - 1), with no deduplication at
level n.  A labelled graph is its restriction to 0..n-2 plus the
neighbourhood of n - 1, and relabelling the restriction onto P maps
exactly lab(P) labelled graphs, all isomorphic to it, onto each unit.
So the best unit is the best graph, and graphs_scanned, the sum of
lab(P) over the units, is 2^C(n,2) for a full sweep.  Only units at the
maximum are canonicalized.  Unit u is (class u >> (n - 1), N = its low
n - 1 bits).  A sweep runs in one process; shards, contiguous unit
ranges merged by merge_sweeps, are the way to run one in parallel (one
process per shard), and any shard split gives the same result.

Audit.  slow_census, the subset oracle, re-scores sampled units.  For a
path quantity: G plus a vertex z adjacent to exactly x and y has one
induced cycle with L + 2 vertices through z per induced x-y path of G
with L edges, and no other cycle through z.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .census import (
    PathCensus,
    count_induced_cycles,
    count_induced_st_paths,
    p2_max,
    slow_census,
)
from .families import ClusterPartition, f_central_sequences
from .formulas import ExactCount
from .graphs import (
    CYCLE_QUANTITIES,
    PATH_QUANTITIES,
    QUANTITIES,
    CanonicalCode,
    Graph,
    InputError,
    InternalError,
    _layers,
    canonical_code,
    vertices_of,
)
from .recognition import verify_braid

SWEEP_MAX_N = 7
LONG_RUN_MAX_N = 8
AUDIT_SAMPLES = 10
# OEIS A000088: the number of isomorphism classes of graphs on k vertices
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)


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
    found: dict[CanonicalCode, list] = {}
    for parent, lab in _classes(k - 1):
        for nbhd in range(1 << (k - 1)):
            g = _extend(parent, nbhd)
            found.setdefault(canonical_code(g), [g, 0])[1] += lab
    if len(found) != A000088[k]:
        raise InternalError(f"{len(found)} isomorphism classes on {k} "
                            f"vertices, not {A000088[k]}")
    return tuple((g, lab) for g, lab in found.values())


def _unit_graph(n: int, unit: int) -> Graph:
    parent = _classes(n - 1)[unit >> (n - 1)][0]
    return _extend(parent, unit & ((1 << (n - 1)) - 1))


def _labelled_count(n: int, lo: int, hi: int) -> int:
    """How many labelled graphs the units [lo, hi) stand for."""
    classes = _classes(n - 1)
    return sum(classes[unit >> (n - 1)][1] for unit in range(lo, hi))

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


def _slow_quantity(g: Graph, quantity: str) -> int:
    """The swept quantity of one graph, via the subset oracle alone."""
    cycles = slow_census(g)
    if quantity in CYCLE_QUANTITIES:
        return getattr(cycles, _CENSUS_FIELD[quantity])
    best = 0
    for x, y in itertools.combinations(range(g.n), 2):
        # the cycles through z with L + 2 vertices are the x-y paths with
        # L edges (see the module docstring)
        with_z = slow_census(_extend(g, 1 << x | 1 << y)).by_length
        paths = PathCensus({
            size - 2: count - cycles.by_length.get(size, 0)
            for size, count in with_z.items()
        })
        best = max(best, getattr(paths, _CENSUS_FIELD[quantity]))
    return best


def _audit(n: int, quantity: str, lo: int, hi: int) -> None:
    """Sampled cross-check: the per-graph engines and the independent
    subset oracle must agree on random units of [lo, hi)."""
    rng = random.Random(f"sweep:{n}:{quantity}")
    for _ in range(AUDIT_SAMPLES):
        unit = rng.randrange(lo, hi)
        g = _unit_graph(n, unit)
        fast, slow = quantity_of_graph(g, quantity), _slow_quantity(g, quantity)
        if fast != slow:
            raise InternalError(
                f"engine mismatch at unit {unit}: census {fast}, "
                f"subset oracle {slow}"
            )


# ======================================================================
# the sweep
# ======================================================================


def shard_range(n: int, shards: int, shard: int) -> tuple[int, int]:
    """Half-open unit range owned by one shard (contiguous, near-equal
    slices of the A000088(n - 1) * 2^(n - 1) units)."""
    if shards < 1 or not 0 <= shard < shards:
        raise InputError(f"bad shard {shard} of {shards}")
    if not 2 <= n <= LONG_RUN_MAX_N:
        raise InputError(f"sweeps need 2 <= n <= {LONG_RUN_MAX_N}, got {n}")
    total = A000088[n - 1] << (n - 1)
    lo = shard * total // shards
    hi = (shard + 1) * total // shards
    if lo == hi:
        raise InputError(f"shard {shard} of {shards} is empty at n={n}")
    return lo, hi


def exhaustive_max(
    n: int,
    quantity: str,
    long_run: bool = False,
    shards: int = 1,
    shard: int = 0,
) -> SweepResult:
    """Score all graphs on n vertices (or one shard of them) and
    maximize the quantity; path quantities maximize over unordered
    endpoint pairs within each graph first.

    n <= 7 is always allowed; n = 8 needs long_run=True (133,632 units
    standing for a quarter billion labelled graphs).  Shards split the
    units for checkpointed runs and for parallel ones, one process per
    shard; combine shard results with merge_sweeps.
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
    best, winners = -1, []
    for unit in range(lo, hi):
        value = quantity_of_graph(_unit_graph(n, unit), quantity)
        if value > best:
            best, winners = value, [unit]
        elif value == best:
            winners.append(unit)
    codes = {canonical_code(_unit_graph(n, unit)) for unit in winners}
    _audit(n, quantity, lo, hi)
    result = SweepResult(
        n=n,
        quantity=quantity,
        max=ExactCount(best),
        extremal_codes=frozenset(codes),
        graphs_scanned=_labelled_count(n, lo, hi),
    )
    bad = _bad_code(result)
    if bad:
        raise InternalError(f"post-sweep check failed: {bad}")
    return result


def _bad_code(result: SweepResult) -> str | None:
    """Why the first extremal code that is not a canonical code on n
    vertices scoring the result's max fails, or None if every code is."""
    for code in sorted(result.extremal_codes, key=lambda c: c.g6):
        g = code.graph()
        if g.n != result.n:
            return f"{code.g6} has {g.n} vertices, not {result.n}"
        achieved = quantity_of_graph(g, result.quantity)
        if achieved != result.max.value:
            return f"{code.g6} scores {achieved}, not {result.max.value}"
        # an isomorphic relabeling would merge as one more extremal class
        if canonical_code(g) != code:
            return f"{code.g6} is not canonical"
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
        + sorted(c.g6 for c in result.extremal_codes)
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
        extremal_codes=frozenset(CanonicalCode(g6) for g6 in fields[2:]),
        graphs_scanned=_labelled_count(n, lo, hi),
    )
    bad = _bad_code(result)
    if bad:
        raise InputError(f"checkpoint line of shard {shard}: {bad}")
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


def _path_braid_central(g: Graph, x: int, y: int) -> tuple[int, ...] | None:
    """Central cluster sizes if g is a path braid with end clusters {x}
    and {y} and admissible central sizes, else None.  In such a braid
    the clusters are exactly the distance layers from x, so recognition
    reduces to verifying that layering."""
    layers = _layers(g.adj, x)
    if sum(layers) != g.full_mask() or len(layers) < 3 or layers[-1] != 1 << y:
        return None
    part = ClusterPartition(tuple(map(vertices_of, layers)), cyclic=False)
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
