"""Braid verification, discovery, family classification, maximal 3-braids.

Verification applies the sandwich condition: every vertex of an
applicable cluster must be adjacent to all of both flanking clusters and
to nothing outside the three-cluster window.  Applicable means every
cluster for a cyclic partition and the central clusters (all but the
first and last) otherwise; end clusters of a non-cyclic braid may have
arbitrary outside neighbors.  Consecutive clusters must be completely
joined in every case, which for two-cluster braids is the only
requirement with teeth.

Discovery walks the cluster structure instead of guessing partitions
wholesale.  Fixing the cluster containing vertex 0 (candidates: vertex
sets whose members share one neighborhood outside the set) determines
the union of its two flanking clusters; splitting that union and walking
B_{j+1} = N(B_j) minus (B_{j-1} union B_j) around the cycle
reconstructs everything else, and a final verification guards the walk.
Two degenerate shapes need care: with three clusters every pair is
adjacent (such graphs are exactly those whose complement has at least
three components), and with four clusters the two flanks of any cluster
have identical neighborhoods, so the flank union is split along the
components of the graph it induces.  Four-cluster braids generally admit
many valid partitions (complete bipartite graphs are the extreme case);
discovery returns the canonical first find, and classification searches
all candidate splits for one matching the family's size profile.

Maximal 3-braids are grown as chains of completely-joined disjoint
triples.  Appending a triple makes the old end central, which pins the
new triple to cover that end's remaining neighbors; a chain counts when
neither end extends.  Chains whose vertex set is strictly contained in a
longer chain's are dropped, and chains with the same cluster set (the
wrap-around rotations of a cyclic braid) are reported once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .families import (
    ClusterPartition,
    FamilyId,
    e_sizes,
    g_sizes,
    h_sizes,
    script_g_multisets,
)
from .graphs import Graph, InputError, bits_of, is_connected, mask_of, vertices_of

COND_MISSING_JOIN = "missing-join"
COND_STRAY_NEIGHBOR = "stray-neighbor"

EXHAUSTIVE_SEED_MAX_N = 12
MATE_SLACK = 2  # symmetric-difference filter for cluster-mate candidates


# ======================================================================
# verification
# ======================================================================


@dataclass(frozen=True)
class RecognitionReport:
    """Outcome of a braid check: verdict, family match, and per-cluster
    intra-edge texture; on failure, the first offending vertex."""

    verified: bool
    family: FamilyId | None
    cluster_sizes: tuple[int, ...]
    intra_pattern: tuple[str, ...]
    failure_witness: tuple[int, str] | None

    def __post_init__(self):
        if not self.verified and self.failure_witness is None:
            raise InputError("failed verification needs a witness")

    def to_json_dict(self) -> dict:
        family = None
        if self.family is not None:
            family = {"tag": self.family.tag, "n": self.family.n}
        return {
            "verified": self.verified,
            "family": family,
            "cluster_sizes": list(self.cluster_sizes),
            "intra_pattern": list(self.intra_pattern),
            "failure_witness": (
                list(self.failure_witness) if self.failure_witness else None
            ),
        }


def _intra_pattern(g: Graph, cluster: tuple[int, ...]) -> str:
    s = len(cluster)
    if s < 2:
        return "empty"
    have = sum(1 for a, b in itertools.combinations(cluster, 2) if g.has_edge(a, b))
    if have == 0:
        return "empty"
    if have == s * (s - 1) // 2:
        return "full"
    return "mixed"


def _check_partition(g: Graph, p: ClusterPartition) -> None:
    if not p.cyclic and p.k < 2:
        raise InputError("a braid needs at least 2 clusters")
    for c in p.clusters:
        for v in c:
            if not 0 <= v < g.n:
                raise InputError(f"cluster vertex {v} out of range for n={g.n}")


def _find_violation(g: Graph, p: ClusterPartition) -> tuple[int, str] | None:
    masks = [mask_of(c) for c in p.clusters]
    k = p.k
    # complete join between every consecutive pair
    pairs = [(i, i + 1) for i in range(k - 1)]
    if p.cyclic:
        pairs.append((k - 1, 0))
    for i, j in pairs:
        for v in sorted(p.clusters[i]):
            if masks[j] & ~g.adj[v]:
                return (v, COND_MISSING_JOIN)
        for v in sorted(p.clusters[j]):
            if masks[i] & ~g.adj[v]:
                return (v, COND_MISSING_JOIN)
    # window upper bound for applicable clusters
    applicable = range(k) if p.cyclic else range(1, k - 1)
    for i in applicable:
        window = masks[(i - 1) % k] | masks[i] | masks[(i + 1) % k]
        for v in sorted(p.clusters[i]):
            if g.adj[v] & ~window:
                return (v, COND_STRAY_NEIGHBOR)
    return None


def verify_braid(g: Graph, p: ClusterPartition) -> RecognitionReport:
    """Check the sandwich condition for p against g.

    A partition covering only part of V(g) is checked as a braid inside
    g: central clusters still see the whole-graph neighborhoods."""
    _check_partition(g, p)
    witness = _find_violation(g, p)
    verified = witness is None
    family = None
    if verified and p.cyclic and p.vertex_mask() == g.full_mask():
        matches = _match_families(g, p)
        family = matches[0] if matches else None
    return RecognitionReport(
        verified=verified,
        family=family,
        cluster_sizes=p.size_multiset(),
        intra_pattern=tuple(_intra_pattern(g, c) for c in p.clusters),
        failure_witness=witness,
    )


# ======================================================================
# family matching against a given partition
# ======================================================================


def _consecutive_arc(k: int, positions: list[int]) -> bool:
    if len(positions) <= 1:
        return True
    pos = set(positions)
    return any(
        all((s + d) % k in pos for d in range(len(positions))) for s in positions
    )


def _sizes_or_none(fn, n: int) -> tuple[int, ...] | None:
    try:
        return tuple(sorted(fn(n)))
    except InputError:
        return None


def _match_families(g: Graph, p: ClusterPartition) -> list[FamilyId]:
    """Family tags this exact partition certifies, in report order."""
    if not p.cyclic or p.vertex_mask() != g.full_mask():
        return []
    n = g.n
    sizes = p.sizes()
    ms = p.size_multiset()
    patterns = [_intra_pattern(g, c) for c in p.clusters]
    special_positions = [i for i, s in enumerate(sizes) if s != 3]
    out = []
    if ms == _sizes_or_none(h_sizes, n) and all(x == "empty" for x in patterns):
        out.append(FamilyId("H", n))
    if (
        ms == _sizes_or_none(g_sizes, n)
        and all(x == "full" for x in patterns)
        and _consecutive_arc(p.k, special_positions)
    ):
        out.append(FamilyId("G", n))
    if (
        ms == _sizes_or_none(e_sizes, n)
        and all(x == "empty" for x in patterns)
        and _consecutive_arc(p.k, special_positions)
    ):
        out.append(FamilyId("E", n))
    try:
        script_targets = script_g_multisets(n)
    except InputError:
        script_targets = []
    if any(ms == tuple(sorted(t)) for t in script_targets):
        out.append(FamilyId("G_script", n))
    return out


# ======================================================================
# discovery
# ======================================================================


def _components(rows: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by mask on the
    adjacency rows, ordered by lowest vertex."""
    comps = []
    left = mask
    while left:
        comp = frontier = left & -left
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nbrs = rows[v] & mask & ~comp
            comp |= nbrs
            frontier |= nbrs
        comps.append(comp)
        left &= ~comp
    return comps


def _common_outside(g: Graph, cluster_mask: int) -> int | None:
    """The shared neighborhood outside the set, or None if members differ."""
    out = -1
    for v in bits_of(cluster_mask):
        o = g.adj[v] & ~cluster_mask
        if out == -1:
            out = o
        elif o != out:
            return None
    return out


def _seed_clusters(g: Graph):
    """Candidate clusters containing vertex 0, smallest first.

    Small graphs are searched exhaustively; past that, candidates combine
    vertex 0 with near-twins (neighborhoods differing in at most
    MATE_SLACK places), which finds every cluster of size <= 4."""
    if g.n <= EXHAUSTIVE_SEED_MAX_N:
        rest = g.n - 1
        masks = [(m << 1) | 1 for m in range(1 << rest)]
    else:
        pool = [
            x
            for x in range(1, g.n)
            if ((g.adj[x] ^ g.adj[0]) & ~((1 << x) | 1)).bit_count() <= MATE_SLACK
        ]
        masks = [
            1 | mask_of(s)
            for r in range(0, 4)
            for s in itertools.combinations(pool, r)
        ]
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _walk_forward(
    g: Graph, b1: int, b2: int, blast: int, out: int
) -> list[int] | None:
    clusters = [b1, b2]
    used = b1 | out
    for _ in range(g.n):
        cur = clusters[-1]
        prev = clusters[-2]
        nxt = -1
        for x in bits_of(cur):
            cand = g.adj[x] & ~(prev | cur)
            if nxt == -1:
                nxt = cand
            elif cand != nxt:
                return None
        if nxt == blast:
            clusters.append(blast)
            if len(clusters) < 4:
                return None
            total = 0
            for c in clusters:
                total |= c
            return clusters if total == g.full_mask() else None
        if not nxt or nxt & used:
            return None
        clusters.append(nxt)
        used |= nxt
    return None


def _as_partition(cluster_masks: list[int]) -> ClusterPartition:
    return ClusterPartition(
        tuple(vertices_of(m) for m in cluster_masks), cyclic=True
    )


def candidate_cyclic_partitions(g: Graph, all_splits: bool = False):
    """Yield verified cyclic-braid partitions of g, canonical orientation
    (vertex 0 in the first cluster, smaller-minimum neighbor second),
    deduplicated.  all_splits widens the four-cluster flank split from
    the canonical choice to every bipartition, for classification."""
    if g.n < 3 or not is_connected(g):
        return
    seen: set[tuple] = set()

    def emit(cluster_masks):
        part = _as_partition(cluster_masks)
        key = part.clusters
        if key in seen:
            return None
        seen.add(key)
        if _find_violation(g, part) is None:
            return part
        return None

    full = g.full_mask()
    complement = tuple(full & ~g.closed(v) for v in range(g.n))
    comps = _components(complement, full)
    if len(comps) >= 3:
        rest = 0
        for m in comps[2:]:
            rest |= m
        groupings = [comps] if len(comps) == 3 else [[comps[0], comps[1], rest]]
        for grouping in groupings:
            part = emit(grouping)
            if part is not None:
                yield part
    for b1 in _seed_clusters(g):
        out = _common_outside(g, b1)
        if not out:
            continue
        groups: dict[int, int] = {}
        for y in bits_of(out):
            r = g.adj[y] & ~(b1 | out)
            groups[r] = groups.get(r, 0) | (1 << y)
        if len(groups) == 2:
            first, second = sorted(groups.values(), key=lambda m: m & -m)
            splits = [(first, second)]
        elif len(groups) == 1:
            comps_out = _components(g.adj, out)
            if len(comps_out) < 2:
                continue
            rest = out & ~comps_out[0]
            splits = [(comps_out[0], rest)]
            if all_splits and len(comps_out) <= 12:
                others = comps_out[1:]
                for r in range(0, len(others)):
                    for extra in itertools.combinations(others, r):
                        side = comps_out[0]
                        for m in extra:
                            side |= m
                        if side != out and (side, out & ~side) not in splits:
                            splits.append((side, out & ~side))
        else:
            continue
        for b2, blast in splits:
            walked = _walk_forward(g, b1, b2, blast, out)
            if walked is None:
                continue
            part = emit(walked)
            if part is not None:
                yield part


def discover_cyclic_braid(g: Graph) -> ClusterPartition | None:
    """First verified cyclic-braid partition in canonical order, if any.

    Four-cluster braids can be partitioned in many valid ways; the one
    returned favors the smallest cluster around vertex 0.  Clusters
    larger than 4 are only discovered for n <= 12."""
    return next(candidate_cyclic_partitions(g), None)


# ======================================================================
# classification
# ======================================================================


def classify_family_all(g: Graph) -> list[FamilyId]:
    """Every named cyclic family g belongs to, in (H, G, E, script-G)
    order.  Searches all candidate partitions, so degenerate four-cluster
    graphs still match their families."""
    feasible = {
        tag
        for tag, fn in (("H", h_sizes), ("G", g_sizes), ("E", e_sizes))
        if _sizes_or_none(fn, g.n) is not None
    }
    try:
        if script_g_multisets(g.n):
            feasible.add("G_script")
    except InputError:
        pass
    if not feasible:
        return []
    found: dict[str, FamilyId] = {}
    for part in candidate_cyclic_partitions(g, all_splits=True):
        for fam in _match_families(g, part):
            found.setdefault(fam.tag, fam)
        if set(found) >= feasible:
            break
    return [found[t] for t in ("H", "G", "E", "G_script") if t in found]


def classify_family(g: Graph) -> FamilyId | None:
    """The first matching family tag, if any."""
    matches = classify_family_all(g)
    return matches[0] if matches else None


# ======================================================================
# maximal 3-braids
# ======================================================================


def _triple_extensions(
    g: Graph, end: tuple[int, ...], inner: tuple[int, ...] | None, used: int
) -> list[tuple[int, ...]]:
    """Triples that can be appended beyond `end`; inner is the cluster
    next to it, whose presence makes `end` central after the append."""
    common = g.full_mask()
    for x in end:
        common &= g.adj[x]
    avail = common & ~used
    if inner is None:
        return [tuple(t) for t in itertools.combinations(vertices_of(avail), 3)]
    end_mask = mask_of(end)
    required = 0
    for x in end:
        required |= g.adj[x]
    required &= ~(mask_of(inner) | end_mask)
    if required & ~avail or required.bit_count() > 3:
        return []
    base = vertices_of(required)
    rest = vertices_of(avail & ~required)
    return [
        tuple(sorted(base + extra))
        for extra in itertools.combinations(rest, 3 - len(base))
    ]


def maximal_3braids(g: Graph) -> list[ClusterPartition]:
    """All maximal braids whose clusters are triples.

    Maximal means no triple extends either end and no longer discovered
    braid covers the vertex set; rotations of one cyclic wrap collapse to
    a single report.  Cost grows with the number of completely-joined
    triple pairs, which is tiny outside of dense near-complete graphs."""
    if g.n < 6:
        return []
    found: dict[tuple, int] = {}

    def grow(chain: tuple[tuple[int, ...], ...], used: int) -> None:
        inner = chain[-2] if len(chain) >= 2 else None
        extensions = _triple_extensions(g, chain[-1], inner, used)
        if extensions:
            for t in extensions:
                grow(chain + (t,), used | mask_of(t))
            return
        if len(chain) < 2:
            return
        left_inner = chain[1]
        if _triple_extensions(g, chain[0], left_inner, used):
            return
        key = min(chain, tuple(reversed(chain)))
        found.setdefault(key, used)

    for seed in itertools.combinations(range(g.n), 3):
        grow((seed,), mask_of(seed))

    chains = list(found.items())
    kept = [
        (chain, mask)
        for chain, mask in chains
        if not any(
            mask != other and mask | other == other for _, other in chains
        )
    ]
    by_cluster_set: dict[frozenset, tuple] = {}
    for chain, _ in kept:
        key = frozenset(chain)
        if key not in by_cluster_set or chain < by_cluster_set[key]:
            by_cluster_set[key] = chain
    return [
        ClusterPartition(chain, cyclic=False)
        for chain in sorted(by_cluster_set.values())
    ]
