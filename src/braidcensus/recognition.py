"""Braid verification, discovery, family classification, maximal 3-braids.

Verification applies the sandwich condition: every vertex of an
applicable cluster must be adjacent to all of both flanking clusters and
to nothing outside the three-cluster window.  Applicable means every
cluster for a cyclic partition and the central clusters (all but the
first and last) otherwise; end clusters of a non-cyclic braid may have
arbitrary outside neighbors.  Consecutive clusters must be completely
joined in every case, which for two-cluster braids is the only
requirement with teeth.

Discovery is a case split on the co-components of G (the components of
its complement; T. Gallai's modular decomposition), and each case is
exact.  Distinct co-components are completely joined, and in a cyclic
braid B_i and B_j are non-adjacent unless they are equal or
consecutive, so k = 3 has at least three co-components, k = 4 exactly
two (B_0 union B_2 and B_1 union B_3) and k >= 5 exactly one.

* Three or more co-components: only three-cluster braids exist, and
  any grouping of the co-components into three parts is one.
* Two, X containing vertex 0 and Y: X and Y are joined, so X is
  B_0 union B_2 and Y is B_1 union B_3.  B_0 and B_2 are not adjacent,
  so each is a union of components of G[X] (likewise in Y), and every
  such split is a braid.  Discovery yields the prefix splits of each
  side's components in lowest-vertex order.  A family-matching
  four-cluster braid has empty clusters (H at n = 11-13 and E at n = 14
  are the only such profiles; G and script-G always have k >= 5), so it
  is complete bipartite, and prefix splits reach every size pair.  At
  those n discovery returns the first split that a family certifies.
* One: B_{-1} union B_1 is a co-component of G[N(0)] with at least two
  vertices, and B_0 is exactly the set of vertices joined to all of it
  (with k >= 5 no other cluster touches both flanks).  The flanks split
  by their neighbors beyond B_0, and walking B_{j+1} = N(B_j) minus
  (B_{j-1} union B_j) around the cycle reconstructs the rest.  Any other
  co-component of G[N(0)] lies in B_0, and the vertices joined to all
  of it include B_1, whose neighbors in B_2 miss B_0; so no braid has it
  as flanks, and the partition is unique up to orientation.

Every emitted partition is checked against the sandwich condition.

Maximal 3-braids are grown as chains of completely-joined disjoint
triples.  Appending a triple makes the old end central, which pins the
new triple to cover that end's remaining neighbors; a chain counts when
neither end extends.  Chains whose vertex set is strictly contained in a
longer chain's are dropped, and chains with the same cluster set (the
wrap-around rotations of a cyclic braid) are reported once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .families import (
    ClusterPartition,
    FamilyId,
    e_sizes,
    g_sizes,
    h_sizes,
    script_g_multisets,
)
from .graphs import Graph, InputError, _check_vertex, _layers, bits_of, mask_of, vertices_of

COND_MISSING_JOIN = "missing-join"
COND_STRAY_NEIGHBOR = "stray-neighbor"


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
            _check_vertex(g, v)


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
        matches = _match_families(g, p, _family_profiles(g.n))
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


def _family_profiles(n: int) -> dict[str, set[tuple[int, ...]]]:
    """Sorted cluster-size multisets of the cyclic families defined at n,
    by tag in report order."""
    profiles = {}
    for tag, multisets in (
        ("H", lambda: [h_sizes(n)]),
        ("G", lambda: [g_sizes(n)]),
        ("E", lambda: [e_sizes(n)]),
        ("G_script", lambda: script_g_multisets(n)),
    ):
        try:
            profiles[tag] = {tuple(sorted(m)) for m in multisets()}
        except InputError:
            pass
    return profiles


def _match_families(
    g: Graph, p: ClusterPartition, profiles: dict[str, set[tuple[int, ...]]]
) -> list[FamilyId]:
    """Family tags this exact partition certifies, in report order;
    profiles is `_family_profiles(g.n)`."""
    if not p.cyclic or p.vertex_mask() != g.full_mask():
        return []
    ms = p.size_multiset()
    tags = [tag for tag, sizes in profiles.items() if ms in sizes]
    if not tags:
        return []
    patterns = {_intra_pattern(g, c) for c in p.clusters}
    arc = _consecutive_arc(p.k, [i for i, s in enumerate(p.sizes()) if s != 3])
    texture = {
        "H": patterns == {"empty"},
        "G": patterns == {"full"} and arc,
        "E": patterns == {"empty"} and arc,
        "G_script": True,
    }
    return [FamilyId(tag, g.n) for tag in tags if texture[tag]]


# ======================================================================
# discovery
# ======================================================================


def _components(rows: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by mask on the
    adjacency rows, ordered by lowest vertex."""
    comps = []
    while mask:
        comp = sum(_layers(rows, (mask & -mask).bit_length() - 1, mask))
        comps.append(comp)
        mask &= ~comp
    return comps


def _flank_walk(g: Graph, flanks: int) -> list[int] | None:
    """The clusters of a braid with k >= 5 whose B_{-1} union B_1 is
    flanks, or None.  B_0 is every vertex joined to all of flanks, the
    flank with the smaller lowest vertex comes next, and the walk takes
    B_{j+1} = N(B_j) minus (B_{j-1} union B_j) until it reaches the other."""
    b0 = g.full_mask()
    for y in bits_of(flanks):
        b0 &= g.adj[y]
    groups: dict[int, int] = {}
    for y in bits_of(flanks):
        beyond = g.adj[y] & ~(b0 | flanks)
        groups[beyond] = groups.get(beyond, 0) | (1 << y)
    if len(groups) != 2:
        return None
    b1, last = sorted(groups.values(), key=lambda m: m & -m)
    clusters = [b0, b1]
    used = b0 | flanks
    for _ in range(g.n):
        prev, cur = clusters[-2], clusters[-1]
        nexts = {g.adj[x] & ~(prev | cur) for x in bits_of(cur)}
        if len(nexts) != 1:
            return None
        nxt = nexts.pop()
        if nxt == last:
            clusters.append(last)
            # disjoint, so the sum is the union; a walk of three or four
            # clusters fails verification, as g has one co-component
            return clusters if sum(clusters) == g.full_mask() else None
        if not nxt or nxt & used:
            return None
        clusters.append(nxt)
        used |= nxt
    return None


def candidate_cyclic_partitions(g: Graph):
    """Yield verified cyclic-braid partitions of g, canonical orientation
    (vertex 0 in the first cluster, smaller-minimum neighbor second).

    A graph with two co-components yields one four-cluster partition
    per prefix split of each side's components; any other graph yields
    at most one partition."""
    if g.n >= 3:
        yield from _partitions(g, *_co_components(g))


def _co_components(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """The rows of the complement of g and its components, the
    co-components of g, ordered by lowest vertex."""
    full = g.full_mask()
    complement = tuple(full & ~g.closed(v) for v in range(g.n))
    return complement, _components(complement, full)


def _partitions(g: Graph, complement: tuple[int, ...], comps: list[int]):
    """`candidate_cyclic_partitions` from the output of `_co_components`."""
    full = g.full_mask()
    if len(comps) >= 3:
        candidates = [[comps[0], comps[1], full & ~(comps[0] | comps[1])]]
    elif len(comps) == 2:
        x, y = comps
        x_parts, y_parts = (
            list(itertools.accumulate(_components(g.adj, side), operator.or_))[:-1]
            for side in comps
        )
        candidates = (
            [b0, b1, x & ~b0, y & ~b1] for b0 in x_parts for b1 in y_parts
        )
    else:
        # a disconnected g lands here too, and no walk covers it
        candidates = (
            _flank_walk(g, flanks)
            for flanks in _components(complement, g.adj[0])
            if flanks & (flanks - 1)
        )
    for masks in candidates:
        if masks is None:
            continue
        part = ClusterPartition(tuple(vertices_of(m) for m in masks), cyclic=True)
        if _find_violation(g, part) is None:
            yield part


def discover_cyclic_braid(g: Graph) -> ClusterPartition | None:
    """First verified cyclic-braid partition in canonical order, if any;
    where a family profile at n has four clusters (n = 11-14), the first
    one that a family certifies, if any."""
    candidates = candidate_cyclic_partitions(g)
    first = next(candidates, None)
    profiles = _family_profiles(g.n) if first is not None and first.k == 4 else {}
    if any(len(m) == 4 for sizes in profiles.values() for m in sizes):
        for part in itertools.chain([first], candidates):
            if _match_families(g, part, profiles):
                return part
    return first


# ======================================================================
# classification
# ======================================================================


def classify_family_all(g: Graph) -> list[FamilyId]:
    """Every named cyclic family g belongs to, in (H, G, E, script-G)
    order.  Searches all candidate partitions, so degenerate four-cluster
    graphs still match their families."""
    profiles = _family_profiles(g.n)
    if not profiles:
        return []
    complement, comps = _co_components(g)
    # the co-components fix the cluster count: three or more give k = 3,
    # two give k = 4 and one gives k >= 5
    k = {1: 5, 2: 4}.get(len(comps), 3)
    if all(min(len(m), 5) != k for sizes in profiles.values() for m in sizes):
        return []
    found: dict[str, FamilyId] = {}
    for part in _partitions(g, complement, comps):
        for fam in _match_families(g, part, profiles):
            found.setdefault(fam.tag, fam)
        if len(found) == len(profiles):
            break
    return [found[t] for t in profiles if t in found]


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
