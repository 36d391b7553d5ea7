"""Braid verification, discovery, classification, and maximal 3-braids.

Verification is cross-checked against hand-built families and hand-broken
perturbations; discovery against the builders' own partitions, planted
relabelled blow-ups, and an exhaustive seed search on small graphs; the
maximal-3-braid counts against closed-form counts derived from the
cluster structure (see the comments at the pins).
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcensus import recognition
from braidcensus.cli import main
from braidcensus.families import (
    BraidSpec,
    ClusterPartition,
    FamilyId,
    build_braid,
    build_E,
    build_G,
    build_H,
    h_sizes,
    members_of_script_G,
)
from braidcensus.graphs import (
    Graph,
    InputError,
    graph_from_pair_bits,
    is_connected,
    vertices_of,
)
from braidcensus.recognition import (
    RecognitionReport,
    _co_components,
    _components,
    _family_profiles,
    _find_violation,
    _match_families,
    _partitions,
    classify_family_all,
    discover_cyclic_braid,
    maximal_3braids,
    verify_braid,
)

from graph_helpers import complete_bipartite, complete_graph, cycle_graph, path_graph


# ======================================================================
# verification round-trips on the builders
# ======================================================================


def test_h_family_roundtrip():
    for n in range(8, 31):
        g, p = build_H(n)
        report = verify_braid(g, p)
        assert report.verified, f"H_{n} failed its own partition"
        assert report.family is not None and report.family.tag == "H"
        assert report.cluster_sizes == tuple(sorted(h_sizes(n)))
        assert all(x == "empty" for x in report.intra_pattern)
        assert report.failure_witness is None


def test_g_family_roundtrip():
    for n in range(14, 31):
        g, p = build_G(n)
        report = verify_braid(g, p)
        assert report.verified, f"G_{n} failed its own partition"
        assert report.family is not None and report.family.tag == "G"
        assert all(x == "full" for x in report.intra_pattern)


def test_e_family_roundtrip():
    # At n = 0, 1, 5 mod 6 the even-extremal size table coincides with
    # the all-cycles table (specials [], [4], [2] match the mod-3 rule),
    # so the graph is the all-cycles extremal one and the H tag wins the
    # report order; E still shows up in the full list.
    for n in range(14, 31):
        g, p = build_E(n)
        report = verify_braid(g, p)
        assert report.verified, f"E_{n} failed its own partition"
        assert report.family is not None
        expect = "H" if n % 6 in (0, 1, 5) else "E"
        assert report.family.tag == expect, f"E_{n} tagged {report.family.tag}"


def test_script_g_members_roundtrip():
    for n in (14, 17):
        members = list(members_of_script_G(n))
        assert members
        for g, p in members:
            report = verify_braid(g, p)
            assert report.verified
            tags = [f.tag for f in classify_family_all(g)]
            assert "G_script" in tags, f"n={n} sizes={p.sizes()} got {tags}"


def test_k4_three_cluster_window_is_everything():
    # With three clusters every cluster sees only its two neighbors, so
    # the outer containment cannot fail; any partition into three
    # completely joined parts verifies.
    g = complete_graph(4)
    report = verify_braid(g, ClusterPartition(((0, 1), (2,), (3,)), cyclic=True))
    assert report.verified
    assert report.cluster_sizes == (1, 1, 2)
    assert report.family is None


def test_intra_edges_do_not_break_verification():
    g, p = build_H(12)
    g2 = g.with_edge(0, 1)
    report = verify_braid(g2, p)
    assert report.verified
    assert report.intra_pattern == ("mixed", "empty", "empty", "empty")
    assert report.family is None
    assert classify_family_all(g2) == []


def test_cross_edge_breaks_verification():
    g, p = build_H(15)
    g2 = g.with_edge(0, 7)  # cluster 0 to cluster 2: outside the window
    report = verify_braid(g2, p)
    assert not report.verified
    assert report.failure_witness == (0, "stray-neighbor")
    assert discover_cyclic_braid(g2) is None


def test_missing_edge_breaks_verification():
    g, p = build_H(12)
    g2 = g.without_edge(0, 3)
    report = verify_braid(g2, p)
    assert not report.verified
    assert report.failure_witness == (0, "missing-join")
    assert discover_cyclic_braid(g2) is None


def test_partial_partition_consecutive_clusters():
    # Three consecutive clusters of a larger braid form a braid inside
    # it: the middle cluster's whole-graph neighborhood stays in window.
    g, p = build_H(15)
    sub = ClusterPartition(p.clusters[1:4], cyclic=False)
    report = verify_braid(g, sub)
    assert report.verified
    assert report.family is None


def test_partial_partition_skipping_clusters_fails():
    g, p = build_H(15)
    sub = ClusterPartition((p.clusters[0], p.clusters[2], p.clusters[4]),
                           cyclic=False)
    report = verify_braid(g, sub)
    assert not report.verified
    assert report.failure_witness is not None
    assert report.failure_witness[1] == "missing-join"


def test_two_cluster_braids():
    g = complete_bipartite(3, 3)
    report = verify_braid(g, ClusterPartition(((0, 1, 2), (3, 4, 5)),
                                              cyclic=False))
    assert report.verified
    p4 = path_graph(4)
    report = verify_braid(p4, ClusterPartition(((0, 1), (2, 3)), cyclic=False))
    assert not report.verified
    assert report.failure_witness == (0, "missing-join")


def test_verify_input_errors():
    g = complete_graph(4)
    with pytest.raises(InputError):
        verify_braid(g, ClusterPartition(((0, 9), (1, 2)), cyclic=False))
    with pytest.raises(InputError):
        verify_braid(g, ClusterPartition(((0, 1, 2, 3),), cyclic=False))


def test_report_requires_witness_on_failure():
    with pytest.raises(InputError):
        RecognitionReport(
            verified=False,
            family=None,
            cluster_sizes=(3,),
            intra_pattern=("empty",),
            failure_witness=None,
        )


def test_report_json_shape():
    g, p = build_H(12)
    doc = verify_braid(g, p).to_json_dict()
    assert doc == {
        "verified": True,
        "family": {"tag": "H", "n": 12},
        "cluster_sizes": [3, 3, 3, 3],
        "intra_pattern": ["empty", "empty", "empty", "empty"],
        "failure_witness": None,
    }


# ======================================================================
# discovery
# ======================================================================


def test_discover_absent_on_non_braids():
    # a cyclic braid has at least three clusters, so graphs on one or two
    # vertices have none, and no family is defined below 8 vertices
    for g in (Graph(1, (0,)), Graph(2, (0, 0)), path_graph(2), path_graph(5)):
        assert discover_cyclic_braid(g) is None
        assert list(_partitions(g, *_co_components(g))) == []
        assert classify_family_all(g) == []
    g, _ = build_H(12)
    padded = Graph(13, g.adj + (0,))  # isolated vertex: disconnected
    assert discover_cyclic_braid(padded) is None


def test_discover_cycles_and_cliques():
    assert discover_cyclic_braid(cycle_graph(6)).clusters == tuple(
        (i,) for i in range(6)
    )
    assert discover_cyclic_braid(cycle_graph(3)).clusters == ((0,), (1,), (2,))
    assert discover_cyclic_braid(complete_graph(4)).clusters == (
        (0,),
        (1,),
        (2, 3),
    )


def test_discover_matches_builders():
    # With five or more clusters the partition is essentially unique and
    # discovery returns the builder's own clusters.  Four-cluster braids
    # admit many partitions (within a cluster's two flanks, neighborhoods
    # coincide), so n = 11, 12, 13 promise a verified find with H's sizes.
    for n in itertools.chain(range(8, 11), range(14, 25)):
        g, p = build_H(n)
        found = discover_cyclic_braid(g)
        assert found is not None and found.clusters == p.clusters, f"H_{n}"
    for n in range(11, 14):
        g, p = build_H(n)
        found = discover_cyclic_braid(g)
        assert found is not None, f"H_{n}"
        assert verify_braid(g, found).verified
        assert found.size_multiset() == p.size_multiset(), f"H_{n}"
    for n in range(15, 25):
        g, p = build_G(n)
        found = discover_cyclic_braid(g)
        assert found is not None and found.clusters == p.clusters, f"G_{n}"
    for n in range(15, 25):
        g, p = build_E(n)
        found = discover_cyclic_braid(g)
        assert found is not None and found.clusters == p.clusters, f"E_{n}"


@pytest.mark.parametrize("builder, n", [(build_H, 11), (build_H, 12), (build_H, 13),
                                        (build_E, 14)])
def test_discover_prefers_a_family_certified_four_cluster_split(builder, n):
    # The first prefix split of H(12) = K_{6,6} has sizes (1, 1, 5, 5);
    # where a four-cluster profile exists at n, discovery goes on to the
    # first split a family certifies, so recognize's family agrees with
    # its families.
    rng = random.Random(n)
    g, p = builder(n)
    for perm in (list(range(n)), rng.sample(range(n), n)):
        h = g.relabeled(perm)
        found = discover_cyclic_braid(h)
        assert found is not None and found.size_multiset() == p.size_multiset()
        assert [verify_braid(h, found).family] == classify_family_all(h)[:1]
    if n == 12:
        first = next(_partitions(g, *_co_components(g)))
        assert first.size_multiset() == (1, 1, 5, 5)


@pytest.mark.parametrize("a, b", [(5, 7), (5, 5), (60, 60)])
def test_discover_returns_the_first_split_when_no_family_certifies(
    monkeypatch, a, b
):
    # K_{5,7} has a four-cluster profile at n = 12 but no certified split;
    # n = 10 and 120 have none, and one split is verified, not (a - 1)^2.
    verified = []

    def counting(g, p):
        verified.append(p)
        return _find_violation(g, p)

    g = complete_bipartite(a, b)
    first = next(_partitions(g, *_co_components(g)))
    assert verify_braid(g, first).family is None
    monkeypatch.setattr(recognition, "_find_violation", counting)
    assert discover_cyclic_braid(g) == first
    if a + b != 12:
        assert len(verified) == 1


def test_discover_sound_on_random_graphs():
    rng = random.Random(20260816)
    hits = 0
    for _ in range(300):
        n = rng.randrange(4, 11)
        g = graph_from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
        found = discover_cyclic_braid(g)
        if found is not None:
            hits += 1
            report = verify_braid(g, found)
            assert report.verified
            assert found.vertex_mask() == g.full_mask()
    assert hits > 0  # dense small graphs often carry a 3-cluster braid


def test_discover_label_invariance():
    rng = random.Random(7)
    for builder, n in ((build_H, 15), (build_G, 16), (build_E, 16)):
        g, p = builder(n)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = g.relabeled(perm)
        found = discover_cyclic_braid(g2)
        assert found is not None
        assert verify_braid(g2, found).verified
        assert found.size_multiset() == p.size_multiset()


def planted_orientation(clusters) -> tuple[tuple[int, ...], ...]:
    """A cyclic cluster sequence turned into discovery's orientation:
    vertex 0's cluster first, the neighbor with the smaller minimum
    second."""
    cs = [tuple(sorted(c)) for c in clusters]
    i = next(i for i, c in enumerate(cs) if 0 in c)
    cs = cs[i:] + cs[:i]
    if min(cs[-1]) < min(cs[1]):
        cs = [cs[0]] + cs[:0:-1]
    return tuple(cs)


def test_discover_recovers_planted_braids_with_large_clusters():
    # Clusters of 5-9 vertices up to n = 128.  With k >= 5 the partition
    # is unique up to orientation, whatever the intra edges.
    rng = random.Random(2026)
    for trial in range(36):
        k = rng.randrange(5, 15)
        sizes = tuple(rng.randrange(5, 10) for _ in range(k))
        if trial == 0:
            sizes = (9,) * 12 + (5,) * 4  # 128 vertices
        mode = ("empty", "full", "random")[trial % 3]
        intra = tuple(
            [e for e in itertools.combinations(range(s), 2) if rng.random() < 0.5]
            if mode == "random" else mode
            for s in sizes
        )
        g, p = build_braid(BraidSpec(sizes, cyclic=True, intra=intra))
        perm = list(range(g.n))
        rng.shuffle(perm)
        found = discover_cyclic_braid(g.relabeled(perm))
        want = planted_orientation([[perm[v] for v in c] for c in p.clusters])
        assert found is not None and found.clusters == want, (sizes, trial)


def test_recognize_a_braid_with_a_five_vertex_cluster(capsys):
    # the cyclic braid (5,3,3,3,3) on 17 vertices
    assert main(["recognize", "--input", "P?B~voF@oM?F?M?M^?~oM}@o"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["cluster_sizes"] == [3, 3, 3, 3, 5]


# ======================================================================
# reference: the exhaustive seed search
# ======================================================================
#
# Every vertex set containing 0 is tried as the first cluster.  Its
# shared outside neighborhood is the union of its two flanks, split by
# the flanks' neighbors beyond it or, when those coincide (k = 4), into
# every union of components; a walk fills in the rest.  Trying every
# seed makes the search exact, and exponential: n <= 12 only.


def _reference_walk(g, b1, b2, blast, out):
    clusters, used = [b1, b2], b1 | out
    for _ in range(g.n):
        prev, cur = clusters[-2], clusters[-1]
        nexts = {g.adj[x] & ~(prev | cur) for x in vertices_of(cur)}
        if len(nexts) != 1:
            return None
        (nxt,) = nexts
        if nxt == blast:
            clusters.append(blast)
            covered = sum(clusters) == g.full_mask()  # clusters are disjoint
            return clusters if len(clusters) >= 4 and covered else None
        if not nxt or nxt & used:
            return None
        clusters.append(nxt)
        used |= nxt
    return None


def reference_partitions(g: Graph):
    assert g.n <= 12
    if g.n < 3 or not is_connected(g):
        return
    seen = set()

    def emit(masks):
        part = ClusterPartition(tuple(vertices_of(m) for m in masks), cyclic=True)
        if part.clusters not in seen and _find_violation(g, part) is None:
            seen.add(part.clusters)
            return part
        return None

    full = g.full_mask()
    complement = tuple(full & ~(row | 1 << v) for v, row in enumerate(g.adj))
    comps = _components(complement, full)
    if len(comps) >= 3:
        part = emit([comps[0], comps[1], full & ~(comps[0] | comps[1])])
        if part is not None:
            yield part
    seeds = sorted(((m << 1) | 1 for m in range(1 << (g.n - 1))),
                   key=lambda m: (m.bit_count(), m))
    for b1 in seeds:
        outs = {g.adj[v] & ~b1 for v in vertices_of(b1)}
        out = outs.pop()
        if outs or not out:
            continue
        groups = {}
        for y in vertices_of(out):
            beyond = g.adj[y] & ~(b1 | out)
            groups[beyond] = groups.get(beyond, 0) | (1 << y)
        if len(groups) == 2:
            splits = [tuple(sorted(groups.values(), key=lambda m: m & -m))]
        elif len(groups) == 1:
            first, *others = _components(g.adj, out)
            splits = []
            for r in range(len(others)):
                for extra in itertools.combinations(others, r):
                    side = first | sum(extra)
                    splits.append((side, out & ~side))
        else:
            continue
        for b2, blast in splits:
            walked = _reference_walk(g, b1, b2, blast, out)
            part = walked and emit(walked)
            if part is not None:
                yield part


def reference_families(g: Graph) -> list[FamilyId]:
    found = {}
    for part in reference_partitions(g):
        for fam in _match_families(g, part, _family_profiles(g.n)):
            found.setdefault(fam.tag, fam)
    return [found[t] for t in ("H", "G", "E", "G_script") if t in found]


@st.composite
def any_small_graph(draw):
    n = draw(st.integers(1, 10))
    return graph_from_pair_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@st.composite
def planted_blowup(draw):
    """A relabelled cyclic blow-up on <= 12 vertices with random intra
    edges, sometimes with one edge flipped."""
    k = draw(st.integers(3, 8))
    sizes = []
    for i in range(k):
        room = 12 - sum(sizes) - (k - i - 1)
        sizes.append(draw(st.integers(1, min(4, room))))
    intra = tuple(
        [e for e in itertools.combinations(range(s), 2) if draw(st.booleans())]
        if draw(st.booleans()) else draw(st.sampled_from(["empty", "full"]))
        for s in sizes
    )
    g, _ = build_braid(BraidSpec(tuple(sizes), cyclic=True, intra=intra))
    g = g.relabeled(draw(st.permutations(range(g.n))))
    if draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2,
                             unique=True))
        g = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
    return g


def assert_matches_reference(g: Graph) -> None:
    assert next(_partitions(g, *_co_components(g)), None) == next(reference_partitions(g), None)
    assert classify_family_all(g) == reference_families(g)


# The examples pin one graph per case of the co-component split: K4 has
# four co-components; K_{6,6} has two and matches H only through a split
# other than the first; in the third, vertex 0 is joined to two
# non-adjacent cluster-mates 1 and 2, so {1, 2} is a co-component of
# G[N(0)] ahead of the flanks {3, 6}.
@settings(max_examples=400, deadline=None)
@given(any_small_graph())
@example(complete_graph(4))
@example(complete_bipartite(6, 6))
@example(build_braid(BraidSpec((3, 1, 1, 1, 1), cyclic=True,
                               intra=([(0, 1), (0, 2)],) + ("empty",) * 4))[0])
def test_discovery_matches_the_seed_search_on_small_graphs(g):
    assert_matches_reference(g)


@settings(max_examples=400, deadline=None)
@given(planted_blowup())
def test_discovery_matches_the_seed_search_on_blowups(g):
    assert_matches_reference(g)


# ======================================================================
# classification
# ======================================================================


def test_classify_families():
    for n in range(8, 22):
        g, _ = build_H(n)
        assert classify_family_all(g)[:1] == [FamilyId("H", n)], f"H_{n}"
    for n in range(14, 22):
        g, _ = build_G(n)
        assert classify_family_all(g)[:1] == [FamilyId("G", n)], f"G_{n}"
    for n in range(14, 22):
        g, _ = build_E(n)
        expect = "H" if n % 6 in (0, 1, 5) else "E"
        assert classify_family_all(g)[:1] == [FamilyId(expect, n)], f"E_{n}"


def test_classify_multi_membership():
    # For n >= 14 the all-cycles extremal graph always doubles as one of
    # the cycle-parity families: its size table matches the even-cycle
    # table at n = 0, 1, 5 mod 6 and the odd-hole multiset at
    # n = 2, 3, 4 mod 6.  Below 14 only H is defined.
    def tags(n):
        g, _ = build_H(n)
        return [f.tag for f in classify_family_all(g)]

    assert tags(18) == ["H", "E"]
    assert tags(24) == ["H", "E"]
    assert tags(17) == ["H", "E"]
    assert tags(19) == ["H", "E"]
    assert tags(14) == ["H", "G_script"]
    assert tags(15) == ["H", "G_script"]
    assert tags(16) == ["H", "G_script"]
    assert tags(13) == ["H"]


def test_classify_rejects_lookalikes():
    # A cyclic arrangement of singleton clusters is a plain cycle; no
    # family has that size profile.
    assert classify_family_all(cycle_graph(9)) == []
    assert classify_family_all(complete_graph(9)) == []
    assert classify_family_all(path_graph(15)) == []
    # cyclic braids, but on too few vertices for any family profile
    assert _family_profiles(7) == {}
    assert classify_family_all(cycle_graph(7)) == []
    assert classify_family_all(complete_graph(4)) == []


def test_classify_label_invariance():
    rng = random.Random(99)
    g, _ = build_E(15)
    perm = list(range(15))
    rng.shuffle(perm)
    assert classify_family_all(g.relabeled(perm))[:1] == [FamilyId("E", 15)]


@pytest.mark.parametrize("a, tags", [(7, ["E"]), (12, []), (30, []), (60, [])])
def test_classify_complete_bipartite_verifies_only_prefix_splits(
    monkeypatch, a, tags
):
    # K_{a,a} has two co-components of a isolated vertices each: one
    # candidate per prefix split of each side, (a - 1)^2 in all.
    # Four-cluster profiles exist only for n = 11-14, and K_{7,7} is E(14)
    # with clusters (4, 4, 3, 3).  At other n two co-components rule out
    # every family before any split is verified.
    verified = []

    def counting(g, p):
        verified.append(p)
        return _find_violation(g, p)

    monkeypatch.setattr(recognition, "_find_violation", counting)
    assert [f.tag for f in classify_family_all(complete_bipartite(a, a))] == tags
    assert len(verified) <= (a - 1) ** 2
    if not 11 <= 2 * a <= 14:
        assert verified == []


# ======================================================================
# maximal 3-braids
# ======================================================================


def test_maximal_3braids_wraps_whole_family():
    # All rotations of the cyclic structure are chains; they share the
    # cluster set and collapse to one report.
    for n in (15, 18):
        g, p = build_H(n)
        braids = maximal_3braids(g)
        assert len(braids) == 1, f"H_{n} gave {len(braids)}"
        assert frozenset(braids[0].clusters) == frozenset(p.clusters)


def test_maximal_3braids_four_cluster_degeneracy():
    # build_H(12) is complete bipartite between the two six-vertex sides,
    # so any chain alternates sides with each side split into two
    # triples: 2 * C(6,3)**2 ordered chains, 8 orderings per cluster set,
    # giving 2 * 20 * 20 / 8 = 100 distinct maximal braids.
    g, _ = build_H(12)
    braids = maximal_3braids(g)
    assert len(braids) == 100
    for b in braids:
        assert verify_braid(g, b).verified
        assert b.sizes() == (3, 3, 3, 3)


def test_maximal_3braids_three_cluster_degeneracy():
    # With three clusters only the middle one is constrained: it must be
    # one of the true clusters, and the outer pair splits the remaining
    # six vertices freely: 3 * C(6,3)/2 sets, minus 2 because the
    # all-true-clusters set works with any of its three parts as middle
    # and is counted once per choice: 30 - 2 = 28.
    g, _ = build_H(9)
    braids = maximal_3braids(g)
    assert len(braids) == 28
    for b in braids:
        assert verify_braid(g, b).verified


def test_maximal_3braids_small_graphs():
    assert len(maximal_3braids(complete_graph(6))) == 10  # C(6,3)/2 pairings
    assert len(maximal_3braids(complete_bipartite(3, 3))) == 1
    assert maximal_3braids(cycle_graph(9)) == []
    assert maximal_3braids(path_graph(12)) == []
    tree = Graph.from_edge_list(
        13, [(i, (i - 1) // 3) for i in range(1, 13)]
    )  # complete ternary tree
    assert maximal_3braids(tree) == []


def test_maximal_3braids_two_components_through_cut_vertex():
    # Two separate linear braids of four triples, bridged by a cut
    # vertex adjacent to one vertex in an end cluster of each: the
    # bridge joins no triple pair, so exactly the two chains remain.
    a = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    c = [(12, 13, 14), (15, 16, 17), (18, 19, 20), (21, 22, 23)]
    edges = []
    for chain in (a, c):
        for left, right in zip(chain, chain[1:]):
            edges.extend((u, v) for u in left for v in right)
    w = 24
    g = Graph.from_edge_list(25, edges + [(w, a[-1][0]), (w, c[0][0])])
    braids = maximal_3braids(g)
    assert len(braids) == 2
    cluster_sets = {frozenset(b.clusters) for b in braids}
    assert cluster_sets == {frozenset(a), frozenset(c)}
    for b in braids:
        assert verify_braid(g, b).verified

    # Joining the bridge to the full end clusters instead lets it form
    # two-cluster braids with two vertices borrowed from the adjacent
    # true cluster, and those cover the bridge so nothing contains them:
    # 2 sides * C(3,2) borrow choices + the 2 chains = 8.
    full_bridge = [(w, v) for v in a[-1]] + [(w, v) for v in c[0]]
    g2 = Graph.from_edge_list(25, edges + full_bridge)
    braids2 = maximal_3braids(g2)
    assert len(braids2) == 8
    assert {frozenset(b.clusters) for b in braids} <= {
        frozenset(b.clusters) for b in braids2
    }
    for b in braids2:
        assert verify_braid(g2, b).verified


def test_maximal_3braids_dense_graph_within_budget():
    # This G(20, 0.7) has 14,227 maximal chains, all of two triples.
    # Tested pairwise for containment they would cost some 10^8
    # comparisons; chains of one length need none.
    rng = random.Random(1)
    g = Graph.from_edge_list(
        20, [e for e in itertools.combinations(range(20), 2) if rng.random() < 0.7]
    )
    start = time.perf_counter()
    braids = maximal_3braids(g)
    assert time.perf_counter() - start < 5
    assert len(braids) == 14227
    assert {b.k for b in braids} == {2}


def test_maximal_3braids_reports_are_braids():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(6, 11)
        g = graph_from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
        for b in maximal_3braids(g):
            assert all(len(cluster) == 3 for cluster in b.clusters)
            assert not b.cyclic
            assert verify_braid(g, b).verified
