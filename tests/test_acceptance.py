"""Acceptance gate: one test per criterion, strictest stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Everything here is exact integer comparison; the only
inequalities are the ones the criteria themselves state (the per-vertex
cycle bound and the exponential floor).  Shared sweeps are computed
once per module.
"""

import itertools
import random

import pytest

from braidcensus.census import (
    count_induced_cycles,
    count_induced_st_paths,
    cycles_per_vertex,
    path_tree_stats,
    slow_census,
    visit_induced_cycles,
)
from braidcensus.families import (
    BraidSpec,
    build_braid,
    build_E,
    build_G,
    build_H,
    f_central_multisets,
    f_central_sequences,
    member_of_F,
)
from braidcensus.formulas import f2, f2_odd, m_lower, vertex_cycle_bound
from braidcensus.game import atypical_set, local_structure, solve_typical_game
from braidcensus.graphs import Graph, bits_of
from braidcensus.recognition import classify_family_all, verify_braid
from braidcensus.sweep import exhaustive_max, verify_extremal_uniqueness

from graph_helpers import random_intra


def random_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < density
    ]
    return Graph.from_edge_list(n, edges)


@pytest.fixture(scope="module")
def p2_sweeps():
    return {n: exhaustive_max(n, "p2") for n in (4, 5, 6, 7)}


# ----------------------------------------------------------------------
# 1. Path extremality, exact: the sweep maximum equals the closed form
#    at n = 4..7 with the pinned values 2, 3, 4, 6.
# ----------------------------------------------------------------------


def test_criterion_01_path_extremality_exact(p2_sweeps):
    pinned = {4: 2, 5: 3, 6: 4, 7: 6}
    for n, expected in pinned.items():
        swept = p2_sweeps[n].max.value
        assert swept == expected, f"p2({n}) swept {swept}, pinned {expected}"
        assert f2(n).value == expected, f"f2({n}) != {expected}"


# ----------------------------------------------------------------------
# 2. Extremal shape at small n: every p2-extremal (graph, pair) is a
#    path braid with the admissible central multiset for its n.
# ----------------------------------------------------------------------


def test_criterion_02_extremal_shape(p2_sweeps):
    for n in (4, 5, 6, 7):
        report = verify_extremal_uniqueness(n, p2_sweeps[n])
        assert report.all_match, (
            f"n={n}: counterexamples {report.counterexample_codes}"
        )
        assert report.pairs_checked > 0
        expected = set(f_central_multisets(n))
        assert report.central_multisets == expected, (
            f"n={n}: saw {report.central_multisets}, table {expected}"
        )


# ----------------------------------------------------------------------
# 3. H_n census matches the closed form for n = 12..21, with the four
#    pinned values, and the independent subset oracle agrees to n = 20.
# ----------------------------------------------------------------------


def test_criterion_03_h_family_census():
    pinned = {12: 225, 13: 315, 14: 294, 15: 423}
    for n in range(12, 22):
        g, _ = build_H(n)
        fast = count_induced_cycles(g)
        assert fast.f == m_lower(n).value, f"H_{n}: census {fast.f}"
        if n in pinned:
            assert fast.f == pinned[n]
        if n <= 20:
            assert fast.by_length == slow_census(g).by_length, f"H_{n} oracle"


# ----------------------------------------------------------------------
# 4. C4 decomposition of H_13: 3(n+5) = 54 four-cycles span two
#    clusters and 9(n+4) = 153 span three.  The remaining 108 wrap all
#    four clusters (the 4 * 3^{(n-4)/3} term), possible only at k = 4.
# ----------------------------------------------------------------------


def test_criterion_04_c4_decomposition_h13():
    g, part = build_H(13)
    cluster_of = {}
    for idx, cluster in enumerate(part.clusters):
        for v in cluster:
            cluster_of[v] = idx
    spans = {2: 0, 3: 0, 4: 0}

    def visit(mask, length):
        if length == 4:
            spans[len({cluster_of[v] for v in bits_of(mask)})] += 1

    visit_induced_cycles(g, visit)
    assert spans[2] == 3 * (13 + 5), f"type 1 count {spans[2]}"
    assert spans[3] == 9 * (13 + 4), f"type 2 count {spans[3]}"
    assert spans[4] == 108


# ----------------------------------------------------------------------
# 5. Parity-path families: every odd-family representative hits
#    f2_odd(n) with no even path at the end pair, across the empty,
#    full, and one random intra pattern.
# ----------------------------------------------------------------------


def test_criterion_05_odd_path_families():
    rng = random.Random("acceptance:odd-families")
    for n in range(10, 21):
        expected = f2_odd(n).value
        for variant, central in enumerate(f_central_sequences(n, "odd")):
            sizes = (1, *central, 1)
            for intra in ["empty", "full", random_intra(sizes, rng)]:
                g, _ = build_braid(BraidSpec(sizes, intra=intra))
                pc = count_induced_st_paths(g, 0, n - 1)
                assert pc.p2_odd == expected, (
                    f"n={n} variant {variant}: p2_odd {pc.p2_odd} != {expected}"
                )
                assert pc.p2_even == 0, f"n={n} variant {variant}: even paths"


# ----------------------------------------------------------------------
# 6. Bound suite: on 1000 random graphs with n <= 12, every vertex
#    obeys f_v <= C(d,2) * 3^{(n-d-1)/3} and the two cycle engines
#    agree graph by graph.
# ----------------------------------------------------------------------


def test_criterion_06_vertex_bound_and_engine_agreement():
    rng = random.Random("acceptance:bounds")
    for trial in range(1000):
        n = rng.randrange(4, 13)
        g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
        fast = count_induced_cycles(g)
        assert fast.by_length == slow_census(g).by_length, f"trial {trial}"
        for v, census in enumerate(cycles_per_vertex(g)):
            d = g.adj[v].bit_count()
            bound = vertex_cycle_bound(n, d).value
            assert census.f <= bound, (
                f"trial {trial}: vertex {v} has {census.f} cycles, "
                f"bound {bound}"
            )


# ----------------------------------------------------------------------
# 7. Path-tree identity and balance: y-leaf count equals the path
#    census on 500 random pairs with y outside N[x], and every plain
#    path-family representative has a balanced tree.
# ----------------------------------------------------------------------


def test_criterion_07_path_tree_identity_and_balance():
    rng = random.Random("acceptance:path-tree")
    done = 0
    while done < 500:
        n = rng.randrange(5, 13)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
        pairs = [
            (x, y)
            for x, y in itertools.combinations(range(n), 2)
            if not g.has_edge(x, y)
        ]
        if not pairs:
            continue
        x, y = pairs[rng.randrange(len(pairs))]
        stats = path_tree_stats(g, x, y)
        assert stats.y_leaf_count == count_induced_st_paths(g, x, y).p2
        done += 1
    for n in range(4, 21):
        for variant in range(len(f_central_sequences(n))):
            g, _ = member_of_F(n, variant=variant)
            assert path_tree_stats(g, 0, n - 1).balanced, (
                f"unbalanced tree on the n={n} variant {variant} braid"
            )


# ----------------------------------------------------------------------
# 8. Typical-game suite: forced Adversary win on the path ends, empty
#    atypical sets on H_18, and the local-structure probe recovering
#    the construction clusters everywhere on H_15, H_18, H_21.
# ----------------------------------------------------------------------


def test_criterion_08_typical_game_suite():
    path = Graph.from_edge_list(10, [(i, i + 1) for i in range(9)])
    for v, w in ((0, 9), (9, 0)):
        verdict = solve_typical_game(path, v, w)
        assert verdict.winner == "Adversary", f"P10 from {v}"
    h18, _ = build_H(18)
    for v in (0, 7, 17):
        assert atypical_set(h18, v).atypical == (), f"H_18 v={v}"
    for n in (15, 18, 21):
        g, part = build_H(n)
        for z in range(n):
            found = local_structure(g, z)
            assert found is not None, f"H_{n} z={z}: no local structure"
            idx = next(
                i for i, c in enumerate(part.clusters) if z in c
            )
            assert found["Z"] == part.clusters[idx]
            flanks = {
                part.clusters[(idx - 1) % part.k],
                part.clusters[(idx + 1) % part.k],
            }
            assert {found["V"], found["W"]} == flanks


# ----------------------------------------------------------------------
# 9. Recognition round-trip and sensitivity: classification recovers
#    every built family tag up to n = 30, and one inter-cluster edge
#    perturbation of H_12 / H_15 / H_18 kills recognition outright.
# ----------------------------------------------------------------------


def test_criterion_09_recognition_roundtrip_and_sensitivity():
    builders = {"H": (build_H, range(8, 31)),
                "G": (build_G, range(14, 31)),
                "E": (build_E, range(14, 31))}
    for tag, (builder, span) in builders.items():
        for n in span:
            g, _ = builder(n)
            tags = [family.tag for family in classify_family_all(g)]
            assert tag in tags, f"{tag}_{n} classified as {tags}"
    for n in (12, 15, 18):
        g, part = build_H(n)
        # vertices 0 and 3 sit in adjacent clusters, 0 and 6 in
        # non-adjacent ones, for every one of these three graphs
        for broken in (g.without_edge(0, 3), g.with_edge(0, 6)):
            assert not verify_braid(broken, part).verified, f"H_{n}"
            assert classify_family_all(broken) == [], f"H_{n} perturbed"


# ----------------------------------------------------------------------
# 10. Odd/even extremal families: the fast census matches the subset
#     oracle on G_n (odd count) and E_n (even count) for n = 14..20,
#     and both sit above the 3^{floor(n/3)-1} floor.
# ----------------------------------------------------------------------


def test_criterion_10_odd_even_family_counts():
    for n in range(14, 21):
        floor = 3 ** (n // 3 - 1)
        g_graph, _ = build_G(n)
        fast = count_induced_cycles(g_graph)
        assert fast.f_o == slow_census(g_graph).f_o, f"G_{n} odd count"
        assert fast.f_o >= floor, f"G_{n}: f_o {fast.f_o} below {floor}"
        e_graph, _ = build_E(n)
        fast = count_induced_cycles(e_graph)
        assert fast.f_e == slow_census(e_graph).f_e, f"E_{n} even count"
        assert fast.f_e >= floor, f"E_{n}: f_e {fast.f_e} below {floor}"
