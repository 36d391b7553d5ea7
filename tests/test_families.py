"""Family constructors: size tables, join structure, variant enumeration.

check_braid_structure below is an independent structural verifier (direct
pairwise adjacency checks against the declared partition), deliberately
not sharing code with the recognition module.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidcensus import families
from braidcensus.families import (
    BraidSpec,
    ClusterPartition,
    FamilyId,
    build_braid,
    build_E,
    build_G,
    build_H,
    build_family,
    e_sizes,
    f_central_multisets,
    f_central_sequences,
    g_sizes,
    h_sizes,
    member_of_F,
    members_of_script_G,
    script_g_multisets,
)
from braidcensus.formulas import f2, f2_even, f2_odd, m_lower
from braidcensus.graphs import FAMILY_TAGS, Graph, InputError, InternalError, ball

from graph_helpers import random_intra


def check_braid_structure(g: Graph, p: ClusterPartition, intra=None):
    """Every consecutive cluster pair completely joined, every other pair
    empty, intra edges exactly as requested (when given)."""
    k = p.k
    consecutive = {(i, (i + 1) % k) for i in range(k if p.cyclic else k - 1)}
    consecutive |= {(j, i) for i, j in consecutive}
    for i, j in itertools.combinations(range(k), 2):
        want = (i, j) in consecutive
        for u in p.clusters[i]:
            for v in p.clusters[j]:
                assert g.has_edge(u, v) == want, (
                    f"clusters {i},{j}: edge ({u},{v}) should be {want}"
                )
    if intra is None:
        return
    for i, cluster in enumerate(p.clusters):
        spec = intra if isinstance(intra, str) else intra[i]
        for a, b in itertools.combinations(range(len(cluster)), 2):
            have = g.has_edge(cluster[a], cluster[b])
            if spec == "empty":
                assert not have
            elif spec == "full":
                assert have
            else:
                assert have == ((a, b) in spec or (b, a) in spec)


# ----------------------------------------------------------------------
# generic constructor
# ----------------------------------------------------------------------


def test_two_cluster_braid_is_c4():
    g, p = build_braid(BraidSpec((2, 2)))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert p.sizes() == (2, 2) and not p.cyclic


def test_cyclic_three_clusters_is_complete_tripartite():
    g, p = build_braid(BraidSpec((3, 3, 3), cyclic=True))
    assert all(g.degree(v) == 6 for v in range(9))
    check_braid_structure(g, p, "empty")


def test_explicit_intra_edges():
    intra = (("empty"), ((0, 1),), ("full"))
    g, p = build_braid(BraidSpec((2, 3, 2), intra=intra))
    assert g.has_edge(2, 3) and not g.has_edge(2, 4) and not g.has_edge(3, 4)
    assert g.has_edge(5, 6)
    assert not g.has_edge(0, 1)
    check_braid_structure(g, p, intra)


def test_braid_spec_validation():
    with pytest.raises(InputError):
        BraidSpec((3,))  # k=1
    with pytest.raises(InputError):
        BraidSpec((3, 3), cyclic=True)  # cyclic k<3
    with pytest.raises(InputError):
        BraidSpec((3, 0, 3))
    with pytest.raises(InputError):
        build_braid(BraidSpec((3, 3), intra=("empty",)))  # wrong intra arity
    with pytest.raises(InputError):
        build_braid(BraidSpec((2, 3), intra=(((0, 2),), "empty")))  # local idx
    with pytest.raises(InputError):
        build_braid(BraidSpec((64, 64, 64), cyclic=True))  # > 128 vertices


@st.composite
def braid_specs(draw):
    k = draw(st.integers(2, 6))
    cyclic = draw(st.booleans()) if k >= 3 else False
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(k))
    style = draw(st.sampled_from(["empty", "full", "explicit"]))
    if style == "explicit":
        rng = draw(st.randoms())
        intra = random_intra(sizes, rng)
    else:
        intra = style
    return BraidSpec(sizes, cyclic=cyclic, intra=intra)


@given(braid_specs())
@settings(max_examples=120, deadline=None)
def test_build_braid_structure_property(spec):
    g, p = build_braid(spec)
    assert p.sizes() == spec.cluster_sizes
    assert g.n == sum(spec.cluster_sizes)
    check_braid_structure(g, p, spec.intra)


# ----------------------------------------------------------------------
# H / G / E size tables
# ----------------------------------------------------------------------


def test_h_sizes_by_residue():
    assert h_sizes(12) == (3, 3, 3, 3)
    assert h_sizes(13) == (4, 3, 3, 3)
    assert h_sizes(11) == (2, 3, 3, 3)
    assert h_sizes(8) == (2, 3, 3)
    with pytest.raises(InputError):
        h_sizes(7)


def test_build_h_degrees_and_structure():
    g, p = build_H(12)
    assert all(g.degree(v) == 6 for v in range(12))
    check_braid_structure(g, p, "empty")
    g13, p13 = build_H(13)
    assert p13.size_multiset() == (3, 3, 3, 4)
    check_braid_structure(g13, p13, "empty")


def test_build_h_is_connected_small_diameter():
    g, _ = build_H(18)
    assert ball(g, 0, 3) == g.full_mask()


def test_g_and_e_sizes_by_residue():
    assert g_sizes(14) == (2, 3, 3, 3, 3)
    assert g_sizes(16) == (4, 3, 3, 3, 3)
    assert g_sizes(18) == (2, 2, 2, 3, 3, 3, 3)
    assert g_sizes(19) == (2, 2, 3, 3, 3, 3, 3)
    assert g_sizes(17) == (4, 4, 3, 3, 3)
    assert g_sizes(15) == (3, 3, 3, 3, 3)
    assert e_sizes(18) == (3, 3, 3, 3, 3, 3)
    assert e_sizes(15) == (2, 2, 2, 3, 3, 3)
    assert e_sizes(17) == (2, 3, 3, 3, 3, 3)
    assert e_sizes(14) == (4, 4, 3, 3)
    assert e_sizes(19) == (4, 3, 3, 3, 3, 3)
    assert e_sizes(16) == (2, 2, 3, 3, 3, 3)
    for f in (g_sizes, e_sizes):
        with pytest.raises(InputError):
            f(13)


def _patch_row(monkeypatch, tag, r, row):
    """Replace row r of tag's entry in the residue table for one test."""
    least, outside, rows = families._SPECIALS[tag]
    rows = [row if i == r else old for i, old in enumerate(rows)]
    monkeypatch.setitem(families._SPECIALS, tag, (least, outside, rows))


def test_broken_residue_table_is_an_internal_error(monkeypatch):
    _patch_row(monkeypatch, "G", 2, [[2, 2]])
    with pytest.raises(InternalError):
        g_sizes(14)


def test_parity_row_mixing_a_2_and_a_4_is_an_internal_error(monkeypatch):
    # the row for n = 14 sums right, but _arrangements orders only
    # multisets with one size other than 3
    _patch_row(monkeypatch, "F_odd", 2, [[2, 4]])
    with pytest.raises(InternalError, match="two sizes other than 3"):
        f_central_sequences(14, "odd")


@pytest.mark.parametrize("tag, broken, sizes", [
    ("H", [[2, 2]], h_sizes),
    ("F", [[2, 2]], f_central_multisets),
    ("H", [[2, 2]], m_lower),
])
def test_broken_mod_3_row_is_an_internal_error(monkeypatch, tag, broken, sizes):
    _patch_row(monkeypatch, tag, 2, broken)
    with pytest.raises(InternalError, match="residue table broken"):
        sizes(14)


def _rows(tag, n):
    """The size profiles of a family at n: whole rings, or the central
    clusters of a path braid."""
    if tag in ("H", "G", "E"):
        return [{"H": h_sizes, "G": g_sizes, "E": e_sizes}[tag](n)]
    if tag == "G_script":
        return script_g_multisets(n)
    return f_central_multisets(n, {"F": "all", "F_odd": "odd", "F_even": "even"}[tag])


@pytest.mark.parametrize("tag, low, period", [
    ("H", 8, 3), ("G", 14, 6), ("E", 14, 6), ("F", 4, 3),
    ("F_odd", 10, 6), ("F_even", 10, 6), ("G_script", 14, 6),
])
def test_each_residue_row_fills_its_smallest_n(tag, low, period):
    # the smallest admissible n of each residue class: a short row shows
    # first here, before its 3s pad it out
    central = tag.startswith("F")
    for n in range(low, low + period):
        for sizes in _rows(tag, n):
            assert sum(sizes) == n - 2 * central, (tag, n, sizes)
            assert set(sizes) <= {2, 3, 4}, (tag, n, sizes)


def test_the_residue_table_names_every_family():
    assert tuple(families._SPECIALS) == FAMILY_TAGS


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_each_family_refuses_n_below_its_least(tag):
    least = families._SPECIALS[tag][0]
    with pytest.raises(InputError, match=f"^{tag} needs n >= {least}, got {least - 1}$"):
        _rows(tag, least - 1)


def test_script_g_extends_g_by_four_2s_at_5_mod_6():
    for n in range(14, 129):
        multisets = script_g_multisets(n)
        assert multisets[0] == tuple(sorted(g_sizes(n))), n
        assert (len(multisets) == 2) == (n % 6 == 5), n


def test_build_g_full_intra_build_e_empty():
    g, p = build_G(16)
    check_braid_structure(g, p, "full")
    e, pe = build_E(14)
    check_braid_structure(e, pe, "empty")


@pytest.mark.parametrize("n", range(14, 31))
def test_g_e_sizes_sum_and_support(n):
    assert sum(g_sizes(n)) == n
    assert sum(e_sizes(n)) == n
    assert len(g_sizes(n)) >= 3 and len(e_sizes(n)) >= 3


# ----------------------------------------------------------------------
# F families
# ----------------------------------------------------------------------


def test_member_of_f_figure_one_shape():
    g, p = member_of_F(10, "all", 0)
    assert p.sizes() == (1, 2, 3, 3, 1)
    check_braid_structure(g, p, "empty")


def test_member_of_f_small():
    g, p = member_of_F(4, "all", 0)
    assert p.sizes() == (1, 2, 1)
    g5, p5 = member_of_F(5, "all", 0)
    assert p5.sizes() == (1, 3, 1)


def test_member_of_f_odd_variant_zero():
    _, p = member_of_F(10, "odd", 0)
    assert p.sizes() == (1, 2, 3, 3, 1)


def test_f_variant_enumeration():
    # n=13 odd: multisets {4,4,3} then {2,2,2,2,3}
    seqs = f_central_sequences(13, "odd")
    assert seqs == [
        (3, 4, 4),
        (4, 3, 4),
        (2, 2, 2, 2, 3),
        (2, 2, 2, 3, 2),
        (2, 2, 3, 2, 2),
    ]
    assert f_central_multisets(6, "all") == [(4,), (2, 2)]
    assert f_central_multisets(9, "all") == [(3, 4), (2, 2, 3)]
    with pytest.raises(InputError):
        member_of_F(13, "odd", 5)
    with pytest.raises(InputError):
        member_of_F(3, "all", 0)
    with pytest.raises(InputError):
        member_of_F(9, "odd", 0)
    with pytest.raises(InputError):
        member_of_F(12, "sideways", 0)


def test_f_intra_override():
    # an F member with intra edges is build_braid on the member's sizes
    sizes = (1, *f_central_sequences(10, "all")[0], 1)
    assert build_braid(BraidSpec(sizes)) == member_of_F(10, "all", 0)
    g, p = build_braid(BraidSpec(sizes, intra="full"))
    c = p.clusters[1]
    assert g.has_edge(c[0], c[1])
    explicit = ((), (), ((0, 1),), (), ())
    g2, p2 = build_braid(BraidSpec(sizes, intra=explicit))
    b2 = p2.clusters[2]
    assert g2.has_edge(b2[0], b2[1]) and not g2.has_edge(b2[0], b2[2])


@pytest.mark.parametrize("n", range(10, 31))
def test_f_parity_tables_have_consistent_part_counts(n):
    for seq in f_central_sequences(n, "odd"):
        assert len(seq) % 2 == 1, f"odd family needs odd path length at n={n}"
        assert sum(seq) == n - 2
    for seq in f_central_sequences(n, "even"):
        assert len(seq) % 2 == 0
        assert sum(seq) == n - 2


@pytest.mark.parametrize("n", range(10, 31))
def test_f_central_products_match_formulas(n):
    def prod(seq):
        out = 1
        for s in seq:
            out *= s
        return out

    assert {prod(s) for s in f_central_sequences(n, "all")} == {f2(n).value}
    assert {prod(s) for s in f_central_sequences(n, "odd")} == {f2_odd(n).value}
    assert {prod(s) for s in f_central_sequences(n, "even")} == {f2_even(n).value}


def distinct_permutations(items):
    """Permutations of a multiset without repeats (the classic counting
    walk): the oracle for the placements the families build from."""
    counts = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    out = []

    def rec():
        if len(out) == len(items):
            yield tuple(out)
            return
        for k in sorted(counts):
            if counts[k]:
                counts[k] -= 1
                out.append(k)
                yield from rec()
                out.pop()
                counts[k] += 1

    yield from rec()


def test_orderings_match_the_permutation_walk():
    for n in range(10, 70):
        for parity in ("all", "odd", "even"):
            walk = []
            for multiset in f_central_multisets(n, parity):
                classes = sorted({min(p, p[::-1]) for p in distinct_permutations(multiset)})
                assert families._arrangements(multiset, cyclic=False) == classes
                walk += classes
            assert f_central_sequences(n, parity) == walk
        for multiset in script_g_multisets(max(n, 14)):
            walk = {
                min(seq[r:] + seq[:r] for seq in (p, p[::-1]) for r in range(len(p)))
                for p in distinct_permutations(multiset)
            }
            assert families._arrangements(multiset, cyclic=True) == sorted(walk)


# ----------------------------------------------------------------------
# script-G
# ----------------------------------------------------------------------


def test_script_g_multisets():
    assert script_g_multisets(14) == [(2, 3, 3, 3, 3)]
    assert script_g_multisets(17) == [
        (3, 3, 3, 4, 4),
        (2, 2, 2, 2, 3, 3, 3),
    ]
    with pytest.raises(InputError):
        script_g_multisets(13)


def test_script_g_members_14():
    members = list(members_of_script_G(14))
    assert len(members) == 2  # one placement x {empty, full}
    for g, p in members:
        assert p.cyclic and p.size_multiset() == (2, 3, 3, 3, 3)
        check_braid_structure(g, p)


def test_script_g_members_17_count_and_multisets():
    members = list(members_of_script_G(17))
    # {4,4,3,3,3}: 2 necklaces; {2,2,2,2,3,3,3}: 4 necklaces; x2 intra
    assert len(members) == 12
    multisets = {p.size_multiset() for _, p in members}
    assert multisets == {(3, 3, 3, 4, 4), (2, 2, 2, 2, 3, 3, 3)}
    for g, p in members:
        check_braid_structure(g, p)


def test_build_family_matches_the_family_builders():
    # one member built alone equals the same member of the whole family
    for n in range(14, 41):
        members = list(members_of_script_G(n))
        assert [build_family("G_script", n, v) for v in range(len(members))] == members
        for tag, parity in (("F", "all"), ("F_odd", "odd"), ("F_even", "even")):
            count = len(f_central_sequences(n, parity))
            for v in range(count):
                assert build_family(tag, n, v) == member_of_F(n, parity, v)
        for tag, builder in (("H", build_H), ("G", build_G), ("E", build_E)):
            assert build_family(tag, n, 0) == builder(n)
        for tag, count in (("G_script", len(members)), ("F", len(f_central_sequences(n))),
                           ("H", 1)):
            for v in (count, -1):
                with pytest.raises(InputError):
                    build_family(tag, n, v)
    with pytest.raises(InputError, match="unknown family"):
        build_family("Q", 20, 0)


def test_cluster_partition_validation():
    with pytest.raises(InputError):
        ClusterPartition((), cyclic=False)  # no cluster
    with pytest.raises(InputError):
        ClusterPartition(((0, 1), (1, 2)), cyclic=False)  # overlap
    with pytest.raises(InputError):
        ClusterPartition(((0,), ()), cyclic=False)  # empty cluster
    with pytest.raises(InputError):
        ClusterPartition(((0,), (1,)), cyclic=True)  # cyclic k<3
    p = ClusterPartition(((0, 1), (2,)), cyclic=False)
    assert p.to_json_dict() == {"clusters": [[0, 1], [2]], "cyclic": False}


def test_family_id_tags():
    FamilyId("H", 12)
    with pytest.raises(InputError):
        FamilyId("Q", 12)
