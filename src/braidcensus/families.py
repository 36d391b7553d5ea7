"""Constructors for braid graphs and the named extremal families.

A braid is an ordered sequence of disjoint vertex clusters B_1..B_k in
which consecutive clusters are completely joined and every vertex of a
*central* cluster (2 <= i <= k-1, or all i mod k in the cyclic variant)
has its whole neighborhood inside the three-cluster window around it.
Edges inside a cluster are unrestricted.

Every family's sizes are a residue row of 2s and 4s filled up with 3s,
by n mod 3 for H and F and by n mod 6 otherwise.  The rows of all seven
families sit in one table, _SPECIALS, read by one function, _sizes; this
module is their one owner, and formulas.py reads the path rows.
Families built here (vertex numbering is cluster-major ascending, special
clusters at the lowest indices, so output is reproducible):

* build_H(n): empty cyclic braid, one 2 (n = 3k-1) or one 4 (n = 3k+1);
  the all-cycle extremal construction.
* build_G(n): full cyclic braid; odd-cycle extremal.
* build_E(n): empty cyclic braid (the odd table shifted by 3); even-cycle
  extremal.
* member_of_F(n, parity, variant): path braids (1, c_1..c_t, 1) with
  singleton ends and empty clusters, central sizes by the n mod 3 table
  ("all") or the n mod 6 tables ("odd"/"even"); variants enumerate
  admissible central multisets and their orderings up to reversal.
  Intra-cluster edges are free in these families; the members that have
  them are build_braid(BraidSpec((1, *central, 1), intra=...)).
* members_of_script_G(n): one representative per (size multiset, necklace
  placement, empty/full intra) for the odd-hole family, including the
  extra four-2s multiset at n = 5 mod 6.
* build_family(tag, n, variant): the one member the CLI names, built
  without the others.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .graphs import FAMILY_TAGS, Graph, InputError, InternalError, _Record, mask_of

# intra-cluster edge patterns: the two symbolic forms, or an explicit list
# of local index pairs per cluster
IntraSpec = str | Sequence[tuple[int, int]]


# ======================================================================
# partition and spec types
# ======================================================================


class ClusterPartition(_Record):
    """Ordered clusters, possibly covering only part of a graph."""

    clusters: tuple[tuple[int, ...], ...]
    cyclic: bool

    def __post_init__(self):
        if len(self.clusters) < 1:
            raise InputError("partition needs at least one cluster")
        if self.cyclic and len(self.clusters) < 3:
            raise InputError(
                f"cyclic partition needs >= 3 clusters, got {len(self.clusters)}"
            )
        seen: set[int] = set()
        for c in self.clusters:
            if not c:
                raise InputError("empty cluster")
            if seen & set(c):
                raise InputError(f"clusters overlap at {sorted(seen & set(c))}")
            seen |= set(c)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    def size_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.sizes()))

    def vertex_mask(self) -> int:
        return mask_of(v for c in self.clusters for v in c)

    def to_json_dict(self) -> dict:
        return {"clusters": [list(c) for c in self.clusters], "cyclic": self.cyclic}


class FamilyId(_Record):
    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InputError(f"unknown family tag {self.tag!r}")


class BraidSpec(_Record):
    cluster_sizes: tuple[int, ...]
    cyclic: bool = False
    intra: tuple[IntraSpec, ...] | IntraSpec = "empty"

    def __post_init__(self):
        sizes = tuple(self.cluster_sizes)
        object.__setattr__(self, "cluster_sizes", sizes)
        k = len(sizes)
        if any(s < 1 for s in sizes):
            raise InputError(f"cluster sizes must be positive: {sizes}")
        if self.cyclic and k < 3:
            raise InputError(f"cyclic braid needs k >= 3, got {k}")
        if not self.cyclic and k < 2:
            raise InputError(f"braid needs k >= 2, got {k}")

    def intra_for(self, i: int) -> IntraSpec:
        if isinstance(self.intra, str):
            return self.intra
        return self.intra[i]


# ======================================================================
# the generic constructor
# ======================================================================

MAX_BRAID_VERTICES = 128


def _check_size(n: int) -> None:
    # builders check first: sizes and orderings cost time even for n too big
    if n > MAX_BRAID_VERTICES:
        raise InputError(f"braid would have {n} > {MAX_BRAID_VERTICES} vertices")


def _intra_pairs(spec_entry: IntraSpec, size: int, cluster_idx: int):
    if spec_entry == "empty":
        return []
    if spec_entry == "full":
        return list(itertools.combinations(range(size), 2))
    pairs = []
    for a, b in spec_entry:
        if a == b or not (0 <= a < size and 0 <= b < size):
            raise InputError(
                f"intra edge ({a},{b}) invalid for cluster {cluster_idx} of size {size}"
            )
        pairs.append((min(a, b), max(a, b)))
    return sorted(set(pairs))


def build_braid(spec: BraidSpec) -> tuple[Graph, ClusterPartition]:
    """Materialize a braid: consecutive clusters completely joined,
    non-consecutive pairs empty, intra edges exactly as specified."""
    sizes = spec.cluster_sizes
    if not isinstance(spec.intra, str) and len(spec.intra) != len(sizes):
        raise InputError(
            f"intra spec has {len(spec.intra)} entries for {len(sizes)} clusters"
        )
    n = sum(sizes)
    _check_size(n)
    k = len(sizes)
    starts = [0, *itertools.accumulate(sizes)]
    masks = [((1 << s) - 1) << at for s, at in zip(sizes, starts)]
    rows = []
    for i, s in enumerate(sizes):
        # an end cluster of a path braid has one neighbouring cluster
        near = masks[i - 1] if spec.cyclic or i > 0 else 0
        if spec.cyclic or i < k - 1:
            near |= masks[(i + 1) % k]
        local = [0] * s
        for a, b in _intra_pairs(spec.intra_for(i), s, i):
            local[a] |= 1 << b
            local[b] |= 1 << a
        rows += [near | row << starts[i] for row in local]
    clusters = tuple(tuple(range(starts[i], starts[i + 1])) for i in range(k))
    return Graph(n, rows), ClusterPartition(clusters, spec.cyclic)


# ======================================================================
# the residue table, and the cyclic families H, G, E
# ======================================================================


# tag -> (least n, vertices outside the sized clusters, rows): row n % len(rows)
# lists the family's multisets of 2s and 4s, each filled up with 3s.  The
# path families size the n - 2 central vertices, the cyclic ones all n.
_SPECIALS = {
    "H": (8, 0, [[[]], [[4]], [[2]]]),
    "G": (14, 0, [[[2, 2, 2]], [[2, 2]], [[2]], [[]], [[4]], [[4, 4]]]),
    "E": (14, 0, [[[]], [[4]], [[4, 4]], [[2, 2, 2]], [[2, 2]], [[2]]]),
    "F": (4, 2, [[[4], [2, 2]], [[2]], [[]]]),
    "F_odd": (10, 2, [[[4]], [[4, 4], [2, 2, 2, 2]], [[2, 2, 2]],
                      [[2, 2]], [[2]], [[]]]),
    "F_even": (10, 2, [[[2, 2]], [[2]], [[]], [[4]],
                       [[4, 4], [2, 2, 2, 2]], [[2, 2, 2]]]),
}
# the odd holes: G's rows, with four 2s as a second multiset at n = 5 mod 6
_SPECIALS["G_script"] = (*_SPECIALS["G"][:2], [
    row + ([[2, 2, 2, 2]] if r == 5 else [])
    for r, row in enumerate(_SPECIALS["G"][2])])


def _sizes(tag: str, n: int) -> list[list[int]]:
    """The cluster sizes of tag's multisets at n, special clusters first;
    a remainder means a residue row is wrong, which is a bug, not bad input."""
    least, outside, rows = _SPECIALS[tag]
    if n < least:
        raise InputError(f"{tag} needs n >= {least}, got {n}")
    out = []
    for specials in rows[n % len(rows)]:
        rest = n - outside - sum(specials)
        if rest < 0 or rest % 3:
            raise InternalError(
                f"residue table broken for {tag} at n={n}: {rest} left over")
        out.append(specials + [3] * (rest // 3))
    return out


def h_sizes(n: int) -> tuple[int, ...]:
    return tuple(_sizes("H", n)[0])


def build_H(n: int) -> tuple[Graph, ClusterPartition]:
    """Empty cyclic braid with the all-cycles extremal size profile."""
    _check_size(n)
    return build_braid(BraidSpec(h_sizes(n), cyclic=True, intra="empty"))


def g_sizes(n: int) -> tuple[int, ...]:
    return tuple(_sizes("G", n)[0])


def e_sizes(n: int) -> tuple[int, ...]:
    return tuple(_sizes("E", n)[0])


def build_G(n: int) -> tuple[Graph, ClusterPartition]:
    """Full cyclic braid, odd-cycle extremal profile (special clusters
    consecutive at the lowest indices)."""
    _check_size(n)
    return build_braid(BraidSpec(g_sizes(n), cyclic=True, intra="full"))


def build_E(n: int) -> tuple[Graph, ClusterPartition]:
    """Empty cyclic braid, even-cycle extremal profile."""
    _check_size(n)
    return build_braid(BraidSpec(e_sizes(n), cyclic=True, intra="empty"))


# ======================================================================
# path families: F, F_odd, F_even
# ======================================================================

def f_central_multisets(n: int, parity: str = "all") -> list[tuple[int, ...]]:
    """Admissible central-size multisets (sorted tuples), in table order."""
    tag = {"all": "F", "odd": "F_odd", "even": "F_even"}.get(parity)
    if tag is None:
        raise InputError(f"parity must be all|odd|even, got {parity!r}")
    return [tuple(sorted(sizes)) for sizes in _sizes(tag, n)]


def f_central_sequences(n: int, parity: str = "all") -> list[tuple[int, ...]]:
    """All admissible central-size orderings, deduplicated up to reversal.

    The variant index of member_of_F points into this list.  Order: the
    multisets in table order, then the lexicographically smallest
    representative of each reversal class, ascending.
    """
    return [seq for multiset in f_central_multisets(n, parity)
            for seq in _arrangements(multiset, cyclic=False)]


def member_of_F(
    n: int, parity: str = "all", variant: int = 0
) -> tuple[Graph, ClusterPartition]:
    """Build the variant-th braid of the requested path family, with
    singleton end clusters first and last and no intra-cluster edges.
    For other intra edges, build the same sizes with build_braid."""
    _check_size(n)
    seqs = f_central_sequences(n, parity)
    if not 0 <= variant < len(seqs):
        raise InputError(
            f"variant {variant} out of range: {parity} family at n={n} "
            f"has {len(seqs)} variants"
        )
    return build_braid(BraidSpec((1, *seqs[variant], 1)))


# ======================================================================
# the odd-hole family script-G
# ======================================================================


def script_g_multisets(n: int) -> list[tuple[int, ...]]:
    return [tuple(sorted(sizes)) for sizes in _sizes("G_script", n)]


def _arrangements(multiset: tuple[int, ...], cyclic: bool) -> list[tuple[int, ...]]:
    """The orderings of a multiset up to reversal, and rotation when
    cyclic, each as the least ordering of its class, ascending.

    The k sizes other than 3 cut the 3s into k + 1 runs in a row, or k
    around a ring.  A row is kept when it is at most its reversal.  Rings
    compare as their runs do (in reverse for a 4, which exceeds 3), so a
    ring is kept at its best run tuple under rotation and reversal."""
    others = [s for s in multiset if s != 3]
    if len(set(others)) > 1:
        raise InternalError(f"multiset {multiset} has two sizes other than 3")
    k, t = len(others), len(multiset) - len(others)
    if not k:
        return [multiset]
    other = others[0]
    best = min if other < 3 else max
    slots = t + k - cyclic
    out = []
    # cuts in ascending order: orderings ascend for a 2, descend for a 4
    for cuts in itertools.combinations(range(slots), k - cyclic):
        seq = [3] * slots
        for c in cuts:
            seq[c] = other
        if cyclic:
            runs = tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (slots,)))
            turns = [runs[r:] + runs[:r] for r in range(k)]
            if runs != best(turns + [turn[::-1] for turn in turns]):
                continue
            # the least rotation starts at a 2, or ends at a 4
            seq = [other] + seq if other < 3 else seq + [other]
        elif seq > seq[::-1]:
            continue
        out.append(tuple(seq))
    return out if other < 3 else out[::-1]


def _script_g_rings(n: int) -> list[tuple[int, ...]]:
    """The cluster sizes around each script-G ring, in member order."""
    return [ring for multiset in script_g_multisets(n)
            for ring in _arrangements(multiset, cyclic=True)]


def members_of_script_G(n: int) -> Iterator[tuple[Graph, ClusterPartition]]:
    """One representative per (size multiset, necklace placement,
    empty/full intra) for the odd-hole extremal family."""
    _check_size(n)
    for ring in _script_g_rings(n):
        for intra in ("empty", "full"):
            yield build_braid(BraidSpec(ring, cyclic=True, intra=intra))


def build_family(tag: str, n: int, variant: int) -> tuple[Graph, ClusterPartition]:
    """The variant-th member of a named family at n, built alone: F
    variants index f_central_sequences, script-G variant v is ring
    v // 2 of members_of_script_G, empty for even v and full for odd."""
    if tag in ("H", "G", "E"):
        if variant != 0:
            raise InputError(f"family {tag} has a single variant per n")
        return {"H": build_H, "G": build_G, "E": build_E}[tag](n)
    if tag == "G_script":
        _check_size(n)
        rings = _script_g_rings(n)
        if not 0 <= variant < 2 * len(rings):
            raise InputError(f"G_script at n={n} has no variant {variant}")
        intra = ("empty", "full")[variant % 2]
        return build_braid(BraidSpec(rings[variant // 2], cyclic=True, intra=intra))
    parity = {"F": "all", "F_odd": "odd", "F_even": "even"}.get(tag)
    if parity is None:
        raise InputError(f"unknown family {tag!r}")
    return member_of_F(n, parity=parity, variant=variant)

