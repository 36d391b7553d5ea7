"""Exhaustive sweeps over all small graphs, and what the winners look like.

For n up to 8 (sweep.SWEEP_MAX_N) we can score every graph up to
isomorphism and record which ones achieve the maximum induced-path count
between some vertex pair.  The sweep confirms the closed form and the
uniqueness report shows that every winner is a path braid with one of
the predicted central cluster multisets.

Run with:  python3 demos/sweep_small_n.py
"""

from braidcensus import (
    exhaustive_max,
    f2,
    f_central_multisets,
    verify_extremal_uniqueness,
)

# ----------------------------------------------------------------------
# the maximum induced-path count over all graphs on n vertices
# ----------------------------------------------------------------------

# Each sweep scores one graph per isomorphism class on n - 1 vertices
# and neighbourhood of a new vertex, which covers every labelled graph
# on n vertices up to isomorphism.  The value below is the best count
# over every graph and every endpoint pair.

sweeps = {}
for n in (4, 5, 6):
    result = sweeps[n] = exhaustive_max(n, "p2")
    formula = f2(n).value
    print(
        f"n={n}: swept {result.graphs_scanned} graphs, "
        f"max p2 = {result.max.value} (closed form {formula}), "
        f"{len(result.extremal_codes)} extremal isomorphism classes"
    )
    assert result.max.value == formula

# ----------------------------------------------------------------------
# every winner is a path braid
# ----------------------------------------------------------------------

# The uniqueness check takes each sweep above, revisits its extremal
# graphs, finds every endpoint pair achieving the maximum, and tries to
# lay the graph out as a path braid between those endpoints.
# central_multisets collects the cluster sizes it saw, which should
# match the family table: one size-2 cluster at n = 4, one size-3 at
# n = 5, and either a size-4 or two size-2 clusters at n = 6.

for n in (4, 5, 6):
    report = verify_extremal_uniqueness(n, sweeps[n])
    expected = set(f_central_multisets(n))
    print(
        f"n={n}: {report.pairs_checked} extremal (graph, pair) combos, "
        f"all braids: {report.all_match}, "
        f"central multisets {sorted(report.central_multisets)}"
    )
    assert report.all_match
    assert report.central_multisets == expected
