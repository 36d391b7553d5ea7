"""A tour of the cycle census on the cyclic braid family.

We build the triangle-cluster braids H_n, count their induced cycles
with the bitmask engine, and check the closed form.  Along the way we
break the n = 13 four-cycle count apart by how many clusters each
cycle touches, which is where the two quadratic terms of the formula
come from.

Run with:  python3 demos/census_tour.py
"""

from braidcensus import (
    build_H,
    count_induced_cycles,
    cycles_per_vertex,
    m_lower,
    slow_census,
    vertex_cycle_bound,
    visit_induced_cycles,
)
from braidcensus.graphs import bits_of

# ----------------------------------------------------------------------
# the census against the closed form
# ----------------------------------------------------------------------

# H_n is a ring of clusters (almost all triangles) where consecutive
# clusters are completely joined.  Its induced cycle count is the
# conjectured maximum over all n-vertex graphs.  The vertices of a
# cluster are twins, so the engine counts each class of interchangeable
# partial cycles once; that is what makes n = 120, with about 3^40
# cycles, take milliseconds.

print("n   census               closed form")
for n in list(range(12, 22)) + [30, 60, 90, 120]:
    g, part = build_H(n)
    census = count_induced_cycles(g)
    formula = m_lower(n).value
    marker = "ok" if census.f == formula else "MISMATCH"
    print(f"{n:<3} {census.f:<20} {formula:<20} {marker}")

# For a second opinion, the subset oracle decides vertex by vertex which
# subsets induce a cycle, dropping a partial subset once a chosen vertex
# can no longer have exactly two chosen neighbours.  Exponential, but
# independent.

g, _ = build_H(14)
assert count_induced_cycles(g).by_length == slow_census(g).by_length
print("\nsubset oracle agrees with the engine on H_14")

# ----------------------------------------------------------------------
# where the four-cycles live
# ----------------------------------------------------------------------

# At n = 13 the braid has clusters of sizes 4, 3, 3, 3.  Every induced
# four-cycle either straddles two adjacent clusters, spans three
# consecutive ones, or wraps the whole ring (possible only because
# k = 4 here).  Count each kind by looking up the cluster of every
# vertex on the cycle.

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

n = 13
print(f"\nfour-cycles of H_13 by cluster span")
print(f"  two clusters:   {spans[2]:>4}  (3(n+5) = {3 * (n + 5)})")
print(f"  three clusters: {spans[3]:>4}  (9(n+4) = {9 * (n + 4)})")
print(f"  whole ring:     {spans[4]:>4}")
print(f"  total:          {sum(spans.values()):>4}")

total = count_induced_cycles(g).by_length[4]
assert sum(spans.values()) == total

# ----------------------------------------------------------------------
# cycles through one vertex
# ----------------------------------------------------------------------

# The paper's induction step bounds f_v, the induced cycles through one
# vertex v of degree d, by C(d,2) 3^((n-d-1)/3).  cycles_per_vertex
# counts f_v for every vertex at once from the same memoized search,
# with no enumeration.  When 3 divides n, H_n is a ring of equal clusters,
# so every vertex lies on as many cycles, and the n of them together
# count each L-cycle L times.

n = 60
g, _ = build_H(n)
per_vertex = cycles_per_vertex(g)
assert all(c == per_vertex[0] for c in per_vertex)
weighted = sum(length * c for length, c in count_induced_cycles(g).by_length.items())
assert n * per_vertex[0].f == weighted
bound = vertex_cycle_bound(n, g.degree(0)).value
print(f"\ncycles through each vertex of H_{n}: f_v = {per_vertex[0].f}"
      f" (vertex bound {bound:.4g})")
