"""Walking the induced-path game behind vertex typicality.

Two players grow an induced path from a start vertex v toward a probe
vertex w more than four steps away.  The Builder steers while the walk
is far from w; the Adversary takes over inside the radius-4 ball of w
and wins by making the path arrive badly (a chosen ball vertex with an
unseen-neighbor count other than 3) or by leaving part of the ball
undominated when the walk dies.  The probe w is typical when the
Builder wins.  On large braids the ring funnels the walk, so almost
every far target is typical, and the local-structure probe recovers
the cluster layout around any vertex from adjacency alone.

Run with:  python3 demos/game_walkthrough.py
"""

from braidcensus import (
    BraidSpec,
    atypical_set,
    ball,
    build_H,
    build_braid,
    game,
    local_structure,
    solve_typical_game,
)

# ----------------------------------------------------------------------
# both verdicts on one ring
# ----------------------------------------------------------------------

# A ring of three singletons, ten triangles, then one more singleton.
# The lone vertices act as choke points: a walk that reaches one has no
# room to dodge, so targets near them are Adversary wins, while targets
# deep in the triangle arc are Builder wins.

ring = BraidSpec((1, 1, 1) + (3,) * 10 + (1,), cyclic=True, intra="empty")
g, part = build_braid(ring)
print(f"ring of clusters {ring.cluster_sizes}, n = {g.n}")

verdict = solve_typical_game(g, 0, 21)
print(f"\nv=0, w=21: winner {verdict.winner}")
print(f"  optimal line {verdict.trace}")

verdict = solve_typical_game(g, 0, 9)
print(f"\nv=0, w=9: winner {verdict.winner}, reason {verdict.reason}")
print(f"  optimal line {verdict.trace}")

# ----------------------------------------------------------------------
# the full typicality split
# ----------------------------------------------------------------------

# atypical_set plays every probe outside the radius-4 ball of v.  Here
# the three vertices of the triangle next to the singleton run are the
# only Adversary wins.

report = atypical_set(g, 0)
print(f"\nv=0: atypical {report.atypical}")
print(f"     typical  {report.typical}")

# On the plain triangle ring H_30 the only probes outside the ball are
# the three antipodal vertices, and the Adversary wins all of them; on
# H_18 the ring is so small that every vertex is exempt.

g30, _ = build_H(30)
report = atypical_set(g30, 0)
print(f"\nH_30, v=0: probes {report.typical + report.atypical}, "
      f"atypical {report.atypical}")

g18, _ = build_H(18)
report = atypical_set(g18, 0)
print(f"H_18, v=0: {len(report.exempt)} exempt vertices, no probes")

# On H_120 (40 clusters) the nine clusters within distance 4 of v are
# exempt, the two at distance 5 are atypical (the walk's second step,
# with 5 unseen neighbours, lies in their ball), and every farther
# cluster is typical.  Twin probes share their radius-4 ball, so the 93
# probes have 31 distinct zones, and one search decides them all: its
# value at each (seen, current vertex) state is a bitmask over the
# zones.  Solving each zone on its own would expand 1,919 states.

g120, _ = build_H(120)
report = atypical_set(g120, 0)
split = (len(report.atypical), len(report.typical), len(report.exempt))
print(f"H_120, v=0: {split[0]} atypical, {split[1]} typical, {split[2]} exempt")
assert split == (6, 87, 27), split

probes = sorted(report.atypical + report.typical)
zones = tuple(dict.fromkeys(ball(g120, w, 4) for w in probes))
memo = {}
wins = game._builder_wins(g120.adj, zones, memo, 0, 0, game._holding(zones))
print(f"  one search over {len(zones)} zones expands {len(memo)} states")
assert (len(zones), len(memo)) == (31, 223), (len(zones), len(memo))
assert report.typical == tuple(
    w for w in probes if wins >> zones.index(ball(g120, w, 4)) & 1)

# ----------------------------------------------------------------------
# reading the cluster structure off a single vertex
# ----------------------------------------------------------------------

# For triangle-cluster rings with at least five clusters, the
# neighborhood of any vertex z splits into its own cluster and the two
# flanking ones.  local_structure finds that split without being told
# the partition.

g15, _ = build_H(15)
for z in (0, 7):
    found = local_structure(g15, z)
    print(f"\nH_15, z={z}:")
    print(f"  own cluster   {found['Z']}")
    print(f"  flanks        {found['V']} and {found['W']}")

# On H_12 the ring has only four clusters, so the two flanks share
# their far neighbor and the split is no longer recoverable.

g12, _ = build_H(12)
print(f"\nH_12, z=0: local structure {local_structure(g12, 0)}")
