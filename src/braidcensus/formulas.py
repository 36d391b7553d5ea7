"""Closed-form counts and bounds for braid-structured extremal graphs.

Everything here is exact integer arithmetic but the per-vertex cycle
bound, whose exponent (n - d - 1)/3 need not be an integer.

Every family's cluster sizes come from the residue rows that families.py
owns, imported only when a form needs them.  f2, f2_odd and f2_even are the
central-size products of the path braids F, F_odd and F_even; tests check
them against an independent maximizer (max product of parts with a given
part-count parity) and the path census of the built graphs.  m_lower is
the total of _ring_census, the cycle census of a ring of empty clusters,
on H's sizes.
"""

from __future__ import annotations

import math
from collections import Counter

from .graphs import InputError, UnsupportedError, _Record

# The one upper limit of the exact counts, checked by _check_n: on a 2-core
# Xeon, short_cycle_mass and its decimal form take 0.1 s at 10^5, 13 s at 10^6.
EXACT_MAX_N = 100_000


class ExactCount(_Record):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise InputError(f"count cannot be negative: {self.value}")


class RealBound(_Record):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise InputError(f"bound must be finite and >= 0: {self.value}")


def _check_n(name: str, n: int, low: int) -> None:
    if n < low:
        raise InputError(f"{name} needs n >= {low}, got {n}")
    if n > EXACT_MAX_N:
        raise UnsupportedError(f"{name} supports n <= {EXACT_MAX_N}")


def _power_product(sizes) -> int:
    """The product of sizes, taken as a power of each distinct size: a
    running product over H's 33,333 sizes at n = 10^5 costs about 25 ms
    on a 2-core Xeon."""
    return math.prod(s ** sizes.count(s) for s in set(sizes))


def _ring_census(sizes: tuple[int, ...]) -> dict[int, int]:
    """Induced cycles by length of the cyclic braid with k >= 4 empty
    clusters of these sizes, in ring order.  A cluster's vertices are false
    twins, so a cycle through two of B_i is a C4 closing in B_{i+1} or via
    both neighbours; every other cycle takes one vertex of each cluster."""
    before, after = sizes[-1:] + sizes[:-1], sizes[1:] + sizes[:1]
    windows = Counter(zip(before, sizes, after))
    census = Counter({4: sum(count * math.comb(s, 2) * (a * b + math.comb(b, 2))
                             for (a, s, b), count in windows.items())})
    census[len(sizes)] += _power_product(sizes)
    return dict(+census)  # + drops a zero count of C4s


def _central_product(n: int, parity: str) -> ExactCount:
    """Central-size product of the extremal path braids: every admissible
    multiset of the family's residue row has the same one, so read the first."""
    from .families import f_central_multisets

    return ExactCount(_power_product(f_central_multisets(n, parity)[0]))


def f2(n: int) -> ExactCount:
    """Maximum number of induced paths between a fixed vertex pair."""
    _check_n("f2", n, 4)
    return _central_product(n, "all")


def f2_odd(n: int) -> ExactCount:
    """Maximum number of induced odd paths (odd = odd vertex count)."""
    _check_n("f2_odd", n, 10)
    return _central_product(n, "odd")


def f2_even(n: int) -> ExactCount:
    """Maximum number of induced even paths (even = even vertex count)."""
    _check_n("f2_even", n, 10)
    return _central_product(n, "even")


def m_lower(n: int) -> ExactCount:
    """Induced cycle count of the cyclic extremal construction H; equals
    the true maximum for all sufficiently large n, and (verified in tests)
    the census of build_H(n) for every n in 12..128."""
    _check_n("m_lower", n, 12)
    from .families import h_sizes

    return ExactCount(sum(_ring_census(h_sizes(n)).values()))


def vertex_cycle_bound(n: int, d: int) -> RealBound:
    """Upper bound C(d,2) * 3^((n-d-1)/3) on the number of induced cycles
    through a fixed vertex of degree d in an n-vertex graph."""
    if n < 1:
        raise InputError(f"vertex_cycle_bound needs n >= 1, got {n}")
    if not 0 <= d < n:
        raise InputError(f"degree d must satisfy 0 <= d < n, got d={d}, n={n}")
    pairs = math.comb(d, 2)
    try:
        value = pairs * 3.0 ** ((n - d - 1) / 3) if pairs else 0.0
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise UnsupportedError(f"vertex_cycle_bound(n={n}, d={d}) exceeds the float range")
    return RealBound(value)


def short_cycle_mass(n: int) -> ExactCount:
    """Sum of C(n, i) for 1 <= i <= floor(0.11 * n): a coarse cap on the
    number of induced cycles of length below 0.11 * n, still exponentially
    smaller than 3^(n/3)."""
    _check_n("short_cycle_mass", n, 1)
    top = 11 * n // 100  # floor(0.11 * n) in exact integer arithmetic
    total, binom = 0, 1  # binom is C(n, i - 1) at the top of the loop
    for i in range(1, top + 1):
        binom = binom * (n - i + 1) // i
        total += binom
    return ExactCount(total)
