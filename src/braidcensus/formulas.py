"""Closed-form counts and bounds for braid-structured extremal graphs.

Everything here is exact integer arithmetic but the per-vertex cycle
bound, whose exponent (n - d - 1)/3 need not be an integer.

The induced-path maxima f2, f2_odd and f2_even are the products of the
central cluster sizes of the extremal path braids F, F_odd and F_even, read
from the residue rows that families.py owns (imported only when a path form
is asked for).  Tests check them against an independent maximizer (max
product of parts with a given part-count parity) and against the path
census of the built graphs.  m_lower keeps its own residue dispatch: an
induced-cycle count adds short-cycle terms to the product of cluster sizes.
"""

from __future__ import annotations

import math

from .graphs import InputError, InternalError, UnsupportedError, _Record

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


def _pow3(k: int) -> int:
    if k < 0:
        raise InternalError(f"negative exponent {k} means a residue rule is wrong")
    return 3 ** k


def _central_product(n: int, parity: str) -> ExactCount:
    """Central-size product of the extremal path braids: every admissible
    multiset of the family's residue row has the same one, so read the first."""
    from .families import f_central_multisets

    sizes = f_central_multisets(n, parity)[0]
    others = [s for s in sizes if s != 3]
    return ExactCount(3 ** (len(sizes) - len(others)) * math.prod(others))


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
    """Induced cycle count of the cyclic extremal construction; equals the
    true maximum for all sufficiently large n and (verified in tests)
    equals the census of build_H(n) for every n in 12..21."""
    _check_n("m_lower", n, 12)
    r = n % 3
    if r == 0:
        return ExactCount(_pow3(n // 3) + 12 * n)
    if r == 1:
        return ExactCount(4 * _pow3((n - 4) // 3) + 12 * n + 51)
    return ExactCount(2 * _pow3((n - 2) // 3) + 12 * n - 36)


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
