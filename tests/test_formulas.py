"""Closed-form evaluators against an independent maximization oracle.

The extremal path counts are, by construction, products of central cluster
sizes of a braid whose sizes sum to n - 2 (two singleton ends), with the
path parity fixed by the part count's parity.  So the ground truth for
f2 / f2_odd / f2_even is "maximum product of positive integer parts with
total n - 2 and constrained part-count parity", computable directly: for a
fixed part count t the product is maximized by near-equal parts.
"""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidcensus.families import f_central_sequences
from braidcensus.formulas import (
    EXACT_MAX_N,
    ExactCount,
    RealBound,
    f2,
    f2_even,
    f2_odd,
    m_lower,
    short_cycle_mass,
    vertex_cycle_bound,
)
from braidcensus.formulas import _pow3
from braidcensus.graphs import InputError, InternalError, UnsupportedError


def max_part_product(total: int, count_parity: str) -> int:
    best = 0
    for t in range(1, total + 1):
        if count_parity == "odd" and t % 2 == 0:
            continue
        if count_parity == "even" and t % 2 == 1:
            continue
        q, r = divmod(total, t)
        best = max(best, (q + 1) ** r * q ** (t - r))
    return best


# ----------------------------------------------------------------------
# oracle equivalence (the substance of the closed forms)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 201))
def test_f2_equals_part_product_maximum(n):
    assert f2(n).value == max_part_product(n - 2, "any")


@pytest.mark.parametrize("n", range(10, 201))
def test_f2_odd_equals_odd_count_maximum(n):
    # path vertex count = central part count + 2, so odd paths <=> odd t
    assert f2_odd(n).value == max_part_product(n - 2, "odd")


@pytest.mark.parametrize("n", range(10, 201))
def test_f2_even_equals_even_count_maximum(n):
    assert f2_even(n).value == max_part_product(n - 2, "even")


@pytest.mark.parametrize("n", range(4, 61))
def test_every_arrangement_has_the_closed_form_product(n):
    # the closed forms read the first multiset of a row; every ordering of
    # every multiset in the row must reach the same product
    forms = [("all", f2)] + ([("odd", f2_odd), ("even", f2_even)] if n >= 10 else [])
    for parity, form in forms:
        want = form(n).value
        for seq in f_central_sequences(n, parity):
            assert math.prod(seq) == want, (parity, n, seq)


# ----------------------------------------------------------------------
# pinned values
# ----------------------------------------------------------------------


def test_f2_small_values():
    assert [f2(n).value for n in range(4, 9)] == [2, 3, 4, 6, 9]


def test_f2_odd_values():
    assert f2_odd(10).value == 18
    assert f2_odd(11).value == 27
    assert f2_odd(13).value == 48


def test_f2_even_values():
    assert f2_even(10).value == 16
    assert f2_even(12).value == 36
    assert f2_even(13).value == 54


def test_m_lower_values():
    assert [m_lower(n).value for n in (12, 13, 14, 15)] == [225, 315, 294, 423]
    assert m_lower(21).value == 3 ** 7 + 12 * 21


def test_vertex_cycle_bound_values():
    assert vertex_cycle_bound(13, 6).value == pytest.approx(135.0)
    assert vertex_cycle_bound(9, 0).value == 0.0
    assert vertex_cycle_bound(9, 1).value == 0.0
    # non-integer exponent stays real
    assert vertex_cycle_bound(12, 6).value == pytest.approx(15 * 3 ** (5 / 3))


def test_vertex_cycle_bound_beyond_the_float_range_is_unsupported():
    # 3^((n - d - 1) / 3) itself overflows, or only its product with C(d, 2)
    for n, d in [(3000, 2), (1945, 6), (10 ** 400, 5)]:
        with pytest.raises(UnsupportedError):
            vertex_cycle_bound(n, d)
    assert vertex_cycle_bound(1940, 2).value > 1e308
    assert vertex_cycle_bound(3000, 1).value == 0.0


def test_short_cycle_mass_values():
    for n in range(1, 10):
        assert short_cycle_mass(n).value == 0
    assert short_cycle_mass(20).value == 210
    assert short_cycle_mass(30).value == 4525


def test_short_cycle_mass_is_the_binomial_sum():
    for n in range(1, 2001):
        want = sum(math.comb(n, i) for i in range(1, 11 * n // 100 + 1))
        assert short_cycle_mass(n).value == want, n


def test_short_cycle_mass_at_fifty_thousand():
    # the sum of math.comb calls took 7.9 s here; walk down from the top
    # binomial instead, an independent recurrence with its own anchor
    n = 50_000
    start = time.perf_counter()
    got = short_cycle_mass(n).value
    assert time.perf_counter() - start < 2.0
    top = 11 * n // 100
    binom, want = math.comb(n, top), 0
    for i in range(top, 0, -1):
        want += binom
        binom = binom * i // (n - i + 1)
    assert got == want


# ----------------------------------------------------------------------
# structural identities and domains
# ----------------------------------------------------------------------


@given(st.integers(4, 200))
@settings(max_examples=80)
def test_f2_triples_when_n_grows_by_three(n):
    assert f2(n + 3).value == 3 * f2(n).value


@given(st.integers(10, 200))
@settings(max_examples=80)
def test_parity_split_identities(n):
    assert f2(n).value == max(f2_odd(n).value, f2_even(n).value)
    assert f2_even(n).value * 3 == f2_odd(n + 3).value
    assert f2_odd(n + 6).value == 9 * f2_odd(n).value


def test_domain_errors():
    for bad_call in (
        lambda: f2(3),
        lambda: f2_odd(9),
        lambda: f2_even(9),
        lambda: m_lower(11),
        lambda: vertex_cycle_bound(0, 0),
        lambda: vertex_cycle_bound(5, 5),
        lambda: vertex_cycle_bound(5, -1),
        lambda: short_cycle_mass(0),
        lambda: RealBound(-1.0),
    ):
        with pytest.raises(InputError):
            bad_call()


def test_exact_counts_share_one_upper_limit():
    for count in (f2, f2_odd, f2_even, m_lower, short_cycle_mass):
        assert count(EXACT_MAX_N).value > 0
        with pytest.raises(UnsupportedError, match=f"n <= {EXACT_MAX_N}"):
            count(EXACT_MAX_N + 1)
    # the float bound keeps its own rule: it answers wherever it is finite
    assert vertex_cycle_bound(10 ** 7, 10 ** 7 - 1).value == math.comb(10 ** 7 - 1, 2)


def test_negative_exponent_is_an_internal_error():
    assert _pow3(0) == 1
    with pytest.raises(InternalError):
        _pow3(-1)


def test_wrapper_types():
    assert isinstance(f2(5), ExactCount)
    assert isinstance(vertex_cycle_bound(5, 2), RealBound)
    with pytest.raises(InputError):
        ExactCount(-1)
