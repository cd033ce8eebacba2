import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from acscp.cohomology import (CohClass, DimensionMismatch, NonUnit, exp_series,
                              _line_pow)


def C(d, *coeffs):
    return CohClass(d, list(coeffs) + [0] * (d + 1 - len(coeffs)))


def test_mul_truncates():
    one_plus_u = C(4, 1, 1)
    one_minus_u = C(4, 1, -1)
    assert one_plus_u * one_minus_u == C(4, 1, 0, -1)
    assert C(4, 1, 0, 1) * C(4, 0, 0, 0, 1) == C(4, 0, 0, 0, 1)  # u^5 dies


def test_series_product_recovers_line_factor():
    # (1 - u^2 + 2u^3 - 3u^4 + 4u^5) * (1+u)^2 = 1 + 2u over CP^5
    series = C(5, 1, 0, -1, 2, -3, 4)
    assert series * C(5, 1, 1) ** 2 == C(5, 1, 2)


def test_invert_unit():
    assert C(5, 1, 1).invert_unit() == C(5, 1, -1, 1, -1, 1, -1)
    assert CohClass.one(3).invert_unit() == CohClass.one(3)
    with pytest.raises(NonUnit):
        CohClass.u(4).invert_unit()


def test_pow_line_bundle_series():
    # (1+2u)(1+u)^-2 = 1 - u^2 + 2u^3 - 3u^4 + 4u^5
    got = C(5, 1, 2) * C(5, 1, 1) ** -2
    assert got == C(5, 1, 0, -1, 2, -3, 4)
    # (1+3u) * (previous)^-3 * (1+u)^-3 = 1 + 2u^3 - 9u^4 + 30u^5
    got2 = C(5, 1, 3) * got ** -3 * C(5, 1, 1) ** -3
    assert got2 == C(5, 1, 0, 0, 2, -9, 30)


def test_pow_zero_is_one():
    assert C(5, 7, 3, 1) ** 0 == CohClass.one(5)


def test_exp_series():
    assert exp_series(0, 4) == CohClass.one(4)
    assert exp_series(1, 4) == C(4, 1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    assert exp_series(2, 4).coeffs == (1, 2, 2, Fraction(4, 3), Fraction(2, 3))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        C(4, 1) * C(5, 1)


def test_is_integral():
    assert C(3, 1, 2, -7).is_integral()
    assert not exp_series(1, 3).is_integral()


def coh_classes(d):
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.lists(frac, min_size=d + 1, max_size=d + 1).map(lambda cs: CohClass(d, cs))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    coh_classes(d), coh_classes(d), coh_classes(d))))
def test_ring_axioms(triple):
    x, y, z = triple
    one = CohClass.one(x.d)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * one == x
    assert x * (y + z) == x * y + x * z


def test_pow_inverse_property():
    rng = random.Random(2)
    for _ in range(25):
        d = rng.randint(1, 8)
        coeffs = [rng.randint(1, 5)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                        for _ in range(d)]
        x = CohClass(d, coeffs)
        k = rng.randint(1, 10)
        assert x ** k * x ** -k == CohClass.one(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 8))
def test_exp_additivity(s, t, d):
    assert exp_series(s, d) * exp_series(t, d) == exp_series(s + t, d)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4)),
       st.integers(1, 8))
def test_line_pow_matches_fraction_power(j, k, d):
    # independent route: Fraction square-and-multiply, through invert_unit for k < 0
    want = CohClass(d, [1, j] + [0] * (d - 1)) ** k
    assert _line_pow(j, k, d) == list(want.coeffs)


def test_line_pow_at_huge_exponents():
    big = 10 ** 12
    for j in (1, 3, 8):
        # (1 + j u)^K = sum C(K, i) j^i u^i and (1 + j u)^-K = sum (-1)^i C(K+i-1, i) j^i u^i
        assert _line_pow(j, big, 8) == [comb(big, i) * j ** i for i in range(9)]
        assert _line_pow(j, -big, 8) == [(-1) ** i * comb(big + i - 1, i) * j ** i
                                         for i in range(9)]
    assert _line_pow(5, 3, 6) == [1, 15, 75, 125, 0, 0, 0]
