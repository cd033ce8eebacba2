import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from acscp import cohomology
from acscp.chernvec import chern_from_multiplicities, newton_power_sums
from acscp.cohomology import (CohClass, DimensionMismatch, NonUnit, exp_series,
                              _elementary_from_power_sums, _line_pow,
                              _line_product)


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


def test_invert_unit_of_int_coefficients_is_exact():
    # 1/3 over int coefficients must be Fraction(1, 3), never 0.333...
    inv = C(4, 3, 1, 2).invert_unit()
    assert all(type(x) in (int, Fraction) for x in inv.coeffs)
    assert inv.coeffs[:3] == (Fraction(1, 3), Fraction(-1, 9), Fraction(-5, 27))
    assert inv * C(4, 3, 1, 2) == CohClass.one(4)
    assert C(3, -1, 4).invert_unit().coeffs == (-1, -4, -16, -64)


def test_coefficients_in_normal_form():
    x = C(3, Fraction(4, 2), Fraction(1, 3), -7, Fraction(-9, 3))
    assert [type(c) for c in x.coeffs] == [int, Fraction, int, int]
    assert x.coeffs == (2, Fraction(1, 3), -7, -3)
    assert [type(c) for c in exp_series(2, 4).coeffs] == [int, int, int, Fraction, Fraction]
    assert x.is_integral() is False and (x * 3).is_integral()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.integers(-10 ** 12, 10 ** 12), min_size=d + 1, max_size=d + 1)))
def test_int_built_class_equals_fraction_built(cs):
    # an int-built class equals and hashes like the Fraction-built one, and
    # prints the same
    d = len(cs) - 1
    x, y = CohClass(d, cs), CohClass(d, [Fraction(c) for c in cs])
    assert all(type(c) is int for c in y.coeffs)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    half = CohClass(d, [Fraction(c, 2) for c in cs])
    assert all((type(c) is int) == (c.denominator == 1) for c in half.coeffs)
    assert half * 2 == x and hash(half * 2) == hash(x)


def test_coefficients_must_be_int_or_fraction():
    # a float is refused, not read as its binary value; a bool is not 1
    for bad in (0.1, True, False, "1", None, 1.0):
        with pytest.raises(TypeError, match="a cohomology coefficient must be an int or a Fraction, got"):
            CohClass(1, [0, bad])
    with pytest.raises(ValueError, match="need 3 coefficients"):
        CohClass(2, [1, 2])


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


def line_product_by_classes(mults, d):
    """prod_j (1 + j u)^k_j as a product of CohClass powers, the reference."""
    out = CohClass.one(d)
    for j, k in enumerate(mults, start=1):
        out = out * CohClass(d, [1, j] + [0] * (d - 1)) ** k
    return list(out.coeffs)


@pytest.mark.parametrize("mults, d", [
    ((), 3), ((0,), 1), ((0, 0, 0, 0), 4),                  # all zero: the unit
    ((3,), 1), ((0, 0, 2), 5), ((0, -4, 0), 3),             # a single factor
    ((-1, 2), 2), ((-3, 0, 1, 5), 4), ((0, -2, -1, 3), 6),  # negative first factor
])
def test_line_product_edge_multiplicities(mults, d):
    got = _line_product(mults, d)
    assert got == line_product_by_classes(mults, d)
    assert len(got) == d + 1 and all(type(x) is int for x in got)
    if not any(mults):
        assert got == [1] + [0] * d


@pytest.mark.parametrize("mults", [(0, 0, 0), (5, 0, 0, 0), (1, 1), (-3, 0, 2, 0, -1),
                                   (1, -2, 3, -4, 5, -6)])
def test_chern_from_multiplicities_makes_one_mul_per_factor_after_the_first(monkeypatch, mults):
    calls = []
    mul = cohomology._mul

    def counted(xs, ys, d):
        calls.append(d)
        return mul(xs, ys, d)

    monkeypatch.setattr(cohomology, "_mul", counted)
    chern_from_multiplicities(mults)
    assert len(calls) == max(sum(1 for k in mults if k) - 1, 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=8))
def test_inverse_recursion_undoes_newton_power_sums(cs):
    assert _elementary_from_power_sums(newton_power_sums(cs)) == cs


def test_inverse_recursion_on_line_bundles():
    # roots 1, 2, 3: power sums 6, 14, 36 and e = (6, 11, 6)
    assert _elementary_from_power_sums([6, 14, 36]) == [6, 11, 6]
    assert _elementary_from_power_sums([]) == []


def test_inverse_recursion_refuses_non_integral_classes():
    # s = (1, 0): 2 e_2 = e_1 s_1 - s_2 = 1, so e_2 = 1/2
    with pytest.raises(ArithmeticError, match="non-integral e_2"):
        _elementary_from_power_sums([1, 0])
