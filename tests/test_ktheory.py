import random
import re
from fractions import Fraction
from math import factorial
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from acscp.chernvec import chern_from_multiplicities
from acscp.cohomology import CohClass, DimensionMismatch, exp_series, _line_product
from acscp.exactmath import MPolyZ, elem_sym
from acscp.ktheory import (KClass, KOClass, UnsupportedDimension,
                           UnsupportedOperation, adams, adams_ko,
                           chern_character, complexify, conjugate,
                           line_multiplicities, pontrjagin_total, real_reduce,
                           total_chern, _chern, _pontrjagin, _power_table,
                           _r_table)


def K(d, *coeffs):
    return KClass(d, list(coeffs))


def KO(d, *coeffs):
    return KOClass(d, list(coeffs))


BIG = st.integers(-10 ** 12, 10 ** 12)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: KClass.L(4) ** True,
    lambda: KClass.L(4) ** 2.5,
    lambda: KOClass.omega(4) ** Fraction(2),
    lambda: CohClass.u(4) ** -1.5,
    lambda: (1 + CohClass.u(4)) ** False,
    lambda: MPolyZ.var("a") ** 2.0,
    lambda: MPolyZ.var("a") ** "2",
    lambda: adams(True, KClass.L(4)),
    lambda: adams(2.0, KClass.L(4)),
    lambda: adams_ko(1.0, KOClass.omega(4)),
    lambda: adams_ko(True, KOClass.omega(4)),
], ids=["K**True", "K**2.5", "KO**Fraction", "H**-1.5", "H**False", "MPolyZ**2.0",
        "MPolyZ**str", "adams(True)", "adams(2.0)", "adams_ko(1.0)", "adams_ko(True)"])
def test_exponents_that_are_not_ints_are_refused(call):
    # each used to return an answer (True read as 1) or die inside the
    # square-and-multiply loop with an unrelated message
    with pytest.raises(TypeError, match="must be an int, got"):
        call()


@pytest.mark.parametrize("d, error", [(True, TypeError), (2.0, TypeError),
                                      (0, ValueError), (-1, ValueError)],
                         ids=["True", "2.0", "0", "-1"])
@pytest.mark.parametrize("build", [
    lambda d: CohClass(d, [1, 2]),
    lambda d: KClass(d, [0, 1]),
    lambda d: KOClass(d, [0]),
    lambda d: exp_series(1, d),
], ids=["CohClass", "KClass", "KOClass", "exp_series"])
def test_ring_dimensions_are_checked_at_the_boundary(build, d, error):
    # each used to be accepted (KOClass(6.0, [0]) stored d = 6.0) or to die
    # with an unrelated TypeError deeper in
    with pytest.raises(error, match="the degree d must be"):
        build(d)


@pytest.mark.parametrize("q", [True, 2.0], ids=["True", "2.0"])
def test_elem_sym_index_must_be_an_int(q):
    with pytest.raises(TypeError, match="the index q must be an int"):
        elem_sym([1, 2], q)


def test_k_mul_truncation():
    L = KClass.L(5)
    assert L * L ** 5 == KClass.zero(5)
    assert (1 + L) ** 2 == K(5, 1, 2, 1)


def test_h_inverse():
    for d in (4, 5, 6):
        H = KClass.H(d)
        h_inv = 1 + conjugate(KClass.L(d))
        assert H * h_inv == KClass.one(d)


def test_ko_mul_torsion():
    w = KOClass.omega(5)
    # 2 w * w^2 = 2 w^3 = 0
    assert (2 * w) * (w * w) == KOClass.zero(5)
    # w * w^3 = 0 in d = 6
    assert KOClass.omega(6) * KOClass.omega(6, 3) == KOClass.zero(6)
    # (w^2 + 4w)^2 = w^4 + 8w^3 + 16w^2 -> 16 w^2
    psi2 = KO(5, 0, 4, 1)
    assert psi2 * psi2 == KO(5, 0, 0, 16, 0)


@pytest.mark.parametrize("gen, x_repr, sample, sample_repr, twin", [
    (CohClass.u, "3 + (2)*u + (-1)*u^2",
     CohClass(4, [0, 1, Fraction(1, 2), 0, -1]), "u + (1/2)*u^2 + (-1)*u^4",
     KClass(4, [1, 2])),
    (KClass.L, "3 + 2*L + -1*L^2",
     KClass(5, [-1, 0, 0, 0, 0, 1]), "-1 + L^5",
     CohClass(4, [1, 2, 0, 0, 0])),
    # the w^3 coefficient of KO(CP^5) is 2-torsion: 7 is stored as 1
    (KOClass.omega, "3 + 2*w + -1*w^2",
     KOClass(5, [0, 1, 4, 7]), "w + 4*w^2 + w^3",
     KClass(2, [1, 2])),
], ids=["CohClass", "KClass", "KOClass"])
def test_shared_ring_behaviour(gen, x_repr, sample, sample_repr, twin):
    g4, g6 = gen(4), gen(6)
    cls = type(g6)
    x = 3 + 2 * g6 - g6 * g6
    assert repr(x) == x_repr
    assert repr(sample) == sample_repr
    assert repr(cls.zero(6)) == "0" and repr(cls.one(6)) == "1"
    # int on either side of + and -
    assert x + 1 == 1 + x == 4 + 2 * g6 - g6 ** 2
    assert x - 3 == 2 * g6 - g6 ** 2
    assert 3 - x == g6 ** 2 - 2 * g6 == -(x - 3)
    for op in (add, sub, mul):
        with pytest.raises(DimensionMismatch):
            op(g4, g6)
    # the other two rings are refused on either side, at any d
    for other_gen in (CohClass.u, KClass.L, KOClass.omega):
        other = other_gen(6)
        if type(other) is cls:
            continue
        for op in (add, sub, mul):
            for left, right in ((g6, other), (other, g6), (g4, other)):
                with pytest.raises(TypeError, match="cannot combine"):
                    op(left, right)
    # a scalar is taken by its exact type: a bool is refused on either side
    # (L * True returned L and CohClass * False was accepted), and a
    # Fraction is a scalar of CohClass only
    for op in (add, sub, mul):
        for left, right in ((g6, True), (False, g6), (g4, False)):
            with pytest.raises(TypeError, match="cannot combine"):
                op(left, right)
    half = Fraction(1, 2)
    if cls is CohClass:
        assert g6 * half + half * g6 == g6 == (g6 - half) + half
    else:
        for op in (add, sub, mul):
            with pytest.raises(TypeError, match="cannot combine"):
                op(g6, half)
    if cls is CohClass:
        assert (1 + g6) ** -2 * (1 + g6) ** 2 == cls.one(6)
    else:
        with pytest.raises(ValueError, match="negative powers"):
            (1 + g6) ** -1
    # equal values hash equal; equal coefficients in another ring are not equal
    y = g6 * (2 - g6) + 3
    assert y == x and hash(y) == hash(x) and len({x, y, x + 0}) == 1
    z = 1 + 2 * g4
    assert z.coeffs == twin.coeffs
    assert z != twin and twin != z


RING_CASES = st.tuples(st.sampled_from((CohClass, KClass, KOClass)), st.sampled_from((4, 5, 6)),
                       st.lists(st.one_of(st.just(0), BIG), min_size=14, max_size=14),
                       st.integers(-10 ** 6, 10 ** 6), st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(RING_CASES)
def test_results_are_built_in_the_checked_form(case):
    # results skip the constructor's checks; they must still be what the
    # checked constructor gives: ints from ints, the 2-torsion w^3
    # coefficient of KO(CP^5) reduced mod 2, and CohClass in normal form
    cls, d, cs, n, k = case
    width = cls._width(d)
    x, y = cls(d, cs[:width]), cls(d, cs[7:7 + width])
    results = [x + y, x - y, x * y, x + n, n + x, x - n, n - x, x * n, n * x, -x, x ** k]
    for r in results:
        assert all(type(c) is int for c in r.coeffs)
        assert cls(d, r.coeffs) == r
        if cls is KOClass and d == 5:
            assert r.coeffs[3] in (0, 1)
    if cls is CohClass:
        half = Fraction(1, 2)
        for r in (x * half, x * half + y * half, (x * half) ** k, x * half - half):
            assert r.coeffs == CohClass(d, r.coeffs).coeffs
            assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                       for c in r.coeffs)


def test_ko_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        KOClass(7, [0, 1])


def test_k_class_rejects_non_integer_coefficients():
    # int() used to truncate these silently: KClass(4, [1.7]) stored 1
    for bad in ([1.7], [Fraction(3)], [0, True], [1, "2"]):
        with pytest.raises(TypeError):
            KClass(4, bad)


def test_ko_class_rejects_non_integer_coefficients():
    # int() used to truncate these silently: KOClass(4, [2.5]) stored 2
    for bad in ([2.5], [Fraction(1, 2)], [False, 1], [0, 1.0]):
        with pytest.raises(TypeError):
            KOClass(4, bad)


@pytest.mark.parametrize("name, call, got", [
    ("adams", lambda: adams(2, KOClass.omega(6)), "KOClass"),
    ("conjugate", lambda: conjugate(CohClass.u(4)), "CohClass"),
    ("conjugate", lambda: conjugate(KOClass.omega(6)), "KOClass"),
    ("complexify", lambda: complexify(KClass.L(6)), "KClass"),
    ("real_reduce", lambda: real_reduce(KOClass.omega(6)), "KOClass"),
    ("adams_ko", lambda: adams_ko(2, KClass.L(6)), "KClass"),
    ("adams_ko", lambda: adams_ko(1, KClass.L(6)), "KClass"),
    ("chern_character", lambda: chern_character(KOClass.omega(4)), "KOClass"),
    ("total_chern", lambda: total_chern(KOClass.omega(4)), "KOClass"),
    ("pontrjagin_total", lambda: pontrjagin_total(KClass.L(6)), "KClass"),
    ("line_multiplicities", lambda: line_multiplicities(KOClass.omega(4)), "KOClass"),
    ("line_multiplicities", lambda: line_multiplicities([0, 1]), "list"),
])
def test_maps_refuse_an_argument_from_another_ring(name, call, got):
    # each used to return a plausible class in the wrong ring (a list given
    # to line_multiplicities failed with AttributeError)
    with pytest.raises(TypeError, match=f"^{name} takes a K(O)?Class, got {got}$"):
        call()


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_of_l():
    assert conjugate(KClass.L(5)) == K(5, 0, -1, 1, -1, 1, -1)
    assert conjugate(KClass.one(5)) == KClass.one(5)


def test_conjugate_is_involution():
    rng = random.Random(1)
    for _ in range(20):
        d = rng.choice((4, 5, 6))
        x = KClass(d, [rng.randint(-5, 5) for _ in range(d + 1)])
        assert conjugate(conjugate(x)) == x


# ---------------------------------------------------------------------------
# Chern character and total Chern class
# ---------------------------------------------------------------------------

def test_chern_character_of_line_class():
    got = chern_character(KClass.L(4))
    assert got == exp_series(1, 4) - 1
    assert chern_character(KClass.zero(4)) == CohClass.zero(4)
    assert chern_character(5 * KClass.L(4)) == 5 * (exp_series(1, 4) - 1)


def test_total_chern_series():
    # the five series over CP^5
    want = {1: (1, 1, 0, 0, 0, 0),
            2: (1, 0, -1, 2, -3, 4),
            3: (1, 0, 0, 2, -9, 30),
            4: (1, 0, 0, 0, -6, 48),
            5: (1, 0, 0, 0, 0, 24)}
    for i, coeffs in want.items():
        got = total_chern(KClass(5, [0] * i + [1]))
        assert got.coeffs == tuple(Fraction(x) for x in coeffs)


def test_total_chern_of_multiple():
    assert total_chern(6 * KClass.L(5)).coeffs == (1, 6, 15, 20, 15, 6)


def line_product_route(x):
    """c(x) as the product of binomial line-bundle factors (1 + j*u)^mult_j."""
    return _line_product(line_multiplicities(x)[1:], x.d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.one_of(st.just(0), BIG), min_size=d + 1, max_size=d + 1)))
def test_total_chern_matches_the_line_product(cs):
    # the power-sum route against the independent binomial product
    x = KClass(len(cs) - 1, cs)
    got = total_chern(x)
    assert list(got.coeffs) == line_product_route(x)
    assert all(type(c) is int for c in got.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((4, 5, 6)).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(BIG, min_size=4, max_size=4))))
def test_total_chern_of_complexifications_matches_the_line_product(case):
    # the classes that pontrjagin_total reads
    d, cs = case
    x = complexify(KOClass(d, cs[:3] if d == 4 else cs))
    assert list(total_chern(x).coeffs) == line_product_route(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8))
def test_total_chern_agrees_with_chern_from_multiplicities(mults):
    # sum_k a_k (H^k - 1) through the two routes that no longer share code
    d = len(mults)
    H = KClass.H(d)
    x = sum((a * (H ** k - 1) for k, a in enumerate(mults, start=1)), KClass.zero(d))
    assert total_chern(x).coeffs[1:] == chern_from_multiplicities(mults)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([4, 5, 6]), st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=7, max_size=7),
       st.integers(-10 ** 3, 10 ** 3), st.integers(-10 ** 3, 10 ** 3))
def test_chern_route_on_polynomials_evaluates_to_the_int_route(d, ks, m, n):
    # x = sum_i (k_i + k'_i m + k''_i n) L^i over Z[m, n], with c_1..c_d
    # integer polynomials whenever their values are, here made so by
    # multiplying the m and n parts by d!
    pm, pn = MPolyZ.var("m"), MPolyZ.var("n")
    coeffs = [k + factorial(d) * (i * pm + (k % 3) * pn) for i, k in enumerate(ks[:d + 1])]
    at = [k + factorial(d) * (i * m + (k % 3) * n) for i, k in enumerate(ks[:d + 1])]
    assert ([c.evaluate(m=m, n=n) for c in _chern(d, coeffs)]
            == list(total_chern(KClass(d, at)).coeffs[1:]))
    if d != 5:
        y = coeffs[:d // 2 + 1]
        want = pontrjagin_total(KOClass(d, at[:d // 2 + 1])).coeffs[2::2]
        assert tuple(p.evaluate(m=m, n=n) for p in _pontrjagin(d, y)) == want


def test_chern_route_refuses_a_class_that_is_not_an_integer_polynomial():
    # c_2(m L) = m(m - 1)/2 is an integer at every m, but not an integer
    # polynomial; the route raises rather than rounding a coefficient
    with pytest.raises(ArithmeticError, match=re.escape("non-integral e_2 = (m^2 - m)/2")):
        _chern(2, [0, MPolyZ.var("m")])
    assert _chern(2, [0, 2 * MPolyZ.var("m")])[1] == 2 * MPolyZ.var("m", 2) - MPolyZ.var("m")


def test_chern_character_keeps_integral_coefficients_as_ints():
    ch = chern_character(KClass(4, [3, 0, 2]))
    assert ch.coeffs == (3, 0, 2, 2, Fraction(7, 6))
    assert [type(c) for c in ch.coeffs] == [int, int, int, int, Fraction]


def test_total_chern_is_exponential():
    rng = random.Random(4)
    for _ in range(20):
        d = rng.choice((4, 5, 6))
        x = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        y = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        assert total_chern(x + y) == total_chern(x) * total_chern(y)


def test_chern_character_is_a_ring_map():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.choice((4, 5, 6))
        x = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        y = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        assert chern_character(x * y) == chern_character(x) * chern_character(y)


def ch_by_products(x):
    """ch(x) as sum_i x_i (e^u - 1)^i, with the powers multiplied out per call."""
    d = x.d
    eu_minus_1 = exp_series(1, d) - 1
    total, power = CohClass.zero(d), CohClass.one(d)
    for coef in x.coeffs:
        total = total + power * coef
        power = power * eu_minus_1
    return total


def test_chern_character_matches_per_call_products():
    rng = random.Random(13)
    for _ in range(80):
        d = rng.randint(1, 8)
        x = KClass(d, [rng.choice((0, rng.randint(-10 ** 6, 10 ** 6)))
                       for _ in range(d + 1)])
        assert chern_character(x) == ch_by_products(x)


def test_line_multiplicities_binomial():
    # L^2 = H^2 - 2H + 1
    assert line_multiplicities(K(5, 0, 0, 1)) == [1, -2, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# complexification and real reduction
# ---------------------------------------------------------------------------

def test_complexify_omega():
    assert complexify(KOClass.omega(5)) == K(5, 0, 0, 1, -1, 1, -1)
    assert complexify(KOClass.one(5)) == KClass.one(5)
    w6 = KOClass.omega(6)
    assert complexify(w6) ** 2 == complexify(w6 * w6)


def test_real_reduce_table_d5():
    # additive generator table over CP^5
    want = {0: (2, 0, 0, 0), 1: (0, 1, 0, 0), 2: (0, 2, 1, 0),
            3: (0, 0, 3, 1), 4: (0, 0, 2, 0), 5: (0, 0, 0, 1)}
    for i, coeffs in want.items():
        assert real_reduce(KClass(5, [0] * i + [1])) == KOClass(5, coeffs)


def _real_reduce_by_fold(x):
    """r(x) as a fold of KOClass products and sums, a reference."""
    table = _r_table(x.d)
    out = KOClass.zero(x.d)
    for i, coef in enumerate(x.coeffs):
        if coef:
            out = out + KOClass(x.d, table[i]) * coef
    return out


def test_real_reduce_matches_ring_fold_seeded():
    rng = random.Random(20261018)
    torsion = 0
    for d in (4, 5, 6):
        for _ in range(300):
            x = KClass(d, [rng.randint(-10 ** 6, 10 ** 6) if rng.random() < 0.7 else 0
                           for _ in range(d + 1)])
            got = real_reduce(x)
            assert got == _real_reduce_by_fold(x)
            torsion += d == 5 and got.coeffs[3] == 1
    # the 2-torsion w^3 coordinate of KO(CP^5) is hit
    assert torsion > 50


def test_real_reduce_tables_derived():
    # tables from solving c(y) = x + t(x) by hand:
    #   d=4: 2, w, 2w+w^2, 3w^2, 2w^2
    #   d=6: 2, w, 2w+w^2, 3w^2+w^3, 2w^2+4w^3, 5w^3, 2w^3
    # and for d = 5, with 2w^3 = 0: 2, w, 2w+w^2, 3w^2+w^3, 2w^2, w^3
    assert _r_table(4) == ((2, 0, 0), (0, 1, 0), (0, 2, 1), (0, 0, 3), (0, 0, 2))
    assert _r_table(5) == ((2, 0, 0, 0), (0, 1, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1),
                           (0, 0, 2, 0), (0, 0, 0, 1))
    assert _r_table(6) == ((2, 0, 0, 0), (0, 1, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1),
                           (0, 0, 2, 4), (0, 0, 0, 5), (0, 0, 0, 2))


def test_c_after_r_is_one_plus_t():
    for d in (4, 5, 6):
        for i in range(d + 1):
            x = KClass(d, [0] * i + [1])
            assert complexify(real_reduce(x)) == x + conjugate(x)


def test_r_after_c_is_doubling():
    for d in (4, 5, 6):
        width = 3 if d == 4 else 4
        for j in range(width):
            y = KOClass.omega(d, j) if j else KOClass.one(d)
            assert real_reduce(complexify(y)) == 2 * y


def test_r_is_ko_linear():
    rng = random.Random(12)
    for _ in range(20):
        d = rng.choice((4, 5, 6))
        width = 3 if d == 4 else 4
        x = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        y = KOClass(d, [rng.randint(-4, 4) for _ in range(width)])
        assert real_reduce(complexify(y) * x) == y * real_reduce(x)


def test_r_kernel_and_image():
    L = KClass.L(5)
    H = KClass.H(5)
    h_inv = 1 + conjugate(L)
    zero = KOClass.zero(5)
    assert real_reduce(H - h_inv) == zero
    assert real_reduce(H * H - h_inv * h_inv) == zero
    assert real_reduce(2 * L ** 5) == zero
    assert real_reduce(L) == KOClass.omega(5, 1)
    assert real_reduce(L * L - 2 * L) == KOClass.omega(5, 2)
    assert real_reduce(L ** 5) == KOClass.omega(5, 3)


# ---------------------------------------------------------------------------
# Adams operations
# ---------------------------------------------------------------------------

def test_adams_on_k():
    L = KClass.L(5)
    assert adams(2, L) == K(5, 0, 2, 1)
    assert adams(3, L) == K(5, 0, 3, 3, 1)
    assert adams(2, adams(2, L)) == adams(4, L)


def test_adams_composition_and_frobenius():
    rng = random.Random(21)
    for _ in range(15):
        d = rng.choice((4, 5, 6))
        x = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        for k, l in ((2, 2), (2, 3), (3, 4), (2, 4)):
            assert adams(k, adams(l, x)) == adams(k * l, x)
        for p in (2, 3):
            assert all(co % p == 0 for co in (adams(p, x) - x ** p).coeffs)


def test_adams_ko():
    w = KOClass.omega(5)
    assert adams_ko(1, w) == w
    assert adams_ko(2, w) == KO(5, 0, 4, 1)
    assert adams_ko(4, w) == KO(5, 0, 16, 20)
    assert adams_ko(2, adams_ko(2, w)) == adams_ko(4, w)
    with pytest.raises(UnsupportedOperation):
        adams_ko(3, w)


def test_adams_ko_other_dims():
    for d in (4, 6):
        w = KOClass.omega(d)
        assert adams_ko(2, w) == KOClass(d, [0, 4, 1])


def times(x, k):
    """x^k as k - 1 ring products (one for k = 0), a reference for **."""
    out = type(x).one(x.d)
    for _ in range(k):
        out = out * x
    return out


def compose_by_products(x, image):
    """sum_i x_i image^i with each power multiplied out as a ring element."""
    total, power = type(image).zero(x.d), type(image).one(x.d)
    for coef in x.coeffs:
        total = total + power * coef
        power = power * image
    return total


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((4, 5, 6)), st.lists(st.one_of(st.just(0), BIG), min_size=7, max_size=7),
       st.integers(1, 12), st.sampled_from((2, 4)))
def test_ring_maps_equal_repeated_products(d, cs, k, k_ko):
    # the table route of the four ring maps against images and powers built
    # here from ring products alone
    L, H = KClass.L(d), KClass.H(d)
    x = KClass(d, cs[:d + 1])
    y = KOClass(d, cs[:KOClass._width(d)])
    t_L = KClass(d, [0] + [(-1) ** i for i in range(1, d + 1)])
    assert H * (1 + t_L) == KClass.one(d)
    assert conjugate(x) == compose_by_products(x, t_L)
    assert adams(k, x) == compose_by_products(x, times(H, k) - 1)
    assert complexify(y) == compose_by_products(y, L + t_L)
    psi_w = _real_reduce_by_fold(times(H, k_ko) - 1)
    assert adams_ko(k_ko, y) == compose_by_products(y, psi_w)
    assert x ** k == times(x, k) and y ** k == times(y, k)


def test_power_tables_stay_bounded():
    # one table per image, so a table per Adams index; the cache must not
    # grow with the indices a caller passes
    _power_table.cache_clear()
    x = KClass(6, [3, -1, 4, -1, 5, -9, 2])
    H = KClass.H(6)
    for k in range(1, 501):
        got = adams(k, x)
    info = _power_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 500
    assert got == compose_by_products(x, H ** 500 - 1)


# ---------------------------------------------------------------------------
# Pontrjagin classes
# ---------------------------------------------------------------------------

def test_pontrjagin_table():
    assert pontrjagin_total(KOClass.omega(6, 1)).coeffs == (1, 0, 1, 0, 0, 0, 0)
    assert pontrjagin_total(KOClass.omega(6, 2)).coeffs == (1, 0, 0, 0, -6, 0, 20)
    assert pontrjagin_total(KOClass.omega(6, 3)).coeffs == (1, 0, 0, 0, 0, 0, 120)


def test_pontrjagin_standard_tangent():
    p = pontrjagin_total(7 * KOClass.omega(6))
    assert p.coeffs == (1, 0, 7, 0, 21, 0, 35)
    p4 = pontrjagin_total(5 * KOClass.omega(4))
    assert p4.coeffs == (1, 0, 5, 0, 10)


def test_pontrjagin_rejects_torsion_dimension():
    with pytest.raises(UnsupportedDimension):
        pontrjagin_total(KOClass.omega(5))


# ---------------------------------------------------------------------------
# cross-module consistency
# ---------------------------------------------------------------------------

def test_power_sums_match_chern_character_factorials():
    x = 5 * KClass.L(4)
    ch = chern_character(x)
    assert [ch.coeff(i) * factorial(i) for i in range(1, 5)] == [5, 5, 5, 5]
