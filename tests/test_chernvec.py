import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from acscp.chernvec import (NotRealizable, chern_from_multiplicities,
                            closed_form_w, moment_vector, newton_power_sums,
                            power_sums_from_chern, q_matrix, q_vector,
                            realizable, w_matrix, _decompose, _q_adjugate,
                            _q_rows)
from acscp.cohomology import exp_series
from acscp.exactmath import MPolyZ, det_exact, poly_variables, solve_exact
from acscp.ktheory import KClass, chern_character


def test_q_vector_is_exponential():
    assert q_vector(0, 4) == exp_series(0, 4)
    assert q_vector(1, 4) == exp_series(1, 4)
    assert q_vector(-1, 2).coeffs == (1, -1, Fraction(1, 2))


def test_w_matrix_shape_and_determinant():
    W = w_matrix(2)
    assert W.to_rows() == [[1, 1, 1], [0, 1, 2], [0, 1, 4]]
    assert det_exact(W) == 2  # 1! * 2!
    for d in range(1, 8):
        want = 1
        for j in range(1, d + 1):
            want *= factorial(j)
        assert det_exact(w_matrix(d)) == want


def test_q_matrix_display():
    assert q_matrix(4).to_rows() == [[1, 2, 3, 4], [1, 4, 9, 16],
                                     [1, 8, 27, 64], [1, 16, 81, 256]]
    assert q_matrix(1).to_rows() == [[1]]


def test_closed_form_unit_vectors():
    for d in range(1, 8):
        for m in range(0, d + 1):
            unit = [Fraction(int(k == m)) for k in range(d + 1)]
            assert closed_form_w(m, d) == unit


def test_closed_form_frozen():
    assert closed_form_w(3, 2) == [1, -3, 3]
    # oracle: generic exact solve of W a = b(-2)
    assert closed_form_w(-2, 3) == solve_exact(w_matrix(3), moment_vector(-2, 3))


def test_closed_form_equals_solve_everywhere():
    for d in range(1, 7):
        W = w_matrix(d)
        for m in range(-12, 13):
            got = closed_form_w(m, d)
            assert all(x.denominator == 1 for x in got)
            assert got == solve_exact(W, moment_vector(m, d))


def test_closed_form_binomial_identity():
    # for m >= n both binomial factors are ordinary nonnegative combs
    for d in range(1, 7):
        n = d + 1
        for m in range(n, 25):
            binom = [(-1) ** (n - k) * comb(m, m - k + 1) * comb(m - k, m - n)
                     for k in range(1, n + 1)]
            assert closed_form_w(m, d) == binom


# ---------------------------------------------------------------------------
# Newton's identities against the classical closed forms
# ---------------------------------------------------------------------------

V = dict(zip("acmnq", poly_variables()))


def sym_power_sums(names):
    """Power sums with c_i replaced by distinct polynomial variables."""
    cs = [V[x] if isinstance(x, str) else MPolyZ.const(x) for x in names]
    return newton_power_sums(cs)


def test_rows_one_to_four():
    a, c, m, n = V["a"], V["c"], V["m"], V["n"]
    s = sym_power_sums(["a", "c", "m", "n"])
    assert s[0] == a
    assert s[1] == a * a - 2 * c
    assert s[2] == a ** 3 - 3 * a * c + 3 * m
    assert s[3] == a ** 4 - 4 * a * a * c + 4 * a * m + 2 * c * c - 4 * n


def test_row_five():
    a, c, m, n, q = (V[x] for x in "acmnq")
    s = sym_power_sums(["a", "c", "m", "n", "q"])
    want = (a ** 5 + 5 * a * c * c + 5 * a * a * m - 5 * a ** 3 * c
            - 5 * a * n - 5 * c * m + 5 * q)
    assert s[4] == want


@pytest.mark.parametrize("c6", [0, 1, -3])
def test_row_six_corrected(c6):
    # The recursion gives -2 c_2^3 + 3 c_3^2 in degree 6 (a widely
    # transcribed closed form shows -2 c_3^2 + 3 c_3^2 instead, which is not
    # a weighted-degree-6 monomial combination and fails the recursion).
    a, c, m, n, q = (V[x] for x in "acmnq")
    s = newton_power_sums([a, c, m, n, q, MPolyZ.const(c6)])
    want = (a ** 6 - 2 * c ** 3 + 3 * m * m + 6 * a * q - 6 * a * a * n
            + 6 * a ** 3 * m - 6 * a ** 4 * c + 9 * a * a * c * c
            - 12 * a * c * m + 6 * c * n - 6 * c6)
    assert s[5] == want


def test_power_sums_frozen_values():
    # oracle: i! times the chern character coefficients of 5L
    ch = chern_character(5 * KClass.L(4))
    want = [int(ch.coeff(i) * factorial(i)) for i in range(1, 5)]
    assert power_sums_from_chern((5, 10, 10, 5)) == want == [5, 5, 5, 5]


def test_power_sums_single_root():
    for a in (-3, 2, 7):
        assert power_sums_from_chern((a, 0, 0, 0)) == [a, a ** 2, a ** 3, a ** 4]


# ---------------------------------------------------------------------------
# realizability
# ---------------------------------------------------------------------------

def test_realizable_frozen():
    assert realizable((5, 10, 10, 5)) == (5, 0, 0, 0)
    assert realizable((1, 0, 0, 0)) == (1, 0, 0, 0)


def test_not_realizable_detail():
    with pytest.raises(NotRealizable) as info:
        realizable((0, 1, 0, 0))
    assert Fraction(-5, 6) in info.value.solution


def test_realizable_rejects_non_integer_entries():
    # int() used to truncate these silently: (1.5, 2) came back as (5, -2),
    # and a bool passed as an int: (True, 2) came back as (5, -2) too
    for bad in ((1.5, 2), (Fraction(5), 10, 10, 5), ("1", 0), (True, 2)):
        with pytest.raises(TypeError):
            realizable(bad)
    # the inverse map computed with these: (1.5, 2) gave (5.0, 8.0)
    for bad in ((1.5, 2), (Fraction(5), 0, 0, 0), (True, 2)):
        with pytest.raises(TypeError):
            chern_from_multiplicities(bad)


def test_realizable_rejects_empty_vector():
    with pytest.raises(ValueError):
        realizable(())


def test_realizable_matches_bareiss_reference():
    # the adjugate route must return exactly the Fraction solve's answer,
    # integral (the tuple) or not (NotRealizable.solution)
    rng = random.Random(41)
    for _ in range(300):
        d = rng.randint(1, 8)
        v = tuple(rng.randint(-9, 9) for _ in range(d))
        want = solve_exact(q_matrix(d), power_sums_from_chern(v))
        try:
            got = list(realizable(v))
        except NotRealizable as exc:
            got = exc.solution
            assert any(x.denominator != 1 for x in want)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8))
def test_newton_power_sums_commute_with_the_sign_flip(v):
    # v_i -> (-1)^i v_i (roots negated) sends s_i -> (-1)^i s_i
    flip = lambda xs: [-x if i % 2 else x for i, x in enumerate(xs, 1)]
    assert newton_power_sums(flip(v)) == flip(newton_power_sums(v))


def _decompose_unreduced(sums):
    """adj(Q) s / det Q with the full determinant on every row, a reference."""
    adj, det = _q_adjugate(len(sums))
    out = []
    for row in adj:
        x, r = divmod(sum(a * s for a, s in zip(row, sums)), det)
        if r:
            return None
        out.append(x)
    return tuple(out)


def test_q_rows_are_the_adjugate_rows_over_their_gcd():
    for d in range(1, 9):
        adj, det = _q_adjugate(d)
        for (row, mod), full in zip(_q_rows(d), adj):
            g = det // mod
            assert mod * g == det and [x * g for x in row] == list(full)
    assert [mod for _, mod in _q_rows(6)] == [120, 48, 36, 48, 120, 720]


def test_decompose_matches_unreduced_adjugate_seeded():
    rng = random.Random(20261018)
    hits = misses = 0
    for d in range(1, 9):
        for _ in range(120):
            mults = tuple(rng.randint(-10 ** 4, 10 ** 4) for _ in range(d))
            v = list(chern_from_multiplicities(mults))
            if rng.random() < 0.5:
                # nudge one entry: usually not a Chern vector any more
                v[rng.randrange(d)] += rng.randint(1, 6)
            sums = newton_power_sums(v)
            got = _decompose(sums)
            assert got == _decompose_unreduced(sums)
            hits += got is not None
            misses += got is None
    assert hits > 400 and misses > 300


def test_forward_map_frozen():
    assert chern_from_multiplicities((5, 0, 0, 0)) == (5, 10, 10, 5)
    assert chern_from_multiplicities((0, 0, 0)) == (0, 0, 0)
    assert chern_from_multiplicities((1, 1)) == (3, 2)  # (1+u)(1+2u)


def test_roundtrip_random():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(2, 6)
        mults = tuple(rng.randint(-6, 6) for _ in range(d))
        v = chern_from_multiplicities(mults)
        assert realizable(v) == mults


def test_soundness():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(2, 6)
        v = tuple(rng.randint(-8, 8) for _ in range(d))
        try:
            dec = realizable(v)
        except NotRealizable:
            continue
        assert chern_from_multiplicities(dec) == v


def test_cp2_every_pair_realizable():
    for c1 in range(-12, 13):
        for c2 in range(-12, 13):
            realizable((c1, c2))


def test_power_sums_match_character_of_realized_class():
    rng = random.Random(29)
    for _ in range(50):
        d = rng.randint(2, 6)
        mults = tuple(rng.randint(-5, 5) for _ in range(d))
        v = chern_from_multiplicities(mults)
        s = power_sums_from_chern(v)
        x = KClass.zero(d)
        H = KClass.H(d)
        for k, a_k in enumerate(mults, start=1):
            x = x + a_k * (H ** k - 1)
        ch = chern_character(x)
        for i in range(1, d + 1):
            assert Fraction(s[i - 1]) == ch.coeff(i) * factorial(i)
