import random
from fractions import Fraction
from itertools import product
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from acscp import homotopy
from acscp.chernvec import (NotRealizable, newton_power_sums, q_matrix,
                            realizable, _q_adjugate, _q_rows)
from acscp.exactmath import MPolyZ, divisors_signed, solve_exact
from acscp.homotopy import (CP4_CONSTRAINT, CP4_PONTRJAGIN, CP6_CONSTRAINT,
                            CP6_PONTRJAGIN, ConstraintViolated, HtpyCP,
                            NoCompletion, ZeroFirstChern, acs_search_cp4,
                            acs_search_cp6, complete_chern_vector,
                            cp5_structure, cp6_exists,
                            divisor_target_cp4, divisor_target_cp6,
                            mod31_table, pontrjagin_of_X,
                            symbolic_cp6_numerators, symbolic_verify_cp5,
                            tangent_ko_class, validate_params,
                            _CP6_F_MULTIPLES, _complete_head,
                            _complete_ints, _complete_tail, _criterion_set_cp6,
                            _direct_set_cp4, _direct_set_cp6, _row_forms,
                            _signed_odds, _solution, _symbolic_cp6_rows)
from acscp.ktheory import (KClass, KOClass, UnsupportedDimension,
                           pontrjagin_total)


def cp6_q_free(m, n):
    """The q-free part of the d = 6 constraint, written out here as an
    independent reference: the constraint is cp6_q_free(m, n) + 1488 q = 0."""
    return 32 * m ** 3 - 252 * m * m + 301 * m - 672 * m * n + 1152 * n


# ---------------------------------------------------------------------------
# parameters and tangent data
# ---------------------------------------------------------------------------

def test_validate_params():
    assert validate_params(4, 6, 3).params() == (6, 3)
    assert validate_params(6, 0, 0, 0).params() == (0, 0, 0)
    with pytest.raises(ConstraintViolated):
        validate_params(5, 1, 0)
    with pytest.raises(ConstraintViolated):
        validate_params(4, 1, 1)
    with pytest.raises(ConstraintViolated):
        validate_params(6, 1, 1)  # q missing
    with pytest.raises(UnsupportedDimension):
        validate_params(7, 0, 0)


def test_validate_params_rejects_non_integers():
    with pytest.raises(TypeError):
        validate_params(4, 6.0, 3.0)
    with pytest.raises(TypeError):
        validate_params(4, 6, 3.0)
    with pytest.raises(TypeError):
        validate_params(6, 0, 0, 0.0)
    with pytest.raises(TypeError):
        divisors_signed(6.0)
    # bool is an int subclass; these used to pass as m = n = 0 and as n = 1
    with pytest.raises(TypeError):
        validate_params(4, False, False)
    with pytest.raises(TypeError):
        divisors_signed(True)
    # the completion and the CP^4 target used to compute with these:
    # (X4, 5.0) gave (5.0, 10.0, 10.0, 5) and divisor_target_cp4(False) gave 25
    X4, X6 = validate_params(4, 0, 0), validate_params(6, 0, 0, 0)
    for args in ((X4, 5.0), (X4, True), (X6, 1.0, 1), (X6, 1, 1.0), (X6, 1, False)):
        with pytest.raises(TypeError):
            complete_chern_vector(*args)
    for m in (7.0, False, Fraction(7)):
        with pytest.raises(TypeError):
            divisor_target_cp4(m)


def test_cp4_m_residues():
    # 4m^2 - 10m = 28n forces m = 0 or 6 mod 14
    for m in range(-40, 41):
        n2 = 2 * m * m - 5 * m
        if n2 % 14 == 0:
            assert m % 14 in (0, 6)
            X = validate_params(4, m, n2 // 14)
            # with n eliminated, p_2 is the closed form 10 + (576 m^2 + 240 m)/7
            assert pontrjagin_of_X(X)[1] == 10 + (576 * m * m + 240 * m) // 7


def test_tangent_classes():
    assert tangent_ko_class(HtpyCP(5, 0, 0)) == KOClass(5, [0, 6, 0, 0])
    assert tangent_ko_class(HtpyCP(5, 2, 0)) == KOClass(5, [0, 54, 196, 0])
    assert tangent_ko_class(HtpyCP(6, 0, 0, 0)) == KOClass(6, [0, 7, 0, 0])
    assert tangent_ko_class(HtpyCP(4, 0, 0)) == KOClass(4, [0, 5, 0])


def test_pontrjagin_of_x():
    assert pontrjagin_of_X(HtpyCP(6, 0, 0, 0)) == (7, 21, 35)
    assert pontrjagin_of_X(HtpyCP(4, 0, 0)) == (5, 10)
    assert pontrjagin_of_X(HtpyCP(4, 6, 3)) == (149, 3178)
    with pytest.raises(UnsupportedDimension):
        pontrjagin_of_X(HtpyCP(5, 0, 0))


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_model_polynomials_match_ktheory_at_any_parameters(m, n, q):
    # the polynomials hold with n and q free, not only on the constraint
    assert CP4_CONSTRAINT.evaluate(m=m, n=n) == 4 * m * m - 10 * m - 28 * n
    assert CP6_CONSTRAINT.evaluate(m=m, n=n, q=q) == cp6_q_free(m, n) + 1488 * q
    for d, polys in ((4, CP4_PONTRJAGIN), (6, CP6_PONTRJAGIN)):
        total = pontrjagin_total(tangent_ko_class(SimpleNamespace(d=d, m=m, n=n, q=q)))
        assert (tuple(p.evaluate(m=m, n=n, q=q) for p in polys)
                == tuple(total.coeff(2 * i) for i in range(1, d // 2 + 1)))


def test_pontrjagin_two_routes_agree_on_samples():
    # pontrjagin_of_X asserts formula-vs-K-theory agreement internally
    for (m, n) in ((-22, 77), (14, 23), (20, 50)):
        pontrjagin_of_X(validate_params(4, m, n))
    for (m, n, q) in ((0, 31, -24), (48, 12, -1747), (16, 11, 23)):
        pontrjagin_of_X(validate_params(6, m, n, q))


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_complete_cp4():
    X = HtpyCP(4, 0, 0)
    assert complete_chern_vector(X, 5) == (5, 10, 10, 5)
    with pytest.raises(NoCompletion):
        complete_chern_vector(X, 3)  # c_3 = 2/3
    with pytest.raises(NoCompletion):
        complete_chern_vector(X, 2)  # even a: c_2 is not integral
    with pytest.raises(ZeroFirstChern):
        complete_chern_vector(X, 0)


def test_complete_cp6():
    X = HtpyCP(6, 0, 0, 0)
    assert complete_chern_vector(X, 7, 35) == (7, 21, 35, 35, 21, 7)
    assert complete_chern_vector(X, 1, 1) == (1, -3, 1, 7, 3, 7)
    with pytest.raises(ValueError):
        complete_chern_vector(X, 7)  # c required


# ---------------------------------------------------------------------------
# CP^4 search
# ---------------------------------------------------------------------------

def test_divisor_target_cp4():
    assert divisor_target_cp4(0) == 25
    assert divisor_target_cp4(6) == 9529
    assert divisor_target_cp4(34) == 288889
    # D = 25 + 3*48*m(12m + 5)/7 and m(12m + 5) >= 0, so D >= 25
    for m in range(-48, 49):
        if m % 14 in (0, 6):
            assert divisor_target_cp4(m) >= 25


def test_acs_search_cp4_standard():
    sols = acs_search_cp4(HtpyCP(4, 0, 0), cross_check_window=30)
    assert [s.a for s in sols] == [-25, -5, -1, 1, 5, 25]
    five = next(s for s in sols if s.a == 5)
    assert five.full_chern == (5, 10, 10, 5)
    assert five.decomposition == (5, 0, 0, 0)
    for s in sols:
        assert s.full_chern[-1] == 5
        assert realizable(s.full_chern) == s.decomposition


def test_acs_search_cp4_exotic():
    sols = acs_search_cp4(HtpyCP(4, 6, 3), cross_check_window=9529)
    assert [s.a for s in sols] == [-9529, -733, -13, -1, 1, 13, 733, 9529]


def test_acs_search_cp4_every_divisor_is_admissible():
    # the correspondence is exactly "a divides the target": no divisor drops out
    from acscp.exactmath import divisors_signed
    for (m, n) in ((-22, 77), (0, 0), (6, 3), (20, 50)):
        X = HtpyCP(4, m, n)
        sols = acs_search_cp4(X)
        assert [s.a for s in sols] == divisors_signed(divisor_target_cp4(m))


# m -> prime factorization of divisor_target_cp4(m); at m = 10000000002 the
# target is a product of two primes near 1.5e11
LARGE_M_TARGETS = {
    1400000006: {157: 1, 3081783466822929997: 1},
    10000000002: {129671969341: 1, 190370474221: 1},
}


@pytest.mark.parametrize("m", sorted(LARGE_M_TARGETS))
def test_acs_search_cp4_large_m(m):
    n = (4 * m * m - 10 * m) // 28
    D = divisor_target_cp4(m)
    exps = LARGE_M_TARGETS[m]
    assert prod(p ** e for p, e in exps.items()) == D
    pos = sorted(prod(p ** k for p, k in zip(exps, ks))
                 for ks in product(*(range(e + 1) for e in exps.values())))
    sols = acs_search_cp4(HtpyCP(4, m, n))
    assert all(D % s.a == 0 for s in sols)
    assert [s.a for s in sols] == [-d for d in reversed(pos)] + pos


def test_acs_search_cp4_every_valid_m_up_to_40():
    # criterion-vs-direct agreement for every valid parameter pair
    # (window-restricted where the divisor target is large)
    for m in range(-40, 41):
        if m % 14 not in (0, 6):
            continue
        n = (2 * m * m - 5 * m) // 14
        window = min(abs(divisor_target_cp4(m)), 1500)
        acs_search_cp4(HtpyCP(4, m, n), cross_check_window=window)


@pytest.mark.parametrize("window", [1, 2, 99, 100])
@pytest.mark.parametrize("mn", [(0, 0), (6, 3), (-8, 12), (14, 23)])
def test_direct_scan_matches_public_ops(mn, window):
    # every nonzero a with |a| <= window, either sign, one cell at a time
    X = validate_params(4, *mn)
    fast = _direct_set_cp4(pontrjagin_of_X(X), window)
    slow = set()
    for a in range(-window, window + 1):
        if a == 0:
            continue
        try:
            v = complete_chern_vector(X, a)
            realizable(v)
            slow.add(a)
        except (NoCompletion, NotRealizable):
            continue
    assert fast == slow
    assert {1, -1} <= fast


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.sampled_from([0, 6]), st.data())
def test_cp4_conjugate_cell_has_the_flipped_power_sums(k, r, data):
    # v(-a) = (-a, c_2, -c_3, 5), so s_i(-a) = (-1)^i s_i(a); a is drawn from
    # the positive divisors of the target (cells that complete) or any odd a
    m = 14 * k + r
    p = pontrjagin_of_X(validate_params(4, m, (4 * m * m - 10 * m) // 28))
    a = data.draw(st.one_of(
        st.sampled_from([d for d in divisors_signed(divisor_target_cp4(m)) if d > 0]),
        st.integers(0, 10 ** 4).map(lambda j: 2 * j + 1)))
    v, w = _complete_ints(4, p, a, None), _complete_ints(4, p, -a, None)
    assert (v is None) == (w is None)
    if v is not None:
        flip = lambda xs: [-x if i % 2 else x for i, x in enumerate(xs, 1)]
        assert list(w) == flip(v)
        assert newton_power_sums(w) == flip(newton_power_sums(v))


@pytest.mark.parametrize("window, error", [
    (2.5, TypeError), (True, TypeError), ("7", TypeError), (None, TypeError),
    (0, ValueError), (-7, ValueError),
])
def test_search_windows_are_validated(window, error):
    X4, X6 = HtpyCP(4, 0, 0), HtpyCP(6, 0, 0, 0)
    with pytest.raises(error, match="cross_check_window"):
        acs_search_cp4(X4, cross_check_window=window)
    with pytest.raises(error, match="a_max"):
        acs_search_cp6(X6, a_max=window, c_max=5)
    with pytest.raises(error, match="c_max"):
        acs_search_cp6(X6, a_max=5, c_max=window)


def test_q_adjugate_consistency():
    for d in range(1, 9):
        rows, det = _q_adjugate(d)
        Q = q_matrix(d)
        for i in range(d):
            e = [Fraction(int(k == i)) for k in range(d)]
            col = solve_exact(Q, e)
            assert [x * det for x in col] == [Fraction(rows[j][i]) for j in range(d)]


# ---------------------------------------------------------------------------
# CP^6: table, searches, erratum regressions
# ---------------------------------------------------------------------------

def test_mod31_table():
    table = mod31_table()
    assert len(table) == 30
    assert (0, 0) in table and (16, 11) in table
    ms = [m for m, _ in table]
    assert ms == [m for m in range(31) if m != 15]  # one n per m, 15 absent


def test_mod31_table_matches_brute_force():
    brute = [(m, n) for m in range(31) for n in range(31) if cp6_q_free(m, n) % 31 == 0]
    assert mod31_table() == brute


def test_no_valid_triples_at_missing_residue():
    # m = -16 = 15 mod 31: the constraint has no solution mod 31
    for n in range(-200, 201):
        num = -cp6_q_free(-16, n)
        assert num % 1488 != 0


def test_constraint_forces_m_divisible_by_16():
    for m in range(-64, 65):
        for n in range(-80, 81):
            lhs = cp6_q_free(m, n)
            if lhs % 1488 == 0:
                assert m % 16 == 0
                validate_params(6, m, n, -lhs // 1488)


def test_divisor_target_cp6_values():
    assert divisor_target_cp6(1, 0, 0) == 139
    assert divisor_target_cp6(35, 0, 0) == 147 - 8 * 35 * 35
    # integral at valid parameters, including m != 0 mod 3
    for (m, n, q) in ((16, 11, 23), (48, 12, -1747), (32, 7, -442)):
        validate_params(6, m, n, q)
        divisor_target_cp6(1, m, n)


def test_acs_search_cp6_standard():
    sols = acs_search_cp6(HtpyCP(6, 0, 0, 0), a_max=40, c_max=40)
    pairs = [(s.a, s.c) for s in sols]
    assert (1, 1) in pairs
    assert (7, 35) in pairs
    seven = next(s for s in sols if (s.a, s.c) == (7, 35))
    assert seven.full_chern == (7, 21, 35, 35, 21, 7)
    assert seven.decomposition == (7, 0, 0, 0, 0, 0)
    for s in sols:
        assert s.full_chern[-1] == 7
        assert s.a % 2 == 1 and s.c % 2 == 1
        assert s.a % 3 != 0 and s.c % 3 != 0


def test_acs_search_cp6_cross_checks():
    # the criterion agrees with the direct scan for m = 0 and m != 0 mod 3
    for (m, n, q) in ((0, 31, -24), (48, 12, -1747), (16, 11, 23), (32, 7, -442)):
        acs_search_cp6(validate_params(6, m, n, q), a_max=60, c_max=60)


@pytest.mark.parametrize("mnq", [(0, 0, 0), (16, 11, 23), (-48, 16, 2419)])
def test_direct_scan_cp6_matches_public_ops(mnq):
    X = validate_params(6, *mnq)
    fast = set(_direct_set_cp6(pontrjagin_of_X(X), 23, 11))
    slow = set()
    for a in range(-23, 24, 2):
        for c in range(-11, 12, 2):
            try:
                v = complete_chern_vector(X, a, c)
                realizable(v)
                slow.add((a, c))
            except (NoCompletion, NotRealizable):
                continue
    assert fast == slow
    assert (1, 1) in fast


@pytest.mark.parametrize("mnq", [(0, 0, 0), (16, 11, 23), (-48, 16, 2419), (48, 12, -1747)])
def test_complete_tail_of_the_conjugate_cell_is_the_sign_flip(mnq):
    # (-a, -c) keeps c_2, c_4 and num_5 and negates c_1, c_3 and c_5
    p = pontrjagin_of_X(validate_params(6, *mnq))
    flip = lambda v: tuple(-x if i % 2 else x for i, x in enumerate(v, 1))
    tails = 0
    for a in range(1, 60, 2):
        head = _complete_head(p, a)
        assert head == _complete_head(p, -a)
        if head is None:
            continue
        for c in _signed_odds(40):
            v = _complete_tail(p, a, head, c)
            w = _complete_tail(p, -a, head, -c)
            assert (v is None) == (w is None)
            if v is not None:
                assert w == flip(v)
                tails += 1
    assert tails > 50


@pytest.mark.parametrize("mnq, a_max, c_max", [
    ((0, 0, 0), 45, 29), ((16, 11, 23), 61, 35), ((-48, 16, 2419), 33, 47),
    ((32, 7, -442), 1, 1),
    # |m| = 1.6e9: n = 15 and q from the constraint
    ((16 * 10 ** 8, 15, -88086021071827946474193560), 45, 45),
])
def test_direct_scan_cp6_returns_the_per_cell_solutions(mnq, a_max, c_max):
    # every cell, both signs of a and c, against _solution with no symmetry
    X = validate_params(6, *mnq)
    p = pontrjagin_of_X(X)
    per_cell = {(a, c): s for a in _signed_odds(a_max) for c in _signed_odds(c_max)
                if (s := _solution(6, p, a, c)) is not None}
    direct = _direct_set_cp6(p, a_max, c_max)
    assert direct == per_cell
    assert {(a, c) for a, c in direct if a < 0} and {(a, c) for a, c in direct if c < 0}
    assert acs_search_cp6(X, a_max, c_max) == [per_cell[k] for k in sorted(per_cell)]


@settings(max_examples=200, deadline=None)
@given(st.integers(-5 * 10 ** 5, 5 * 10 ** 5 - 1).map(lambda j: 2 * j + 1),
       *[st.integers(-10 ** 12, 10 ** 12)] * 4)
def test_row_forms_equal_the_rows_at_every_point(a, c2, h4, c, c5):
    # the forms in (c, c_5) against row . s at a point the forms were not
    # sampled at, for the cell (a, c) and the conjugate cell (-a, -c)
    assume((c, c5) not in ((0, 0), (1, 0), (-1, 0), (0, 1)))
    v = (a, c2, c, a * c + h4, c5, 7)
    w = (-a, c2, -c, a * c + h4, -c5, 7)
    forms, conjugate_forms = _row_forms(a, (c2, h4))
    for vec, fs in ((v, forms), (w, conjugate_forms)):
        s = newton_power_sums(vec)
        assert len(fs) == 6
        for (row, det), (alpha, beta, gamma, delta, fdet) in zip(_q_rows(6), fs):
            assert fdet == det
            assert alpha * c * c + beta * c + gamma + delta * c5 == sum(
                x * y for x, y in zip(row, s))


def test_direct_scan_cp6_runs_four_newton_recursions_per_first_chern_class(monkeypatch):
    # the Newton recursions follow the |a| that have a cell with integral
    # c_5, not the cells
    p = pontrjagin_of_X(validate_params(6, 16, 11, 23))
    calls = []

    def counted(cs):
        calls.append(tuple(cs))
        return newton_power_sums(cs)

    monkeypatch.setattr(homotopy, "newton_power_sums", counted)
    direct = _direct_set_cp6(p, 200, 200)
    classes = cells = 0
    for a in range(1, 201, 2):
        head = _complete_head(p, a)
        tails = 0 if head is None else sum(
            _complete_tail(p, a, head, c) is not None for c in range(1, 201, 2))
        classes += tails > 0
        cells += 4 * tails
    assert classes and len(calls) <= 4 * classes
    assert cells >= 5 * len(calls) and len(direct) > 0


_MOD31 = dict(mod31_table())


def literal_target_cp6(c, m, n):
    """The d = 6 divisor target as a closed formula, an independent copy."""
    num = (-179712 * m ** 3 + 879552 * m * m + 2488320 * m * n
           + 262584 * m - 362880 * n)
    assert num % 31 == 0
    return 147 - 8 * c * c + num // 31


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
       st.integers(-10 ** 4, 10 ** 4))
def test_divisor_target_cp6_equals_closed_formula(m, j, k):
    # admissible (m, n) through the mod-31 table, any odd c
    assume(m % 31 in _MOD31)
    n = _MOD31[m % 31] + 31 * j
    c = 2 * k + 1
    assert divisor_target_cp6(c, m, n) == literal_target_cp6(c, m, n)
    with pytest.raises(ArithmeticError, match="not integral"):
        divisor_target_cp6(c, m, n + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(1, 60), st.integers(1, 60))
def test_cp6_criterion_set_equals_direct_set(k, j, a_max, c_max):
    # admissible triples through the mod-31 table: m = 16k, n = r(m) mod 31,
    # and q solves the constraint exactly
    m = 16 * k
    assume(m % 31 in _MOD31)
    n = _MOD31[m % 31] + 31 * j
    lhs = cp6_q_free(m, n)
    X = validate_params(6, m, n, -lhs // 1488)
    p = pontrjagin_of_X(X)
    direct = set(_direct_set_cp6(p, a_max, c_max))
    assert direct == _criterion_set_cp6(X, a_max, c_max)
    per_cell = {(a, c) for a in _signed_odds(a_max) for c in _signed_odds(c_max)
                if _solution(6, p, a, c) is not None}
    assert direct == per_cell


def test_cp6_exists_everywhere():
    # every valid triple carries a structure; (1, 1) is always a witness
    for (m, n, q) in ((0, 0, 0), (16, 11, 23), (48, 12, -1747), (-48, 16, 2419)):
        X = validate_params(6, m, n, q)
        assert cp6_exists(X)
        v = complete_chern_vector(X, 1, 1)
        assert realizable(v) is not None


def test_acs_witness_on_m_not_divisible_by_three():
    # ground truth for the parameters (16, 11, 23): the direct route finds
    # structures, e.g. (a, c) = (1, 1)
    X = validate_params(6, 16, 11, 23)
    v = complete_chern_vector(X, 1, 1)
    assert v == (1, -195, 1, 6487, -162765, 7)
    assert realizable(v) == (-230059, 541118, -680055, 481457, -182039, 28726)
    sols = acs_search_cp6(X, a_max=30, c_max=30)
    assert ((1, 1) in [(s.a, s.c) for s in sols])


# ---------------------------------------------------------------------------
# CP^6 symbolic pipeline
# ---------------------------------------------------------------------------

def test_symbolic_denominators():
    sym = symbolic_cp6_numerators()
    assert sym.denominators == ((2976, 1), (23808, 1), (2976, 1),
                                (23808, 1), (3720, 1), (23808, 1))


def test_symbolic_f_is_a_free_part_and_multiples():
    sym = symbolic_cp6_numerators()
    assert all(e[0] == 0 for e in sym.f.terms)
    for f_i, k in zip(sym.numerators, _CP6_F_MULTIPLES):
        assert (f_i - k * sym.f).divisible_by_variable("a")


@pytest.mark.parametrize("p2_m2", [288, 228])
def test_symbolic_matches_numeric_oracle(p2_m2):
    # independent route: plain Fractions through the same completion, with
    # the m^2 coefficient of p_2 as a parameter so the slip path is checked too
    nums, dens = _symbolic_cp6_rows(p2_m2_coefficient=p2_m2)

    def numeric_rows(a, c, m, n):
        q = Fraction(-cp6_q_free(m, n), 1488)
        p1 = 7 + 24 * m
        p2 = 21 + p2_m2 * m * m - 432 * m - 1440 * n
        p3 = (35 + 2304 * m ** 3 - 12384 * m * m + 11592 * m
              - 34560 * m * n + 40320 * n + 60480 * q)
        a1, a3, a6 = Fraction(a), Fraction(c), Fraction(7)
        a2 = (a1 * a1 - p1) / 2
        a4 = a1 * a3 + (p2 - a2 * a2) / 2
        a5 = (14 + 2 * a2 * a4 - a3 * a3 + p3) / (2 * a1)
        s = newton_power_sums([a1, a2, a3, a4, a5, a6])
        return solve_exact(q_matrix(6), s)

    for (a, c, m, n) in ((1, 1, 1, 0), (3, 5, 2, 1), (7, 5, -2, 4), (5, 3, 2, 3)):
        numeric = numeric_rows(a, c, m, n)
        for i in range(6):
            den, apow = dens[i]
            val = Fraction(nums[i].evaluate(a=a, c=c, m=m, n=n), den * a ** apow)
            assert val == numeric[i]
    # every row is in lowest terms
    for num, (den, apow) in zip(nums, dens):
        assert gcd(num.content(), den) == 1
        assert apow == 0 or not num.divisible_by_variable("a")


@pytest.mark.parametrize("m, n, q", [(0, 0, 0), (16, 11, 23), (48, 12, -1747),
                                     (0, 31, -24), (32, 7, -442)])
def test_symbolic_numerators_match_realizable(m, n, q):
    # f_i(a, c, m, n) / (D_i a^apow) at integer points is the numeric
    # decomposition: realizable's tuple, or NotRealizable.solution
    sym = symbolic_cp6_numerators()
    X = validate_params(6, m, n, q)
    p = pontrjagin_of_X(X)
    decomposed = 0
    for a, c in product(_signed_odds(15), repeat=2):
        v = _complete_ints(6, p, a, c)
        if v is None:
            continue
        try:
            numeric = list(realizable(v))
            decomposed += 1
        except NotRealizable as exc:
            numeric = exc.solution
        symbolic = [Fraction(f_i.evaluate(a=a, c=c, m=m, n=n), den * a ** apow)
                    for f_i, (den, apow) in zip(sym.numerators, sym.denominators)]
        assert symbolic == numeric
    assert decomposed


def test_mod3_analysis():
    sym = symbolic_cp6_numerators()
    # the third numerator is divisible by 3 identically once a^3 = a is used
    g3 = (sym.numerators[2] - 3 * sym.f).divide_by_variable("a")
    assert g3.reduce_mod(3, fermat_vars=("a",)).is_zero()
    # all other numerators reduce to +-(a^2 - c^2) as functions mod 3
    a, c = MPolyZ.var("a"), MPolyZ.var("c")
    target = (a * a - c * c).reduce_mod(3, fermat_vars=("a", "c"))
    for i in (0, 1, 3, 4, 5):
        red = sym.numerators[i].reduce_mod(3, fermat_vars=("a", "c"))
        assert red in (target, (-(a * a - c * c)).reduce_mod(3, fermat_vars=("a", "c")))


DISPLAY_F1 = {
    (1, 0, 0, 0, 0): -208320, (0, 0, 1, 0, 0): 1312920, (0, 0, 0, 1, 0): -1814400,
    (1, 1, 0, 0, 0): 43152, (1, 0, 1, 0, 0): -5461392, (1, 0, 0, 1, 0): -11336832,
    (0, 0, 1, 1, 0): 12441600, (1, 0, 2, 0, 0): -1254576, (2, 0, 1, 0, 0): 941904,
    (1, 0, 3, 0, 0): -10368, (4, 0, 1, 0, 0): -3720, (2, 0, 0, 1, 0): 892800,
    (2, 0, 0, 0, 0): 178653, (4, 0, 0, 0, 0): -8277, (6, 0, 0, 0, 0): 31,
    (0, 2, 0, 0, 0): -1240, (0, 0, 2, 0, 0): 4658160, (0, 0, 3, 0, 0): -5760,
    (2, 0, 2, 0, 0): 126480, (1, 0, 1, 1, 0): -2032128, (0, 0, 0, 0, 0): 22785,
}


def test_slip_reproduces_transcribed_numerator_exactly():
    # Feeding the 228-for-288 slip into the degree-4 Pontrjagin input
    # reproduces the widely transcribed first numerator term for term, and
    # reintroduces the spurious mod-3 obstruction.
    nums, dens = _symbolic_cp6_rows(p2_m2_coefficient=228)
    assert nums[0] == MPolyZ(DISPLAY_F1)
    assert dens == ((2976, 1), (23808, 1), (2976, 1), (23808, 1), (3720, 1), (23808, 1))
    f = MPolyZ({e: co for e, co in nums[0].terms.items() if e[0] == 0})
    g3 = (nums[2] - 3 * f).divide_by_variable("a")
    assert g3.reduce_mod(3, fermat_vars=("a",)) == MPolyZ.var("m", 2)


def test_corrected_and_transcribed_targets_diverge_only_for_nonzero_m():
    transcribed = lambda c, m, n: 147 - 8 * c * c + (
        -1152 * m ** 3 + 931632 * m * m + 2488320 * m * n + 262584 * m
        - 362880 * n) // 31
    assert divisor_target_cp6(1, 0, 0) == transcribed(1, 0, 0)
    assert divisor_target_cp6(1, 48, 12) != transcribed(1, 48, 12)
    assert (transcribed(1, 48, 12) - divisor_target_cp6(1, 48, 12)
            == 1680 * 48 ** 2 + 5760 * 48 ** 3)


# ---------------------------------------------------------------------------
# CP^5
# ---------------------------------------------------------------------------

def test_cp5_structure_untwisted():
    rep = cp5_structure(HtpyCP(5, 0, 0))
    assert rep.e == 6 * KClass.L(5)
    assert rep.reduction == KOClass(5, [0, 6, 0, 0])
    assert rep.euler_coefficient == 6
    assert rep.ok


def test_cp5_structure_frozen_cases():
    rep = cp5_structure(HtpyCP(5, 2, 0))
    assert rep.e.coeffs == (0, 6, 24, 0, 86, -62)
    assert rep.reduction == KOClass(5, [0, 54, 196, 0])
    assert rep.ok
    rep2 = cp5_structure(HtpyCP(5, -2, 4))
    assert rep2.e.coeffs == (0, 6, -24, 320, -86, -706)
    assert rep2.ok


def test_cp5_structure_sweep():
    rng = random.Random(31)
    for _ in range(60):
        m = 2 * rng.randint(-20, 20)
        n = rng.randint(-20, 20)
        assert cp5_structure(HtpyCP(5, m, n)).ok


def test_symbolic_verify_cp5():
    assert symbolic_verify_cp5()


def test_cp5_cancellation_pieces():
    # the mixed m*n term enters through 4*k5 as +320 and -4m*k3 as -320
    m, n = MPolyZ.var("m"), MPolyZ.var("n")
    k3 = 80 * n
    k5 = -19 * m - 20 * n - 6 * m * m + 80 * m * n
    assert (4 * k5).coefficient(m=1, n=1) == 320
    assert (-4 * (m * k3)).coefficient(m=1, n=1) == -320
