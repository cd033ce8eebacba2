"""Acceptance suite.

One test per acceptance criterion, each enforcing its checks exactly (all
arithmetic is exact; every tolerance is zero) and printing a single
PASS/FAIL line with the elapsed time against the stated runtime budget.

Two clauses are strict expected failures, marked xfail(strict=True) and
printed as FAIL(documented): the transcribed first-numerator/f display and
the claimed emptiness of the search on the parameters (16, 11, 23).  Both
descend from a single verified 228-for-288 transcription slip in the
degree-4 Pontrjagin input of the d = 6 analysis; the tests around them pin
the corrected values and demonstrate that re-introducing the slip
reproduces the transcribed data term for term.  See tests/test_homotopy.py
and the module docs in acscp.homotopy.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from acscp.chernvec import (NotRealizable, chern_from_multiplicities,
                            closed_form_w, moment_vector, realizable,
                            w_matrix)
from acscp.exactmath import MPolyZ, solve_exact
from acscp.homotopy import (HtpyCP, acs_search_cp4, acs_search_cp6,
                            cp5_structure, divisor_target_cp4, mod31_table,
                            pontrjagin_of_X, symbolic_cp6_numerators,
                            symbolic_verify_cp5, tangent_ko_class,
                            validate_params, _symbolic_cp6_rows)
from acscp.ktheory import (KClass, KOClass, adams_ko, complexify, conjugate,
                           pontrjagin_total, real_reduce, total_chern)
from tests.admissible import cp6_triples
from tests.test_homotopy import DISPLAY_F1


@contextmanager
def budget(number, label, seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget"


def test_criterion_1_chern_character_basis():
    with budget(1, "Chern-character basis", 2):
        for d in range(1, 9):
            W = w_matrix(d)
            for m in range(-30, 31):
                closed = closed_form_w(m, d)
                assert all(x.denominator == 1 for x in closed)
                assert closed == solve_exact(W, moment_vector(m, d))


def test_criterion_2_realizability_roundtrip():
    with budget(2, "realizability roundtrip", 5):
        rng = random.Random(2024)
        for d in range(2, 7):
            for _ in range(1000):
                mults = tuple(rng.randint(-6, 6) for _ in range(d))
                assert realizable(chern_from_multiplicities(mults)) == mults
        with pytest.raises(NotRealizable):
            realizable((0, 1, 0, 0))


def test_criterion_3_cp4_divisor_criterion():
    with budget(3, "CP^4 divisor criterion", 30):
        pairs = {-22: 77, -8: 12, 0: 0, 6: 3, 14: 23, 20: 50, 28: 102, 34: 153}
        for m, n in pairs.items():
            X = validate_params(4, m, n)
            window = abs(divisor_target_cp4(m))
            # raises if the divisor set differs from the direct scan anywhere
            sols = acs_search_cp4(X, cross_check_window=window)
            assert sols, f"no structures found at m={m}"
            if m == 0:
                assert [s.a for s in sols] == [-25, -5, -1, 1, 5, 25]
                assert any(s.a == 5 and s.full_chern == (5, 10, 10, 5) for s in sols)


def test_criterion_4_mod31_table():
    with budget(4, "CP^6 mod-31 table", 1):
        # brute force over all 961 residue pairs against the published table
        want = [(0, 0), (1, 7), (2, 6), (3, 9), (4, 7), (5, 6), (6, 25),
                (7, 15), (8, 23), (9, 24), (10, 4), (11, 28), (12, 10),
                (13, 2), (14, 16), (16, 11), (17, 12), (18, 3), (19, 27),
                (20, 12), (21, 27), (22, 13), (23, 18), (24, 17), (25, 26),
                (26, 27), (27, 8), (28, 6), (29, 12), (30, 7)]
        assert mod31_table() == want


def test_criterion_5_cp6_existence_and_agreement():
    with budget(5, "CP^6 search agreement", 60):
        X0 = validate_params(6, 0, 0, 0)
        pairs = [(s.a, s.c) for s in acs_search_cp6(X0, a_max=40, c_max=40)]
        assert (1, 1) in pairs
        assert (7, 35) in pairs
        # exact criterion-vs-direct agreement on every valid triple with
        # m = 0 mod 3, |m| <= 48 and |n| <= 43 over the stated window (the
        # search raises otherwise); under the 1152 model the six stated
        # triples (0, 0, 0), (0, +-31, -+24), (48, 12, -1747), (48, 43, -1099)
        # and (-48, 16, 2419) are among them
        triples = [mnq for mnq in cp6_triples(48, 43) if mnq[0] % 3 == 0]
        assert triples
        for mnq in triples:
            acs_search_cp6(validate_params(6, *mnq), a_max=200, c_max=200)


@pytest.mark.xfail(strict=True, reason=(
    "stated clause: X(16,11,23) yields no structures over |a|,|c| <= 99. "
    "Contradicted by exact computation: (a,c) = (1,1) completes to the "
    "realizable Chern vector (1,-195,1,6487,-162765,7); the claimed "
    "emptiness descends from the verified 228-for-288 Pontrjagin slip "
    "(see test_slip_reproduces_transcribed_numerator_exactly)."))
def test_criterion_5_stated_nonexistence_clause():
    X = validate_params(6, 16, 11, 23)
    sols = acs_search_cp6(X, a_max=99, c_max=99)
    print("\nACCEPTANCE 5 (stated nonexistence at (16,11,23)): FAIL(documented)")
    assert sols == []


def test_criterion_6_cp6_symbolic():
    with budget(6, "CP^6 symbolic decomposition", 10):
        sym = symbolic_cp6_numerators()
        assert sym.denominators == ((2976, 1), (23808, 1), (2976, 1),
                                    (23808, 1), (3720, 1), (23808, 1))
        for f_i, k in zip(sym.numerators, (1, -19, 3, -17, 1, -1)):
            assert (f_i - k * sym.f).divisible_by_variable("a")
        # corrected a-free part, term for term
        assert sym.f == MPolyZ({
            (0, 0, 1, 0, 0): 1312920, (0, 0, 0, 1, 0): -1814400,
            (0, 0, 1, 1, 0): 12441600, (0, 2, 0, 0, 0): -1240,
            (0, 0, 2, 0, 0): 4397760, (0, 0, 3, 0, 0): -898560,
            (0, 0, 0, 0, 0): 22785})
        # the transcribed display is exactly the image of the 228 slip
        slip = _symbolic_cp6_rows(p2_m2_coefficient=228)
        assert slip.numerators[0] == MPolyZ(DISPLAY_F1)


@pytest.mark.xfail(strict=True, reason=(
    "stated clause: computed f and f_1 match the transcribed display term "
    "for term. The display's m^2/m^3 terms descend from the verified "
    "228-for-288 Pontrjagin slip; the corrected values are pinned in "
    "test_criterion_6_cp6_symbolic and the display is reproduced exactly "
    "by re-introducing the slip."))
def test_criterion_6_stated_display_match():
    sym = symbolic_cp6_numerators()
    print("\nACCEPTANCE 6 (stated f_1 display match): FAIL(documented)")
    assert sym.numerators[0] == MPolyZ(DISPLAY_F1)


def test_criterion_7_cp5_structures():
    with budget(7, "CP^5 stable structures", 5):
        assert symbolic_verify_cp5()
        for m in range(-40, 41, 2):
            for n in range(-20, 21):
                X = HtpyCP(5, m, n)
                rep = cp5_structure(X)
                # full KO equality includes the 2-torsion coordinate
                assert rep.reduction == tangent_ko_class(X)
                assert rep.euler_coefficient == 6


def test_criterion_8_k_ko_identities():
    with budget(8, "K/KO identities", 1):
        for d in (4, 5, 6):
            for i in range(d + 1):
                x = KClass(d, [0] * i + [1])
                assert complexify(real_reduce(x)) == x + conjugate(x)
            for j in range(1, 4 if d != 4 else 3):
                y = KOClass.omega(d, j)
                assert real_reduce(complexify(y)) == 2 * y
        w = KOClass.omega(5)
        assert adams_ko(2, w) == KOClass(5, [0, 4, 1])
        assert adams_ko(4, w) == KOClass(5, [0, 16, 20])
        assert adams_ko(2, adams_ko(2, w)) == adams_ko(4, w)
        L = KClass.L(5)
        h_inv = 1 + conjugate(L)
        H = KClass.H(5)
        zero = KOClass.zero(5)
        assert real_reduce(H - h_inv) == zero
        assert real_reduce(H * H - h_inv * h_inv) == zero
        assert real_reduce(2 * L ** 5) == zero
        assert real_reduce(L) == KOClass.omega(5, 1)
        assert real_reduce(L * L - 2 * L) == KOClass.omega(5, 2)
        assert real_reduce(L ** 5) == KOClass.omega(5, 3)


def test_criterion_9_series_and_pontrjagin_golden():
    with budget(9, "series and Pontrjagin golden data", 1):
        series = {1: (1, 1, 0, 0, 0, 0),
                  2: (1, 0, -1, 2, -3, 4),
                  3: (1, 0, 0, 2, -9, 30),
                  4: (1, 0, 0, 0, -6, 48),
                  5: (1, 0, 0, 0, 0, 24)}
        for i, coeffs in series.items():
            got = total_chern(KClass(5, [0] * i + [1]))
            assert got.coeffs == tuple(Fraction(x) for x in coeffs)
        p_values = {(1, 1): 1, (1, 2): 0, (1, 3): 0,
                    (2, 1): 0, (2, 2): -6, (2, 3): 20,
                    (3, 1): 0, (3, 2): 0, (3, 3): 120}
        for (k, i), value in p_values.items():
            assert pontrjagin_total(KOClass.omega(6, k)).coeff(2 * i) == value
        assert pontrjagin_of_X(HtpyCP(6, 0, 0, 0)) == (7, 21, 35)
        assert pontrjagin_of_X(HtpyCP(4, 0, 0)) == (5, 10)
