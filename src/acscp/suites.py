"""Named verification suites: each check recomputes a fact from scratch and
compares against golden data or an independent route.  The cli exposes these
through the `verify` subcommand; the test suite reuses them."""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path

from .chernvec import (chern_from_multiplicities, closed_form_w,
                       power_sums_from_chern, realizable, w_matrix,
                       NotRealizable)
from .exactmath import det_exact, inverse_exact
from .homotopy import (HtpyCP, acs_search_cp4, acs_search_cp6, cp6_exists,
                       cp5_structure, mod31_table, pontrjagin_of_X,
                       symbolic_cp6_numerators, symbolic_verify_cp5,
                       _a_free_part, _symbolic_cp6_rows)
from .ktheory import (KClass, KOClass, adams, adams_ko, chern_character,
                      complexify, conjugate, pontrjagin_total, real_reduce,
                      total_chern)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _check(name, passed, detail=""):
    return Check(name, bool(passed), "" if passed else str(detail))


def read_golden(name):
    with open(GOLDEN_DIR / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[int(x) for x in row] for row in body]


def suite_ktheory(seed=0):
    rng = random.Random(seed)
    checks = []

    # golden series of total Chern classes of L^i over CP^5
    _, series_rows = read_golden("chern_series")
    got = {i: [int(x) for x in total_chern(KClass(5, [0] * i + [1])).coeffs]
           for i in range(1, 6)}
    want = {row[0]: row[1:] for row in series_rows}
    checks.append(_check("chern-series-golden", got == want, f"{got} vs {want}"))

    # golden Pontrjagin classes of omega powers over CP^6
    _, p_rows = read_golden("pontrjagin_omega")
    ok, bad = True, ""
    for k, i, coeff in p_rows:
        val = pontrjagin_total(KOClass.omega(6, k)).coeff(2 * i)
        if val != coeff:
            ok, bad = False, f"p_{i}(w^{k}) = {val} != {coeff}"
            break
    checks.append(_check("pontrjagin-omega-golden", ok, bad))

    # tangent Pontrjagin classes of the untwisted manifolds
    p6 = pontrjagin_of_X(HtpyCP(6, 0, 0, 0))
    checks.append(_check("pontrjagin-standard-cp6", p6 == (7, 21, 35), p6))
    p4 = pontrjagin_of_X(HtpyCP(4, 0, 0))
    checks.append(_check("pontrjagin-standard-cp4", p4 == (5, 10), p4))

    # c(r(x)) = x + t(x) on the monomial basis, r(c(y)) = 2y on generators
    ok, bad = True, ""
    for d in (4, 5, 6):
        for i in range(d + 1):
            x = KClass(d, [0] * i + [1])
            if complexify(real_reduce(x)) != x + conjugate(x):
                ok, bad = False, f"c(r(L^{i})) != (1+t)L^{i} at d={d}"
    checks.append(_check("c-after-r-is-1-plus-t", ok, bad))
    ok, bad = True, ""
    for d in (4, 5, 6):
        for j in range(1, 4 if d != 4 else 3):
            y = KOClass.omega(d, j)
            if real_reduce(complexify(y)) != 2 * y:
                ok, bad = False, f"r(c(w^{j})) != 2w^{j} at d={d}"
    checks.append(_check("r-after-c-is-2", ok, bad))

    # Adams operations on KO(CP^5)
    w = KOClass.omega(5)
    checks.append(_check("psi2-omega", adams_ko(2, w) == KOClass(5, [0, 4, 1]),
                         adams_ko(2, w)))
    checks.append(_check("psi4-omega", adams_ko(4, w) == KOClass(5, [0, 16, 20]),
                         adams_ko(4, w)))
    checks.append(_check("psi4-is-psi2-twice",
                         adams_ko(2, adams_ko(2, w)) == adams_ko(4, w)))

    # kernel and image of r over CP^5
    L = KClass.L(5)
    H = KClass.H(5)
    h_inv = 1 + conjugate(L)
    checks.append(_check("h-times-h-inverse", H * h_inv == KClass.one(5)))
    mu1 = H - h_inv
    mu2 = H * H - h_inv * h_inv
    zero = KOClass.zero(5)
    checks.append(_check("r-kills-mu1", real_reduce(mu1) == zero, real_reduce(mu1)))
    checks.append(_check("r-kills-mu2", real_reduce(mu2) == zero, real_reduce(mu2)))
    checks.append(_check("r-kills-2L5", real_reduce(2 * L ** 5) == zero))
    checks.append(_check("r-hits-omega", real_reduce(L) == KOClass.omega(5, 1)))
    checks.append(_check("r-hits-omega2",
                         real_reduce(L * L - 2 * L) == KOClass.omega(5, 2)))
    checks.append(_check("r-hits-omega3", real_reduce(L ** 5) == KOClass.omega(5, 3)))

    # random ring-map properties
    ok, bad = True, ""
    for _ in range(12):
        d = rng.choice((4, 5, 6))
        x = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        y = KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        if chern_character(x * y) != chern_character(x) * chern_character(y):
            ok, bad = False, "ch is not multiplicative"
        if total_chern(x + y) != total_chern(x) * total_chern(y):
            ok, bad = False, "total Chern is not exponential"
        for k, l in ((2, 2), (2, 3), (3, 4)):
            if adams(k, adams(l, x)) != adams(k * l, x):
                ok, bad = False, f"psi^{k} psi^{l} != psi^{k*l}"
        for p in (2, 3):
            diff = adams(p, x) - x ** p
            if any(c % p for c in diff.coeffs):
                ok, bad = False, f"psi^{p} != x^{p} mod {p}"
    checks.append(_check("ring-map-properties", ok, bad))
    return checks


def suite_chernvec(seed=0):
    rng = random.Random(seed)
    checks = []

    # determinant of the exponential-basis matrix
    ok, bad = True, ""
    for d in range(1, 9):
        want = 1
        for j in range(1, d + 1):
            want *= factorial(j)
        if det_exact(w_matrix(d)) != want:
            ok, bad = False, f"det W({d}) != {want}"
    checks.append(_check("w-determinant", ok, bad))

    # closed-form decomposition: integral and equal to the generic solve,
    # W^-1 b(m) with W eliminated once per d and kept as den * W^-1 in integers
    ok, bad = True, ""
    for d in range(1, 9):
        inv = inverse_exact(w_matrix(d))
        den = lcm(*(x.denominator for x in inv.entries))
        inv_rows = [[int(x * den) for x in inv.row(i)] for i in range(d + 1)]
        for m in range(-30, 31):
            closed = closed_form_w(m, d)
            if any(x.denominator != 1 for x in closed):
                ok, bad = False, f"non-integral decomposition at m={m}, d={d}"
                break
            b = [m ** i for i in range(d + 1)]
            solved = [Fraction(sum(r * x for r, x in zip(row, b)), den) for row in inv_rows]
            if closed != solved:
                ok, bad = False, f"closed form != solve at m={m}, d={d}"
                break
    checks.append(_check("basis-decomposition", ok, bad))

    # binomial form of the closed solution (m >= n case), unit vectors below
    ok, bad = True, ""
    for d in range(1, 7):
        n = d + 1
        for m in range(n, 31):
            closed = closed_form_w(m, d)
            binom = [(-1) ** (n - k) * comb(m, m - k + 1) * comb(m - k, m - n)
                     for k in range(1, n + 1)]
            if closed != binom:
                ok, bad = False, f"binomial form mismatch at m={m}, d={d}"
        for m in range(0, n):
            unit = [Fraction(int(k == m)) for k in range(n)]
            if closed_form_w(m, d) != unit:
                ok, bad = False, f"unit vector expected at m={m}, d={d}"
    checks.append(_check("closed-form-binomials", ok, bad))

    # realizability roundtrip on random multiplicity vectors
    ok, bad = True, ""
    for _ in range(200):
        d = rng.randint(2, 6)
        mults = tuple(rng.randint(-6, 6) for _ in range(d))
        v = chern_from_multiplicities(mults)
        try:
            back = realizable(v)
        except NotRealizable as exc:
            ok, bad = False, f"roundtrip rejected {mults}: {exc}"
            break
        if back != mults:
            ok, bad = False, f"roundtrip {mults} -> {back}"
            break
    checks.append(_check("roundtrip", ok, bad))

    # every integer pair is a Chern vector over CP^2
    ok, bad = True, ""
    for c1 in range(-10, 11):
        for c2 in range(-10, 11):
            try:
                realizable((c1, c2))
            except NotRealizable:
                ok, bad = False, f"({c1}, {c2}) rejected"
    checks.append(_check("cp2-complete", ok, bad))

    # the pinned negative instance
    try:
        realizable((0, 1, 0, 0))
        checks.append(_check("negative-instance", False, "(0,1,0,0) accepted"))
    except NotRealizable as exc:
        checks.append(_check("negative-instance",
                             Fraction(-5, 6) in exc.solution, exc.solution))

    # power sums agree with the Chern character of the realized class
    ok, bad = True, ""
    for _ in range(40):
        d = rng.randint(2, 6)
        mults = tuple(rng.randint(-5, 5) for _ in range(d))
        v = chern_from_multiplicities(mults)
        s = power_sums_from_chern(v)
        x = KClass.zero(d)
        H = KClass.H(d)
        for k, a_k in enumerate(mults, start=1):
            x = x + a_k * (H ** k - 1)
        ch = chern_character(x)
        if any(Fraction(s[i - 1]) != ch.coeff(i) * factorial(i) for i in range(1, d + 1)):
            ok, bad = False, f"power sums disagree with ch at {mults}"
            break
    checks.append(_check("power-sums-vs-ch", ok, bad))
    return checks


def suite_cp4(seed=0):
    checks = []
    X0 = HtpyCP(4, 0, 0)
    sols = acs_search_cp4(X0, cross_check_window=25)
    checks.append(_check("standard-set",
                         [s.a for s in sols] == [-25, -5, -1, 1, 5, 25],
                         [s.a for s in sols]))
    five = next((s for s in sols if s.a == 5), None)
    checks.append(_check("standard-structure",
                         five is not None and five.full_chern == (5, 10, 10, 5)
                         and five.decomposition == (5, 0, 0, 0), five))
    ok, bad = True, ""
    for (m, n) in ((6, 3), (-8, 12), (14, 23)):
        try:
            acs_search_cp4(HtpyCP(4, m, n), cross_check_window=2000)
        except ArithmeticError as exc:
            ok, bad = False, str(exc)
    # full-window agreement for one nontrivial manifold
    try:
        acs_search_cp4(HtpyCP(4, 6, 3), cross_check_window=9529)
    except ArithmeticError as exc:
        ok, bad = False, str(exc)
    checks.append(_check("criterion-vs-direct", ok, bad))
    return checks


def suite_cp5(seed=0):
    checks = []
    checks.append(_check("symbolic-top-chern", symbolic_verify_cp5()))
    ok, bad = True, ""
    for m in range(-10, 11, 2):
        for n in range(-8, 9):
            rep = cp5_structure(HtpyCP(5, m, n))
            if not rep.ok:
                ok, bad = False, f"verification failed at (m, n) = ({m}, {n})"
    checks.append(_check("structure-sweep", ok, bad))
    rep = cp5_structure(HtpyCP(5, 0, 0))
    checks.append(_check("untwisted-case",
                         rep.e == 6 * KClass.L(5) and rep.euler_coefficient == 6, rep))
    return checks


def suite_cp6(seed=0):
    checks = []

    _, rows = read_golden("mod31")
    table = mod31_table()
    checks.append(_check("mod31-golden", table == [tuple(r) for r in rows],
                         table))
    checks.append(_check("mod31-missing-residue",
                         sorted({m for m, _ in table}) == [m for m in range(31) if m != 15]))

    sym = symbolic_cp6_numerators()
    checks.append(_check("denominators",
                         sym.denominators == ((2976, 1), (23808, 1), (2976, 1),
                                              (23808, 1), (3720, 1), (23808, 1)),
                         sym.denominators))
    g3 = (sym.numerators[2] - 3 * sym.f).divide_by_variable("a")
    checks.append(_check("mod3-obstruction-vanishes",
                         g3.reduce_mod(3, fermat_vars=("a",)).is_zero(),
                         g3.reduce_mod(3, fermat_vars=("a",))))
    nums228, _ = _symbolic_cp6_rows(p2_m2_coefficient=228)
    g3s = (nums228[2] - 3 * _a_free_part(nums228[0])).divide_by_variable("a")
    checks.append(_check("slip-reintroduces-obstruction",
                         str(g3s.reduce_mod(3, fermat_vars=("a",))) == "m^2",
                         g3s.reduce_mod(3, fermat_vars=("a",))))

    X0 = HtpyCP(6, 0, 0, 0)
    sols = acs_search_cp6(X0, a_max=40, c_max=40)
    pairs = [(s.a, s.c) for s in sols]
    checks.append(_check("standard-contains-1-1", (1, 1) in pairs))
    checks.append(_check("standard-contains-7-35", (7, 35) in pairs))
    seven = next((s for s in sols if (s.a, s.c) == (7, 35)), None)
    checks.append(_check("standard-structure",
                         seven is not None
                         and seven.full_chern == (7, 21, 35, 35, 21, 7), seven))

    ok, bad = True, ""
    for (m, n, q) in ((16, 11, 23), (48, 12, -1747), (0, 31, -24), (32, 7, -442)):
        X = HtpyCP(6, m, n, q)
        try:
            acs_search_cp6(X, a_max=60, c_max=60)
        except ArithmeticError as exc:
            ok, bad = False, f"(m,n,q)=({m},{n},{q}): {exc}"
        if not cp6_exists(X):
            ok, bad = False, f"existence witness missing at ({m},{n},{q})"
    checks.append(_check("criterion-vs-direct", ok, bad))
    return checks


SUITES = {
    "ktheory": suite_ktheory,
    "chernvec": suite_chernvec,
    "cp4": suite_cp4,
    "cp5": suite_cp5,
    "cp6": suite_cp6,
}


def run_suite(name, seed=0):
    """Run one suite (or 'all'); returns the flat list of checks."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(Check(f"{key}:{c.name}", c.passed, c.detail)
                       for c in SUITES[key](seed))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
