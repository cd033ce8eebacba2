"""Named verification suites: each check recomputes a fact from scratch and
compares against golden data or an independent route.  The cli exposes these
through the `verify` subcommand; the test suite reuses them.

Every check is `_expect(name, got, want)`, which passes when got == want, or
`_every(name, failures)`, which passes when a local generator of failure
messages yields none.  Each checked value is computed once; the detail of a
failing check is its first failing case, and no case after it is evaluated;
a suite draws all its seeded inputs before it tests any, so one failing check
never changes another check's inputs.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
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


def _expect(name, got, want):
    """Passes when got == want; a failure's detail shows both values."""
    if got == want:
        return Check(name, True)
    return Check(name, False, f"got {got}, want {want}")


def _every(name, failures):
    """Passes when failures yields no message; else the detail is the first
    message, and failures is not read past it."""
    first = next(iter(failures), None)
    return Check(name, first is None, first or "")


def read_golden(name):
    with open(GOLDEN_DIR / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[int(x) for x in row] for row in body]


def suite_ktheory(seed=0):
    rng = random.Random(seed)

    def draw_pair():
        d = rng.choice((4, 5, 6))
        return [KClass(d, [rng.randint(-4, 4) for _ in range(d + 1)]) for _ in range(2)]

    ring_pairs = [draw_pair() for _ in range(12)]

    # golden series of total Chern classes of L^i over CP^5
    _, series_rows = read_golden("chern_series")
    series = {i: [int(x) for x in total_chern(KClass(5, [0] * i + [1])).coeffs]
              for i in range(1, 6)}

    # golden Pontrjagin classes of omega powers over CP^6
    def omega_mismatches():
        for k, i, coeff in read_golden("pontrjagin_omega")[1]:
            val = pontrjagin_total(KOClass.omega(6, k)).coeff(2 * i)
            if val != coeff:
                yield f"p_{i}(w^{k}) = {val} != {coeff}"

    # c(r(x)) = x + t(x) on the monomial basis, r(c(y)) = 2y on generators
    def c_after_r_failures():
        for d in (4, 5, 6):
            for i in range(d + 1):
                x = KClass(d, [0] * i + [1])
                if complexify(real_reduce(x)) != x + conjugate(x):
                    yield f"c(r(L^{i})) != (1+t)L^{i} at d={d}"

    def r_after_c_failures():
        for d in (4, 5, 6):
            for j in range(1, 4 if d != 4 else 3):
                y = KOClass.omega(d, j)
                if real_reduce(complexify(y)) != 2 * y:
                    yield f"r(c(w^{j})) != 2w^{j} at d={d}"

    # Adams operations on KO(CP^5)
    w = KOClass.omega(5)
    psi2, psi4 = adams_ko(2, w), adams_ko(4, w)

    # kernel and image of r over CP^5
    L, H = KClass.L(5), KClass.H(5)
    h_inv = 1 + conjugate(L)
    zero = KOClass.zero(5)

    def ring_map_failures():
        for x, y in ring_pairs:
            if chern_character(x * y) != chern_character(x) * chern_character(y):
                yield "ch is not multiplicative"
            if total_chern(x + y) != total_chern(x) * total_chern(y):
                yield "total Chern is not exponential"
            for k, l in ((2, 2), (2, 3), (3, 4)):
                if adams(k, adams(l, x)) != adams(k * l, x):
                    yield f"psi^{k} psi^{l} != psi^{k*l}"
            for p in (2, 3):
                if any(c % p for c in (adams(p, x) - x ** p).coeffs):
                    yield f"psi^{p} != x^{p} mod {p}"

    return [
        _expect("chern-series-golden", series, {row[0]: row[1:] for row in series_rows}),
        _every("pontrjagin-omega-golden", omega_mismatches()),
        # tangent Pontrjagin classes of the untwisted manifolds
        _expect("pontrjagin-standard-cp6", pontrjagin_of_X(HtpyCP(6, 0, 0, 0)), (7, 21, 35)),
        _expect("pontrjagin-standard-cp4", pontrjagin_of_X(HtpyCP(4, 0, 0)), (5, 10)),
        _every("c-after-r-is-1-plus-t", c_after_r_failures()),
        _every("r-after-c-is-2", r_after_c_failures()),
        _expect("psi2-omega", psi2, KOClass(5, [0, 4, 1])),
        _expect("psi4-omega", psi4, KOClass(5, [0, 16, 20])),
        _expect("psi4-is-psi2-twice", adams_ko(2, psi2), psi4),
        _expect("h-times-h-inverse", H * h_inv, KClass.one(5)),
        _expect("r-kills-mu1", real_reduce(H - h_inv), zero),
        _expect("r-kills-mu2", real_reduce(H * H - h_inv * h_inv), zero),
        _expect("r-kills-2L5", real_reduce(2 * L ** 5), zero),
        _expect("r-hits-omega", real_reduce(L), KOClass.omega(5, 1)),
        _expect("r-hits-omega2", real_reduce(L * L - 2 * L), KOClass.omega(5, 2)),
        _expect("r-hits-omega3", real_reduce(L ** 5), KOClass.omega(5, 3)),
        _every("ring-map-properties", ring_map_failures()),
    ]


def suite_chernvec(seed=0):
    rng = random.Random(seed)

    def draw_mults(bound):
        d = rng.randint(2, 6)
        return tuple(rng.randint(-bound, bound) for _ in range(d))

    roundtrip_mults = [draw_mults(6) for _ in range(200)]
    ch_mults = [draw_mults(5) for _ in range(40)]

    # determinant of the exponential-basis matrix
    def w_det_failures():
        for d in range(1, 9):
            want = prod(factorial(j) for j in range(1, d + 1))
            if det_exact(w_matrix(d)) != want:
                yield f"det W({d}) != {want}"

    # closed-form decomposition: integral and equal to the generic solve,
    # W^-1 b(m) with W eliminated once per d and kept as den * W^-1 in integers
    def decomposition_failures():
        for d in range(1, 9):
            inv = inverse_exact(w_matrix(d))
            den = lcm(*(x.denominator for x in inv.entries))
            inv_rows = [[int(x * den) for x in inv.row(i)] for i in range(d + 1)]
            for m in range(-30, 31):
                closed = closed_form_w(m, d)
                if any(x.denominator != 1 for x in closed):
                    yield f"non-integral decomposition at m={m}, d={d}"
                b = [m ** i for i in range(d + 1)]
                solved = [Fraction(sum(r * x for r, x in zip(row, b)), den) for row in inv_rows]
                if closed != solved:
                    yield f"closed form != solve at m={m}, d={d}"

    # binomial form of the closed solution (m >= n case), unit vectors below
    def binomial_failures():
        for d in range(1, 7):
            n = d + 1
            for m in range(n, 31):
                binom = [(-1) ** (n - k) * comb(m, m - k + 1) * comb(m - k, m - n)
                         for k in range(1, n + 1)]
                if closed_form_w(m, d) != binom:
                    yield f"binomial form mismatch at m={m}, d={d}"
            for m in range(0, n):
                if closed_form_w(m, d) != [Fraction(int(k == m)) for k in range(n)]:
                    yield f"unit vector expected at m={m}, d={d}"

    # realizability roundtrip on random multiplicity vectors
    def roundtrip_failures():
        for mults in roundtrip_mults:
            v = chern_from_multiplicities(mults)
            try:
                back = realizable(v)
            except NotRealizable as exc:
                yield f"roundtrip rejected {mults}: {exc}"
            else:
                if back != mults:
                    yield f"roundtrip {mults} -> {back}"

    # every integer pair is a Chern vector over CP^2
    def cp2_rejections():
        for c1 in range(-10, 11):
            for c2 in range(-10, 11):
                try:
                    realizable((c1, c2))
                except NotRealizable:
                    yield f"({c1}, {c2}) rejected"

    # the pinned negative instance
    def negative_instance_failures():
        try:
            realizable((0, 1, 0, 0))
        except NotRealizable as exc:
            if Fraction(-5, 6) not in exc.solution:
                yield f"rejected without -5/6 in {exc.solution}"
        else:
            yield "(0,1,0,0) accepted"

    # power sums agree with the Chern character of the realized class
    def power_sum_failures():
        for mults in ch_mults:
            d = len(mults)
            s = power_sums_from_chern(chern_from_multiplicities(mults))
            H = KClass.H(d)
            x = sum((a_k * (H ** k - 1) for k, a_k in enumerate(mults, start=1)), KClass.zero(d))
            ch = chern_character(x)
            if any(s[i - 1] != ch.coeff(i) * factorial(i) for i in range(1, d + 1)):
                yield f"power sums disagree with ch at {mults}"

    return [
        _every("w-determinant", w_det_failures()),
        _every("basis-decomposition", decomposition_failures()),
        _every("closed-form-binomials", binomial_failures()),
        _every("roundtrip", roundtrip_failures()),
        _every("cp2-complete", cp2_rejections()),
        _every("negative-instance", negative_instance_failures()),
        _every("power-sums-vs-ch", power_sum_failures()),
    ]


def suite_cp4(seed=0):
    sols = acs_search_cp4(HtpyCP(4, 0, 0), cross_check_window=25)
    five = next(((s.full_chern, s.decomposition) for s in sols if s.a == 5), None)

    # the window 9529 is the whole divisor target of X(6, 3)
    def disagreements():
        for (m, n), window in (((-8, 12), 2000), ((14, 23), 2000), ((6, 3), 9529)):
            try:
                acs_search_cp4(HtpyCP(4, m, n), cross_check_window=window)
            except ArithmeticError as exc:
                yield f"(m,n)=({m},{n}): {exc}"

    return [
        _expect("standard-set", [s.a for s in sols], [-25, -5, -1, 1, 5, 25]),
        _expect("standard-structure", five, ((5, 10, 10, 5), (5, 0, 0, 0))),
        _every("criterion-vs-direct", disagreements()),
    ]


def suite_cp5(seed=0):
    def sweep_failures():
        for m in range(-10, 11, 2):
            for n in range(-8, 9):
                if not cp5_structure(HtpyCP(5, m, n)).ok:
                    yield f"verification failed at (m, n) = ({m}, {n})"

    untwisted = cp5_structure(HtpyCP(5, 0, 0))
    return [
        _expect("symbolic-top-chern", symbolic_verify_cp5(), True),
        _every("structure-sweep", sweep_failures()),
        _expect("untwisted-case", (untwisted.e, untwisted.euler_coefficient),
                (6 * KClass.L(5), 6)),
    ]


def suite_cp6(seed=0):
    _, rows = read_golden("mod31")
    table = mod31_table()

    sym = symbolic_cp6_numerators()
    g3 = (sym.numerators[2] - 3 * sym.f).divide_by_variable("a")
    nums228, _ = _symbolic_cp6_rows(p2_m2_coefficient=228)
    g3s = (nums228[2] - 3 * _a_free_part(nums228[0])).divide_by_variable("a")

    sols = acs_search_cp6(HtpyCP(6, 0, 0, 0), a_max=40, c_max=40)
    pairs = [(s.a, s.c) for s in sols]
    seven = next((s.full_chern for s in sols if (s.a, s.c) == (7, 35)), None)

    def disagreements():
        for (m, n, q) in ((16, 11, 23), (48, 12, -1747), (0, 31, -24), (32, 7, -442)):
            X = HtpyCP(6, m, n, q)
            try:
                acs_search_cp6(X, a_max=60, c_max=60)
                cp6_exists(X)   # True, or ArithmeticError when the witness fails
            except ArithmeticError as exc:
                yield f"(m,n,q)=({m},{n},{q}): {exc}"

    return [
        _expect("mod31-golden", table, [tuple(r) for r in rows]),
        _expect("mod31-missing-residue", sorted({m for m, _ in table}),
                [m for m in range(31) if m != 15]),
        _expect("denominators", sym.denominators,
                ((2976, 1), (23808, 1), (2976, 1), (23808, 1), (3720, 1), (23808, 1))),
        _expect("mod3-obstruction-vanishes", g3.reduce_mod(3, fermat_vars=("a",)), 0),
        _expect("slip-reintroduces-obstruction",
                str(g3s.reduce_mod(3, fermat_vars=("a",))), "m^2"),
        _expect("standard-contains-1-1", (1, 1) in pairs, True),
        _expect("standard-contains-7-35", (7, 35) in pairs, True),
        _expect("standard-structure", seven, (7, 21, 35, 35, 21, 7)),
        _every("criterion-vs-direct", disagreements()),
    ]


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
