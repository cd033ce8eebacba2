"""Classification data for homotopy CP^d and the almost-complex-structure
decision procedures.

A smooth manifold with the oriented homotopy type of CP^d (d = 4, 5, 6) has,
up to torsion irrelevant here, stable tangent class T = T(CP^d) + xi in
KO(CP^d), where xi is an integer combination of fixed generators subject to
one constraint:

    d = 4:  xi = m(24w + 98w^2) + n(240w^2),
            4m^2 - 10m - 28n = 0
    d = 5:  xi = m(24w + 98w^2 + w^3) + n(240w^2),
            m even
    d = 6:  xi = m(24w + 98w^2 + 111w^3) + n(240w^2 + 380w^3) + q(504w^3),
            32m^3 - 252m^2 + 301m - 672mn + 1152n + 1488q = 0

The d = 4 and 6 models live once, as the MPolyZ constants CP4_CONSTRAINT,
CP6_CONSTRAINT and CP4_PONTRJAGIN, CP6_PONTRJAGIN (p_1, ..., p_(d/2) of T
with n and q free), read by HtpyCP, pontrjagin_of_X (which still checks
them against the K-theory route), mod31_table and the symbolic pipeline.
The d = 6 divisor target is F / 155, F the pinned _CP6_F_PIN.

For d = 4 and 6 an almost complex structure is the same thing as an integer
Chern vector (c_1, ..., c_d) with c_d = d + 1 whose even combinations match
the Pontrjagin classes of X and which is realizable over the exponential
lattice (acscp.chernvec).  Fixing c_1 = a (and c_3 = c when d = 6), the
matching conditions solve degree by degree:

    c_2 = (c_1^2 - p_1)/2
    c_3 = (10 + c_2^2 - p_2) / (2 c_1)              (d = 4, with c_4 = 5)
    c_4 = c_1 c_3 + (p_2 - c_2^2)/2                 (d = 6)
    c_5 = (14 + 2 c_2 c_4 - c_3^2 + p_3) / (2 c_1)  (d = 6, with c_6 = 7)

and the surviving integrality condition collapses to an explicit divisor
criterion on a (and congruences on (a, c) for d = 6).  Both routes -- the
divisor criterion and the direct integrality scan -- are implemented and
cross-checked against each other.  Each search computes the Pontrjagin
classes of X once and passes them to the completion and decomposition of
every candidate (a, c).

For d = 4 the completion depends on a^2 except for c_3 = num_3 / (2a), so
v(-a) = (-a, c_2, -c_3, 5) and the test 2|a| | num_3 depends on |a| only.
The direct scan completes once per sign class |a|; the power sums of the
conjugate cell -a are the flipped list (-1)^i s_i, so one Newton recursion
serves both cells, and each is decomposed on its own.

For d = 6 the completion is one head per a, c_2 and h_4 = (p_2 - c_2^2)/2,
and one tail per c, c_4 = a c + h_4 and c_5 = num_5 / (2a).  Since

    num_5 = (K - c^2) + 2a c_2 c,   K = 14 + 2 c_2 h_4 + p_3,

c_5 is integral exactly when 2a divides K - c^2.  The head and K depend
on a^2 only and the test on |a| and |c| only, so the direct scan runs them
once per sign class (|a|, |c|) and visits the four cells (+-a, +-c) of a
class that passes.  The conjugate cells (a, c) and (-a, -c) share c_2, c_4
and num_5, so v(-a, -c)_i = (-1)^i v(a, c)_i; s_i has weighted degree i, so
s_i(-a, -c) = (-1)^i s_i(a, c) as well.

The scan does not run Newton's identities per cell.  Fix a, so that c_2
and h_4 are fixed, and read v = (a, c_2, c, a c + h_4, c_5, 7) as a
function of (c, c_5).  The power sum s_i is a sum of monomials
e_(k_1) ... e_(k_r) with k_1 + ... + k_r = i <= 6, e_k of weight k.  Only
e_3 = c and e_4 = a c + h_4 depend on c, and a monomial holds at most two
of them, both e_3 (3 + 3 = 6, while 3 + 4 and 4 + 4 exceed 6), so s_i has
degree at most 2 in c.  e_5 = c_5 enters only as 5 e_5 in s_5 and 6 e_1 e_5
in s_6.  So for every reduced adjugate row (row, det) of acscp.chernvec,

    row . s = alpha c^2 + beta c + gamma + delta c_5,

with integers alpha, beta, gamma, delta that depend on a only.  Four
Newton recursions, at (c, c_5) = (0, 0), (1, 0), (-1, 0) and (0, 1), give
row values f with gamma = f(0, 0), beta = (f(1, 0) - f(-1, 0))/2,
alpha = (f(1, 0) + f(-1, 0))/2 - gamma and delta = f(0, 1) - gamma, all
exact.  The same samples with s_i multiplied by (-1)^i give the forms of
the conjugate cells (-a, -c), evaluated at the same (c, c_5).  A cell is
then decomposed by divmod(alpha c^2 + beta c + gamma + delta c_5, det) per
row, with c_5 = (K - c^2)/(2a) + c_2 c; the quotients are the
decomposition, and the Chern vector is built only for a cell that passes.
So the scan costs four Newton recursions per |a| with a passing class,
whatever the number of cells.

For d = 6 the congruence-and-divisor criterion is uniform in the
parameters, and (a, c) = (1, 1) always satisfies it, so every admissible
(m, n, q) carries almost complex structures.  (The mod-3 nonexistence test
sometimes quoted for this problem fails the exact cross-check; see
divisor_target_cp6 and cp6_exists.)

The symbolic d = 6 pipeline takes the same integer route as the numeric
one.  With k = 1488 the q coefficient of the constraint, k p_3 is an
integer polynomial in (m, n), and with T = 2ka every C_i = T^i c_i is one
too: C_1 = 2k a^2, C_2 = 2k^2 a^2 t_2, C_3 = T^3 c, C_4 = 2k^4 a^4 t_4,
C_5 = 2k^4 a^4 t_5 and C_6 = 7 T^6, where t_2 = 2 c_2, t_4 = 8 c_4 and
t_5 = 16ka c_5.  The power sum s_i has weighted degree i, so
s_i(c) = s_i(C) / T^i, and row i of Q^-1 s is sum_j adj_ij s_j(C) T^(6-j)
over det T^6, with adj and det the cached adjugate of acscp.chernvec.
Each row is brought to lowest terms once, at the end.

For d = 5 real K-theory has 2-torsion and the Chern-vector correspondence is
unavailable; instead an explicit K-theory class with the right real
reduction and top Chern class 6u^5 is constructed, which settles existence
for every (m, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .chernvec import _decompose, _q_adjugate, _q_rows, newton_power_sums
from .exactmath import (MPolyZ, NotDivisible, _is_int, divisors_signed,
                        poly_variables)
from .ktheory import (KClass, KOClass, UnsupportedDimension, pontrjagin_total,
                      real_reduce, total_chern)


class ConstraintViolated(ValueError):
    """Parameters fail the classification constraint for this dimension."""


class NoCompletion(ValueError):
    """The degree-by-degree completion produced a non-integral Chern entry."""


class ZeroFirstChern(ValueError):
    """Completion divides by c_1, so a = 0 is inadmissible."""


# ---------------------------------------------------------------------------
# Parameters: the constraints and Pontrjagin classes in (m, n, q)
# ---------------------------------------------------------------------------

_, _, _m, _n, _q = poly_variables()

CP4_CONSTRAINT = 4 * _m ** 2 - 10 * _m - 28 * _n
CP4_PONTRJAGIN = (5 + 24 * _m, 10 - 480 * _m + 288 * _m ** 2 - 1440 * _n)

CP6_CONSTRAINT = (32 * _m ** 3 - 252 * _m ** 2 + 301 * _m - 672 * _m * _n
                  + 1152 * _n + 1488 * _q)
CP6_PONTRJAGIN = (7 + 24 * _m,
                  21 + 288 * _m ** 2 - 432 * _m - 1440 * _n,
                  35 + 2304 * _m ** 3 - 12384 * _m ** 2 + 11592 * _m
                  - 34560 * _m * _n + 40320 * _n + 60480 * _q)

_CONSTRAINTS = {4: CP4_CONSTRAINT, 6: CP6_CONSTRAINT}
_PONTRJAGIN = {4: CP4_PONTRJAGIN, 6: CP6_PONTRJAGIN}


@dataclass(frozen=True)
class HtpyCP:
    """A homotopy CP^d, identified by its classification parameters."""

    d: int
    m: int
    n: int
    q: int | None = None

    def __post_init__(self):
        d, m, n, q = self.d, self.m, self.n, self.q
        for name, value in (("d", d), ("m", m), ("n", n), ("q", q)):
            if value is not None and not _is_int(value):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if d not in (4, 5, 6):
            raise UnsupportedDimension(f"d must be 4, 5, or 6, not {d}")
        if d == 6 and q is None:
            raise ConstraintViolated("d=6 needs a third parameter q")
        if d != 6 and q is not None:
            raise ConstraintViolated(f"d={d} takes parameters (m, n) only")
        if d == 5 and m % 2 != 0:
            raise ConstraintViolated(f"m = {m} must be even")
        if d in _CONSTRAINTS:
            lhs = _CONSTRAINTS[d].evaluate(**dict(zip("mnq", self.params())))
            if lhs != 0:
                raise ConstraintViolated(f"{_CONSTRAINTS[d]} = {lhs} != 0")

    def params(self):
        return (self.m, self.n) if self.q is None else (self.m, self.n, self.q)


def validate_params(d, m, n, q=None):
    """Construct a HtpyCP, raising ConstraintViolated with the failing equation
    and TypeError for a parameter that is not an int (or is a bool)."""
    return HtpyCP(d, m, n, q)


def tangent_ko_class(X):
    """Reduced stable tangent class in KO(CP^d)."""
    m, n = X.m, X.n
    if X.d == 4:
        return KOClass(4, [0, 5 + 24 * m, 98 * m + 240 * n])
    if X.d == 5:
        return KOClass(5, [0, 6 + 24 * m, 98 * m + 240 * n, m])
    return KOClass(6, [0, 7 + 24 * m, 98 * m + 240 * n,
                       111 * m + 380 * n + 504 * X.q])


def pontrjagin_of_X(X):
    """Coefficients (p_1, ..., p_(d/2)) with p_i(X) = p_i u^(2i).

    Evaluated from the closed formulas in (m, n, q) and, independently, from
    the total Pontrjagin class of the tangent KO-class; the two must agree.
    """
    if X.d not in _PONTRJAGIN:
        raise UnsupportedDimension("Pontrjagin data is only defined for d = 4 and 6")
    point = dict(zip("mnq", X.params()))
    formulas = tuple(p.evaluate(**point) for p in _PONTRJAGIN[X.d])
    total = pontrjagin_total(tangent_ko_class(X))
    from_ko = tuple(total.coeff(2 * i) for i in range(1, X.d // 2 + 1))
    if from_ko != formulas:
        raise ArithmeticError(f"Pontrjagin mismatch: formulas {formulas}, K-theory {from_ko}")
    return formulas


# ---------------------------------------------------------------------------
# Chern-vector completion (d = 4, 6)
# ---------------------------------------------------------------------------

def _complete_head(p, a):
    """The per-a part of the d = 6 completion: (c_2, h_4) with
    c_2 = (a^2 - p_1)/2 and h_4 = (p_2 - c_2^2)/2, or None when either is
    not integral."""
    t = a * a - p[0]
    if t % 2:
        return None
    c2 = t // 2
    t4 = p[1] - c2 * c2
    if t4 % 2:
        return None
    return c2, t4 // 2


def _complete_tail(p, a, head, c):
    """The per-c part of the d = 6 completion from head = (c_2, h_4):
    c_4 = a c + h_4 and c_5 = num_5 / (2a), or None when c_5 is not
    integral."""
    c2, h4 = head
    a4 = a * c + h4
    num5 = 14 + 2 * c2 * a4 - c * c + p[2]
    if num5 % (2 * a):
        return None
    return (a, c2, c, a4, num5 // (2 * a), 7)


def _complete_ints(d, p, a, c):
    """Integer completion of the Chern vector, or None at the first
    non-integral step.  p is the Pontrjagin coefficient tuple."""
    if d == 4:
        t = a * a - p[0]
        if t % 2:
            return None
        c2 = t // 2
        num3 = 10 + c2 * c2 - p[1]
        if num3 % (2 * a):
            return None
        return (a, c2, num3 // (2 * a), 5)
    head = _complete_head(p, a)
    return None if head is None else _complete_tail(p, a, head, c)


def complete_chern_vector(X, a, c=None):
    """Complete (c_1, ..., c_d) from c_1 = a (and c_3 = c when d = 6).

    The even entries come from matching p_i against the Chern classes of
    E + conj(E); the top entry is pinned to d + 1 (the Euler number).
    Raises NoCompletion when a solved entry is non-integral, and TypeError
    when a or c is not an int (or is a bool).
    """
    d = X.d
    if d not in (4, 6):
        raise UnsupportedDimension("Chern-vector completion applies to d = 4 and 6")
    for name, value in (("a", a), ("c", c)):
        if value is not None and not _is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if a == 0:
        raise ZeroFirstChern("completion divides by c_1; a must be nonzero")
    if d == 6 and c is None:
        raise ValueError("d = 6 needs the c_3 coefficient c")
    if d == 4 and c is not None:
        raise ValueError("d = 4 determines c_3; do not pass c")
    p = pontrjagin_of_X(X)
    v = _complete_ints(d, p, a, c)
    if v is None:
        raise NoCompletion(f"no integral completion for a={a}" + (f", c={c}" if d == 6 else ""))
    return v


@dataclass(frozen=True)
class ACSSolution:
    """One almost complex structure: its Chern vector and decomposition."""

    d: int
    a: int
    c: int | None
    full_chern: tuple
    decomposition: tuple


def _solution(d, p, a, c=None):
    """The structure with c_1 = a (and c_3 = c when d = 6) on the manifold
    with Pontrjagin tuple p, or None when its Chern vector does not complete
    or does not decompose integrally."""
    v = _complete_ints(d, p, a, c)
    if v is None:
        return None
    dec = _decompose(newton_power_sums(v))
    return None if dec is None else ACSSolution(d, a, c, v, dec)


def _check_window(name, value):
    """Refuse a search window that is not an int (or is a bool) with
    TypeError, and one below 1 with ValueError."""
    if not _is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _conjugate_sums(sums):
    """The power sums of the conjugate cell: negating c_1 (and c_3) negates
    every odd Chern class, so v_i, hence s_i, is multiplied by (-1)^i."""
    return [-x if i % 2 else x for i, x in enumerate(sums, 1)]


def _signed_odds(n):
    """The odd integers a with 1 <= |a| <= n."""
    odds = list(range(1, n + 1, 2))
    return odds + [-a for a in odds]


# ---------------------------------------------------------------------------
# d = 4: divisor criterion vs direct scan
# ---------------------------------------------------------------------------

def divisor_target_cp4(m):
    """The integer whose divisors are the admissible c_1 coefficients:
    25 + (3/7)(576 m^2 + 240 m).  TypeError unless m is an int (not a
    bool)."""
    if not _is_int(m):
        raise TypeError(f"m must be an integer, got {m!r}")
    num = 576 * m * m + 240 * m
    if num % 7:
        raise ArithmeticError(f"(576 m^2 + 240 m)/7 is not integral at m={m}")
    return 25 + 3 * (num // 7)


def _direct_set_cp4(p, window):
    """All odd a with |a| <= window whose completion exists and decomposes
    integrally.  Pure integer arithmetic.

    The completion and its test 2|a| | num_3 depend on |a| only, so they run
    once per sign class; the cells a and -a share one Newton recursion, and
    each is decomposed on its own."""
    out = set()
    for a in range(1, window + 1, 2):
        v = _complete_ints(4, p, a, None)
        if v is None:
            continue
        sums = newton_power_sums(v)
        if _decompose(sums) is not None:
            out.add(a)
        if _decompose(_conjugate_sums(sums)) is not None:
            out.add(-a)
    return out


def acs_search_cp4(X, cross_check_window=200):
    """All almost complex structures on a homotopy CP^4.

    Enumerates a over the signed divisors of the target, completes each
    Chern vector, and keeps the realizable ones.  A brute-force integrality
    scan over |a| <= cross_check_window must agree with the divisor
    criterion on that window, or ArithmeticError is raised.

    The target D = 25 + 3*48*m(12m + 5)/7 never vanishes: m(12m + 5) >= 0
    for every integer m (both factors share a sign, or m = 0), so D >= 25.
    """
    if X.d != 4:
        raise UnsupportedDimension("acs_search_cp4 needs d = 4")
    _check_window("cross_check_window", cross_check_window)
    D = divisor_target_cp4(X.m)
    p = pontrjagin_of_X(X)
    sols = [s for s in (_solution(4, p, a) for a in divisors_signed(D)) if s is not None]
    direct = _direct_set_cp4(p, cross_check_window)
    from_divisors = {s.a for s in sols if abs(s.a) <= cross_check_window}
    if from_divisors != direct:
        raise ArithmeticError(
            f"divisor criterion and direct scan disagree on |a| <= {cross_check_window}: "
            f"{sorted(from_divisors ^ direct)}")
    return sols


# ---------------------------------------------------------------------------
# d = 6: congruence + divisor criterion vs direct scan
# ---------------------------------------------------------------------------

def cp6_exists(X):
    """Whether a homotopy CP^6 admits any almost complex structure.

    Always, decided constructively: (c_1, c_3) = (1, 1) completes to an
    integral Chern vector for every admissible (m, n, q).  With p_1 = 7 + 24m
    the completion gives c_2 = -3 - 12m, which is odd; p_2 is odd as well, so
    t_4 = p_2 - c_2^2 is even; and num_5 = 14 + 2 c_2 c_4 - 1 + p_3 is even
    because p_3 is odd, so c_5 = num_5 / (2 c_1) is an integer.  The
    decomposition of the witness is checked exactly, and a failure raises
    ArithmeticError because it would contradict the criterion.

    A mod-3 nonexistence test (no structure when m != 0 mod 3) is sometimes
    quoted for this problem; it descends from the same 228-for-288 slip as
    the variant divisor target (see divisor_target_cp6) and is contradicted
    by the exact computation, e.g. on X(16, 11, 23).
    """
    if X.d != 6:
        raise UnsupportedDimension("cp6_exists needs d = 6")
    if _solution(6, pontrjagin_of_X(X), 1, 1) is None:
        raise ArithmeticError(
            f"the witness (a, c) = (1, 1) does not decompose on {X}; this contradicts the criterion")
    return True


def _target_cp6(m, n):
    """The d = 6 divisor target at fixed (m, n) as an MPolyZ in c: F / 155,
    F the pinned a-free part _CP6_F_PIN of the first symbolic numerator.
    ArithmeticError unless (m, n) meets the constraint mod 31."""
    try:
        return MPolyZ(_CP6_F_PIN).substitute(m=m, n=n).divexact(155)
    except NotDivisible:
        raise ArithmeticError(f"target is not integral at (m, n) = ({m}, {n})") from None


def divisor_target_cp6(c, m, n):
    """The integer that c_1 must divide when d = 6:

        F / 155 = 147 - 8c^2 + (1/31)(-179712 m^3 + 879552 m^2 + 2488320 mn
                                      + 262584 m - 362880 n),

    integral whenever (m, n) satisfies the constraint mod 31.  (A variant
    form of the cubic coefficients, -1152 m^3 + 931632 m^2, circulates; it
    descends from a 228-for-288 digit slip in the degree-4 Pontrjagin input
    and fails the direct integrality cross-check whenever m != 0.  See the
    regression tests around symbolic_cp6_numerators.)"""
    return _target_cp6(m, n).evaluate(c=c)


# admissible (a mod 16 -> c mod 8) pairings; a and c are odd throughout
_CP6_PARITY = {1: 1, 7: 3, 9: 5, 15: 7}


def _criterion_set_cp6(X, a_max, c_max):
    # the a passing the mod-3 and mod-16 tests, keyed by the c mod 8 they pair with
    paired = {}
    for a in _signed_odds(a_max):
        if a % 3 and a % 16 in _CP6_PARITY:
            paired.setdefault(_CP6_PARITY[a % 16], []).append(a)
    target_in_c = _target_cp6(X.m, X.n)
    out = set()
    for c in _signed_odds(c_max):
        if c % 3 == 0:
            continue
        target = target_in_c.evaluate(c=c)
        if target == 0:
            raise ArithmeticError(f"divisor target vanished at c={c}")
        out.update((a, c) for a in paired.get(c % 8, ()) if target % a == 0)
    return out


# the (c, c_5) points at which _row_forms samples the power sums
_FORM_POINTS = ((0, 0), (1, 0), (-1, 0), (0, 1))


def _row_forms(a, head):
    """The reduced adjugate rows of Q as forms in (c, c_5) at c_1 = a.

    With head = (c_2, h_4) and v = (a, c_2, c, a c + h_4, c_5, 7), returns
    (forms, conjugate_forms), each one (alpha, beta, gamma, delta, det) per
    pair (row, det) of _q_rows(6), with

        row . newton_power_sums(v) = alpha c^2 + beta c + gamma + delta c_5

    for the forms and the same with the conjugate power sums (-1)^i s_i for
    the conjugate forms, i.e. row . s at the conjugate cell's vector
    (-a, c_2, -c, a c + h_4, -c_5, 7).  Four Newton recursions, one per
    point of _FORM_POINTS; the divisions by 2 are exact because the row
    values are such forms (see the module docstring)."""
    c2, h4 = head
    samples = [newton_power_sums((a, c2, c, a * c + h4, c5, 7)) for c, c5 in _FORM_POINTS]
    out = []
    for sums in (samples, [_conjugate_sums(s) for s in samples]):
        forms = []
        for row, det in _q_rows(6):
            f0, f1, fm1, f5 = (sum(map(mul, row, s)) for s in sums)
            forms.append(((f1 + fm1) // 2 - f0, (f1 - fm1) // 2, f0, f5 - f0, det))
        out.append(tuple(forms))
    return tuple(out)


def _form_quotients(forms, c, c5):
    """The quotients (alpha c^2 + beta c + gamma + delta c_5) / det over the
    forms, or None at the first one that is not exact: the decomposition
    tuple of the cell, as _decompose gives it from its power sums."""
    cc = c * c
    out = []
    for alpha, beta, gamma, delta, det in forms:
        x, r = divmod(alpha * cc + beta * c + gamma + delta * c5, det)
        if r:
            return None
        out.append(x)
    return tuple(out)


def _direct_set_cp6(p, a_max, c_max):
    """{(a, c): ACSSolution} over the odd (a, c) in the window whose
    completion exists and decomposes integrally.  Pure integer arithmetic.

    The head, K and the test 2|a| | K - c^2 (see the module docstring) depend
    on |a| and |c| only, so they run once per sign class.  Each |a| with a
    passing class takes the row forms of a and -a from four Newton
    recursions; a cell is then decomposed by evaluating them at its (c, c_5),
    and its Chern vector is built only when it decomposes."""
    squares = [(c, c * c) for c in range(1, c_max + 1, 2)]
    out = {}
    for a in range(1, a_max + 1, 2):
        head = _complete_head(p, a)
        if head is None:
            continue
        c2, h4 = head
        K = 14 + 2 * c2 * h4 + p[2]
        two_a = 2 * a
        classes = [(c, (K - cc) // two_a) for c, cc in squares if (K - cc) % two_a == 0]
        if not classes:
            continue
        forms, conjugate_forms = _row_forms(a, head)
        for c, q5 in classes:
            for c3 in (c, -c):
                c5 = q5 + c2 * c3
                dec = _form_quotients(forms, c3, c5)
                if dec is not None:
                    out[a, c3] = ACSSolution(6, a, c3, (a, c2, c3, a * c3 + h4, c5, 7), dec)
                dec = _form_quotients(conjugate_forms, c3, c5)
                if dec is not None:
                    out[-a, -c3] = ACSSolution(6, -a, -c3, (-a, c2, -c3, a * c3 + h4, -c5, 7), dec)
    return out


def acs_search_cp6(X, a_max=200, c_max=200):
    """All almost complex structures on a homotopy CP^6 with |c_1| <= a_max
    and |c_3| <= c_max.

    The criterion route applies the congruence conditions mod 16/8 and
    mod 3 plus the divisor condition; a direct completion & integrality scan
    over the same window must agree with it exactly, and its solutions are
    returned in (a, c) order.
    """
    if X.d != 6:
        raise UnsupportedDimension("acs_search_cp6 needs d = 6")
    _check_window("a_max", a_max)
    _check_window("c_max", c_max)
    crit = _criterion_set_cp6(X, a_max, c_max)
    direct = _direct_set_cp6(pontrjagin_of_X(X), a_max, c_max)
    if crit != direct.keys():
        raise ArithmeticError(
            f"criterion and direct scan disagree on the window: {sorted(crit ^ direct.keys())}")
    return [direct[k] for k in sorted(crit)]


def mod31_table():
    """All residue pairs (m, n) mod 31 allowed by the d = 6 constraint.

    The q coefficient 1488 is 0 mod 31, so each m is substituted once into
    the q-free part, which is linear in n, and the 31 values of n are tested
    in integers.  Exactly one n for every m except m = 15, which admits none.
    """
    q_free = CP6_CONSTRAINT.substitute(q=0)
    out = []
    for m in range(31):
        line = q_free.substitute(m=m)
        k0, k1 = line.coefficient(), line.coefficient(n=1)
        out.extend((m, n) for n in range(31) if (k0 + k1 * n) % 31 == 0)
    return out


# ---------------------------------------------------------------------------
# d = 5: explicit stable structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CP5Report:
    """The explicit stable structure on a homotopy CP^5 and its checks."""

    e: KClass
    reduction: KOClass
    tangent: KOClass
    euler_coefficient: int

    @property
    def reduction_matches(self):
        return self.reduction == self.tangent

    @property
    def euler_matches(self):
        return self.euler_coefficient == 6

    @property
    def ok(self):
        return self.reduction_matches and self.euler_matches


def cp5_structure(X):
    """The stable almost complex structure

        E = 6L + 12m L^2 + 80n L^3 + 43m L^4 + (-19m - 20n - 6m^2 + 80mn) L^5

    on a homotopy CP^5, with the verification that r(E) equals the stable
    tangent class (2-torsion coordinate included) and c_5(E) = 6u^5.
    """
    if X.d != 5:
        raise UnsupportedDimension("cp5_structure needs d = 5")
    m, n = X.m, X.n
    e = KClass(5, [0, 6, 12 * m, 80 * n, 43 * m,
                   -19 * m - 20 * n - 6 * m * m + 80 * m * n])
    return CP5Report(
        e=e,
        reduction=real_reduce(e),
        tangent=tangent_ko_class(X),
        euler_coefficient=total_chern(e).coeff(5),
    )


def symbolic_verify_cp5():
    """Verify symbolically that the top Chern class of the d = 5 structure
    is 6u^5 for every admissible (m, n).

    Writing k_i for the L^i coefficients, the u^5 coefficient of the total
    Chern class is 6 + 6K with

        K = k_3 + 2k_4 + 4k_5 + 24m^2 - 10m - 4m k_3,

    and substituting the k_i formulas makes K the zero polynomial.  The
    coefficient identity itself is confirmed against total_chern on a grid
    of independent (m, k_3, k_4, k_5).
    """
    _, _, m, n, _ = poly_variables()
    k3 = 80 * n
    k4 = 43 * m
    k5 = -19 * m - 20 * n - 6 * m * m + 80 * m * n
    K = k3 + 2 * k4 + 4 * k5 + 24 * m * m - 10 * m - 4 * (m * k3)
    if not K.is_zero():
        return False
    for mm in range(-3, 4):
        for (a3, a4, a5) in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                             (2, -3, 5), (-4, 7, -1), (6, 6, 6)):
            e = KClass(5, [0, 6, 12 * mm, a3, a4, a5])
            got = total_chern(e).coeff(5)
            want = (6 + 6 * a3 + 12 * a4 + 24 * a5
                    + 144 * mm * mm - 60 * mm - 24 * mm * a3)
            if got != want:
                return False
    return True


# ---------------------------------------------------------------------------
# d = 6 symbolic: the six numerators of Q^-1 C
# ---------------------------------------------------------------------------

# the a-free part of numerator 1 recurs in every numerator with these weights
_CP6_F_MULTIPLES = (1, -19, 3, -17, 1, -1)

# pinned regression data for the first numerator and its a-free part,
# exponent keys ordered (a, c, m, n, q)
_CP6_F_PIN = {
    (0, 0, 1, 0, 0): 1312920, (0, 0, 0, 1, 0): -1814400,
    (0, 0, 1, 1, 0): 12441600, (0, 2, 0, 0, 0): -1240,
    (0, 0, 2, 0, 0): 4397760, (0, 0, 3, 0, 0): -898560,
    (0, 0, 0, 0, 0): 22785,
}
_CP6_F1_PIN = dict(_CP6_F_PIN)
_CP6_F1_PIN.update({
    (1, 0, 0, 0, 0): -208320, (1, 1, 0, 0, 0): 43152,
    (1, 0, 1, 0, 0): -5461392, (1, 0, 0, 1, 0): -11336832,
    (1, 0, 2, 0, 0): -762048, (2, 0, 1, 0, 0): 941904,
    (1, 0, 3, 0, 0): 96768, (4, 0, 1, 0, 0): -3720,
    (2, 0, 0, 1, 0): 892800, (2, 0, 0, 0, 0): 178653,
    (4, 0, 0, 0, 0): -8277, (6, 0, 0, 0, 0): 31,
    (2, 0, 2, 0, 0): 89280, (1, 0, 1, 1, 0): -2032128,
})


def _a_free_part(poly):
    """The terms of poly that do not contain the variable a."""
    return MPolyZ({e: coeff for e, coeff in poly.terms.items() if e[0] == 0})


@dataclass(frozen=True)
class CP6Symbolic:
    """Numerators and denominators of the symbolic decomposition vector."""

    f: MPolyZ
    numerators: tuple
    denominators: tuple  # (integer, power of a) pairs


def _lowest_terms(num, den, apow):
    """num / (den * a^apow) in lowest terms: the gcd of the content of num
    and den is cancelled, then powers of a while num is divisible by a.
    The form is unique, so equal fractions give equal (num, den, apow)."""
    g = gcd(num.content(), den)
    if g > 1:
        num, den = num.divexact(g), den // g
    while apow and num.divisible_by_variable("a"):
        num, apow = num.divide_by_variable("a"), apow - 1
    return num, den, apow


def _symbolic_cp6_rows(p2_m2_coefficient=288):
    """Push the d = 6 completion through Newton's identities and Q^-1 over
    Z[a, c, m, n], with q eliminated through the constraint.

    Works on the integer polynomials C_i = T^i c_i, T = 2ka (see the module
    docstring), and returns (numerators, denominators) with each row in
    lowest terms f_i / (den * a^apow).  The m^2 coefficient of the degree-4
    Pontrjagin input is parametrised so the regression tests can
    demonstrate how a transcribed 228 (for 288) propagates downstream.
    """
    a, c, m, _, _ = poly_variables()

    p1, p2, p3_q = CP6_PONTRJAGIN
    p2 = p2 + (p2_m2_coefficient - p2.coefficient(m=2)) * m * m
    # eliminate q, which appears linearly in the constraint, as k p_3
    k = CP6_CONSTRAINT.coefficient(q=1)
    p3_free = p3_q.substitute(q=0)
    kp3 = (k * p3_free
           - (p3_q - p3_free).divide_by_variable("q") * CP6_CONSTRAINT.substitute(q=0))

    t2 = a * a - p1                                     # 2 c_2
    t4 = 8 * a * c + 4 * p2 - t2 * t2                   # 8 c_4
    t5 = 8 * k * (14 - c * c) + k * t2 * t4 + 8 * kp3   # 16 k a c_5
    T = 2 * k * a
    k4a4 = 2 * k ** 4 * a ** 4
    sums = newton_power_sums([T * a, 2 * k * k * a * a * t2, T ** 3 * c,
                              k4a4 * t4, k4a4 * t5, 7 * T ** 6])
    # s_j(c) = s_j(C) / T^j, so row i of Q^-1 s(c) is (adj_i . S) / (det T^6)
    # with S_j = s_j(C) T^(6-j)
    scaled = [s * T ** (6 - j) for j, s in enumerate(sums, 1)]
    adj, det = _q_adjugate(6)
    rows = [_lowest_terms(sum((x * s for x, s in zip(row, scaled)), MPolyZ()),
                          det * (2 * k) ** 6, 6)
            for row in adj]
    return (tuple(num for num, _, _ in rows),
            tuple((den, apow) for _, den, apow in rows))


def symbolic_cp6_numerators():
    """Compute v = Q^-1 C symbolically over Z[a, c, m, n].

    Each entry of v is reduced to lowest terms f_i / (D_i * a).  The facts
    used by the mod-3 existence argument are asserted here: f is the a-free
    part of f_1, it recurs in every f_i with the fixed multiples, and each
    f_i minus its multiple of f is divisible by a.  The first numerator is
    pinned against an independently verified regression value.
    """
    numerators, denominators = _symbolic_cp6_rows()
    f = _a_free_part(numerators[0])
    if f != MPolyZ(_CP6_F_PIN) or numerators[0] != MPolyZ(_CP6_F1_PIN):
        raise ArithmeticError("symbolic numerators drifted from their pinned values")
    for f_i, k in zip(numerators, _CP6_F_MULTIPLES):
        if not (f_i - k * f).divisible_by_variable("a"):
            raise ArithmeticError("numerator minus its multiple of f is not divisible by a")
    return CP6Symbolic(f=f, numerators=tuple(numerators),
                       denominators=tuple(denominators))
