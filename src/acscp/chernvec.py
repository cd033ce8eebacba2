"""Chern-vector calculus over CP^d.

The image of the Chern character in Q[u]/(u^(d+1)) is the lattice spanned by
the exponential vectors q_m = 1 + m*u + m^2 u^2/2 + ... for m = 0..d.
Writing a stable class as an integer combination of the reduced q_1..q_d
turns "is this integer tuple a Chern vector?" into exact linear algebra:

    (c_1, ..., c_d) is realizable  iff  Q^(-1) C(c_1..c_d) is integral,

where Q[i][j] = j^i and C is the vector of power sums i!*ch_(2i), obtained
from the c_k by Newton's identities

    s_i = c_1 s_(i-1) - c_2 s_(i-2) + ... + (-1)^(i-1) i c_i.

The integrality test is done in integers, as adj(Q) C == 0 (mod det Q), with
the adjugate and determinant taken from one integer elimination of [Q | I]
(exactmath.adjugate) once per d.  The one cached form of Q^-1, _q_rows(d),
keeps each row with its gcd g with det Q divided out, as the pair
(row/g, det/g): (row/g) C == 0 (mod det/g) has the same quotient, and for
d = 6 the moduli drop from 24883200 to 120, 48, 36, 48, 120, 720.  Every
reader of Q^-1 (realizable and its NotRealizable report, the searches and
the symbolic CP^6 rows in acscp.homotopy) goes through that one table.

The recursion is the single source of truth for C.  (A commonly transcribed
closed form of the degree-6 power sum contains "- 2c_3^2 + 3c_3^2" where the
recursion gives "- 2c_2^3 + 3c_3^2"; the regression tests pin the recursion's
version.)
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import mul

from .cohomology import exp_series, _line_product
from .exactmath import _check_degree, _require_int, _require_ints, adjugate


class NotRealizable(ValueError):
    """No K-theory class over CP^d has the requested Chern vector."""

    def __init__(self, chern, solution):
        self.chern = tuple(chern)
        self.solution = list(solution)
        bad = [(i + 1, x) for i, x in enumerate(solution) if x.denominator != 1]
        super().__init__(f"chern vector {self.chern} has non-integral multiplicities {bad}")


def q_vector(m, d):
    """The exponential vector q_m, i.e. ch of a line bundle with c_1 = m*u."""
    return exp_series(m, d)


def w_matrix(d):
    """(d+1)x(d+1) int rows: a row of ones on top and rows j^i below.

    Column j holds the coefficient sequence of q_j against the basis
    1, u, u^2/2, ..., u^d/d!.  det = 1! * 2! * ... * d!.  Raises TypeError
    unless d is an int and ValueError for d < 1 or d > DEGREE_MAX (32).
    """
    _check_degree(d)
    return [[j ** i for j in range(d + 1)] for i in range(d + 1)]


def q_matrix(d):
    """d x d int rows Q[i][j] = j^i for i, j = 1..d (the reduced lattice);
    d is checked as in w_matrix."""
    _check_degree(d)
    return [[j ** i for j in range(1, d + 1)] for i in range(1, d + 1)]


def moment_vector(m, d):
    """b(m) = (1, m, m^2, ..., m^d), as Fractions.  d is checked as in
    w_matrix, then TypeError unless m is an int (a bool is refused too)."""
    _check_degree(d)
    _require_int("m", m)
    return [Fraction(m ** i) for i in range(d + 1)]


def closed_form_w(m, d):
    """The unique solution of W a = b(m), by the closed Vandermonde form.

    Entry k (1-indexed, k = 1..d+1) is
        (-1)^(n-k)/(n-1)! * C(n-1, k-1) * prod_(j != k-1) (m - j)
    with n = d + 1; every entry is an integer for every integer m.  An entry
    is returned as an int when the division by (n-1)! leaves no remainder
    and as a Fraction otherwise, the normal form of CohClass, so a
    non-integral entry (which the identity rules out) would still show.  The
    signed binomials come from a table cached per d, and the products
    leaving out one factor from prefix and suffix products of the m - j.
    Raises TypeError unless m and d are ints, and ValueError for d < 1
    or d > DEGREE_MAX (32).
    """
    _require_int("m", m)
    _check_degree(d)
    n = d + 1
    fact = factorial(d)
    # before[k] = prod_(j < k) (m - j), after[k] = prod_(j > k) (m - j)
    before = [1] * n
    after = [1] * n
    for j in range(1, n):
        before[j] = before[j - 1] * (m - j + 1)
        after[n - 1 - j] = after[n - j] * (m - n + j)
    out = []
    for sign_binom, b, a in zip(_signed_binomials(d), before, after):
        num = sign_binom * b * a
        q, r = divmod(num, fact)
        out.append(Fraction(num, fact) if r else q)
    return out


@lru_cache(maxsize=None)
def _signed_binomials(d):
    """(-1)^(d-k) C(d, k) for k = 0..d."""
    return tuple((-1) ** (d - k) * comb(d, k) for k in range(d + 1))


def newton_power_sums(cs):
    """Power sums s_1..s_len(cs) from elementary-symmetric inputs.

    Generic over any commutative ring whose elements support +, -, and
    multiplication by each other and by ints: ints, Fractions, and the
    integer MPolyZ of the symbolic CP^6 pipeline.
    """
    s = []
    for i in range(1, len(cs) + 1):
        acc = cs[i - 1] * ((-1) ** (i - 1) * i)
        for j in range(1, i):
            term = cs[j - 1] * s[i - j - 1]
            acc = acc + term if j % 2 == 1 else acc - term
        s.append(acc)
    return s


def power_sums_from_chern(chern):
    """Integer power sums i!*ch_(2i) of a class with the given Chern vector.

    Raises TypeError unless every entry is an int (a bool is refused too),
    and ValueError when a non-empty vector breaks the degree rule of
    exactmath._check_degree for its length.
    """
    chern = _require_ints("each Chern coefficient", chern)
    if chern:
        _check_degree(len(chern))
    return newton_power_sums(chern)


@lru_cache(maxsize=None)
def _q_rows(d):
    """Q^-1 for the d x d exponential-lattice matrix, as one pair (row/g,
    det/g) per row of adj(Q), g the gcd of the row and det = det Q: row i of
    Q^-1 s is (row/g) . s / (det/g), and it is an integer iff
    (row/g) . s == 0 (mod det/g)."""
    adj, det = adjugate(q_matrix(d))
    out = []
    for row in adj:
        g = gcd(det, *row)
        out.append((tuple(x // g for x in row), det // g))
    return tuple(out)


def _decompose(sums):
    """Q^-1 s for integer power sums s: the integer tuple adj(Q) s / det Q,
    or None when some row of adj(Q) s is not divisible by det Q."""
    out = []
    for row, det in _q_rows(len(sums)):
        x, r = divmod(sum(map(mul, row, sums)), det)
        if r:
            return None
        out.append(x)
    return tuple(out)


def realizable(chern):
    """Decompose a Chern vector over the exponential basis, or raise.

    Returns the integer multiplicity tuple (a_1, ..., a_d) with Q a = C;
    raises NotRealizable when the exact solution is non-integral, ValueError
    for an empty vector or one longer than exactmath.DEGREE_MAX (checked by
    power_sums_from_chern before any elimination), and TypeError for a
    non-integer entry.
    """
    if len(chern) == 0:
        raise ValueError("a Chern vector needs at least one coefficient")
    s = power_sums_from_chern(chern)
    dec = _decompose(s)
    if dec is None:
        raise NotRealizable(chern, [Fraction(sum(map(mul, row, s)), det)
                                    for row, det in _q_rows(len(s))])
    return dec


def chern_from_multiplicities(mults):
    """Chern vector of sum_k a_k (H^k - 1): coefficients of prod (1+k*u)^(a_k).

    Raises TypeError unless every multiplicity is an int (a bool is refused
    too), and ValueError when a non-empty vector breaks the degree rule of
    exactmath._check_degree for its length.
    """
    mults = _require_ints("each multiplicity", mults)
    if mults:
        _check_degree(len(mults))
    return tuple(_line_product(mults, len(mults))[1:])
