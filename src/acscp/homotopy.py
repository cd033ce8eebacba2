"""Classification data for homotopy CP^d and the almost-complex-structure
decision procedures.

A smooth manifold with the oriented homotopy type of CP^d (d = 4, 5, 6) has,
up to torsion irrelevant here, stable tangent class T = T(CP^d) + xi in
KO(CP^d), where xi is an integer combination of fixed generators subject to
one constraint:

    d = 4:  xi = m(24w + 98w^2) + n(240w^2),
            4m^2 - 10m - 28n = 0
    d = 5:  xi = m(24w + 98w^2 + 111w^3) + n(240w^2 + 380w^3),
            m even
    d = 6:  xi = m(24w + 98w^2 + 111w^3) + n(240w^2 + 380w^3) + q(504w^3),
            32m^3 - 252m^2 + 301m - 672mn + 1152n + 1488q = 0

(For d = 5, w^3 is 2-torsion, so its coefficient is m mod 2.)  The family
is written once, as _tangent_coeffs, for ints or MPolyZ alike:
tangent_ko_class reads it at the parameters of X, and the MPolyZ constants
CP4_PONTRJAGIN and CP6_PONTRJAGIN (p_1, ..., p_(d/2) of T with n and q
free) are derived from it at import, by the integer K-theory route of
ktheory._pontrjagin run on polynomials.  The constraints are the MPolyZ
constants CP4_CONSTRAINT and CP6_CONSTRAINT, each bound once and read when
called.  The d = 4 constraint is derived at import too: it is the
numerator of (L_2 - 1)/8, the surgery obstruction (sigma - 1)/8 with the
signature sigma = L_2(p_1, p_2) (_signature_condition, on the Newton pair
of acscp.chernvec and acscp.cohomology).  The d = 6 constraint is still
the literal above, with 1152n where the numerator of (L_3 - 1)/8 has
1044n.

The model is derived once per process, and every per-manifold value is
an evaluation of it: HtpyCP evaluates the constraint, pontrjagin_of_X
evaluates the Pontrjagin polynomials at the parameters of X, and each
divisor target evaluates a polynomial derived once from the model.
Every reader of a constraint other than HtpyCP takes it split in the
last parameter v (n for d = 4, q for d = 6) as k v + C, k a nonzero int,
by the one checked split _linear_in: mod31_table, divisor_target_table,
the d = 4 target and the symbolic pipeline;
mod31_table splits each of its per-m lines in n by it too.  The d = 6
divisor target is F / 155 with F the a-free part of the first row of the
symbolic pipeline, which a process derives once per argument, as the
record CP6Symbolic(f, numerators, denominators) (_symbolic_cp6_rows).
The d = 4 target is the a-free part of the c_3 numerator, with n
eliminated through CP4_CONSTRAINT: a pair (k, N), N in Z[m]
(_cp4_target), and divisor_target_cp4 is N(m) / k, N read by
MPolyZ.evaluate.  These two are the caches that read the model, and this
module reads a model polynomial only through the methods of MPolyZ and
_linear_in, never its terms.  Both eliminations, of n there and of q
from p_3 in the pipeline, are one step, _on_constraint.  The d = 5
structure lives once too, as _cp5_e.

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

Each completion is written once.  For d = 4 it is _complete_cp4, which
depends on a^2 except for c_3 = num_3 / (2a), so v(-a) = (-a, c_2, -c_3, 5)
and the test 2|a| | num_3 depends on |a| only.  Both routes of the search,
the positive divisors of the target and the odd k of the cross-check
window, run one step per positive k (_cp4_solutions): it completes k once,
runs one Newton recursion and one decomposition, and writes the conjugate
cell -k from them.

Conjugation H -> H^-1 is a ring automorphism of K(CP^d), and an involution.
Negating c_1 (and c_3 when d = 6) negates every odd Chern class, so the
cell -a (or (-a, -c)) has the Chern vector and the power sums of the cell
a (or (a, c)) with entry i multiplied by (-1)^i: those of the conjugate
class.  ch(H^-j - 1) has the power sums (-j)^i, so power sums that
decompose as dec have a flip that decomposes as M dec, where column j of
the integer d x d matrix M = _conjugation(d) holds the multiplicities of
H^-j - 1 over the H^k - 1: the lattice decomposition (_decompose) of its
power sums (-j)^i, taken once per d.  So sum_k k^i M_kj = (-j)^i, this
holds for every vector at once, and the conjugate cell is a solution
exactly when its partner is.  Both searches test the cells with a > 0
only and write each conjugate solution with the decomposition M dec, so
the cost of the conjugate cells follows the solutions found.

For d = 6 the completion is one head per a (_complete_head): c_2,
h_4 = (p_2 - c_2^2)/2 and K = 14 + 2 c_2 h_4 + p_3; and one tail per c
(_complete_tail): c_4 = a c + h_4 and, since num_5 = (K - c^2) + 2a c_2 c,

    c_5 = (K - c^2) / (2a) + c_2 c.

So c_5 is integral exactly when c^2 = K (mod 2a).  The head depends on
a^2 only and the test on |a| and |c| only, so the direct scan runs the
head once per |a| and finds the classes |c| without visiting the rest: a
cached table per even modulus 2|a| groups the odd c < 2|a| by c^2 mod 2|a|,
and the classes are the progressions r, r + 2|a|, ... up to c_max over the
roots r of K.  The tables depend on the modulus alone, so a process builds
each once; a modulus above _ROOT_TABLE_MAX gets no table and its odd c are
tested one by one, which bounds the cache whatever the window.  The
conjugate cells (a, c) and (-a, -c) share c_2, c_4 and num_5, so
v(-a, -c)_i = (-1)^i v(a, c)_i.  The scan writes the per-cell arithmetic
of the tail and the conjugate vector out inline, on its hot path.

The scan does not run Newton's identities per cell.  Fix a, so that c_2
and h_4 are fixed, and read v = (a, c_2, c, a c + h_4, c_5, 7) as a
function of (c, c_5).  The power sum s_i is a sum of monomials
e_(k_1) ... e_(k_r) with k_1 + ... + k_r = i <= 6, e_k of weight k.  Only
e_3 = c and e_4 = a c + h_4 depend on c, and a monomial holds at most two
of them, both e_3 (3 + 3 = 6, while 3 + 4 and 4 + 4 exceed 6), so s_i has
degree at most 2 in c.  e_5 = c_5 enters only as 5 e_5 in s_5 and 6 e_1 e_5
in s_6.  So s = A c^2 + B c + G + D c_5 entry by entry, with integer
vectors that depend on a only, and Newton's identities
s_i = e_1 s_(i-1) - e_2 s_(i-2) + ... + (-1)^(i-1) i e_i give all but G
in closed form.  The only c-term below s_5 is 3c in s_3 (in s_4 the terms
3ac from e_1 s_3, ac from e_3 s_1 and -4ac from -4 e_4 cancel).
s_5 = ... - c_2 s_3 + c s_2 - e_4 s_1 + 5 c_5 adds -3c_2 c + c (a^2 - 2c_2)
- a^2 c = -5c_2 c and 5 c_5.  s_6 collects 3c^2 from c s_3, the c-terms
-5a c_2 c + c (a^3 - 3a c_2) - a c (a^2 - 2c_2) = -6a c_2 c from e_1 s_5,
e_3 s_3 and -e_4 s_2, and 6a c_5 (5a c_5 from e_1 s_5, a c_5 from
e_5 s_1).  So

    A = (0, 0, 0, 0, 0, 3),      B = (0, 0, 3, 0, -5c_2, -6a c_2),
    D = (0, 0, 0, 0, 5, 6a),     G = s at (c, c_5) = (0, 0),

and for every reduced adjugate row (row, det) = ((r_1, ..., r_6), det) of
acscp.chernvec

    row . s = alpha c^2 + beta c + gamma + delta c_5,

    alpha = 3 r_6,  delta = 5 r_5 + 6a r_6,  beta = 3 r_3 - c_2 delta,
    gamma = row . G.

G is one Newton recursion, at v = (a, c_2, 0, h_4, 0, 7), and each row's
form is one dot product and a few products.

The cells (a, +-c) of one |a| are then decomposed row by row with the rows
of _q_rows(6) in reverse order, so the 720 row, the last of _q_rows, comes
first.  On seeded admissible triples it passes exactly the solutions,
where the first row of _q_rows (mod 120) passes about half the cells, so
most cells are tested once.  Each cell left is tested by
(alpha c^2 + beta c + gamma + delta c_5) % det and keeps its quotient, and
the side stops at the first row that no cell passes.  The quotients, read
back in reverse, are the decomposition dec.  The Chern vectors are built
only for the cells that passed every row, and their conjugates (-a, -+c)
take M dec.  So the scan costs one Newton recursion per |a| with a class,
one remainder per cell and row reached, rows beyond the first only for the
|a| that still have a cell, and one product by M per solution.

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
s_i(c) = s_i(C) / T^i, and row i of Q^-1 s is sum_j r_j s_j(C) T^(6-j)
over det T^6, with (r, det) the reduced row i of _q_rows(6), the one cached
form of Q^-1 in acscp.chernvec.  Each row is brought to lowest terms once,
at the end.

For d = 5 real K-theory has 2-torsion and the Chern-vector correspondence is
unavailable; instead an explicit K-theory class with the right real
reduction and top Chern class 6u^5 is constructed, which settles existence
for every (m, n): symbolic_verify_cp5 runs the Chern route of total_chern
on its coefficients as polynomials in (m, n).

The records HtpyCP, ACSSolution, CP5Report and CP6Symbolic are named tuples:
they unpack, sort and equal the plain tuple of their fields.  HtpyCP checks
its parameters in __new__, which _make, _replace, copy and pickle all reach.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from operator import mul

from .chernvec import _decompose, _q_rows, newton_power_sums
from .cohomology import _elementary_from_power_sums
from .exactmath import (MPolyZ, NotDivisible, _require_int, _require_ints,
                        divisors_signed, poly_variables)
from .ktheory import (KClass, KOClass, UnsupportedDimension, real_reduce,
                      total_chern, _chern, _ko_width, _pontrjagin)


class ConstraintViolated(ValueError):
    """Parameters fail the classification constraint for this dimension."""


class NoCompletion(ValueError):
    """The degree-by-degree completion produced a non-integral Chern entry."""


class ZeroFirstChern(ValueError):
    """Completion divides by c_1, so a = 0 is inadmissible."""


# ---------------------------------------------------------------------------
# Parameters: the constraints and Pontrjagin classes in (m, n, q)
# ---------------------------------------------------------------------------

def _tangent_coeffs(d, m, n, q=0):
    """The w^j coefficients of the reduced stable tangent class T(CP^d) + xi
    (see the module docstring), for ints or MPolyZ alike.  KOClass reduces
    the 2-torsion w^3 coefficient 111m + 380n of d = 5 to m mod 2."""
    return [0, d + 1 + 24 * m, 98 * m + 240 * n, 111 * m + 380 * n + 504 * q][:_ko_width(d)]


_, _, _m, _n, _q = poly_variables()

# log(sqrt(x)/tanh(sqrt(x))) = sum_j a_j x^j, the log of the characteristic
# series of L, with a_j = 2^(2j) (2^(2j) - 2) B_(2j) / (2j (2j)!)
_L_LOG = (Fraction(1, 3), Fraction(-7, 90), Fraction(62, 2835))


def _signature_condition(pontrjagin):
    """The numerator of (L_k - 1)/8 in lowest terms, k = len(pontrjagin),
    the surgery obstruction (sigma - 1)/8 of a homotopy CP^(2k) with these
    Pontrjagin classes, which vanishes on the model.

    L = exp(sum_j a_j s_j), s_j the power sums of the Pontrjagin roots
    (newton_power_sums), and the series exp(sum_j b_j t^j) has the
    elementary classes of the power sums (-1)^(j-1) j b_j
    (_elementary_from_power_sums).  With D the lcm of the denominators of
    _L_LOG those sums, scaled by D^j, are integral and e_k = D^k L_k.
    UnsupportedDimension unless 1 <= k <= 3.
    """
    k = len(pontrjagin)
    if not 0 < k <= len(_L_LOG):
        raise UnsupportedDimension(f"the signature condition needs 1 to 3 Pontrjagin classes, not {k}")
    D = lcm(*(a.denominator for a in _L_LOG))
    sums = [s * int((-1) ** (j - 1) * j * a * D ** j)
            for j, (a, s) in enumerate(zip(_L_LOG, newton_power_sums(pontrjagin)), 1)]
    N = _elementary_from_power_sums(sums)[-1] - D ** k
    return N.divexact(gcd(N.content(), 8 * D ** k))


CP4_PONTRJAGIN = _pontrjagin(4, _tangent_coeffs(4, _m, _n))
CP4_CONSTRAINT = _signature_condition(CP4_PONTRJAGIN)

CP6_CONSTRAINT = (32 * _m ** 3 - 252 * _m ** 2 + 301 * _m - 672 * _m * _n
                  + 1152 * _n + 1488 * _q)
CP6_PONTRJAGIN = _pontrjagin(6, _tangent_coeffs(6, _m, _n, _q))


def _linear_in(poly, var):
    """(k, C) with poly = k var + C, k a nonzero int and C free of var: the
    one split of a model polynomial in its last parameter.  ArithmeticError
    naming var when poly is not of that form."""
    k, free = poly.coefficient(**{var: 1}), poly.substitute(**{var: 0})
    if not k or poly - free != MPolyZ.var(var, coeff=k):
        raise ArithmeticError(f"{poly} is not linear in {var} with a nonzero constant coefficient")
    return k, free


def _on_constraint(poly, constraint, var):
    """(k, k poly with var eliminated): with poly = g var + G and
    constraint = k var + C (_linear_in), k poly = k G - g C on the
    constraint."""
    g, free = _linear_in(poly, var)
    k, c_free = _linear_in(constraint, var)
    return k, k * free - g * c_free


class HtpyCP(namedtuple("HtpyCP", "d m n q")):
    """A homotopy CP^d, identified by its classification parameters, which
    every construction checks: _replace, _make, copy and pickle too."""

    __slots__ = ()

    def __new__(cls, d, m, n, q=None):
        _require_ints("each of d, m, n, q", (d, m, n) if q is None else (d, m, n, q))
        if d not in (4, 5, 6):
            raise UnsupportedDimension(f"d must be 4, 5, or 6, not {d}")
        if d == 6 and q is None:
            raise ConstraintViolated("d=6 needs a third parameter q")
        if d != 6 and q is not None:
            raise ConstraintViolated(f"d={d} takes parameters (m, n) only")
        if d == 5 and m % 2 != 0:
            raise ConstraintViolated(f"m = {m} must be even")
        self = super().__new__(cls, d, m, n, q)
        if d != 5:
            constraint = CP4_CONSTRAINT if d == 4 else CP6_CONSTRAINT
            lhs = constraint.evaluate(**dict(zip("mnq", self.params())))
            if lhs != 0:
                raise ConstraintViolated(f"{constraint} = {lhs} != 0")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def params(self):
        return (self.m, self.n) if self.q is None else (self.m, self.n, self.q)


def validate_params(d, m, n, q=None):
    """Construct a HtpyCP, raising ConstraintViolated with the failing equation
    and TypeError for a parameter that is not an int (or is a bool)."""
    return HtpyCP(d, m, n, q)


def tangent_ko_class(X):
    """Reduced stable tangent class in KO(CP^d)."""
    return KOClass(X.d, _tangent_coeffs(X.d, *X.params()))


def pontrjagin_of_X(X):
    """Coefficients (p_1, ..., p_(d/2)) with p_i(X) = p_i u^(2i):
    CP4_PONTRJAGIN or CP6_PONTRJAGIN, the classes of the tangent KO-class
    derived once at import, evaluated at the parameters of X.
    UnsupportedDimension for d = 5."""
    if X.d == 5:
        raise UnsupportedDimension("Pontrjagin classes need torsion-free KO; d=5 is not supported")
    point = dict(zip("mnq", X.params()))
    return tuple(p.evaluate(**point) for p in (CP4_PONTRJAGIN if X.d == 4 else CP6_PONTRJAGIN))


# ---------------------------------------------------------------------------
# Chern-vector completion (d = 4, 6)
# ---------------------------------------------------------------------------

def _complete_cp4(p, a):
    """The d = 4 completion (a, c_2, c_3, 5), c_2 = (a^2 - p_1)/2 and
    c_3 = (10 + c_2^2 - p_2) / (2a), or None when either is not integral."""
    t = a * a - p[0]
    if t % 2:
        return None
    c2 = t // 2
    num3 = 10 + c2 * c2 - p[1]
    if num3 % (2 * a):
        return None
    return (a, c2, num3 // (2 * a), 5)


def _complete_head(p, a):
    """The per-a part of the d = 6 completion: (c_2, h_4, K) with
    c_2 = (a^2 - p_1)/2, h_4 = (p_2 - c_2^2)/2 and K = 14 + 2 c_2 h_4 + p_3,
    or None when c_2 or h_4 is not integral."""
    t = a * a - p[0]
    if t % 2:
        return None
    c2 = t // 2
    t4 = p[1] - c2 * c2
    if t4 % 2:
        return None
    h4 = t4 // 2
    return c2, h4, 14 + 2 * c2 * h4 + p[2]


def _complete_tail(a, head, c):
    """The per-c part of the d = 6 completion from head = (c_2, h_4, K):
    c_4 = a c + h_4 and c_5 = (K - c^2)/(2a) + c_2 c, or None when c_5 is
    not integral."""
    c2, h4, K = head
    num = K - c * c
    if num % (2 * a):
        return None
    return (a, c2, c, a * c + h4, num // (2 * a) + c2 * c, 7)


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
    _require_int("a", a)
    if c is not None:
        _require_int("c", c)
    if a == 0:
        raise ZeroFirstChern("completion divides by c_1; a must be nonzero")
    if d == 6 and c is None:
        raise ValueError("d = 6 needs the c_3 coefficient c")
    if d == 4 and c is not None:
        raise ValueError("d = 4 determines c_3; do not pass c")
    p = pontrjagin_of_X(X)
    if d == 4:
        v = _complete_cp4(p, a)
    else:
        head = _complete_head(p, a)
        v = head and _complete_tail(a, head, c)
    if v is None:
        raise NoCompletion(f"no integral completion for a={a}" + (f", c={c}" if d == 6 else ""))
    return v


class ACSSolution(namedtuple("ACSSolution", "d a c full_chern decomposition")):
    """One almost complex structure: its Chern vector and decomposition."""

    __slots__ = ()


# The largest search windows accepted: the cross-check window |a| <= w of
# acs_search_cp4, and the area a_max * c_max of acs_search_cp6.  At either
# limit `acscp acs` runs about a second on a 2-vCPU VM; for d = 6 the worst
# shape is a_max = 1, where every odd c is a class and about a sixth of the
# cells are solutions, and a square window costs far less.  The window
# |m| <= m_max of divisor_target_table is bounded the same way: 142857 rows,
# about a second.
CP4_WINDOW_MAX = 4_000_000
CP6_WINDOW_AREA_MAX = 100_000
DIVISOR_TARGETS_M_MAX = 500_000


def _check_window(name, value, limit, least=1):
    """Refuse a search window that is not an int (or is a bool) with
    TypeError, and one below least or above limit with ValueError."""
    if _require_int(name, value) < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if value > limit:
        raise ValueError(f"{name} must be at most {limit}, got {value}")


@cache
def _conjugation(d):
    """The d x d integer matrix M, as a tuple of rows, that takes the
    decomposition dec of power sums s over the q_k (acscp.chernvec) to that
    of their flip (-1)^i s_i: column j holds the multiplicities of
    H^-j - 1, the conjugate of H^j - 1, over the H^k - 1, k = 1..d.

    ch(H^-j - 1) has the power sums (-j)^i, so with Q[i][j] = j^i and
    Q(-1)[i][j] = (-j)^i, s = Q dec gives flip(s) = Q(-1) dec, and
    M = Q^-1 Q(-1) makes M dec the decomposition of flip(s), integral
    whenever dec is.  Column j is the lattice decomposition of (-j)^i;
    ArithmeticError if one leaves the lattice."""
    cols = [_decompose([(-j) ** i for i in range(1, d + 1)]) for j in range(1, d + 1)]
    if None in cols:
        raise ArithmeticError(f"the conjugate of H^{cols.index(None) + 1} - 1 in K(CP^{d})"
                              " leaves the exponential lattice")
    return tuple(zip(*cols))


def _signed_odds(n):
    """The odd integers a with 1 <= |a| <= n."""
    odds = list(range(1, n + 1, 2))
    return odds + [-a for a in odds]


# ---------------------------------------------------------------------------
# d = 4: divisor criterion vs direct scan
# ---------------------------------------------------------------------------

@cache
def _cp4_target():
    """(k, N): the d = 4 divisor target is N(m) / k, with N in Z[m],
    derived from CP4_PONTRJAGIN and CP4_CONSTRAINT.

    4 num_3 = 40 + (a^2 - p_1)^2 - 4 p_2 (see _complete_cp4) has the a-free
    part G = 40 + p_1^2 - 4 p_2 = g n + G_0(m), and on the constraint
    k n + C(m) = 0 that is N / k with N = k G_0 - g C (_on_constraint).
    _linear_in leaves G_0 and C free of n, so N is a polynomial in m alone.
    ArithmeticError when G or the constraint is not linear in n."""
    p1, p2 = CP4_PONTRJAGIN
    return _on_constraint(40 + p1 * p1 - 4 * p2, CP4_CONSTRAINT, "n")


def divisor_target_cp4(m):
    """The integer whose divisors are the admissible c_1 coefficients,
    N(m) / k with (k, N) = _cp4_target(), N evaluated by MPolyZ.evaluate;
    under the current CP4_CONSTRAINT and CP4_PONTRJAGIN it is
    25 + (3/7)(576 m^2 + 240 m).  TypeError unless m is an int (not a
    bool), ArithmeticError when it is not integral at m."""
    k, num = _cp4_target()
    target, rest = divmod(num.evaluate(m=m), k)
    if rest:
        raise ArithmeticError(f"the d = 4 divisor target is not integral at m={m}")
    return target


def divisor_target_table(m_max):
    """The rows (m, divisor_target_cp4(m)) over the admissible m of the
    d = 4 model with |m| <= m_max, in order of m.  The constraint is
    k n + C(m) (_linear_in), so m is admissible when k | C(m), which
    depends on m mod k only: the admissible residues are found once.
    TypeError unless m_max is an int (not a bool), ValueError unless
    0 <= m_max <= DIVISOR_TARGETS_M_MAX, ArithmeticError when the
    constraint is not linear in n."""
    _check_window("m_max", m_max, DIVISOR_TARGETS_M_MAX, least=0)
    k, free = _linear_in(CP4_CONSTRAINT, "n")
    residues = {r for r in range(abs(k)) if free.evaluate(m=r) % k == 0}
    return [(m, divisor_target_cp4(m)) for m in range(-m_max, m_max + 1)
            if m % abs(k) in residues]


def _cp4_solutions(p, ks):
    """{a: ACSSolution} over a = +-k for the positive odd k in ks whose
    completion exists and decomposes integrally.  Pure integer arithmetic.

    The completion and its test 2|a| | num_3 depend on |a| only, so they run
    once per k, and v(-k) = (-k, c_2, -c_3, 5), written out inline.  The
    cell -k is a solution exactly when k is, with the decomposition M dec,
    M = _conjugation(4), so each k runs one Newton recursion and one
    decomposition."""
    conj = _conjugation(4)
    out = {}
    for k in ks:
        v = _complete_cp4(p, k)
        if v is None:
            continue
        if (dec := _decompose(newton_power_sums(v))) is None:
            continue
        out[k] = ACSSolution(4, k, None, v, dec)
        out[-k] = ACSSolution(4, -k, None, (-k, v[1], -v[2], 5),
                              tuple([sum(map(mul, row, dec)) for row in conj]))
    return out


def acs_search_cp4(X, cross_check_window=200):
    """All almost complex structures on a homotopy CP^4.

    Enumerates a over the signed divisors of the target, completes each
    Chern vector, and keeps the realizable ones, in order of a.  A
    brute-force integrality scan over |a| <= cross_check_window must agree
    with the divisor criterion on that window, or ArithmeticError is raised.
    Both routes run _cp4_solutions, over the positive divisors and over the
    odd k in the window.

    Under the current model the target D = 25 + 3*48*m(12m + 5)/7 never
    vanishes: m(12m + 5) >= 0 for every integer m (both factors share a
    sign, or m = 0), so D >= 25.
    """
    if X.d != 4:
        raise UnsupportedDimension("acs_search_cp4 needs d = 4")
    _check_window("cross_check_window", cross_check_window, CP4_WINDOW_MAX)
    D = divisor_target_cp4(X.m)
    p = pontrjagin_of_X(X)
    sols = _cp4_solutions(p, [k for k in divisors_signed(D) if k > 0])
    direct = _cp4_solutions(p, range(1, cross_check_window + 1, 2))
    from_divisors = {a for a in sols if abs(a) <= cross_check_window}
    if from_divisors != direct.keys():
        raise ArithmeticError(
            f"divisor criterion and direct scan disagree on |a| <= {cross_check_window}: "
            f"{sorted(from_divisors ^ direct.keys())}")
    return [sols[a] for a in sorted(sols)]


# ---------------------------------------------------------------------------
# d = 6: congruence + divisor criterion vs direct scan
# ---------------------------------------------------------------------------

def cp6_exists(X):
    """Whether a homotopy CP^6 admits any almost complex structure.

    Always, decided constructively: (c_1, c_3) = (1, 1) completes to an
    integral Chern vector for every admissible (m, n, q).  With p_1 = 7 + 24m
    the completion gives c_2 = -3 - 12m, which is odd; p_2 is odd as well, so
    t_4 = p_2 - c_2^2 is even; and K - 1 = 13 + 2 c_2 h_4 + p_3 is even
    because p_3 is odd, so c_5 = (K - 1)/2 + c_2 is an integer.  The
    decomposition of the witness is checked exactly, and a failure raises
    ArithmeticError because it would contradict the criterion.

    A mod-3 nonexistence test (no structure when m != 0 mod 3) is sometimes
    quoted for this problem; it descends from the same 228-for-288 slip as
    the variant divisor target (see divisor_target_cp6) and is contradicted
    by the exact computation, e.g. on X(16, 11, 23).
    """
    if X.d != 6:
        raise UnsupportedDimension("cp6_exists needs d = 6")
    head = _complete_head(pontrjagin_of_X(X), 1)
    v = head and _complete_tail(1, head, 1)
    if v is None or _decompose(newton_power_sums(v)) is None:
        raise ArithmeticError(
            f"the witness (a, c) = (1, 1) does not decompose on {X}; this contradicts the criterion")
    return True


def _target_cp6(m, n):
    """The d = 6 divisor target at fixed (m, n) as an MPolyZ in c: F / 155,
    with F the a-free part of the first symbolic numerator, the f of the
    record _symbolic_cp6_rows() derives once from CP6_CONSTRAINT and
    CP6_PONTRJAGIN, evaluated here.  ArithmeticError unless (m, n) meets
    the constraint mod 31."""
    try:
        return _symbolic_cp6_rows().f.substitute(m=m, n=n).divexact(155)
    except NotDivisible:
        raise ArithmeticError(f"target is not integral at (m, n) = ({m}, {n})") from None


def divisor_target_cp6(c, m, n):
    """The integer that c_1 must divide when d = 6, F / 155 with F the f of
    the model's symbolic rows (see _target_cp6); under the current
    CP6_CONSTRAINT and CP6_PONTRJAGIN it is

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
    # the target, derived from the model, must be t0 + t2 c^2 in c (see
    # divisor_target_cp6); read off once
    target_in_c = _target_cp6(X.m, X.n)
    t0, t2 = target_in_c.coefficient(), target_in_c.coefficient(c=2)
    if target_in_c != t0 + MPolyZ.var("c", 2, t2):
        raise ArithmeticError(f"divisor target {target_in_c} is not of the form t0 + t2 c^2")
    out = set()
    for c in _signed_odds(c_max):
        if c % 3 == 0:
            continue
        target = t0 + t2 * c * c
        if target == 0:
            raise ArithmeticError(f"divisor target vanished at c={c}")
        out.update((a, c) for a in paired.get(c % 8, ()) if target % a == 0)
    return out


# the largest modulus 2|c_1| given a cached square-root table: whatever the
# window, the tables hold 16384 roots in all, about 1 MB
_ROOT_TABLE_MAX = 512


@lru_cache(maxsize=None)
def _odd_square_roots(mod):
    """{r: [the odd c < mod with c^2 = r (mod mod)]} for an even modulus."""
    roots = {}
    for c in range(1, mod, 2):
        roots.setdefault(c * c % mod, []).append(c)
    return roots


def _odd_classes(mod, K, c_max):
    """The odd c in [1, c_max] with c^2 = K (mod mod), for an even modulus:
    the progressions r, r + mod, ... over the square roots r of K in the
    table, or the odd c tested one by one when mod has no table."""
    if mod > _ROOT_TABLE_MAX:
        return [c for c in range(1, c_max + 1, 2) if (K - c * c) % mod == 0]
    return [c for r in _odd_square_roots(mod).get(K % mod, ())
            for c in range(r, c_max + 1, mod)]


def _row_quotients(a, c2, G, cells):
    """The cells (c, c^2, c_5) that decompose integrally, each paired with
    its quotient tuple in the order of _q_rows(6), for the power sums
    A c^2 + B c + G + D c_5 at c_1 = a and c_2 = c2 (see the module
    docstring).

    Row by row, over _q_rows(6) in reverse, the 720 row first: the row's
    form is alpha = 3 r_6, delta = 5 r_5 + 6a r_6, beta = 3 r_3 - c_2 delta
    and gamma = row . G, a cell stays while det divides
    alpha c^2 + beta c + gamma + delta c_5 and carries the quotient as one
    more entry, and no further row is formed once no cell is left.  The
    quotients, entries 3 on, are read back in reverse."""
    live = cells
    for row, det in reversed(_q_rows(6)):
        alpha = 3 * row[5]
        delta = 5 * row[4] + 6 * a * row[5]
        beta = 3 * row[2] - c2 * delta
        gamma = sum(map(mul, row, G))
        live = [cell + (x // det,) for cell in live
                if not (x := alpha * cell[1] + beta * cell[0] + gamma + delta * cell[2]) % det]
        if not live:
            return []
    return [(cell[:3], cell[:2:-1]) for cell in live]


def _direct_set_cp6(p, a_max, c_max):
    """{(a, c): ACSSolution} over the odd (a, c) in the window whose
    completion exists and decomposes integrally.  Pure integer arithmetic.

    Per |a|: the head and K (_complete_head), then the classes |c| with
    2|a| | K - c^2 from the square-root table of the modulus 2|a|.  An |a|
    with a class takes G from one Newton recursion, and its cells (a, +-c)
    go row by row through _row_quotients.  A Chern vector is built only for
    a cell that passes every row, and its conjugate cell (-a, -c) takes the
    decomposition M dec, M = _conjugation(6)."""
    conj = _conjugation(6)
    out = {}
    for a in range(1, a_max + 1, 2):
        head = _complete_head(p, a)
        if head is None:
            continue
        c2, h4, K = head
        two_a = 2 * a
        classes = _odd_classes(two_a, K, c_max)
        if not classes:
            continue
        cells = []
        for c in classes:
            cc = c * c
            q5 = (K - cc) // two_a
            cells += ((c, cc, q5 + c2 * c), (-c, cc, q5 - c2 * c))
        G = newton_power_sums((a, c2, 0, h4, 0, 7))
        for (c, _, c5), dec in _row_quotients(a, c2, G, cells):
            out[a, c] = ACSSolution(6, a, c, (a, c2, c, a * c + h4, c5, 7), dec)
            out[-a, -c] = ACSSolution(6, -a, -c, (-a, c2, -c, a * c + h4, -c5, 7),
                                      tuple([sum(map(mul, row, dec)) for row in conj]))
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
    _check_window("a_max", a_max, CP6_WINDOW_AREA_MAX)
    _check_window("c_max", c_max, CP6_WINDOW_AREA_MAX)
    _check_window("a_max * c_max", a_max * c_max, CP6_WINDOW_AREA_MAX)
    crit = _criterion_set_cp6(X, a_max, c_max)
    direct = _direct_set_cp6(pontrjagin_of_X(X), a_max, c_max)
    if crit != direct.keys():
        raise ArithmeticError(
            f"criterion and direct scan disagree on the window: {sorted(crit ^ direct.keys())}")
    return [direct[k] for k in sorted(crit)]


def mod31_table():
    """All residue pairs (m, n) mod 31 allowed by the d = 6 constraint.

    The constraint is k q + C(m, n) (_linear_in), and k = 1488 is 0 mod 31,
    so each m = 0..30 is substituted once into C, the line is split as
    k1 n + k0 by _linear_in, and the 31 values of n are tested in integers.
    Exactly one n for every m except m = 15, which admits none.
    ArithmeticError when 31 does not divide k, or when a line is not linear
    in n: that split also refuses a model whose n coefficient vanishes at
    some m in 0..30, which cannot happen under the n coefficient 1152 - 672m
    (or 1044 - 672m).
    """
    k, q_free = _linear_in(CP6_CONSTRAINT, "q")
    if k % 31:
        raise ArithmeticError(
            f"the mod-31 table needs 31 | {k}, the q coefficient of {CP6_CONSTRAINT}")
    out = []
    for m in range(31):
        k1, line = _linear_in(q_free.substitute(m=m), "n")
        k0 = line.evaluate()
        out += [(m, n) for n in range(31) if (k0 + k1 * n) % 31 == 0]
    return out


# ---------------------------------------------------------------------------
# d = 5: explicit stable structure
# ---------------------------------------------------------------------------

class CP5Report(namedtuple("CP5Report", "e reduction tangent euler_coefficient")):
    """The explicit stable structure on a homotopy CP^5 and its checks."""

    __slots__ = ()

    @property
    def reduction_matches(self):
        return self.reduction == self.tangent

    @property
    def euler_matches(self):
        return self.euler_coefficient == 6

    @property
    def ok(self):
        return self.reduction_matches and self.euler_matches


def _cp5_e(m, n):
    """The L^i coefficients of E (see cp5_structure), for ints or for the
    MPolyZ variables of the symbolic check alike."""
    return [0, 6, 12 * m, 80 * n, 43 * m,
            -19 * m - 20 * n - 6 * m * m + 80 * m * n]


def cp5_structure(X):
    """The stable almost complex structure

        E = 6L + 12m L^2 + 80n L^3 + 43m L^4 + (-19m - 20n - 6m^2 + 80mn) L^5

    on a homotopy CP^5, with the verification that r(E) equals the stable
    tangent class (2-torsion coordinate included) and c_5(E) = 6u^5.
    """
    if X.d != 5:
        raise UnsupportedDimension("cp5_structure needs d = 5")
    e = KClass(5, _cp5_e(X.m, X.n))
    return CP5Report(
        e=e,
        reduction=real_reduce(e),
        tangent=tangent_ko_class(X),
        euler_coefficient=total_chern(e).coeff(5),
    )


def symbolic_verify_cp5():
    """Verify symbolically that the top Chern class of the d = 5 structure
    is 6u^5 for every (m, n): c_5 of E, with the L^i coefficients _cp5_e
    taken as polynomials in m and n, is the constant 6.  The Chern classes
    come from the integer route of total_chern run on MPolyZ coefficients,
    so this is an identity of integer polynomials, not a sample;
    ArithmeticError if some c_i is not an integer polynomial."""
    _, _, m, n, _ = poly_variables()
    return _chern(5, _cp5_e(m, n))[4] == 6


# ---------------------------------------------------------------------------
# d = 6 symbolic: the six numerators of Q^-1 C
# ---------------------------------------------------------------------------

class CP6Symbolic(namedtuple("CP6Symbolic", "f numerators denominators")):
    """Numerators and denominators, as (integer, power of a) pairs, of the
    symbolic decomposition vector, and f, the a-free part of the first
    numerator."""

    __slots__ = ()


def _lowest_terms(num, den, apow):
    """num / (den * a^apow), den > 0, in lowest terms: the gcd of the
    content of num and den is cancelled, then a is divided out of num while
    it divides num and apow > 0.  The form is unique, so equal fractions
    give equal (num, den, apow), and a zero num gives (0, 1, 0)."""
    g = gcd(num.content(), den)
    if g > 1:
        num, den = num.divexact(g), den // g
    while apow and num.divisible_by_variable("a"):
        num, apow = num.divide_by_variable("a"), apow - 1
    return num, den, apow


@cache
def _symbolic_cp6_rows(p2_m2_coefficient=None):
    """Push the d = 6 completion through Newton's identities and Q^-1 over
    Z[a, c, m, n], with q eliminated through the constraint.

    Works on the integer polynomials C_i = T^i c_i, T = 2ka (see the module
    docstring), and returns the record CP6Symbolic(f, numerators,
    denominators) with each row in lowest terms f_i / (den * a^apow) and f
    the a-free part of the first numerator.  The m^2 coefficient of the
    degree-4 Pontrjagin input is that of CP6_PONTRJAGIN unless
    p2_m2_coefficient replaces it, so the regression tests can demonstrate
    how a transcribed 228 (for 288) propagates downstream.  Cached: a
    process derives the rows of each argument once, and a test that patches
    the model clears the cache.
    """
    a, c, m, _, _ = poly_variables()

    p1, p2, p3 = CP6_PONTRJAGIN
    if p2_m2_coefficient is not None:
        p2 = p2 + (p2_m2_coefficient - p2.coefficient(m=2)) * m * m
    # eliminate q, which appears linearly in the constraint, as k p_3
    k, kp3 = _on_constraint(p3, CP6_CONSTRAINT, "q")

    t2 = a * a - p1                                     # 2 c_2
    t4 = 8 * a * c + 4 * p2 - t2 * t2                   # 8 c_4
    t5 = 8 * k * (14 - c * c) + k * t2 * t4 + 8 * kp3   # 16 k a c_5
    T = 2 * k * a
    k4a4 = 2 * k ** 4 * a ** 4
    sums = newton_power_sums([T * a, 2 * k * k * a * a * t2, T ** 3 * c,
                              k4a4 * t4, k4a4 * t5, 7 * T ** 6])
    # s_j(c) = s_j(C) / T^j, so row i of Q^-1 s(c) is (row . S) / (det T^6)
    # with S_j = s_j(C) T^(6-j), for (row, det) the reduced row i of Q^-1
    scaled = [s * T ** (6 - j) for j, s in enumerate(sums, 1)]
    rows = [_lowest_terms(sum((x * s for x, s in zip(row, scaled)), MPolyZ()),
                          det * (2 * k) ** 6, 6)
            for row, det in _q_rows(6)]
    return CP6Symbolic(rows[0][0].substitute(a=0),
                       tuple(num for num, _, _ in rows),
                       tuple((den, apow) for _, den, apow in rows))


def _multiple_of(g, f):
    """The integer k for which g - k f is divisible by a, i.e. the a-free
    part g0 of g is k f, for a nonzero a-free MPolyZ f; None when there is
    no such k.  |k| is the content of g0 over that of f."""
    g0 = g.substitute(a=0)
    k = g0.content() // f.content()
    return next((s for s in (k, -k) if g0 == s * f), None)


def symbolic_cp6_numerators():
    """Compute v = Q^-1 C symbolically over Z[a, c, m, n].

    Each entry of v is reduced to lowest terms f_i / (D_i * a), and f is
    the a-free part of f_1, as the cached record of _symbolic_cp6_rows()
    carries them.  The fact used by the mod-3 existence argument is asserted
    here on that record: the a-free part of every f_i is an integer multiple
    k_i f, i.e. f_i - k_i f is divisible by a; ArithmeticError otherwise.
    Under the current model the multiples are (1, -19, 3, -17, 1, -1); the
    tests pin them and f_1.  Each call returns a fresh record.
    """
    sym = _symbolic_cp6_rows()
    if sym.f.is_zero():
        raise ArithmeticError("the a-free part of the first numerator vanishes")
    for i, f_i in enumerate(sym.numerators, 1):
        if _multiple_of(f_i, sym.f) is None:
            raise ArithmeticError(f"the a-free part of numerator {i} is not an integer multiple of f")
    return CP6Symbolic(*sym)
