"""Complex and real K-theory of CP^d and the natural maps between them.

K(CP^d) = Z[L]/(L^(d+1)) where L = H - 1 and H is the dual of the canonical
line bundle.  KO(CP^d) = Z[w]/I with w = r(L) and the ideal I depending on
d mod 4; the three cases used here are

    KO(CP^4) = Z[w]/(w^3)
    KO(CP^5) = Z[w]/(2w^3, w^4)    (one 2-torsion generator, w^3)
    KO(CP^6) = Z[w]/(w^4)

Supported maps:

  * t = conjugate:   ring map on K with t(L) = (1+L)^(-1) - 1
  * c = complexify:  ring map KO -> K with c(w) = L + t(L)
  * r = real_reduce: KO-module map K -> KO, solved from c(y) = x + t(x)
        over the torsion-free KO(CP^6) and restricted to d = 4, 5, where r
        is the same map by naturality under CP^d in CP^6
  * adams / adams_ko: Adams operations; on K, psi^k(L) = (1+L)^k - 1, and
        on KO, psi^k(w) = r((L+1)^k - 1)
  * chern_character, total_chern, pontrjagin_total
  Each raises TypeError for an argument from another ring.

pontrjagin_omega_table(d) lists p_i(w^k) for the powers of the generator
w over the torsion-free d = 4, 6: the one builder of the rows that
`acscp table pontrjagin-omega` prints and `verify ktheory` checks against
its golden file.

Total Chern classes come from the integer Chern character: the power sums
s_k = k!*ch_k(x) are read off the cached Stirling table _ch_table(d), and
the inverse Newton recursion cohomology._elementary_from_power_sums turns
them into c_1..c_d in O(d^2) integer steps.  That route, _chern, and the
Pontrjagin route on it, _pontrjagin, take int or MPolyZ coefficients alike,
so acscp.homotopy derives its Pontrjagin polynomials in (m, n, q) from the
same code that evaluates them.  The product of binomial line-bundle factors
stays the independent route, in chernvec.chern_from_multiplicities.

KClass and KOClass take their arithmetic from cohomology._TruncatedRing;
each checks its int coefficients at the constructor, and a result of +, -,
* or ** is built once without that check (KOClass still reduces its
2-torsion coefficient).  The four ring maps t, c, psi^k and psi^k on KO
are table-driven: each names the image of the generator, and _compose reads
the powers of that image from one cached, bounded table (_power_table) and
takes one integer-weighted row sum over it.  That row sum, _combine, is the
one loop behind the maps, real reduction (over the generator table
_r_table) and the Chern character (over _ch_table).  _power_table is also
the one power loop behind those two tables: _ch_table holds the powers of
e^u - 1, and _r_table is solved against the powers of c(w) that complexify
and _pontrjagin read.

The identities r(c(x)) = 2x and c(r(x)) = x + t(x) hold on the nose and are
exercised heavily by the test suite.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .cohomology import (CohClass, exp_series, _elementary_from_power_sums,
                         _mul, _TruncatedRing)
from .exactmath import _check_degree, _require_int, _require_ints


class UnsupportedDimension(ValueError):
    """Operation is only defined for certain truncation dimensions."""


class UnsupportedOperation(ValueError):
    """The requested map is not defined (or not determined) in this ring."""


def _int_coeffs(coeffs, width):
    """coeffs zero-padded to width; TypeError for a coefficient that is not
    an int (or is a bool), ValueError if there are more than width."""
    coeffs = _require_ints("each K-theory coefficient", coeffs)
    if len(coeffs) > width:
        raise ValueError(f"too many coefficients: {len(coeffs)} for width {width}")
    return coeffs + [0] * (width - len(coeffs))


class KClass(_TruncatedRing):
    """Element of Z[L]/(L^(d+1)); coeffs[i] is the coefficient of L^i.

    Raises TypeError unless d is an int, ValueError for d outside 1..32
    (exactmath.DEGREE_MAX), and TypeError for a coefficient that is not an
    int (a bool is refused for both).
    """

    __slots__ = ()
    _gen = "L"

    def __init__(self, d, coeffs):
        _check_degree(d)
        self.d = d
        self.coeffs = tuple(_int_coeffs(coeffs, d + 1))

    @classmethod
    def L(cls, d):
        return cls(d, [0, 1])

    @classmethod
    def H(cls, d):
        return cls(d, [1, 1])


def _ko_width(d):
    # number of stored powers w^0 .. w^s
    if d == 4:
        return 3
    if d in (5, 6):
        return 4
    raise UnsupportedDimension(f"KO(CP^{d}) is not modelled; d must be 4, 5, or 6")


class KOClass(_TruncatedRing):
    """Element of KO(CP^d) for d in {4, 5, 6}.

    coeffs[j] is the coefficient of w^j.  For d = 5 the w^3 coefficient is
    a 2-torsion residue and is stored reduced mod 2.  Raises TypeError
    unless d is an int, ValueError for d outside 1..32, UnsupportedDimension
    for any other d outside {4, 5, 6}, and TypeError for a coefficient that
    is not an int (a bool is refused for both).
    """

    __slots__ = ()
    _gen = "w"
    _width = staticmethod(_ko_width)

    def __init__(self, d, coeffs):
        _check_degree(d)
        self.d = d
        self.coeffs = _torsion_reduced(d, _int_coeffs(coeffs, _ko_width(d)))

    @classmethod
    def _build(cls, d, coeffs):
        return super()._build(d, _torsion_reduced(d, coeffs))

    @classmethod
    def omega(cls, d, power=1):
        return cls._monomial(d, power)


def _require(ring, name, x):
    """TypeError, naming the map and the class of x, unless x is a ring."""
    if not isinstance(x, ring):
        raise TypeError(f"{name} takes a {ring.__name__}, got {type(x).__name__}")


def _torsion_reduced(d, coeffs):
    """KOClass coefficients as a tuple, with the 2-torsion w^3 coefficient
    of KO(CP^5) reduced mod 2."""
    coeffs = tuple(coeffs)
    if d == 5:
        coeffs = coeffs[:3] + (coeffs[3] % 2,)
    return coeffs


# ---------------------------------------------------------------------------
# Conjugation and Adams operations on K
# ---------------------------------------------------------------------------

def _t_of_L(d):
    """t(L) = (1+L)^(-1) - 1 = -L + L^2 - ... in K(CP^d)."""
    return KClass._build(d, [0] + [(-1) ** i for i in range(1, d + 1)])


def conjugate(x):
    """t(x): the ring map with t(L) = (1+L)^(-1) - 1 = -L + L^2 - ..."""
    _require(KClass, "conjugate", x)
    return _compose(x, _t_of_L(x.d))


def adams(k, x):
    """psi^k(x) on K(CP^d): the ring map with psi^k(L) = (1+L)^k - 1.
    TypeError unless k is an int (a bool is refused too), ValueError for
    k < 1."""
    _require(KClass, "adams", x)
    if _require_int("the Adams index k", k) < 1:
        raise ValueError("Adams operations need k >= 1")
    d = x.d
    return _compose(x, KClass._build(d, [comb(k, i) if i else 0 for i in range(d + 1)]))


def _compose(x, image):
    """sum_i x_i image^i: the KClass or KOClass x with its generator replaced
    by image, a KClass or KOClass over the same d, as one row sum over the
    cached powers of image.

    Over KO(CP^5) the powers are taken in Z[w]/(w^4), with the 2-torsion w^3
    coefficient unreduced, and _build reduces the sum once: KO(CP^5) is the
    quotient of that ring by 2w^3, so the class is the same.
    """
    return type(image)._build(x.d, _combine(x.coeffs, _power_table(image)))


@lru_cache(maxsize=64)
def _power_table(image):
    """The coefficient tuples of image^0, image^1, ..., image^top, top the
    highest power the ring of image (a KClass, KOClass or CohClass) stores.
    The cache is bounded, so the tables of adams(k, .) for ever new k do not
    pile up."""
    top = len(image.coeffs) - 1
    rows = [(1,) + (0,) * top]
    for _ in range(top):
        rows.append(tuple(_mul(rows[-1], image.coeffs, top)))
    return tuple(rows)


def _combine(coeffs, table):
    """sum_i coeffs[i] * table[i] over the int rows of a table, as a list
    as long as a row, of ints or, for MPolyZ coefficients, of polynomials:
    the one row sum behind the ring maps (rows from _power_table), r
    (_r_table), the Chern character (_ch_table) and _pontrjagin.  Rows past
    the last coefficient are not read."""
    out = [0] * len(table[0])
    for c, row in zip(coeffs, table):
        if c:
            for j, y in enumerate(row):
                out[j] += c * y
    return out


# ---------------------------------------------------------------------------
# Chern character and total Chern class
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ch_table(d):
    """ch(L^i) = (e^u - 1)^i for i = 0..d, as integer tuples scaled by k!:
    the powers of e^u - 1 from _power_table.

    Entry [i][k] is k! times the u^k coefficient, i.e. i! S(k, i) with S the
    Stirling numbers of the second kind, so it is an integer.
    """
    return tuple(tuple(int(c * factorial(k)) for k, c in enumerate(power))
                 for power in _power_table(exp_series(1, d) - 1))


def chern_character(x):
    """ch(x) in Q[u]/(u^(d+1)): additive extension of ch(L^i) = (e^u - 1)^i.
    A Fraction is built only for a coefficient that is not integral."""
    _require(KClass, "chern_character", x)
    coeffs = []
    for k, s in enumerate(_combine(x.coeffs, _ch_table(x.d))):
        q, r = divmod(s, factorial(k))
        coeffs.append(Fraction(s, factorial(k)) if r else q)
    return CohClass(x.d, coeffs)


def line_multiplicities(x):
    """Expand x over the virtual line-bundle basis: x = sum_j mult[j] (H^j).

    Uses L^i = (H-1)^i = sum_j (-1)^(i-j) C(i,j) H^j.
    """
    _require(KClass, "line_multiplicities", x)
    d = x.d
    mult = [0] * (d + 1)
    for i, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        for j in range(i + 1):
            mult[j] += coef * (-1) ** (i - j) * comb(i, j)
    return mult


def total_chern(x):
    """Total Chern class of a virtual class, multiplicative over sums.

    Over the line bundles H^j, with c(H^j) = 1 + j*u, the power sums of the
    Chern roots are s_k = sum_j mult_j j^k = k!*ch_k(x); the rank part
    contributes nothing for k >= 1.  So c_1..c_d come from the integer
    Chern character by the inverse Newton recursion, in O(d^2) integer steps
    however large the coefficients of x are.  Coefficients are always
    integers.
    """
    _require(KClass, "total_chern", x)
    return CohClass(x.d, [1] + _chern(x.d, x.coeffs))


def _chern(d, coeffs):
    """c_1..c_d of the class sum_i coeffs[i] L^i of K(CP^d), for int or
    MPolyZ coefficients alike: the power sums k!*ch_k, one row sum over
    _ch_table(d), through the inverse Newton recursion.  ArithmeticError
    when a Chern class is not integral (not an integer polynomial)."""
    return _elementary_from_power_sums(_combine(coeffs, _ch_table(d))[1:])


# ---------------------------------------------------------------------------
# Complexification and real reduction
# ---------------------------------------------------------------------------

def _c_of_w(d):
    """c(w) = L + t(L) in K(CP^d), the image that complexify, _r_table and
    _pontrjagin take the powers of."""
    return KClass.L(d) + _t_of_L(d)


def complexify(x):
    """c(x) in K(CP^d): ring map with c(w) = L + t(L).

    For d = 5 the torsion coefficient is handled by c(w^3) = c(w)^3, which
    vanishes in Z[L]/(L^6), so the map is well defined on residues.
    """
    _require(KOClass, "complexify", x)
    return _compose(x, _c_of_w(x.d))


@lru_cache(maxsize=None)
def _r_table(d):
    """r(L^i) for i = 0..d, as KOClass coefficient tuples.

    Over CP^6 KO is torsion-free and c is injective, so the table is solved
    from c(y) = x + t(x).  r is natural under CP^d in CP^6, so the tables of
    d = 4 and 5 are the first d + 1 rows of it restricted through
    KOClass._build: the w^3 coordinate is dropped for d = 4, and reduced
    mod 2, the 2-torsion of KO(CP^5), for d = 5.
    """
    if d in (4, 5):
        return tuple(KOClass._build(d, row[:_ko_width(d)]).coeffs
                     for row in _r_table(6)[:d + 1])
    if d != 6:
        raise UnsupportedDimension(f"real reduction is modelled for d in 4..6, not {d}")
    # c(w^j) has leading term L^(2j), making the system triangular; its
    # coefficients are the powers of c(w) that complexify reads too.
    c_powers = _power_table(_c_of_w(d))
    table = []
    for i in range(d + 1):
        x = KClass(d, [0] * i + [1])
        rem = (x + conjugate(x)).coeffs
        y = []
        for j, power in enumerate(c_powers[:_ko_width(d)]):
            y.append(rem[2 * j])
            rem = [r - y[j] * c for r, c in zip(rem, power)]
        if any(rem):
            raise ArithmeticError(f"r(L^{i}) does not exist in KO(CP^{d})")
        table.append(tuple(y))
    return tuple(table)


def real_reduce(x):
    """r(x) in KO(CP^d): additive extension of the generator table, summed
    as one int list.  Over KO(CP^5) _build reduces the 2-torsion w^3
    coefficient of the sum, which is the sum of the reduced ones."""
    _require(KClass, "real_reduce", x)
    return KOClass._build(x.d, _combine(x.coeffs, _r_table(x.d)))


def adams_ko(k, x):
    """psi^k on KO(CP^d), as the ring map with psi^k(w) = r((L+1)^k - 1).

    Only k = 1, 2, 4 are provided (compose for other powers of two); the
    behaviour of odd k >= 3 on the torsion part of KO(CP^5) is not pinned
    down by the identities used here, so it is refused rather than guessed.
    TypeError unless k is an int (a bool is refused too).
    """
    _require(KOClass, "adams_ko", x)
    _require_int("the Adams index k", k)
    if k == 1:
        return x
    if k not in (2, 4):
        raise UnsupportedOperation(f"psi^{k} on KO(CP^d) is not implemented; use k in (1, 2, 4)")
    return _compose(x, real_reduce(adams(k, KClass.L(x.d))))


def pontrjagin_total(x):
    """Total Pontrjagin class 1 + p_1 u^2 + p_2 u^4 + ... of a KO-class,
    for the torsion-free d = 4, 6 (see _pontrjagin)."""
    _require(KOClass, "pontrjagin_total", x)
    coeffs = [1] + [0] * x.d
    coeffs[2::2] = _pontrjagin(x.d, x.coeffs)
    return CohClass(x.d, coeffs)


def _pontrjagin(d, coeffs):
    """(p_1, ..., p_(d/2)) of the class sum_j coeffs[j] w^j of KO(CP^d), for
    the torsion-free d = 4, 6 and int or MPolyZ coefficients alike.

    p_i = (-1)^i c_(2i) of the complexification, which is one row sum over
    the powers of c(w); its odd Chern classes cancel identically and are
    checked to vanish.
    """
    if d not in (4, 6):
        raise UnsupportedDimension(f"Pontrjagin classes need torsion-free KO; d={d} is not supported")
    c = _chern(d, _combine(coeffs, _power_table(_c_of_w(d))))
    for j in range(1, d + 1, 2):
        if c[j - 1]:
            raise ArithmeticError(f"odd Chern coefficient u^{j} survived complexification")
    return tuple((-1) ** i * c[2 * i - 1] for i in range(1, d // 2 + 1))


def pontrjagin_omega_table(d):
    """The rows (k, i, p_i(w^k)), k and i = 1..d/2, of the Pontrjagin
    classes of the powers of the generator w of KO(CP^d), for the
    torsion-free d = 4, 6: the rows `acscp table pontrjagin-omega` prints
    and `verify ktheory` checks against its golden file.  d is checked as
    by KOClass, and d = 5 raises UnsupportedDimension."""
    w = KOClass(d, [0, 1])
    return [(k, i, p) for k in range(1, d // 2 + 1)
            for i, p in enumerate(_pontrjagin(d, (w ** k).coeffs), 1)]
