"""Truncated polynomial rings, and Q[u]/(u^(d+1)) in particular.

_TruncatedRing holds the arithmetic that the three rings of the package
share: sums, negation, scalar and ring products truncated at the ring's
width, square-and-multiply powers, equality, hashing and the printed form.
Operands are checked once, at the operation; its result is built once from
the computed coefficients, without checking them again (_build), and powers
are squared as raw coefficient lists.
CohClass is the rational cohomology of complex projective d-space, with u
the degree-2 generator; Chern, Pontrjagin and Euler classes all live there.
acscp.ktheory builds KClass and KOClass on the same base.

A CohClass keeps its coefficients in a normal form: an int when the value
is integral and a Fraction otherwise.  Integral classes (Chern and
Pontrjagin classes above all) are then plain int arithmetic, while
equality, hashing and the printed form are those of the rational values.

The raw helpers at the end work on plain lists: _line_product is the
product of line-bundle factors (1 + j*u)^k over ints, and
_elementary_from_power_sums is the inverse of chernvec.newton_power_sums,
the integer recursion that takes the power sums k!*ch_k of a class to its
Chern classes, over ints or integer polynomials (MPolyZ) alike.
"""

from fractions import Fraction
from operator import add, neg, sub

from .exactmath import _check_degree, _power, _require_int, _require_rational


class DimensionMismatch(ValueError):
    """Operands live over different truncation dimensions."""


class NonUnit(ValueError):
    """Constant term is zero, so no multiplicative inverse exists."""


class _TruncatedRing:
    """coeffs[i] is the coefficient of gen^i for i below the ring's width;
    products drop every power from the width on.

    A subclass supplies __init__, which checks and normalises the
    coefficients at the boundary to exactly _width(d) of them, its scalar
    types, its generator name and the format of a scaled monomial.  Sums and
    products of two elements need the same class (TypeError otherwise) and
    the same d (DimensionMismatch).  A scalar is one whose exact type is in
    _scalars, so a bool is refused.

    Each result of +, -, scalar and ring * and ** is built once, by _build,
    from coefficients computed out of checked ones, so the checks of __init__
    are not run again: ints in give ints out.  A subclass overrides _build
    only for what a computed list still needs (the reduced 2-torsion
    coefficient of KOClass, the int/Fraction normal form of CohClass).
    """

    __slots__ = ("d", "coeffs")
    _scalars = (int,)
    _term = "{}*{}"

    @staticmethod
    def _width(d):
        return d + 1

    @classmethod
    def _build(cls, d, coeffs):
        """The element with these computed coefficients, _width(d) of them,
        without the checks of __init__."""
        self = object.__new__(cls)
        self.d = d
        self.coeffs = tuple(coeffs)
        return self

    @classmethod
    def _monomial(cls, d, power=0, coeff=1):
        """coeff * gen^power for an int power, zero from the width on;
        ValueError for a negative power.  d is checked before the width is
        read, so a huge d allocates nothing and KOClass meets the degree
        rule before its own."""
        _check_degree(d)
        if _require_int("the power", power) < 0:
            raise ValueError(f"negative powers are not defined in this ring, got power {power}")
        coeffs = [0] * cls._width(d)
        if power < len(coeffs):
            coeffs[power] = coeff
        return cls(d, coeffs)

    @classmethod
    def zero(cls, d):
        return cls._monomial(d, 0, 0)

    @classmethod
    def one(cls, d):
        return cls._monomial(d)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.d != other.d:
            raise DimensionMismatch(f"dimension {self.d} vs {other.d}")

    def __add__(self, other):
        if type(other) in self._scalars:
            return self._build(self.d, (self.coeffs[0] + other,) + self.coeffs[1:])
        self._check(other)
        return self._build(self.d, map(add, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._build(self.d, map(neg, self.coeffs))

    def __sub__(self, other):
        if type(other) in self._scalars:
            return self._build(self.d, (self.coeffs[0] - other,) + self.coeffs[1:])
        self._check(other)
        return self._build(self.d, map(sub, self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in self._scalars:
            return self._build(self.d, [x * other for x in self.coeffs])
        self._check(other)
        return self._build(self.d, _mul(self.coeffs, other.coeffs, len(self.coeffs) - 1))

    __rmul__ = __mul__

    def __pow__(self, k):
        """Square-and-multiply on the raw coefficient lists; only the answer
        is built as an element."""
        top = len(self.coeffs) - 1
        one = (1,) + (0,) * top
        return self._build(self.d, _power(self.coeffs, k, one, lambda x, y: _mul(x, y, top)))

    def __eq__(self, other):
        return (type(other) is type(self) and self.d == other.d
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        parts = []
        for i, x in enumerate(self.coeffs):
            if x:
                mono = self._gen if i == 1 else f"{self._gen}^{i}"
                parts.append(str(x) if i == 0 else mono if x == 1 else self._term.format(x, mono))
        return " + ".join(parts) or "0"


class CohClass(_TruncatedRing):
    """Element of Q[u]/(u^(d+1)): coeffs[i] is the coefficient of u^i."""

    __slots__ = ()
    _scalars = (int, Fraction)
    _gen = "u"
    _term = "({})*{}"

    def __init__(self, d, coeffs):
        """Raises TypeError unless d is an int, ValueError for d outside
        1..32 (exactmath.DEGREE_MAX) or unless there are d + 1
        coefficients, and TypeError for one that is not an int or a
        Fraction (a bool is refused for d and coefficients alike)."""
        _check_degree(d)
        coeffs = tuple(coeffs)
        if len(coeffs) != d + 1:
            raise ValueError(f"need {d + 1} coefficients for dimension {d}")
        self.d = d
        self.coeffs = _normal_form(coeffs)

    @classmethod
    def _build(cls, d, coeffs):
        return super()._build(d, _normal_form(coeffs))

    @classmethod
    def u(cls, d, power=1):
        return cls._monomial(d, power)

    def invert_unit(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise NonUnit("constant term is zero")
        # from Fraction(1): 1 / c over int coefficients would be a float
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [0] * self.d
        for k in range(1, self.d + 1):
            out[k] = -inv0 * sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
        return CohClass._build(self.d, out)

    def __pow__(self, k):
        if _require_int("the exponent", k) < 0:
            return self.invert_unit() ** -k
        return super().__pow__(k)

    def coeff(self, i):
        return self.coeffs[i]

    def is_integral(self):
        return all(type(x) is int for x in self.coeffs)


def _normal_form(coeffs):
    """coeffs as a tuple of normal-form coefficients (see _normal)."""
    coeffs = tuple(coeffs)
    if all(type(x) is int for x in coeffs):
        return coeffs
    return tuple(map(_normal, coeffs))


def _normal(x):
    """A CohClass coefficient in normal form: an integral Fraction becomes
    its int; TypeError unless x is an int or a Fraction (a bool too)."""
    if type(_require_rational("a cohomology coefficient", x)) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def exp_series(t, d):
    """sum_{i<=d} t^i u^i / i! -- the exponential of t*u, truncated.  d is
    checked as in CohClass, and t must be an int or a Fraction."""
    _check_degree(d)
    _require_rational("t", t)
    coeffs = []
    fact = 1
    for i in range(d + 1):
        if i:
            fact *= i
        coeffs.append(Fraction(t ** i, fact))
    return CohClass(d, coeffs)


# ---------------------------------------------------------------------------
# Raw truncated-series helpers over plain lists.
#
# Classes built from line-bundle factors (1 + j*u)^k have integer
# coefficients throughout, and the searches in acscp.homotopy grind through
# many thousands of them, so the K-theory layer works on plain int lists and
# only wraps the final answer in a CohClass.  Each factor comes from its
# binomial closed form (_line_pow), never from repeated products, so its cost
# does not grow with |k|.  _line_product starts from its first factor, so n
# factors take n - 1 products, and passes each later factor as the outer
# operand of _mul, which skips its zero entries: (1 + j*u)^k with 0 < k < d
# is zero above u^k.  ktheory.total_chern takes the other route, from
# the integer power sums through _elementary_from_power_sums, so the two
# can be checked against each other.
# ---------------------------------------------------------------------------

def _mul(xs, ys, d):
    """The product of two coefficient lists, truncated above degree d, as a
    list of d + 1 entries; xs has at most d + 1 entries."""
    out = [0] * (d + 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys[:d + 1 - i], i):
                out[j] += x * y
    return out


def _line_pow(j, k, d):
    """(1 + j*u)^k truncated above u^d, for any integer k, as an int list.

    Entry i is C(k, i) j^i, with C the generalized binomial coefficient, by
    b_i = b_(i-1) (k - i + 1) // i * j.  The division is exact because
    b_(i-1) (k - i + 1) = i C(k, i) j^(i-1); once b_i = 0 (0 <= k < i) every
    later entry is 0 too.
    """
    out = [1] + [0] * d
    b = 1
    for i in range(1, d + 1):
        b = b * (k - i + 1) // i * j
        if not b:
            break
        out[i] = b
    return out


def _line_product(mults, d):
    """prod_j (1 + j*u)^(mults[j-1]) over j = 1, 2, ..., truncated above u^d,
    as an int list: one _line_pow factor per nonzero multiplicity, the
    first taken as it is and each later one multiplied in as the outer
    operand of _mul, so n factors cost n - 1 calls of _mul."""
    series = None
    for j, k in enumerate(mults, start=1):
        if k:
            factor = _line_pow(j, k, d)
            series = factor if series is None else _mul(factor, series, d)
    return [1] + [0] * d if series is None else series


def _elementary_from_power_sums(sums):
    """Elementary symmetric e_1..e_d from power sums s_1..s_d, ints or
    MPolyZ alike: the inverse of chernvec.newton_power_sums, by Newton's
    identities solved for e_k,

        k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i,    e_0 = 1.

    With s_k = k!*ch_k(x) this takes a virtual class to its Chern classes in
    O(d^2) integer steps.  Raises ArithmeticError if a division by k is not
    exact (in some coefficient, for an MPolyZ), i.e. the power sums are not
    those of an integral class.
    """
    es = [1]
    for k in range(1, len(sums) + 1):
        acc = 0
        for i in range(1, k + 1):
            term = es[k - i] * sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        e, r = divmod(acc, k)
        if r:
            raise ArithmeticError(f"power sums {sums!r} give a non-integral e_{k} = ({acc})/{k}")
        es.append(e)
    return es[1:]
