"""The truncated polynomial ring Q[u]/(u^(d+1)).

This is the rational cohomology of complex projective d-space, with u the
degree-2 generator.  Chern, Pontrjagin, and Euler classes all live here as
CohClass values; multiplication truncates above u^d.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exactmath import _power


class DimensionMismatch(ValueError):
    """Operands live over different truncation dimensions."""


class NonUnit(ValueError):
    """Constant term is zero, so no multiplicative inverse exists."""


class CohClass:
    """Element of Q[u]/(u^(d+1)): coeffs[i] is the coefficient of u^i."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        if len(coeffs) != d + 1:
            raise ValueError(f"need {d + 1} coefficients for dimension {d}")
        self.d = d
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, d):
        return cls(d, [0] * (d + 1))

    @classmethod
    def one(cls, d):
        return cls(d, [1] + [0] * d)

    @classmethod
    def u(cls, d, power=1):
        coeffs = [0] * (d + 1)
        if power <= d:
            coeffs[power] = 1
        return cls(d, coeffs)

    def _check(self, other):
        if self.d != other.d:
            raise DimensionMismatch(f"dimension {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CohClass(self.d, [other] + [0] * self.d)
        self._check(other)
        return CohClass(self.d, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CohClass(self.d, [-x for x in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CohClass(self.d, [other] + [0] * self.d)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CohClass(self.d, [x * other for x in self.coeffs])
        self._check(other)
        return CohClass(self.d, _mul(self.coeffs, other.coeffs, self.d))

    __rmul__ = __mul__

    def invert_unit(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise NonUnit("constant term is zero")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.d
        for k in range(1, self.d + 1):
            out[k] = -inv0 * sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
        return CohClass(self.d, out)

    def __pow__(self, k):
        base = self
        if k < 0:
            base = self.invert_unit()
            k = -k
        return _power(base, k, CohClass.one(self.d), mul)

    def coeff(self, i):
        return self.coeffs[i]

    def is_integral(self):
        return all(x.denominator == 1 for x in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CohClass) and self.d == other.d
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        parts = []
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            if i == 0:
                parts.append(str(x))
            else:
                mono = "u" if i == 1 else f"u^{i}"
                parts.append(mono if x == 1 else f"({x})*{mono}")
        return " + ".join(parts) if parts else "0"


def exp_series(t, d):
    """sum_{i<=d} t^i u^i / i! -- the exponential of t*u, truncated."""
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
# does not grow with |k|.
# ---------------------------------------------------------------------------

def _mul(xs, ys, d):
    out = [0] * (d + 1)
    for i, x in enumerate(xs):
        if x == 0:
            continue
        for j in range(min(d - i, len(ys) - 1) + 1):
            y = ys[j]
            if y:
                out[i + j] += x * y
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
    as an int list: one _line_pow factor per nonzero multiplicity."""
    series = [1] + [0] * d
    for j, k in enumerate(mults, start=1):
        if k:
            series = _mul(series, _line_pow(j, k, d), d)
    return series
