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
# Classes produced from line-bundle factors (1 + j*u)^k have integer
# coefficients throughout, and the searches in acscp.homotopy grind through
# many thousands of them, so the K-theory layer works on plain int lists and
# only wraps the final answer in a CohClass.
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


def _inv_unit_int(xs, d):
    # constant term must be +1 or -1 for an integer inverse
    c0 = xs[0]
    if c0 not in (1, -1):
        raise NonUnit(f"cannot invert integer series with constant term {c0}")
    out = [c0] + [0] * d
    for k in range(1, d + 1):
        out[k] = -c0 * sum(xs[i] * out[k - i] for i in range(1, min(k, len(xs) - 1) + 1))
    return out


def _pow_int(xs, k, d):
    if k < 0:
        xs = _inv_unit_int(xs, d)
        k = -k
    return _power(xs, k, [1] + [0] * d, lambda x, y: _mul(x, y, d))
