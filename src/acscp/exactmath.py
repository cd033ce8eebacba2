"""Exact arithmetic kernel: rational linear algebra, divisor enumeration,
and multivariate integer polynomials.

Everything here is exact.  Scalars are arbitrary-precision rationals
(``fractions.Fraction``), matrices are small and dense, and linear systems
are solved in integers: denominators are cleared row by row, fraction-free
(Bareiss) elimination keeps every entry integral, and back-substitution is
scaled by the last pivot D (which is +-det of the scaled system), so that by
Cramer's rule every D*x_i is an integer and each step is an exact integer
division.  Only the answers x_i = (D*x_i)/D are built as Fractions.

Divisors are expanded from a prime factorization: small primes by trial
division, larger ones split off by Brent-Pollard rho and certified by
deterministic Miller-Rabin on the bases 2..41, which is proven correct below
3 317 044 064 679 887 385 961 981 (Sorenson-Webster 2015).  A cofactor beyond
that bound that tests prime raises ``UnprovenPrime`` instead of returning a
divisor list that might be incomplete.

``MPolyZ`` is a polynomial ring with integer coefficients over the fixed
variable universe ``a, c, m, n, q`` -- the handful of symbols needed by the
divisibility analysis in :mod:`acscp.homotopy`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul


class SingularMatrix(ValueError):
    """The coefficient matrix has determinant zero."""


class DuplicateNodes(ValueError):
    """Vandermonde nodes must be pairwise distinct."""


class IndexOutOfRange(IndexError):
    """Symmetric-polynomial index outside 0..len(values)."""


class ZeroArgument(ValueError):
    """Zero has no finite divisor list."""


class NotDivisible(ValueError):
    """Polynomial is not divisible by the requested variable."""


def _power(base, k, one, mul):
    """base^k for k >= 0 by square-and-multiply, with unit one and product mul."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _is_int(x):
    """The integer test at the package's boundaries: exactly int, so a bool
    (an int subclass) is refused along with floats and Fractions."""
    return type(x) is int


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """A dense matrix of Fractions, stored row-major.

    Sizes here are tiny (at most 9x9), so no attempt is made at sparsity
    or clever pivoting beyond "first nonzero".
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [Fraction(x) for x in entries]
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def is_integral(self):
        return all(x.denominator == 1 for x in self.entries)

    def __mul__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return RatMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _scaled_int_rows(rows):
    """Clear the denominators of int or Fraction rows row by row, returning
    integer rows (and the scale factor applied to each row, needed for
    determinants)."""
    out = []
    scales = []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        scale = lcm(*[q for _, q in ratios])
        out.append([p * (scale // q) for p, q in ratios])
        scales.append(scale)
    return out, scales


def _bareiss(rows, width):
    """Fraction-free elimination in place.  Returns the permutation sign,
    or 0 if the left square block is singular."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri = rows[i]
            rk = rows[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign


def solve_exact(matrix, b):
    """Solve M x = b exactly for square M.  Raises SingularMatrix if det M = 0.

    After Bareiss elimination the last pivot D is +-det of the scaled system,
    so by Cramer's rule D*x is integral, and back-substitution runs in
    integers: y_i = (D*r_(i,n) - sum_(j>i) r_(i,j)*y_j) // r_(i,i) is exact,
    and x_i = y_i / D.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("matrix must be square")
    n = matrix.rows
    if len(b) != n:
        raise ValueError("right-hand side length must equal matrix size")
    rows, _ = _scaled_int_rows([matrix.row(i) + [b[i]] for i in range(n)])
    if _bareiss(rows, n + 1) == 0:
        raise SingularMatrix("matrix has determinant zero")
    D = rows[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        acc = D * ri[n]
        for j in range(i + 1, n):
            acc -= ri[j] * y[j]
        y[i] = acc // ri[i]
    return [Fraction(v, D) for v in y]


def det_exact(matrix):
    """Exact determinant via Bareiss elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("matrix must be square")
    rows, scales = _scaled_int_rows(matrix.to_rows())
    sign = _bareiss(rows, matrix.rows)
    if sign == 0:
        return Fraction(0)
    det = Fraction(sign * rows[-1][-1])
    for s in scales:
        det /= s
    return det


def inverse_exact(matrix):
    """Exact inverse, column by column through solve_exact."""
    n = matrix.rows
    cols = []
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        cols.append(solve_exact(matrix, e))
    return RatMatrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


# ---------------------------------------------------------------------------
# Vandermonde closed form
# ---------------------------------------------------------------------------

def elem_sym(values, q):
    """q-th elementary symmetric polynomial of the values; sigma_0 = 1."""
    if q < 0 or q > len(values):
        raise IndexOutOfRange(f"index {q} outside 0..{len(values)}")
    coeffs = [1] + [0] * q
    for v in values:
        for i in range(min(q, len(coeffs) - 1), 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[q]


def vandermonde_inverse(nodes):
    """Closed-form inverse of the Vandermonde matrix V[i][j] = nodes[i]^j.

    Entry (i, j) is (-1)^(n-1-i) sigma_{n-1-i}(nodes without nodes[j])
    divided by prod_{l != j} (nodes[j] - nodes[l]).
    """
    n = len(nodes)
    if len(set(nodes)) != n:
        raise DuplicateNodes(f"nodes {nodes!r} are not pairwise distinct")
    entries = []
    for i in range(n):
        for j in range(n):
            others = [x for l, x in enumerate(nodes) if l != j]
            denom = 1
            for x in others:
                denom *= nodes[j] - x
            num = (-1) ** (n - 1 - i) * elem_sym(others, n - 1 - i)
            entries.append(Fraction(num, denom))
    return RatMatrix(n, n, entries)


def vandermonde_matrix(nodes):
    """V[i][j] = nodes[i]^j, the matrix inverted by vandermonde_inverse."""
    n = len(nodes)
    return RatMatrix(n, n, [Fraction(x ** j) for x in nodes for j in range(n)])


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin on the prime bases 2..41 is proven correct below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

# Primes below _TRIAL are stripped by trial division, so a cofactor left below
# _TRIAL**2 is prime, and rho only sees odd cofactors with no factor below 1000.
_TRIAL = 1000


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(_TRIAL)

_RHO_BATCH = 128    # rho steps whose differences share one gcd


class UnprovenPrime(ValueError):
    """A cofactor passes Miller-Rabin but lies beyond its proven bound."""


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n > 41.

    Raises UnprovenPrime when n >= _MR_BOUND passes every base, where a pass
    no longer proves primality.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise UnprovenPrime(
            f"{n} passes Miller-Rabin on bases 2..41, which proves primality only "
            f"below {_MR_BOUND}; its divisor list cannot be certified")
    return True


def _rho(n):
    """A proper factor of the odd composite n: Pollard rho with Brent's cycle
    finding and one gcd per _RHO_BATCH steps (Brent 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factor(n):
    """Prime factorization {p: e} of n >= 1, every prime certified."""
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        n = pending.pop()
        if n < _TRIAL * _TRIAL or _is_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            g = _rho(n)
            pending += (g, n // g)
    return factors


def divisors_signed(n):
    """All divisors of n, positive and negative, in ascending order.

    The divisors are expanded from the prime factorization of |n|: trial
    division by the primes below 1000, then Brent-Pollard rho, with every
    prime certified by deterministic Miller-Rabin on the bases 2..41.  That
    test is proven below 3 317 044 064 679 887 385 961 981; a cofactor at or
    above this bound that tests prime raises UnprovenPrime, so a returned
    list is always complete.  Raises TypeError unless n is an int (a bool is
    refused too), and ZeroArgument for 0.
    """
    if not _is_int(n):
        raise TypeError(f"divisors need an integer, got {n!r}")
    if n == 0:
        raise ZeroArgument("zero is divisible by everything")
    pos = [1]
    for p, e in _factor(abs(n)).items():
        pos = [d * p ** k for d in pos for k in range(e + 1)]
    pos.sort()
    return [-d for d in reversed(pos)] + pos


# ---------------------------------------------------------------------------
# Integer multivariate polynomials on the fixed variables a, c, m, n, q
# ---------------------------------------------------------------------------

VARIABLES = ("a", "c", "m", "n", "q")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_EXP = (0,) * _NVARS


def _check_value(name, value):
    if not _is_int(value):
        raise TypeError(f"value of {name} must be an int, got {value!r}")


class MPolyZ:
    """Polynomial with integer coefficients in the variables a, c, m, n, q.

    Terms are a dict mapping exponent 5-tuples to nonzero integers.  Unused
    variables simply carry exponent zero, so every polynomial lives in the
    same ring and arithmetic never needs variable reconciliation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, k):
        return cls({_ZERO_EXP: int(k)})

    @classmethod
    def var(cls, name, power=1, coeff=1):
        if name not in _VAR_INDEX:
            raise KeyError(f"unknown variable {name!r}; universe is {VARIABLES}")
        e = [0] * _NVARS
        e[_VAR_INDEX[name]] = power
        return cls({tuple(e): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = MPolyZ.const(other)
        if not isinstance(other, MPolyZ):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPolyZ(out)

    __radd__ = __add__

    def __neg__(self):
        return MPolyZ({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPolyZ.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MPolyZ({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPolyZ):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPolyZ(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, k, MPolyZ.const(1), mul)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPolyZ.const(other)
        return isinstance(other, MPolyZ) and self.terms == other.terms

    def substitute(self, **values):
        """Substitute integers for some of the variables."""
        out = self
        for name, value in values.items():
            _check_value(name, value)
            idx = _VAR_INDEX[name]
            acc = {}
            for e, c in out.terms.items():
                coeff = c * value ** e[idx]
                enew = e[:idx] + (0,) + e[idx + 1:]
                acc[enew] = acc.get(enew, 0) + coeff
            out = MPolyZ(acc)
        return out

    def evaluate(self, **values):
        """Full evaluation, term by term; every variable appearing must be
        given, and every value must be an int."""
        point = [None] * _NVARS
        for name, value in values.items():
            _check_value(name, value)
            point[_VAR_INDEX[name]] = value
        total = 0
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                if k:
                    if x is None:
                        missing = sorted({VARIABLES[i] for f in self.terms
                                          for i, j in enumerate(f) if j and point[i] is None})
                        raise ValueError(f"unbound variables {missing}")
                    c *= x ** k
            total += c
        return total

    def divisible_by_variable(self, name):
        idx = _VAR_INDEX[name]
        return all(e[idx] >= 1 for e in self.terms)

    def divide_by_variable(self, name):
        """Exact division by one power of a variable."""
        idx = _VAR_INDEX[name]
        out = {}
        for e, c in self.terms.items():
            if e[idx] < 1:
                raise NotDivisible(f"term with exponents {e} lacks a factor of {name}")
            out[e[:idx] + (e[idx] - 1,) + e[idx + 1:]] = c
        return MPolyZ(out)

    def reduce_mod(self, p, fermat_vars=()):
        """Coefficients reduced into [0, p).

        For variables named in fermat_vars, exponents are folded with
        x^p = x (valid on integer points for prime p), so e.g. a^3 -> a
        when p = 3.
        """
        fold = tuple(_VAR_INDEX[v] for v in fermat_vars)
        out = {}
        for e, c in self.terms.items():
            if fold:
                e = tuple((ei - 1) % (p - 1) + 1 if (i in fold and ei > 0) else ei
                          for i, ei in enumerate(e))
            out[e] = (out.get(e, 0) + c) % p
        return MPolyZ(out)

    def content(self):
        """gcd of the absolute coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def divexact(self, k):
        """Exact scalar division; every coefficient must be divisible by k."""
        if any(c % k for c in self.terms.values()):
            raise NotDivisible(f"coefficients are not all divisible by {k}")
        return MPolyZ({e: c // k for e, c in self.terms.items()})

    def coefficient(self, **exps):
        """Coefficient of the monomial with the given exponents (others zero)."""
        e = [0] * _NVARS
        for name, power in exps.items():
            e[_VAR_INDEX[name]] = power
        return self.terms.get(tuple(e), 0)

    def _sorted_terms(self):
        # graded lexicographic, highest first
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            names = [f"{VARIABLES[i]}^{ei}" if ei > 1 else VARIABLES[i]
                     for i, ei in enumerate(e) if ei]
            mono = "*".join(names)
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0]
        first = "-" + first[2:] if first.startswith("- ") else first[2:]
        return " ".join([first] + parts[1:])

    def __repr__(self):
        return f"MPolyZ({self})"


def poly_variables():
    """The five generators (a, c, m, n, q) of the MPolyZ ring."""
    return tuple(MPolyZ.var(name) for name in VARIABLES)
