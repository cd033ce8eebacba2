"""Exact arithmetic kernel: linear algebra on integer rows, divisor
enumeration, and multivariate integer polynomials.

Everything here is exact.  A matrix is a plain list of rows of ints (or
Fractions, whose denominators are cleared row by row), and one private
routine, _eliminate, does all of its linear algebra: fraction-free (Bareiss)
elimination of [A | B] keeps every entry integral, and back-substitution is
scaled by the last pivot D (which is +-det A), so that by Cramer's rule
every D*x_i is an integer and each step is an exact integer division.
solve_exact is one right-hand-side column of it, inverse_exact and adjugate
one elimination of [M | I], and det_exact the elimination alone.  Only the
answers x_i = (D*x_i)/D of solve_exact and inverse_exact are built as
Fractions; adjugate builds none.

Divisors are expanded from a prime factorization: small primes by trial
division, larger ones split off by Brent-Pollard rho and certified by
deterministic Miller-Rabin on the bases 2..41, which is proven correct below
3 317 044 064 679 887 385 961 981 (Sorenson-Webster 2015).  A cofactor beyond
that bound that tests prime raises ``UnprovenPrime`` instead of returning a
divisor list that might be incomplete.  Rho runs on a fixed budget of steps
per factorization; a cofactor it cannot split within the budget raises
``FactoringBudgetExceeded``, so factoring never hangs.

``MPolyZ`` is a polynomial ring with integer coefficients over the fixed
variable universe ``a, c, m, n, q`` -- the handful of symbols needed by the
divisibility analysis in :mod:`acscp.homotopy`.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import add, mul


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
    """base^k for k >= 0 by square-and-multiply, with unit one and product
    mul.  TypeError unless k is an int (a bool is refused too), ValueError
    for k < 0."""
    _require_int("the exponent", k)
    if k < 0:
        raise ValueError(f"negative powers are not defined in this ring, got exponent {k}")
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


def _require_int(what, x):
    """x, unless it is not exactly an int (a bool is refused too): the one
    integer rule of the package, and with _require_rational the only raise
    of a TypeError for a value of the wrong kind."""
    if not _is_int(x):
        raise TypeError(f"{what} must be an int, got {x!r}")
    return x


def _require_ints(what, xs):
    """xs as a list, under the rule of _require_int for each entry, which
    names the first entry that is not an int."""
    xs = list(xs)
    if not all(map(_is_int, xs)):
        for x in xs:
            _require_int(what, x)
    return xs


def _require_rational(what, x):
    """x, unless it is neither exactly an int nor exactly a Fraction (a bool
    is refused too): the one rational rule of the package."""
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"{what} must be an int or a Fraction, got {x!r}")
    return x


# The largest degree d accepted.  The models need d <= 8, and the cost of
# the lattice routes grows fast beyond: realizable of an all-ones vector
# took 0.06 s at d = 32 and 2.3 s at d = 60 (2-vCPU VM, Python 3.11), so a
# larger d fails fast instead.
DEGREE_MAX = 32


def _check_degree(d):
    """The ring-dimension test at the package's boundaries: TypeError unless
    d is an int (a bool is refused too), ValueError for d < 1 or
    d > DEGREE_MAX."""
    if _require_int("the degree d", d) < 1:
        raise ValueError(f"the degree d must be at least 1, got {d}")
    if d > DEGREE_MAX:
        raise ValueError(f"the degree d must be at most {DEGREE_MAX}, got {d}")


# ---------------------------------------------------------------------------
# Exact linear algebra on lists of rows
# ---------------------------------------------------------------------------

def _square(matrix, fractions=True):
    """A copy of the rows of a square matrix, checked at the boundary:
    ValueError for empty, ragged or non-square rows, TypeError for an entry
    that is not an int (a bool is refused too) or, where fractions is set,
    a Fraction."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be a nonempty list of equal rows, got {matrix!r}")
    require = _require_rational if fractions else _require_int
    for r in rows:
        for x in r:
            require("a matrix entry", x)
    return rows


def _scaled_int_rows(rows):
    """Clear the denominators of int or Fraction rows row by row, returning
    integer rows and the product of the row scales (by which the
    determinant grew)."""
    out = []
    scale = 1
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        s = lcm(*[q for _, q in ratios])
        out.append([p * (s // q) for p, q in ratios])
        scale *= s
    return out, scale


def _with_identity(rows):
    """The rows of [M | I]."""
    n = len(rows)
    return [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]


def _eliminate(rows):
    """Bareiss elimination of the integer rows [A | B], A square, then
    integer back-substitution on every column of B.  The rows are consumed.

    Returns (sign, D, Y): sign is the permutation sign of the row swaps, D
    the last pivot, so that det A = sign*D, and Y = D * A^-1 B.  By Cramer's
    rule Y is integral, so every step of the back-substitution
    y_i = (D*b_i - sum_(j>i) r_(i,j)*y_j) // r_(i,i) is an exact division.
    Raises SingularMatrix if det A = 0.
    """
    n = len(rows)
    width = len(rows[0])
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix has determinant zero")
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
    D = prev
    Y = [None] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        acc = [D * x for x in ri[n:]]
        for j in range(i + 1, n):
            if ri[j]:
                acc = [a - ri[j] * y for a, y in zip(acc, Y[j])]
        Y[i] = [a // ri[i] for a in acc]
    return sign, D, Y


def solve_exact(matrix, b):
    """Solve M x = b exactly for square int or Fraction rows M, as one
    right-hand-side column of _eliminate.  Raises SingularMatrix if det M = 0,
    ValueError for a malformed M or b and TypeError for a bad entry."""
    rows = _square(matrix)
    b = list(b)
    if len(b) != len(rows):
        raise ValueError("right-hand side length must equal matrix size")
    for x in b:
        _require_rational("a matrix entry", x)
    _, D, Y = _eliminate(_scaled_int_rows([r + [x] for r, x in zip(rows, b)])[0])
    return [Fraction(row[0], D) for row in Y]


def det_exact(matrix):
    """Exact determinant (a Fraction) of square int or Fraction rows."""
    rows, scale = _scaled_int_rows(_square(matrix))
    try:
        sign, D, _ = _eliminate(rows)
    except SingularMatrix:
        return Fraction(0)
    return Fraction(sign * D, scale)


def inverse_exact(matrix):
    """Exact inverse of square int or Fraction rows, as Fraction rows, from
    one elimination of [M | I]."""
    _, D, Y = _eliminate(_scaled_int_rows(_with_identity(_square(matrix)))[0])
    return [[Fraction(y, D) for y in row] for row in Y]


def adjugate(matrix):
    """(adj M, det M) of a square integer matrix, from one elimination of
    [M | I] and with no Fraction built: adj M = sign*Y and det M = sign*D.
    Raises SingularMatrix if det M = 0, and TypeError for any entry that is
    not an int."""
    sign, D, Y = _eliminate(_with_identity(_square(matrix, fractions=False)))
    return [[sign * y for y in row] for row in Y], sign * D


# ---------------------------------------------------------------------------
# Vandermonde closed form
# ---------------------------------------------------------------------------

def elem_sym(values, q):
    """q-th elementary symmetric polynomial of the values; sigma_0 = 1.
    TypeError unless q is an int and each value an int or a Fraction."""
    _require_int("the index q", q)
    for v in values:
        _require_rational("a value", v)
    if q < 0 or q > len(values):
        raise IndexOutOfRange(f"index {q} outside 0..{len(values)}")
    coeffs = [1] + [0] * q
    for v in values:
        for i in range(min(q, len(coeffs) - 1), 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[q]


def _check_nodes(nodes):
    """The nodes as a list: ValueError if there are none, TypeError for a
    node that is not an int or a Fraction (a bool is refused too)."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("a Vandermonde matrix needs at least one node")
    for x in nodes:
        _require_rational("a Vandermonde node", x)
    return nodes


def vandermonde_inverse(nodes):
    """Closed-form inverse, as Fraction rows, of the Vandermonde matrix
    V[i][j] = nodes[i]^j.

    Entry (i, j) is (-1)^(n-1-i) sigma_{n-1-i}(nodes without nodes[j])
    divided by prod_{l != j} (nodes[j] - nodes[l]).  Raises ValueError for
    no nodes, TypeError for a node that is not an int or a Fraction (a bool
    too) and DuplicateNodes for a repeated node.
    """
    nodes = _check_nodes(nodes)
    n = len(nodes)
    if len(set(nodes)) != n:
        raise DuplicateNodes(f"nodes {nodes!r} are not pairwise distinct")
    rows = [[] for _ in range(n)]
    for j in range(n):
        others = [x for l, x in enumerate(nodes) if l != j]
        denom = 1
        for x in others:
            denom *= nodes[j] - x
        for i in range(n):
            num = (-1) ** (n - 1 - i) * elem_sym(others, n - 1 - i)
            rows[i].append(Fraction(num, denom))
    return rows


def vandermonde_matrix(nodes):
    """V[i][j] = nodes[i]^j as int rows, the matrix inverted by
    vandermonde_inverse; the nodes are checked as there."""
    nodes = _check_nodes(nodes)
    n = len(nodes)
    return [[x ** j for j in range(n)] for x in nodes]


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

# Rho steps (squarings of y) allowed in one factorization.  A balanced
# semiprime near 10^22 splits in about 4*10^5 steps, and took under 2*10^6 in
# each of 40 seeded cases; spending all 2^23 steps on a 40-digit cofactor
# takes about 5 s on a 2-vCPU VM.
_RHO_BUDGET = 1 << 23


class UnprovenPrime(ValueError):
    """A cofactor passes Miller-Rabin but lies beyond its proven bound."""


class FactoringBudgetExceeded(ValueError):
    """Rho did not split a composite cofactor within _RHO_BUDGET steps."""


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


def _rho(n, budget):
    """(a proper factor of the odd composite n, the steps taken): Pollard rho
    with Brent's cycle finding and one gcd per _RHO_BATCH steps (Brent 1980).

    A round of Brent's loop takes at most 2r steps, and it starts only while
    the steps so far, its own 2r included, stay within budget; the replay of
    an overshot batch adds at most _RHO_BATCH more.  Past the budget,
    FactoringBudgetExceeded names n."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                raise FactoringBudgetExceeded(
                    f"rho did not split the cofactor {n} within {_RHO_BUDGET} steps; "
                    f"its divisor list cannot be computed")
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
            return g, steps


def _factor(n):
    """Prime factorization {p: e} of n >= 1, every prime certified, with at
    most _RHO_BUDGET rho steps in all (see _rho)."""
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while pending:
        n = pending.pop()
        if n < _TRIAL * _TRIAL or _is_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            g, steps = _rho(n, budget)
            budget -= steps
            pending += (g, n // g)
    return factors


def divisors_signed(n):
    """All divisors of n, positive and negative, in ascending order.

    The divisors are expanded from the prime factorization of |n|: trial
    division by the primes below 1000, then Brent-Pollard rho, with every
    prime certified by deterministic Miller-Rabin on the bases 2..41.  That
    test is proven below 3 317 044 064 679 887 385 961 981; a cofactor at or
    above this bound that tests prime raises UnprovenPrime, so a returned
    list is always complete.  A composite cofactor that rho cannot split
    within its budget of steps raises FactoringBudgetExceeded.  Raises
    TypeError unless n is an int (a bool is refused too), and ZeroArgument
    for 0.
    """
    if _require_int("n", n) == 0:
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


def _var_index(name):
    """The position of the variable name in VARIABLES; KeyError naming the
    universe for any other name."""
    if name not in _VAR_INDEX:
        raise KeyError(f"unknown variable {name!r}; universe is {VARIABLES}")
    return _VAR_INDEX[name]


def _power_index(name, power):
    """_var_index(name), for a power of that variable: TypeError unless
    power is an int (a bool is refused), ValueError when it is negative."""
    idx = _var_index(name)
    if _require_int("the power", power) < 0:
        raise ValueError(f"negative power {power} of {name}")
    return idx


class MPolyZ:
    """Polynomial with integer coefficients in the variables a, c, m, n, q.

    Terms are a dict mapping exponent 5-tuples to nonzero integers.  Unused
    variables simply carry exponent zero, so every polynomial lives in the
    same ring and arithmetic never needs variable reconciliation.  This
    layout is private to exactmath: every other module reads a polynomial
    through the methods below.

    __init__ checks the layout it is given: ValueError for a key that is not
    a tuple of five powers or that has a negative power, TypeError (the
    integer rule of _require_int) for a power or a coefficient that is not
    an int, and zero coefficients are dropped.  Every ring result is built
    by _build, which drops zeros and checks nothing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        checked = {}
        for e, c in (terms or {}).items():
            if type(e) is not tuple or len(e) != _NVARS:
                raise ValueError(f"an exponent must be a tuple of {_NVARS} powers, got {e!r}")
            for k in e:
                if _require_int("a power", k) < 0:
                    raise ValueError(f"negative power {k} in the exponent {e!r}")
            if _require_int("a coefficient", c):
                checked[e] = c
        self.terms = checked

    @classmethod
    def _build(cls, terms):
        """The polynomial with this dict of terms, its zero coefficients
        dropped and nothing checked: the constructor of every ring result."""
        self = object.__new__(cls)
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, k):
        """The constant k; TypeError unless k is an int (a bool is refused)."""
        return cls._build({_ZERO_EXP: _require_int("the constant", k)})

    @classmethod
    def var(cls, name, power=1, coeff=1):
        """coeff * name^power; TypeError unless power and coeff are ints (a
        bool is refused), ValueError for a negative power."""
        e = [0] * _NVARS
        e[_power_index(name, power)] = power
        return cls._build({tuple(e): _require_int("the coefficient", coeff)})

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
        return MPolyZ._build(out)

    __radd__ = __add__

    def __neg__(self):
        return MPolyZ._build({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPolyZ.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not _require_int("the scalar", other):
                return MPolyZ()
            return MPolyZ._build({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPolyZ):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPolyZ._build(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, MPolyZ.const(1), mul)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPolyZ._build({_ZERO_EXP: other})
        return isinstance(other, MPolyZ) and self.terms == other.terms

    def substitute(self, **values):
        """Substitute integers for some of the variables."""
        out = self
        for name, value in values.items():
            _require_int(name, value)
            idx = _var_index(name)
            acc = {}
            for e, c in out.terms.items():
                coeff = c * value ** e[idx]
                enew = e[:idx] + (0,) + e[idx + 1:]
                acc[enew] = acc.get(enew, 0) + coeff
            out = MPolyZ._build(acc)
        return out

    def evaluate(self, **values):
        """Full evaluation, term by term; every variable appearing must be
        given, and every value must be an int."""
        point = [None] * _NVARS
        for name, value in values.items():
            point[_var_index(name)] = _require_int(name, value)
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
        idx = _var_index(name)
        return all(e[idx] >= 1 for e in self.terms)

    def divide_by_variable(self, name):
        """Exact division by one power of a variable."""
        idx = _var_index(name)
        out = {}
        for e, c in self.terms.items():
            if e[idx] < 1:
                raise NotDivisible(f"term with exponents {e} lacks a factor of {name}")
            out[e[:idx] + (e[idx] - 1,) + e[idx + 1:]] = c
        return MPolyZ._build(out)

    def reduce_mod(self, p, fermat_vars=()):
        """Coefficients reduced into [0, p).

        For variables named in fermat_vars, exponents are folded with
        x^p = x, so e.g. a^3 -> a when p = 3.  That identity holds on
        integer points for prime p only (Fermat), so a composite p with
        fermat_vars is refused.  TypeError unless p is an int, ValueError
        for p < 2 or a composite p with fermat_vars.
        """
        if _require_int("the modulus p", p) < 2:
            raise ValueError(f"the modulus p must be at least 2, got {p}")
        if fermat_vars and _factor(p) != {p: 1}:
            raise ValueError(f"x^p = x holds for prime p only, got p = {p}")
        fold = tuple(map(_var_index, fermat_vars))
        out = {}
        for e, c in self.terms.items():
            if fold:
                e = tuple((ei - 1) % (p - 1) + 1 if (i in fold and ei > 0) else ei
                          for i, ei in enumerate(e))
            out[e] = (out.get(e, 0) + c) % p
        return MPolyZ._build(out)

    def content(self):
        """gcd of the absolute coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def divexact(self, k):
        """Exact division by an int k that divides every coefficient;
        ZeroDivisionError for k = 0, whatever the polynomial."""
        if _require_int("the divisor k", k) == 0:
            raise ZeroDivisionError("exact division by zero")
        if any(c % k for c in self.terms.values()):
            raise NotDivisible(f"coefficients are not all divisible by {k}")
        return MPolyZ._build({e: c // k for e, c in self.terms.items()})

    def __divmod__(self, k):
        """(quotient, remainder) by an int k, coefficient by coefficient, so
        the remainder is zero exactly when k divides every coefficient;
        ZeroDivisionError for k = 0."""
        if _require_int("the divisor k", k) == 0:
            raise ZeroDivisionError("division by zero")
        pairs = {e: divmod(c, k) for e, c in self.terms.items()}
        return (MPolyZ._build({e: q for e, (q, _) in pairs.items()}),
                MPolyZ._build({e: r for e, (_, r) in pairs.items()}))

    def coefficient(self, **exps):
        """Coefficient of the monomial with the given exponents (others
        zero); each exponent is checked as the power of var is."""
        e = [0] * _NVARS
        for name, power in exps.items():
            e[_power_index(name, power)] = power
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
