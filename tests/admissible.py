"""Admissible parameters of the CP^4 and CP^6 models, solved once for the
tests.

Every function reads acscp.homotopy.CP4_CONSTRAINT or CP6_CONSTRAINT when it
is called, so the parameters follow the model: a test that patches it gets
the parameters of the patched model, and a change to it moves them without
an edit here.  The constraint is split in its last parameter by the
library's one split, homotopy._linear_in, as k v + C with k a nonzero int
(ArithmeticError otherwise), and v is solved by exact division through k:
n = -C(m) / k for d = 4, q = -C(m, n) / k for d = 6.  C has integer
coefficients, so whether that division is exact depends on m (and n) modulo
k only, and a search for the next admissible m stops within one period |k|.
"""

from math import gcd

from acscp import homotopy
from acscp.homotopy import _linear_in


def cp4_pair(m):
    """The admissible (m', n) of the d = 4 model with the least m' >= m."""
    k, free = _linear_in(homotopy.CP4_CONSTRAINT, "n")
    for m1 in range(m, m + abs(k)):
        if free.evaluate(m=m1) % k == 0:
            return m1, -free.evaluate(m=m1) // k
    raise ValueError(f"the d = 4 model {homotopy.CP4_CONSTRAINT} admits no m")


def cp4_pairs(m_max):
    """Every admissible (m, n) of the d = 4 model with |m| <= m_max, in
    order of m; the admissible residues of m mod k are found once."""
    k, free = _linear_in(homotopy.CP4_CONSTRAINT, "n")
    residues = {r for r in range(abs(k)) if free.evaluate(m=r) % k == 0}
    return [(m, -free.evaluate(m=m) // k) for m in range(-m_max, m_max + 1)
            if m % abs(k) in residues]


def _cp6_n_class(k, free, m):
    """(r, step): the n with k | C(m, n) are those with n = r (mod step),
    or None when there is none.  C(m, n) = k1 n + k0 is split in n by
    _linear_in, and k1 n = -k0 (mod k) is solved through gcd(k1, k)."""
    k1, rest = _linear_in(free.substitute(m=m), "n")
    k0, g = rest.evaluate(), gcd(k1, k)
    if k0 % g:
        return None
    step = abs(k) // g
    return -k0 // g * pow(k1 // g, -1, step) % step, step


def cp6_triples(m_max=48, n_max=31):
    """Every admissible (m, n, q) of the d = 6 model with |m| <= m_max and
    |n| <= n_max, in order of (m, n)."""
    k, free = _linear_in(homotopy.CP6_CONSTRAINT, "q")
    out = []
    for m in range(-m_max, m_max + 1):
        if (cls := _cp6_n_class(k, free, m)) is not None:
            r, step = cls
            out += [(m, n, -free.evaluate(m=m, n=n) // k)
                    for n in range(-n_max + (r + n_max) % step, n_max + 1, step)]
    return out


def cp6_triple(m, n=0):
    """The admissible (m', n', q) of the d = 6 model with the least m' >= m
    and, at that m', the n' nearest n (the larger of two).  With n = 0 that
    is the first admissible triple at or above m with the least |n'|."""
    k, free = _linear_in(homotopy.CP6_CONSTRAINT, "q")
    for m1 in range(m, m + abs(k)):
        if (cls := _cp6_n_class(k, free, m1)) is not None:
            r, step = cls
            below = n - (n - r) % step
            n1 = below if 2 * (n - below) < step else below + step
            return m1, n1, -free.evaluate(m=m1, n=n1) // k
    raise ValueError(f"the d = 6 model {homotopy.CP6_CONSTRAINT} admits no m")
