import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# exact solve, Vandermonde inverse, divisors and integer polynomials
DEMO_01_STDOUT = """\
solve [1, 3, 9] -> [Fraction(1, 1), Fraction(-3, 1), Fraction(3, 1)]
V^-1 row 1: [Fraction(-11, 6), Fraction(3, 1), Fraction(-3, 2), Fraction(1, 3)]
sigma_2(1,2,3) = 11
divisors of 9529: [-9529, -733, -13, -1, 1, 13, 733, 9529]
f = -5184*m^2 - 2160*m - 525
f mod 7 = 3*m^2 + 3*m
(a^3 - a) mod 3 with a^3=a: 0
value f(m=3) = -53661 = -53661
"""

# the lattice matrix, closed-form decomposition and realizability
DEMO_02_STDOUT = """\
q_2 over CP^4: 1 + (2)*u + (2)*u^2 + (4/3)*u^3 + (2/3)*u^4
W has determinant 288 = 1!2!3!4!
q_7 = [Fraction(15, 1), Fraction(-70, 1), Fraction(126, 1), Fraction(-105, 1), Fraction(35, 1)] against (q_0..q_4)
c(5L) = (5, 10, 10, 5)
power sums: [5, 5, 5, 5]
decomposition: (5, 0, 0, 0)
(0,1,0,0) rejected: chern vector (0, 1, 0, 0) has non-integral multiplicities [(1, Fraction(25, 3)), (3, Fraction(13, 3)), (4, Fraction(-5, 6))]
CP^2 samples: {(0, 0): (0, 0), (1, -3): (-5, 3), (-2, 5): (2, -2)}
"""

# the printed forms of all three rings and the values of the ring maps
DEMO_03_STDOUT = """\
t(L) = -1*L + L^2 + -1*L^3 + L^4 + -1*L^5
ch(L) = u + (1/2)*u^2 + (1/6)*u^3 + (1/24)*u^4 + (1/120)*u^5

total Chern classes of the powers of L over CP^5:
  c(L^1) = 1 + u
  c(L^2) = 1 + (-1)*u^2 + (2)*u^3 + (-3)*u^4 + (4)*u^5
  c(L^3) = 1 + (2)*u^3 + (-9)*u^4 + (30)*u^5
  c(L^4) = 1 + (-6)*u^4 + (48)*u^5
  c(L^5) = 1 + (24)*u^5

real reduction of the additive generators of K(CP^5):
  r(L^0) = 2
  r(L^1) = w
  r(L^2) = 2*w + w^2
  r(L^3) = 3*w^2 + w^3
  r(L^4) = 2*w^2
  r(L^5) = w^3

Adams operations on KO(CP^5):
  psi^2(w) = 4*w + w^2
  psi^4(w) = 16*w + 20*w^2
  psi^2(psi^2(w)) == psi^4(w): True
  psi^3(L) = 3*L + 3*L^2 + L^3

identities:
  r(c(w)) == 2w: True
  c(r(L^3)) == L^3 + t(L^3): True

Pontrjagin classes of omega powers over CP^6:
  p(w^1) = 1 + u^2
  p(w^2) = 1 + (-6)*u^4 + (20)*u^6
  p(w^3) = 1 + (120)*u^6
  p(7w) = 1 + (7)*u^2 + (21)*u^4 + (35)*u^6  (the untwisted tangent class)
"""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pinned = {"01_exact_arithmetic.py": DEMO_01_STDOUT,
              "02_chern_character_lattice.py": DEMO_02_STDOUT,
              "03_ktheory_maps.py": DEMO_03_STDOUT}
    if demo.name in pinned:
        assert done.stdout == pinned[demo.name]
