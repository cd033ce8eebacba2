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
q_7 = [15, -70, 126, -105, 35] against (q_0..q_4)
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


# divisor targets, admissible a and one structure per homotopy CP^4
DEMO_04_STDOUT = """\
X(m=0, n=0):  p = (5, 10),  divisor target 25
  admissible a: [-25, -5, -1, 1, 5, 25]
  e.g. a=1: chern (1, -2, 2, 5), decomposition (1, -4, 4, -1)

X(m=6, n=3):  p = (149, 3178),  divisor target 9529
  admissible a: [-9529, -733, -13, -1, 1, 13, 733, 9529]
  e.g. a=1: chern (1, -74, 1154, 5), decomposition (2245, -2704, 1312, -193)

X(m=-8, n=12):  p = (-187, 5002),  divisor target 15001
  admissible a: [-15001, -2143, -7, -1, 1, 7, 2143, 15001]
  e.g. a=1: chern (1, 94, 1922, 5), decomposition (4881, -5620, 2676, -417)

standard CP^4 structure: (5, 10, 10, 5) = binomials C(5,k)
"""

# the explicit CP^5 structures; c_5(E) is read off total_chern
DEMO_05_STDOUT = """\
X(m=0, n=0):
  E = 6*L
  r(E) = 6*w  == tangent: True
  c_5(E) = 6 u^5  == Euler class: True

X(m=2, n=0):
  E = 6*L + 24*L^2 + 86*L^4 + -62*L^5
  r(E) = 54*w + 196*w^2  == tangent: True
  c_5(E) = 6 u^5  == Euler class: True

X(m=-2, n=4):
  E = 6*L + -24*L^2 + 320*L^3 + -86*L^4 + -706*L^5
  r(E) = -42*w + 764*w^2  == tangent: True
  c_5(E) = 6 u^5  == Euler class: True

X(m=12, n=-7):
  E = 6*L + 144*L^2 + -560*L^3 + 516*L^4 + -7672*L^5
  r(E) = 294*w + -504*w^2  == tangent: True
  c_5(E) = 6 u^5  == Euler class: True

symbolic check that c_5(E) = 6 u^5 identically: True
"""

# the CP^6 constraint, the mod-31 residues, the symbolic numerators and the
# structures found in a window
DEMO_06_STDOUT = """\
constraint: 32*m^3 - 252*m^2 - 672*m*n + 301*m + 1152*n + 1488*q = 0
allowed (m, n) residues mod 31: [(0, 0), (1, 7), (2, 6), (3, 9), (4, 7), (5, 6), (6, 25), (7, 15), (8, 23), (9, 24), (10, 4), (11, 28), (12, 10), (13, 2), (14, 16), (16, 11), (17, 12), (18, 3), (19, 27), (20, 12), (21, 27), (22, 13), (23, 18), (24, 17), (25, 26), (26, 27), (27, 8), (28, 6), (29, 12), (30, 7)]

decomposition denominators: ['2976*a^1', '23808*a^1', '2976*a^1', '23808*a^1', '3720*a^1', '23808*a^1']
a-free part f of the first numerator:
  f = -898560*m^3 - 1240*c^2 + 4397760*m^2 + 12441600*m*n + 1312920*m - 1814400*n + 22785
(f_3 - 3f)/a reduced mod 3 with a^3 = a: 0
same quantity under the 228 slip: m^2  <- the spurious obstruction

X(m=0, n=0, q=0): exists=True, 14 structures with |a|,|c| <= 40
  first few (a, c): [(-7, -35), (-1, -25), (-1, -17), (-1, -1), (-1, 7), (-1, 23)]

X(m=48, n=12, q=-1747): exists=True, 20 structures with |a|,|c| <= 40
  first few (a, c): [(-25, 19), (-23, -35), (-23, -11), (-7, -35), (-1, -25), (-1, -17)]

X(m=16, n=11, q=23): exists=True, 14 structures with |a|,|c| <= 40
  first few (a, c): [(-23, 37), (-1, -25), (-1, -17), (-1, -1), (-1, 7), (-1, 23)]

standard CP^6 structure: (7, 21, 35, 35, 21, 7) decomposition (7, 0, 0, 0, 0, 0)
"""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pinned = {"01_exact_arithmetic.py": DEMO_01_STDOUT,
              "02_chern_character_lattice.py": DEMO_02_STDOUT,
              "03_ktheory_maps.py": DEMO_03_STDOUT,
              "04_cp4_structures.py": DEMO_04_STDOUT,
              "05_cp5_structures.py": DEMO_05_STDOUT,
              "06_cp6_structures.py": DEMO_06_STDOUT}
    assert set(pinned) == {d.name for d in DEMOS}
    assert done.stdout == pinned[demo.name]
