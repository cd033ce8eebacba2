import random
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from acscp import exactmath
from acscp.chernvec import _q_rows, q_matrix
from acscp.exactmath import (DuplicateNodes, FactoringBudgetExceeded,
                             IndexOutOfRange, MPolyZ, NotDivisible,
                             SingularMatrix, UnprovenPrime,
                             ZeroArgument, adjugate, det_exact,
                             divisors_signed, elem_sym, inverse_exact,
                             poly_variables, solve_exact, vandermonde_inverse,
                             vandermonde_matrix)

# ---------------------------------------------------------------------------
# independent oracles: permutation-expansion determinant and Cramer solve
# ---------------------------------------------------------------------------

def det_by_permutations(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def cramer_solve(rows, b):
    n = len(rows)
    d = det_by_permutations(rows)
    assert d != 0
    out = []
    for j in range(n):
        cols = [[rows[i][k] if k != j else b[i] for k in range(n)] for i in range(n)]
        out.append(det_by_permutations(cols) / d)
    return out


def cofactor_adjugate(rows):
    """adj[i][j] = (-1)^(i+j) det(M without row j and column i)."""
    n = len(rows)
    return [[(-1) ** (i + j) * det_by_permutations(
                [[x for k, x in enumerate(r) if k != i] for l, r in enumerate(rows) if l != j])
             for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


W2 = [[1, 1, 1], [0, 1, 2], [0, 1, 4]]


def test_solve_selects_first_basis_vector():
    assert solve_exact(W2, [1, 0, 0]) == [1, 0, 0]


def test_solve_frozen_example():
    # oracle: cramer_solve(W2, (1,3,9)) == (1, -3, 3)
    assert cramer_solve(W2, [1, 3, 9]) == [1, -3, 3]
    assert solve_exact(W2, [1, 3, 9]) == [1, -3, 3]


def test_solve_singular():
    ones = [[1, 1], [1, 1]]
    with pytest.raises(SingularMatrix):
        solve_exact(ones, [1, 2])


def test_solve_matches_cramer_on_random_systems():
    rng = random.Random(7)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        if det_by_permutations(rows) == 0:
            continue
        assert solve_exact(rows, b) == cramer_solve(rows, b)
        done += 1


def gauss_jordan_solve(rows, b):
    """Fraction Gauss-Jordan with partial pivoting on the largest |entry|;
    None when the matrix is singular."""
    n = len(rows)
    aug = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(rows, b)]
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(aug[r][k]))
        if aug[piv][k] == 0:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [r[n] for r in aug]


def test_solve_matches_gauss_jordan_seeded():
    rng = random.Random(17)

    def frac():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    done = 0
    while done < 300:
        n = rng.randint(1, 9)
        rows = [[frac() for _ in range(n)] for _ in range(n)]
        b = [frac() for _ in range(n)]
        want = gauss_jordan_solve(rows, b)
        if want is None:
            continue
        assert solve_exact(rows, b) == want
        done += 1
    # singular: the last row is a rational combination of the others
    for _ in range(30):
        n = rng.randint(1, 9)
        rows = [[frac() for _ in range(n)] for _ in range(n - 1)]
        weights = [frac() for _ in range(n - 1)]
        rows.append([sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0))
                     for j in range(n)])
        assert gauss_jordan_solve(rows, [1] * n) is None
        with pytest.raises(SingularMatrix):
            solve_exact(rows, [frac() for _ in range(n)])
        with pytest.raises(SingularMatrix):
            inverse_exact(rows)


def test_inverse_roundtrip_up_to_8():
    rng = random.Random(3)
    done = 0
    while done < 25:
        n = rng.randint(1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det_exact(rows) == 0:
            continue
        assert matmul(rows, inverse_exact(rows)) == identity(n)
        done += 1


def test_det_exact_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == det_by_permutations(rows)


def test_adjugate_matches_cofactors_seeded():
    # mostly-zero entries, so the first pivot is often zero and rows swap:
    # a dropped permutation sign would flip adj and det on those draws
    rng = random.Random(23)
    swapped = singular = done = 0
    while done < 90:
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(n)]
                for _ in range(n)]
        det = det_by_permutations(rows)
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrix):
                adjugate(rows)
            continue
        adj, got_det = adjugate(rows)
        assert (adj, got_det) == (cofactor_adjugate(rows), det)
        assert all(type(x) is int for row in adj for x in row) and type(got_det) is int
        swapped += rows[0][0] == 0
        done += 1
    assert swapped >= 10 and singular >= 10


def test_q_adjugate_matches_cofactors():
    for d in range(1, 8):
        Q = q_matrix(d)
        adj, det = adjugate(Q)
        assert det == det_by_permutations(Q)
        assert [list(row) for row in adj] == cofactor_adjugate(Q)


def test_one_elimination_per_matrix(monkeypatch):
    shapes = []
    eliminate = exactmath._eliminate

    def counted(rows):
        shapes.append((len(rows), len(rows[0])))
        return eliminate(rows)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(exactmath, "_eliminate", counted)
    M = [[0, 1, 2], [3, 0, 1], [1, 1, 0]]
    assert matmul(M, inverse_exact(M)) == identity(3)
    assert shapes == [(3, 6)]
    monkeypatch.setattr(exactmath, "Fraction", no_fraction)
    adjugate(M)
    _q_rows.cache_clear()
    _q_rows(6)
    assert shapes == [(3, 6), (3, 6), (6, 12)]


def _solve_zero_rhs(rows):
    return solve_exact(rows, [0] * len(rows))


MATRIX_ROUTINES = [_solve_zero_rhs, inverse_exact, det_exact, adjugate]


@pytest.mark.parametrize("routine", MATRIX_ROUTINES,
                         ids=["solve_exact", "inverse_exact", "det_exact", "adjugate"])
def test_matrix_boundary_errors(routine):
    # malformed rows fail at the boundary, and no entry is parsed or rounded
    # into a Fraction: "1/2" and 1.5 are refused, not read as 1/2 and 3/2
    for rows in ([], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]]):
        with pytest.raises(ValueError, match="nonempty list of equal rows"):
            routine(rows)
    for bad in (True, 1.5, "1/2", None):
        with pytest.raises(TypeError, match="a matrix entry must be an int"):
            routine([[1, 0], [bad, 1]])


def test_matrix_boundary_errors_per_routine():
    with pytest.raises(ValueError, match="right-hand side length"):
        solve_exact([[1, 0], [0, 1]], [1])
    for bad in ("1", 2.0, False):
        with pytest.raises(TypeError, match="a matrix entry must be an int or a Fraction, got"):
            solve_exact([[1, 0], [0, 1]], [1, bad])
    with pytest.raises(TypeError, match="a matrix entry must be an int, got Fraction"):
        adjugate([[Fraction(1, 2)]])
    assert inverse_exact([[Fraction(1, 2)]]) == [[2]]
    assert det_exact([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert adjugate([[0, 2], [3, 0]]) == ([[0, -2], [-3, 0]], -6)


# ---------------------------------------------------------------------------
# Vandermonde closed form
# ---------------------------------------------------------------------------

def test_vandermonde_inverse_two_nodes():
    # V[i][j] = nodes[i]^j for nodes (0, 1) is [[1,0],[1,1]]
    assert vandermonde_inverse([0, 1]) == [[1, 0], [-1, 1]]


def test_vandermonde_inverse_three_nodes():
    # oracle: columns solved from V x = e_j with the generic solver
    want = [[1, 0, 0],
            [Fraction(-3, 2), 2, Fraction(-1, 2)],
            [Fraction(1, 2), -1, Fraction(1, 2)]]
    assert vandermonde_inverse([0, 1, 2]) == want
    assert vandermonde_inverse([0, 1, 2]) == inverse_exact(vandermonde_matrix([0, 1, 2]))


def test_vandermonde_duplicate_nodes():
    with pytest.raises(DuplicateNodes):
        vandermonde_inverse([0, 0, 1])


def test_vandermonde_matrix_checks_its_nodes():
    # a float node is refused, not turned into float rows
    for bad in ([0.5, 1], [True, 2], ["1", 2], [None]):
        with pytest.raises(TypeError, match="a Vandermonde node must be an int or a Fraction, got"):
            vandermonde_matrix(bad)
    with pytest.raises(ValueError, match="at least one node"):
        vandermonde_matrix([])
    assert vandermonde_matrix([Fraction(1, 2), 1]) == [[1, Fraction(1, 2)], [1, 1]]


def test_vandermonde_inverse_checks_its_nodes():
    # a float node is refused at the boundary, not left to fail inside Fraction
    for bad in ([0.5, 1], [1, False], ["1", 2], [None]):
        with pytest.raises(TypeError, match="a Vandermonde node must be an int or a Fraction, got"):
            vandermonde_inverse(bad)
    with pytest.raises(ValueError, match="at least one node"):
        vandermonde_inverse([])
    assert vandermonde_inverse([Fraction(1, 2)]) == [[1]]


def test_vandermonde_identity_product():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        nodes = rng.sample(range(-5, 11), n)
        V = vandermonde_matrix(nodes)
        assert matmul(vandermonde_inverse(nodes), V) == identity(n)


# ---------------------------------------------------------------------------
# elementary symmetric polynomials, divisors
# ---------------------------------------------------------------------------

def test_elem_sym():
    assert elem_sym([1, 2, 3], 0) == 1
    assert elem_sym([1, 2, 3], 2) == 11  # 1*2 + 1*3 + 2*3
    assert elem_sym([1, 2, 3], 3) == 6
    with pytest.raises(IndexOutOfRange):
        elem_sym([1, 2, 3], 4)


def naive_divisors(n):
    n = abs(n)
    pos = [d for d in range(1, n + 1) if n % d == 0]
    return [-d for d in reversed(pos)] + pos


def test_divisors_frozen():
    assert divisors_signed(25) == [-25, -5, -1, 1, 5, 25]
    assert divisors_signed(9529) == naive_divisors(9529)
    assert divisors_signed(9529) == [-9529, -733, -13, -1, 1, 13, 733, 9529]
    with pytest.raises(ZeroArgument):
        divisors_signed(0)


@given(st.integers(min_value=1, max_value=50000))
def test_divisors_properties(n):
    divs = divisors_signed(n)
    assert len(divs) % 2 == 0
    assert divs == sorted(divs)
    assert [-d for d in reversed(divs)] == divs
    assert divs[0] * divs[-1] == -n * n


def trial_divisors(n):
    """Signed divisors by trial division up to isqrt(|n|), with no factoring."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    pos = small + [n // d for d in reversed(small) if d * d != n]
    return [-d for d in reversed(pos)] + pos


def test_divisors_match_trial_division_seeded():
    # naive_divisors is O(n), about a minute for these 2000 draws; the
    # isqrt trial-division loop is the same kind of oracle, without factoring
    rng = random.Random(20150101)
    for _ in range(2000):
        n = rng.randint(1, 10 ** 6)
        assert divisors_signed(n) == trial_divisors(n)


def test_divisors_of_one():
    assert divisors_signed(1) == [-1, 1]
    assert divisors_signed(-1) == [-1, 1]


# (prime, exponent) blocks: 2, 3, primes around the trial-division bound 1000,
# squares and cubes; at most one prime near 2^31 and one near 2^40 is added,
# so rho never has to split two primes above 2^31 and each example stays fast.
PRIME_POWERS = [(2, 1), (2, 5), (3, 1), (3, 3), (5, 1), (7, 2), (997, 1),
                (1009, 1), (1009, 2), (1009, 3), (65537, 2), (2097143, 1),
                (2097143, 3)]
NEAR_2_31 = [2147483647, 2147483659]
NEAR_2_40 = [1099511627689, 1099511627791]


@settings(max_examples=80)
@given(st.lists(st.sampled_from(PRIME_POWERS), max_size=5),
       st.sampled_from([None] + NEAR_2_31),
       st.sampled_from([None] + NEAR_2_40),
       st.sampled_from([1, -1]))
def test_divisors_match_known_factorization(powers, p31, p40, sign):
    exps = {}
    for p, e in powers + [(p, 1) for p in (p31, p40) if p]:
        exps[p] = exps.get(p, 0) + e
    primes = list(exps)
    pos = sorted(prod(p ** k for p, k in zip(primes, ks))
                 for ks in product(*(range(exps[p] + 1) for p in primes)))
    n = pos[-1]
    assert divisors_signed(sign * n) == [-d for d in reversed(pos)] + pos


def test_divisors_refuse_unproven_prime():
    # 2^89 - 1 is a Mersenne prime above the Miller-Rabin bound for bases 2..41
    with pytest.raises(UnprovenPrime, match="3317044064679887385961981"):
        divisors_signed(2 ** 89 - 1)
    with pytest.raises(UnprovenPrime):
        divisors_signed(-6 * (2 ** 89 - 1))


def test_balanced_semiprime_near_1e22_factors_within_the_budget():
    # rho takes about 2.6*10^5 steps on it, far below the budget
    p, q = 99331229839, 100624488421
    assert divisors_signed(p * q) == [-p * q, -q, -p, -1, 1, p, q, p * q]
    _, steps = exactmath._rho(p * q, exactmath._RHO_BUDGET)
    assert steps * 8 < exactmath._RHO_BUDGET


def test_rho_past_its_budget_names_the_cofactor(monkeypatch):
    # three primes near 2^31 and 2^40 that trial division leaves together:
    # rho splits their product, then the composite part left
    n = 2147483647 * 2147483659 * 1099511627689
    g, first = exactmath._rho(n, exactmath._RHO_BUDGET)
    rest = max(g, n // g)
    _, second = exactmath._rho(rest, exactmath._RHO_BUDGET)
    want = divisors_signed(n)
    # the budget covers the whole factorization, not each cofactor
    monkeypatch.setattr(exactmath, "_RHO_BUDGET", first + second)
    assert divisors_signed(n) == want
    for budget, cofactor in ((first + second - 1, rest), (first - 1, n), (0, n)):
        monkeypatch.setattr(exactmath, "_RHO_BUDGET", budget)
        with pytest.raises(FactoringBudgetExceeded,
                           match=f"cofactor {cofactor} within {budget} steps"):
            divisors_signed(-6 * n)
    assert issubclass(FactoringBudgetExceeded, ValueError)


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

a, c, m, n, q = poly_variables()


def small_polys():
    coeff = st.integers(min_value=-9, max_value=9)
    exp = st.integers(min_value=0, max_value=3)
    term = st.tuples(exp, exp, exp, coeff)
    return st.lists(term, max_size=5).map(
        lambda ts: sum((MPolyZ.var("a", e1, co) * MPolyZ.var("m", e2) * MPolyZ.var("n", e3)
                        for e1, e2, e3, co in ts), MPolyZ.zero()))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p1, p2, p3):
    assert p1 + p2 == p2 + p1
    assert p1 * p2 == p2 * p1
    assert (p1 + p2) + p3 == p1 + (p2 + p3)
    assert (p1 * p2) * p3 == p1 * (p2 * p3)
    assert p1 * (p2 + p3) == p1 * p2 + p1 * p3
    assert p1 - p1 == MPolyZ.zero()


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(),
       st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_substitution_is_a_homomorphism(p1, p2, va, vm, vn):
    point = dict(a=va, c=0, m=vm, n=vn, q=0)
    assert (p1 * p2).evaluate(**point) == p1.evaluate(**point) * p2.evaluate(**point)
    assert (p1 + p2).evaluate(**point) == p1.evaluate(**point) + p2.evaluate(**point)
    assert p1.evaluate(**point) == p1.substitute(**point).coefficient()


def test_reduce_mod_frozen():
    # -5184 m^2 - 2160 m - 525 has residues 3, 3, 0 mod 7
    f = -5184 * m * m - 2160 * m - 525
    assert f.reduce_mod(7) == 3 * m * m + 3 * m


def test_substitute_constant_term():
    f = -5184 * m * m - 2160 * m - 525
    assert f.substitute(m=0) == MPolyZ.const(-525)
    assert f.evaluate(m=1) == -5184 - 2160 - 525


def test_evaluate_and_substitute_refuse_non_integers():
    # int(value) used to truncate these silently: m=1.5 and m=True gave m=1
    f = 4 * m * m - 10 * m - 28 * n
    for bad in (1.5, True, Fraction(3, 2), Fraction(1), "1"):
        with pytest.raises(TypeError, match="^m must be an int, got"):
            f.evaluate(m=bad, n=0)
        with pytest.raises(TypeError, match="^m must be an int, got"):
            f.substitute(m=bad)


def test_constructors_refuse_non_integers():
    # no silent truncation: const(2.7) is not const(2), and var("m", -1)
    # is not a polynomial
    for bad in (2.7, True, Fraction(1, 2), "2"):
        with pytest.raises(TypeError, match="the constant must be an int, got"):
            MPolyZ.const(bad)
        with pytest.raises(TypeError, match="the power must be an int, got"):
            MPolyZ.var("m", bad)
        with pytest.raises(TypeError, match="the coefficient must be an int, got"):
            MPolyZ.var("m", 1, bad)
    with pytest.raises(ValueError, match="negative power -1 of m"):
        MPolyZ.var("m", -1)
    assert MPolyZ.var("m", 0, 3) == MPolyZ.const(3)
    # equality still answers, and is False against a non-integer
    assert (MPolyZ.const(2) == 2.7) is False
    assert (MPolyZ.const(2) == "2") is False
    assert (MPolyZ.const(1) == True) is True  # noqa: E712


def test_evaluate_names_unbound_variables():
    f = a * c * c + 3 * m * q - 7
    with pytest.raises(ValueError, match=r"unbound variables \['a', 'c', 'q'\]"):
        f.evaluate(m=2)
    assert f.evaluate(a=1, c=2, m=3, q=4) == 4 + 36 - 7
    # a variable that does not appear need not be bound
    assert (m - 5).evaluate(m=5) == 0


def test_divide_by_variable():
    assert (a * m + a * a).divide_by_variable("a") == m + a
    with pytest.raises(NotDivisible):
        (a * m + m).divide_by_variable("a")


def test_reduce_mod_fermat_folding():
    # a^3 = a mod 3 on integer points
    p = a ** 3 - a
    assert p.reduce_mod(3, fermat_vars=("a",)).is_zero()
    assert (a ** 4).reduce_mod(3, fermat_vars=("a",)) == a * a
    assert (-2 * m * m + a - a ** 3).reduce_mod(3, fermat_vars=("a",)) == m * m


def test_divexact_and_content():
    p = 6 * a + 9 * m
    assert p.content() == 3
    assert p.divexact(3) == 2 * a + 3 * m
    with pytest.raises(NotDivisible):
        p.divexact(4)


def test_divmod_by_an_int_is_coefficientwise():
    p = 7 * a * m - 9 * m + 3 * a * a - 4
    q, r = divmod(p, 3)
    assert q == 2 * a * m - 3 * m + a * a - 2 and r == a * m + 2
    assert q * 3 + r == p
    # a zero quotient or remainder coefficient leaves no term behind
    assert 0 not in q.terms.values() and 0 not in r.terms.values()
    assert divmod(6 * a + 9 * m, 3) == (2 * a + 3 * m, 0)
    assert divmod(p, -3) == (-3 * a * m + 3 * m - a * a + 1, -2 * a * m - 1)
    assert not divmod(MPolyZ(), 5)[1] and not divmod(MPolyZ(), 5)[0]


def test_results_built_without_the_zero_filter_hold_no_zero():
    # negation, a nonzero scalar, divexact and divide_by_variable skip the
    # zero filter of __init__; each result equals the filtered construction
    p = 6 * a * m - 9 * m + 3 * a * a
    for got in (-p, p * -2, 5 * p, p.divexact(-3), (a * p).divide_by_variable("a"),
                p * MPolyZ.const(7)):
        assert 0 not in got.terms.values()
    assert (p * 0).is_zero() and (0 * p).is_zero()
    with pytest.raises(TypeError, match="the scalar must be an int, got False"):
        p * False
    assert (a * m).divide_by_variable("a") == m
    assert str(-p) == "-3*a^2 - 6*a*m + 9*m"


def test_string_form_graded_lex():
    p = 31 * a ** 6 - 8277 * a ** 4 + 22785
    assert str(p) == "31*a^6 - 8277*a^4 + 22785"
    assert str(MPolyZ.zero()) == "0"
