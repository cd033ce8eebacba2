"""The two type rules at the public boundaries of acscp, and the degree
rule.

An integer argument must be exactly an int, and a rational one exactly an
int or a Fraction; a bool is refused by both.  Each rule is written once, in
exactmath (_require_int, _require_ints, _require_rational), with one
wording, and every boundary below goes through it.  A degree d, given or
read off a vector's length, lies in 1..DEGREE_MAX (exactmath._check_degree).
"""

import ast
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import acscp
from acscp.chernvec import (NotRealizable, chern_from_multiplicities,
                            closed_form_w, moment_vector, power_sums_from_chern,
                            q_matrix, q_vector, realizable, w_matrix)
from acscp.cohomology import CohClass, exp_series
from acscp.exactmath import (DEGREE_MAX, MPolyZ, adjugate, det_exact,
                             divisors_signed, elem_sym, inverse_exact,
                             solve_exact, vandermonde_inverse,
                             vandermonde_matrix)
from acscp.homotopy import (HtpyCP, acs_search_cp4, acs_search_cp6,
                            complete_chern_vector, divisor_target_cp4,
                            divisor_target_cp6, divisor_target_table)
from acscp.ktheory import (KClass, KOClass, adams, adams_ko,
                           pontrjagin_omega_table)

INT = "must be an int, got"
RATIONAL = "must be an int or a Fraction, got"

F = 4 * MPolyZ.var("m", 2) - 10 * MPolyZ.var("m") - 28 * MPolyZ.var("n")
X4 = HtpyCP(4, 0, 0)
X6 = HtpyCP(6, 0, 0, 0)

BOUNDARIES = {
    # exactmath
    "MPolyZ**": (INT, lambda x: MPolyZ.var("m") ** x),
    "KClass**": (INT, lambda x: KClass.L(4) ** x),
    "degree": (INT, lambda x: CohClass(x, [1, 0])),
    "w_matrix": (INT, w_matrix),
    "elem_sym-index": (INT, lambda x: elem_sym([1, 2], x)),
    "elem_sym-value": (RATIONAL, lambda x: elem_sym([x, 2], 1)),
    "divisors_signed": (INT, divisors_signed),
    "const": (INT, MPolyZ.const),
    "MPolyZ-coefficient": (INT, lambda x: MPolyZ({(0, 0, 1, 0, 0): x})),
    "MPolyZ-power": (INT, lambda x: MPolyZ({(0, 0, x, 0, 0): 1})),
    "var-power": (INT, lambda x: MPolyZ.var("m", x)),
    "var-coeff": (INT, lambda x: MPolyZ.var("m", 1, x)),
    "evaluate": (INT, lambda x: F.evaluate(m=x, n=0)),
    "substitute": (INT, lambda x: F.substitute(m=x)),
    "divexact": (INT, lambda x: F.divexact(x)),
    "divmod": (INT, lambda x: divmod(F, x)),
    "reduce_mod": (INT, lambda x: F.reduce_mod(x)),
    "coefficient": (INT, lambda x: F.coefficient(m=x)),
    "solve_exact-matrix": (RATIONAL, lambda x: solve_exact([[x]], [1])),
    "solve_exact-rhs": (RATIONAL, lambda x: solve_exact([[1]], [x])),
    "inverse_exact": (RATIONAL, lambda x: inverse_exact([[x]])),
    "det_exact": (RATIONAL, lambda x: det_exact([[x]])),
    "adjugate": (INT, lambda x: adjugate([[x]])),
    "vandermonde_inverse": (RATIONAL, lambda x: vandermonde_inverse([x, 0])),
    "vandermonde_matrix": (RATIONAL, lambda x: vandermonde_matrix([x, 0])),
    # cohomology
    "CohClass-coefficient": (RATIONAL, lambda x: CohClass(1, [1, x])),
    "CohClass.u-power": (INT, lambda x: CohClass.u(3, x)),
    "KOClass.omega-power": (INT, lambda x: KOClass.omega(4, x)),
    "exp_series": (RATIONAL, lambda x: exp_series(x, 3)),
    "q_vector": (RATIONAL, lambda x: q_vector(x, 3)),
    # chernvec
    "moment_vector": (INT, lambda x: moment_vector(x, 2)),
    "closed_form_w": (INT, lambda x: closed_form_w(x, 3)),
    "power_sums_from_chern": (INT, lambda x: power_sums_from_chern([1, x])),
    "realizable": (INT, lambda x: realizable([1, x])),
    "chern_from_multiplicities": (INT, lambda x: chern_from_multiplicities([1, x])),
    # ktheory
    "KClass-coefficient": (INT, lambda x: KClass(4, [0, x])),
    "KOClass-coefficient": (INT, lambda x: KOClass(4, [0, x])),
    "adams": (INT, lambda x: adams(x, KClass.L(4))),
    "adams_ko": (INT, lambda x: adams_ko(x, KOClass.omega(4))),
    "pontrjagin_omega_table": (INT, pontrjagin_omega_table),
    # homotopy
    "HtpyCP-d": (INT, lambda x: HtpyCP(x, 0, 0)),
    "HtpyCP-m": (INT, lambda x: HtpyCP(4, x, 0)),
    "HtpyCP-n": (INT, lambda x: HtpyCP(4, 0, x)),
    "HtpyCP-q": (INT, lambda x: HtpyCP(6, 0, 0, x)),
    "complete_chern_vector-a": (INT, lambda x: complete_chern_vector(X4, x)),
    "complete_chern_vector-c": (INT, lambda x: complete_chern_vector(X6, 1, x)),
    "acs_search_cp4-window": (INT, lambda x: acs_search_cp4(X4, x)),
    "acs_search_cp6-a_max": (INT, lambda x: acs_search_cp6(X6, x, 1)),
    "divisor_target_cp4": (INT, divisor_target_cp4),
    "divisor_target_cp6": (INT, lambda x: divisor_target_cp6(1, x, 0)),
    "divisor_target_table": (INT, divisor_target_table),
}

# a Fraction is a rational value, so it is passed only where ints are required
BAD = {INT: (True, 2.0, "3", Fraction(3, 2)), RATIONAL: (True, 2.0, "3")}
CASES = [(name, bad) for name, (rule, _) in sorted(BOUNDARIES.items()) for bad in BAD[rule]]


@pytest.mark.parametrize("name, bad", CASES,
                         ids=[f"{name}-{type(bad).__name__}" for name, bad in CASES])
def test_every_boundary_refuses_with_its_rule(name, bad):
    # among them, each used to return an answer: divexact(2.0) float
    # coefficients, reduce_mod(2.0) the zero polynomial, coefficient(m=True)
    # and coefficient(m=2.0) the m^1 and m^2 coefficients, KOClass.omega(4,
    # True) and CohClass.u(3, True) the generator, exp_series(True, 3) the
    # series at t = 1 and elem_sym([1.5, 2], 1) the float 3.5
    rule, call = BOUNDARIES[name]
    with pytest.raises(TypeError, match=re.escape(f"{rule} {bad!r}")):
        call(bad)


# every entry of the degree rule, as a call at degree d; KOClass models
# d = 4, 5, 6 only, so its entries are called above the bound alone
DEGREES = {
    "CohClass": lambda d: CohClass(d, [1] * (d + 1)),
    "CohClass.u": CohClass.u,
    "exp_series": lambda d: exp_series(1, d),
    "KClass": lambda d: KClass(d, [0, 1]),
    "KClass.one": KClass.one,
    "w_matrix": w_matrix,
    "q_matrix": q_matrix,
    "moment_vector": lambda d: moment_vector(2, d),
    "closed_form_w": lambda d: closed_form_w(2, d),
    "power_sums_from_chern": lambda d: power_sums_from_chern([1] * d),
    "chern_from_multiplicities": lambda d: chern_from_multiplicities([1] * d),
    "realizable": lambda d: realizable([1] * d),
}


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_every_degree_entry_accepts_the_bound(name):
    try:
        DEGREES[name](DEGREE_MAX)
    except NotRealizable:
        pass    # a decomposition that is not integral, not a refused degree


KO_DEGREES = {"KOClass": lambda d: KOClass(d, [0, 1]), "KOClass.omega": KOClass.omega}


@pytest.mark.parametrize("name", sorted(DEGREES | KO_DEGREES))
def test_every_degree_entry_refuses_one_above_the_bound_at_once(name):
    # realizable of an all-ones vector took 16 s at d = 80 and
    # total_chern(KClass(200, ...)) 10 s; above the bound no work starts,
    # and KOClass.omega(33) said "KO(CP^33) is not modelled"
    call = (DEGREES | KO_DEGREES)[name]
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"the degree d must be at most {DEGREE_MAX}, "
                                         f"got {DEGREE_MAX + 1}"):
        call(DEGREE_MAX + 1)
    assert time.perf_counter() - started < 0.25


def test_an_empty_vector_keeps_its_answer():
    assert power_sums_from_chern(()) == [] and chern_from_multiplicities(()) == ()
    with pytest.raises(ValueError, match="needs at least one coefficient"):
        realizable(())


def test_only_q_of_htpycp_may_be_none():
    # HtpyCP(5, 0, None) was accepted with n = None, and HtpyCP(None, 0, 0)
    # raised UnsupportedDimension
    for call in (lambda: HtpyCP(None, 0, 0), lambda: HtpyCP(4, None, 0),
                 lambda: HtpyCP(5, 0, None), lambda: HtpyCP(6, 0, None, 0)):
        with pytest.raises(TypeError, match=re.escape(f"{INT} None")):
            call()
    assert X4.q is None and HtpyCP(4, 0, 0, None) == X4


def test_a_bool_scalar_factor_of_mpolyz_is_refused():
    # m * True returned m, while m + True already raised
    m = MPolyZ.var("m")
    for call in (lambda: m * True, lambda: True * m, lambda: m * False, lambda: m + True):
        with pytest.raises(TypeError, match=f"{INT} (True|False)"):
            call()
    assert m * 3 == 3 * m == MPolyZ.var("m", 1, 3) and (m * 0).is_zero()
    assert MPolyZ.const(1) == True  # noqa: E712 -- equality is left as it is


@pytest.mark.parametrize("power", [-1, -2, -4, -100])
def test_a_negative_power_of_a_generator_is_refused(power):
    # CohClass.u(3, -1) returned u^3, CohClass.u(3, -4) returned 1 and
    # KOClass.omega(4, -1) returned w^2
    for call in (lambda: CohClass.u(3, power), lambda: KOClass.omega(4, power)):
        with pytest.raises(ValueError, match=f"negative powers are not defined in this ring, got power {power}"):
            call()
    assert CohClass.u(3, 3).coeffs == (0, 0, 0, 1) and CohClass.u(3, 4) == CohClass.zero(3)


def test_mpolyz_refuses_a_zero_divisor_and_a_modulus_below_2():
    # divmod(poly, 0) is refused like divexact(0); divexact(0) returned the zero polynomial on zero and raised from inside
    # its loop otherwise; reduce_mod(1) returned zero, reduce_mod(0) raised
    # ZeroDivisionError, and reduce_mod(-3) gave coefficients outside [0, p)
    a = MPolyZ.var("a")
    for poly in (MPolyZ(), F, 3 * a + 1):
        with pytest.raises(ZeroDivisionError, match="exact division by zero"):
            poly.divexact(0)
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            divmod(poly, 0)
        for p in (1, 0, -1, -3):
            for fermat_vars in ((), ("a",)):
                with pytest.raises(ValueError, match=f"the modulus p must be at least 2, got {p}"):
                    poly.reduce_mod(p, fermat_vars=fermat_vars)
    assert (3 * a + 1).reduce_mod(2) == a + 1 and (3 * a + 1).divexact(-1) == -3 * a - 1


def test_mpolyz_refuses_a_composite_modulus_with_fermat_folding():
    # x^p = x holds on integer points for prime p only: reduce_mod(4) folded
    # a^4 - a to 0, while its value at a = 2 is 14 = 2 (mod 4)
    a = MPolyZ.var("a")
    assert (a ** 4 - a).evaluate(a=2) % 4 == 2
    for p in (4, 6, 9, 15, 1001):
        with pytest.raises(ValueError, match=f"x\\^p = x holds for prime p only, got p = {p}"):
            (a ** 4 - a).reduce_mod(p, fermat_vars=("a",))
        assert (a ** 4 - a).reduce_mod(p) == a ** 4 + (p - 1) * a
    for p in (2, 3, 5, 7, 1009):
        assert (a ** p - a).reduce_mod(p, fermat_vars=("a",)).is_zero()


def test_mpolyz_refuses_a_negative_exponent():
    # coefficient(m=-1) returned 0, as for any monomial that is absent
    for call in (lambda: F.coefficient(m=-1), lambda: MPolyZ.var("m", -1)):
        with pytest.raises(ValueError, match="negative power -1 of m"):
            call()
    assert F.coefficient(m=2) == 4 and F.coefficient(m=0) == F.coefficient() == 0


@pytest.mark.parametrize("terms, match", [
    ({(1,): 2}, "an exponent must be a tuple of 5 powers, got (1,)"),
    ({(0, 0, 1, 0, 0, 0): 2}, "an exponent must be a tuple of 5 powers, got (0, 0, 1, 0, 0, 0)"),
    ({"m": 2}, "an exponent must be a tuple of 5 powers, got 'm'"),
    ({(-1, 0, 0, 0, 0): 3}, "negative power -1 in the exponent (-1, 0, 0, 0, 0)"),
    ({(0, 0, 2, 0, 0): 1, (0, 0, 0, -2, 0): 1}, "negative power -2 in the exponent (0, 0, 0, -2, 0)"),
], ids=["short-tuple", "long-tuple", "not-a-tuple", "negative-power", "negative-power-later"])
def test_mpolyz_refuses_an_exponent_off_the_layout(terms, match):
    # MPolyZ({(1,): 2}) printed 2*a, and its product with a was cut short by
    # zip; MPolyZ({(-1, 0, 0, 0, 0): 3}) printed 3*a and evaluated to 1.5 at a = 2
    with pytest.raises(ValueError, match=re.escape(match)):
        MPolyZ(terms)
    assert MPolyZ({(1, 0, 0, 0, 0): 3, (0, 0, 0, 0, 0): 0}) == MPolyZ.var("a", 1, 3)


@pytest.mark.parametrize("call", [
    lambda: MPolyZ.var("z"),
    lambda: F.substitute(z=1),
    lambda: F.evaluate(m=0, n=0, z=1),
    lambda: F.coefficient(z=1),
    lambda: F.divisible_by_variable("z"),
    lambda: F.divide_by_variable("z"),
    lambda: F.reduce_mod(3, fermat_vars=("z",)),
], ids=["var", "substitute", "evaluate", "coefficient", "divisible_by_variable",
        "divide_by_variable", "reduce_mod"])
def test_mpolyz_names_the_universe_for_an_unknown_variable(call):
    # all but var raised a bare KeyError: 'z'
    with pytest.raises(KeyError, match=re.escape("unknown variable 'z'; universe is ('a', 'c', 'm', 'n', 'q')")):
        call()


SRC = Path(acscp.__file__).parent
RULE_WORDS = re.compile(r"\bints?\b|integer|Fraction|rational")


def _type_error_raises(node, where):
    """(enclosing module.function, exception node) of every raise of
    TypeError under node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Raise) and child.exc is not None:
            func = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(func, ast.Name) and func.id == "TypeError":
                yield inner, child.exc
        yield from _type_error_raises(child, inner)


def test_only_the_helpers_raise_the_type_rules():
    # a TypeError whose message speaks of ints, integers or Fractions is a
    # copy of one of the two rules, which belong to the exactmath helpers
    raising = set()
    for path in sorted(SRC.glob("*.py")):
        for where, exc in _type_error_raises(ast.parse(path.read_text()), path.stem):
            words = " ".join(n.value for n in ast.walk(exc)
                             if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if not words or RULE_WORDS.search(words):
                raising.add(where)
    assert raising == {"exactmath._require_int", "exactmath._require_rational"}
