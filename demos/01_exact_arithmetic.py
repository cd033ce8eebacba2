"""Tour of the exact-arithmetic kernel: linear algebra on integer rows, the
closed-form Vandermonde inverse, signed divisors, and integer polynomials."""

from fractions import Fraction

from acscp.exactmath import (MPolyZ, divisors_signed, elem_sym, inverse_exact,
                             poly_variables, solve_exact, vandermonde_inverse,
                             vandermonde_matrix)

# Solving a small system exactly: no floats anywhere.
M = [[1, 1, 1], [0, 1, 2], [0, 1, 4]]
b = [1, 3, 9]
x = solve_exact(M, b)
print("solve", b, "->", x)

# The closed-form inverse of a Vandermonde matrix, straight from elementary
# symmetric polynomials, agrees with the generic exact inverse.
nodes = [0, 1, 2, 3]
V = vandermonde_matrix(nodes)
closed = vandermonde_inverse(nodes)
assert closed == inverse_exact(V)
print("V^-1 row 1:", closed[1])
print("sigma_2(1,2,3) =", elem_sym([1, 2, 3], 2))

# Signed divisors drive the search for admissible first Chern classes.
print("divisors of 9529:", divisors_signed(9529))

# Integer polynomials over the fixed variables a, c, m, n, q, with modular
# reduction and exponent folding by Fermat's little theorem.
a, c, m, n, q = poly_variables()
f = -5184 * m * m - 2160 * m - 525
print("f =", f)
print("f mod 7 =", f.reduce_mod(7))
print("(a^3 - a) mod 3 with a^3=a:", (a ** 3 - a).reduce_mod(3, fermat_vars=("a",)))
print("value f(m=3) =", f.evaluate(m=3), "=", Fraction(f.evaluate(m=3)))
