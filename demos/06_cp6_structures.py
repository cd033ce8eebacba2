"""Almost complex structures on homotopy CP^6.

Parameters (m, n, q) satisfy the constraint CP6_CONSTRAINT = 0 (printed
below); reducing mod 31 pins (m, n) to one of 30 residue pairs.  Structures
with c_1 = a u and c_3 = c u^3 are characterized by congruences on (a, c)
mod 16/8 and mod 3 plus a divisibility a | T(c, m, n) -- and since
(a, c) = (1, 1) always qualifies, every admissible (m, n, q) carries
almost complex structures.

A widely transcribed variant of T (and of the first decomposition
numerator f_1) descends from a 228-for-288 digit slip in the degree-4
Pontrjagin input; it manufactures a spurious mod-3 obstruction at
m != 0 mod 3.  The symbolic pipeline below reproduces the corrected data,
and re-running it with the slip reproduces the transcribed variant term
for term -- both directions are pinned in the test suite."""

from acscp.homotopy import (CP6_CONSTRAINT, acs_search_cp6, cp6_exists,
                            mod31_table, symbolic_cp6_numerators,
                            validate_params, _symbolic_cp6_rows)

print("constraint:", CP6_CONSTRAINT, "= 0")
print("allowed (m, n) residues mod 31:", mod31_table())

sym = symbolic_cp6_numerators()
print("\ndecomposition denominators:", ["%d*a^%d" % d for d in sym.denominators])
print("a-free part f of the first numerator:")
print("  f =", sym.f)

g3 = (sym.numerators[2] - 3 * sym.f).divide_by_variable("a")
print("(f_3 - 3f)/a reduced mod 3 with a^3 = a:", g3.reduce_mod(3, fermat_vars=("a",)))
slip = _symbolic_cp6_rows(p2_m2_coefficient=228)
g3s = (slip.numerators[2] - 3 * slip.f).divide_by_variable("a")
print("same quantity under the 228 slip:", g3s.reduce_mod(3, fermat_vars=("a",)),
      " <- the spurious obstruction")

for (m, n, q) in [(0, 0, 0), (48, 12, -1747), (16, 11, 23)]:
    X = validate_params(6, m, n, q)
    sols = acs_search_cp6(X, a_max=40, c_max=40)
    print(f"\nX(m={m}, n={n}, q={q}): exists={cp6_exists(X)}, "
          f"{len(sols)} structures with |a|,|c| <= 40")
    print("  first few (a, c):", [(s.a, s.c) for s in sols[:6]])

X0 = validate_params(6, 0, 0, 0)
seven = next(s for s in acs_search_cp6(X0, a_max=8, c_max=40)
             if (s.a, s.c) == (7, 35))
print("\nstandard CP^6 structure:", seven.full_chern, "decomposition", seven.decomposition)
