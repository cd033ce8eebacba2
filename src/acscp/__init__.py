"""Exact computation of almost complex structures on homotopy complex
projective spaces CP^4, CP^5, and CP^6."""

from .exactmath import (MPolyZ, RatMatrix, divisors_signed, elem_sym,
                        solve_exact, vandermonde_inverse)
from .cohomology import CohClass, exp_series
from .ktheory import (KClass, KOClass, adams, adams_ko, chern_character,
                      complexify, conjugate, pontrjagin_total, real_reduce,
                      total_chern)
from .chernvec import (chern_from_multiplicities, closed_form_w,
                       power_sums_from_chern, q_matrix, q_vector, realizable,
                       w_matrix)
from .homotopy import (ACSSolution, CP5Report, HtpyCP, acs_search_cp4,
                       acs_search_cp6, complete_chern_vector, cp5_structure,
                       cp6_exists, divisor_target_cp4, divisor_target_cp6,
                       mod31_table, pontrjagin_of_X, symbolic_cp6_numerators,
                       symbolic_verify_cp5, tangent_ko_class, validate_params)

__version__ = "0.1.0"
