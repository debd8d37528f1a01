"""Exact equivariant Euler characteristics of tautological classes on
Hilbert schemes of points in the plane, computed by three independent
methods in exact arithmetic: integer Laurent tables per basis element of f,
with f's rational-function coefficients multiplied in at the end."""

from .partitions import (arm_leg, cells, conjugate, partitions_of,
                         partitions_up_to, zee)
from .ratfunc import RF0, RF1, RationalFunction1, rf_str
from .series import BiSeries
from .symfunc import (DEGREE_BOUND, DegreeBoundError, SymFunc, convert,
                      hl_inner, multiply, schur_positive, to_finite_vars)
from .finite_inner import hl_inner_finite
from .hall_littlewood import (b_norm, b_norm_finite, expand_in_P, hl_P, hl_Q,
                              jing_J, k_exponent, psi, verify_lemma)
from .euler import (EulerResult, GuardError, cross_check,
                    euler_constant_term, euler_localization, euler_theorem,
                    evaluate, fixed_point_data, omega, partition_function)
from .fexpr import ParseError, parse, render, to_symfunc

__version__ = "0.1.0"
