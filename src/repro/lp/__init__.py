"""Fractional-mapping LP upper bound (paper Section 7).

* :func:`build_upper_bound_lp` — the sparse formulation (constraints
  a–g, both objectives).
* :func:`upper_bound` — solve with HiGHS and extract the bound.
* :mod:`~repro.lp.simplex` — self-contained dense simplex for small
  instances and cross-validation.
"""

from .formulation import LPProblem, VariableIndex, build_upper_bound_lp
from .simplex import SimplexResult, simplex_min, solve_dense_lp
from .upper_bound import UpperBoundResult, solve_lp, upper_bound

__all__ = [
    "LPProblem",
    "SimplexResult",
    "UpperBoundResult",
    "VariableIndex",
    "build_upper_bound_lp",
    "simplex_min",
    "solve_dense_lp",
    "solve_lp",
    "upper_bound",
]
