"""Smoothing kernels, weak-derivative verification, and Sobolev norms on sampled grids."""

import os

# The package makes no BLAS or LAPACK call: its work is FFTs, ufuncs and
# pure Python.  OpenBLAS would start one worker per CPU when numpy loads,
# and those workers only spin.  Ask for one thread before the first import
# below loads numpy; a value the user has set is left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import Box, Grid, GridFunction, lp_norm, make_grid, quadrature
from .mollifier import standard_bump, verify_unit
from .convolution import OrbitNet, compose, convergence_study, orbit
from .weakdiff import commutation_residual, pair, test_function_catalog, verify_weak_derivative
from .sobolev import DerivativeFamily, membership_report, sobolev_norm
from .dynamics import distributional_shadow, exponential_flow, invertibility_check, newton_net
from .expr import EvalError, ParseError, evaluate, parse

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Grid",
    "GridFunction",
    "make_grid",
    "quadrature",
    "lp_norm",
    "standard_bump",
    "verify_unit",
    "OrbitNet",
    "orbit",
    "convergence_study",
    "compose",
    "pair",
    "test_function_catalog",
    "verify_weak_derivative",
    "commutation_residual",
    "DerivativeFamily",
    "sobolev_norm",
    "membership_report",
    "newton_net",
    "invertibility_check",
    "exponential_flow",
    "distributional_shadow",
    "parse",
    "evaluate",
    "ParseError",
    "EvalError",
    "__version__",
]
