"""Smoothing kernels, weak-derivative verification, and Sobolev norms on sampled grids."""

import os

# The package makes no BLAS or LAPACK call: its work is FFTs, ufuncs and
# pure Python.  OpenBLAS would start one worker per CPU when numpy loads,
# and those workers only spin.  Ask for one thread before the first import
# below loads numpy; a value the user has set is left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import (
    Box,
    Grid,
    GridFunction,
    Region,
    interior_region,
    lp_norm,
    make_grid,
    quadrature,
)
from .mollifier import Mollifier, UnitReport, standard_bump, verify_unit
from .convolution import (
    ConvergenceTable,
    KernelReport,
    OrbitNet,
    compose,
    convergence_study,
    orbit,
)
from .weakdiff import (
    PairingResidual,
    TestFunction,
    commutation_residual,
    pair,
    test_function_catalog,
    verify_weak_derivative,
)
from .sobolev import (
    DerivativeFamily,
    MembershipReport,
    membership_report,
    sobolev_norm,
)
from .dynamics import (
    FlowCheck,
    NewtonTrace,
    distributional_shadow,
    exponential_flow,
    invertibility_check,
    newton_net,
)
from .expr import EvalError, ParseError, evaluate, parse, to_source

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Grid",
    "GridFunction",
    "Region",
    "make_grid",
    "quadrature",
    "lp_norm",
    "interior_region",
    "Mollifier",
    "UnitReport",
    "standard_bump",
    "verify_unit",
    "OrbitNet",
    "ConvergenceTable",
    "KernelReport",
    "orbit",
    "convergence_study",
    "compose",
    "TestFunction",
    "PairingResidual",
    "pair",
    "test_function_catalog",
    "verify_weak_derivative",
    "commutation_residual",
    "DerivativeFamily",
    "MembershipReport",
    "sobolev_norm",
    "membership_report",
    "NewtonTrace",
    "FlowCheck",
    "newton_net",
    "invertibility_check",
    "exponential_flow",
    "distributional_shadow",
    "parse",
    "evaluate",
    "to_source",
    "ParseError",
    "EvalError",
    "__version__",
]
