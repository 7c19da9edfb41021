"""Dynamical checks: chord iteration, invertibility, flows and shadows.

The chord iteration ``x <- x + (y - f(x)) / df_a`` solves ``f(x) = y``
with the derivative frozen at an anchor point; it contracts whenever the
frozen slope is close enough to the true one.  The exponential flow
``phi_t(x) = x * exp(k t)`` realizes the semigroup law ``phi_{s+t} =
phi_s o phi_t`` exactly, and smoothing nets recover distributional
pairings in the shrinking-eps limit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .convolution import OrbitNet, convolve
from .grid import GridFunction
from .mollifier import standard_bump
from .weakdiff import TestFunction, pair

__all__ = [
    "NewtonTrace",
    "InvertibilityReport",
    "FlowCheck",
    "ShadowReport",
    "newton_net",
    "invertibility_check",
    "exponential_flow",
    "distributional_shadow",
]

# Residuals beyond this are treated as divergence and stop the iteration
# before floating-point overflow produces non-finite iterates.
_DIVERGENCE_LIMIT = 1e15

RK4_STEP = 1e-3
# Longest RK4 control run, |t| = 1000 at RK4_STEP.  The steps run in pure
# Python, so an unbounded |t| could ask for hours of them.
MAX_RK4_STEPS = 10**6
# Largest chord-iteration budget.  Each iterate is a pure-Python evaluation
# kept in the trace, so an unbounded budget could run for hours.
MAX_NEWTON_ITER = 10**5


class NewtonTrace(NamedTuple):
    """Iterates and residuals ``|f(x_k) - y|`` of one chord-method run."""

    anchor: float
    df_anchor: float
    target: float
    iterates: tuple[float, ...]
    residuals: tuple[float, ...]
    converged: bool

    @property
    def final(self) -> float:
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def _check_max_iter(max_iter: int) -> None:
    """Refuse a chord-iteration budget below 1 or above ``MAX_NEWTON_ITER``."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if max_iter > MAX_NEWTON_ITER:
        raise ValueError(f"max_iter {max_iter} is above the limit of {MAX_NEWTON_ITER}")


def newton_net(
    f: Callable[[float], float],
    df_a: float,
    y: float,
    x0: float,
    max_iter: int = 60,
    tol: float = 1e-10,
    anchor: float | None = None,
) -> NewtonTrace:
    """Chord iteration ``x_{k+1} = x_k + (y - f(x_k)) / df_a`` toward ``f(x) = y``.

    The derivative stays frozen at its anchor value ``df_a``, which must
    be nonzero.  Iteration stops when the residual drops to ``tol``, the
    budget runs out, or the trajectory diverges; divergence (including a
    non-finite iterate) yields ``converged = False`` with the finite
    prefix of the trace.  A ``max_iter`` above ``MAX_NEWTON_ITER`` raises
    ``ValueError`` before any iterate.
    """
    df_a = float(df_a)
    y = float(y)
    x0 = float(x0)
    if df_a == 0.0:
        raise ValueError("frozen derivative df_a is zero; the chord step is undefined")
    if not all(math.isfinite(v) for v in (df_a, y, x0)):
        raise ValueError("df_a, y and x0 must be finite")
    _check_max_iter(max_iter)

    iterates = [x0]
    residuals = []
    converged = False
    x = x0
    for _ in range(int(max_iter) + 1):
        fx = float(f(x))
        if not math.isfinite(fx):
            break
        r = abs(fx - y)
        residuals.append(r)
        if r <= tol:
            converged = True
            break
        if r > _DIVERGENCE_LIMIT or len(iterates) > int(max_iter):
            break
        x = x + (y - fx) / df_a
        if not math.isfinite(x):
            break
        iterates.append(x)

    iterates = iterates[: len(residuals)] if len(residuals) < len(iterates) else iterates
    return NewtonTrace(
        anchor=float(anchor) if anchor is not None else x0,
        df_anchor=df_a,
        target=y,
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        converged=converged,
    )


class InvertibilityReport(NamedTuple):
    """Sign and size of the smoothed derivative on the interior region."""

    min_abs_df_eps: float
    invertible: bool


def invertibility_check(f: GridFunction, eps: float) -> InvertibilityReport:
    """Check that the derivative of the smoothed 1-d function never vanishes.

    ``D f_eps`` is computed with the analytic kernel derivative; the
    function is declared invertible when its derivative keeps one sign
    and stays away from zero on the interior region.  How far ``D f_eps``
    is from smoothing a weak derivative ``u`` of ``f`` is
    ``commutation_residual(f, u, (1,), eps, math.inf)``.
    """
    if f.grid.dim != 1:
        raise ValueError("invertibility check applies to 1-d grid functions")
    df_eps, region = convolve(f, standard_bump(1, eps), deriv=(1,))
    vals = df_eps.values[region.mask]
    min_abs = float(np.min(np.abs(vals)))
    sign_change = bool(vals.min() < 0.0 < vals.max())
    return InvertibilityReport(min_abs, min_abs > 0.0 and not sign_change)


class FlowCheck(NamedTuple):
    """Group-law residual of the exponential flow plus an RK4 cross-check."""

    k: float
    x0: float
    s: float
    t: float
    lhs: float
    rhs: float
    residual: float
    rk4_error: float


def _rk4_exponential(k: float, x0: float, t: float, step: float = RK4_STEP) -> float:
    """Integrate ``x' = k x`` from 0 to ``t`` with classical RK4 at fixed step."""
    if t == 0.0:
        return x0
    # bounded before the step count: for a huge |t| it has hundreds of digits, or is inf
    if not abs(t) <= MAX_RK4_STEPS * step:
        raise ValueError(
            f"t={t} needs more than {MAX_RK4_STEPS} RK4 steps of {step}: |t| must be at most {MAX_RK4_STEPS * step:g}"
        )
    n = max(1, math.ceil(abs(t) / step))
    h = t / n
    x = x0
    for _ in range(n):
        k1 = k * x
        k2 = k * (x + 0.5 * h * k1)
        k3 = k * (x + 0.5 * h * k2)
        k4 = k * (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _flow_overflow(k: float, x0: float, s: float, t: float) -> OverflowError:
    return OverflowError(f"exponential flow at k={k}, x0={x0}, s={s}, t={t} leaves the float64 range")


def _group_law(k: float, x0: float, s: float, t: float) -> tuple[float, float]:
    """``phi_{s+t}(x0)`` evaluated directly and as ``phi_t(phi_s(x0))``.

    Either value leaving the float64 range raises ``OverflowError``
    naming the arguments.
    """
    try:
        lhs = x0 * math.exp(k * (s + t))
        rhs = (x0 * math.exp(k * s)) * math.exp(k * t)
    except OverflowError:
        raise _flow_overflow(k, x0, s, t) from None
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise _flow_overflow(k, x0, s, t)
    return lhs, rhs


def exponential_flow(k: float, x0: float, s: float, t: float) -> FlowCheck:
    """Check ``phi_{s+t}(x0) = phi_t(phi_s(x0))`` for ``phi_t(x) = x e^{k t}``.

    ``lhs`` evaluates the flow at ``s + t`` directly, ``rhs`` composes the
    two partial flows; the group law makes them equal up to rounding.
    The RK4 error compares numerical integration of ``x' = k x`` over
    ``[0, t]`` against the closed form; it takes ``|t| / RK4_STEP``
    steps, so ``|t|`` above 1000 (``MAX_RK4_STEPS`` steps) raises
    ``ValueError``.  A flow whose values leave the float64 range raises
    ``OverflowError`` naming its arguments.
    """
    k, x0, s, t = float(k), float(x0), float(s), float(t)
    for name, v in (("k", k), ("x0", x0), ("s", s), ("t", t)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    rk4 = _rk4_exponential(k, x0, t)
    lhs, rhs = _group_law(k, x0, s, t)
    # e^{kt} is finite: the group law's rhs computed it
    rk4_error = abs(rk4 - x0 * math.exp(k * t))
    if not math.isfinite(rk4_error):
        raise _flow_overflow(k, x0, s, t)
    return FlowCheck(k, x0, s, t, lhs, rhs, abs(lhs - rhs), rk4_error)


class ShadowReport(NamedTuple):
    """Pairings of a smoothing net against a test function, with their limit."""

    epses: tuple[float, ...]
    pairings: tuple[float, ...]
    extrapolated: float
    direct: float


def distributional_shadow(u_net: OrbitNet, v: TestFunction) -> ShadowReport:
    """Extrapolate ``integral(u_eps * v)`` to the ``eps -> 0`` limit.

    Each net entry contributes one pairing; ``v`` must be supported
    inside every entry's region so the absent boundary values never
    matter.  The limit comes from order-1 Richardson extrapolation on
    the last two rungs of the ladder.
    """
    if not u_net.entries:
        raise ValueError("empty orbit net")
    grid = u_net.base.grid
    margin = v.support_margin(grid.box)
    for entry in u_net.entries:
        if margin <= entry.eps:
            raise ValueError(
                f"support of {v.label} is within {margin} of the boundary, "
                f"inside the absent band at eps={entry.eps}"
            )
    epses = tuple(e.eps for e in u_net.entries)
    pairings = tuple(pair(e.f_eps, v) for e in u_net.entries)
    if len(pairings) == 1:
        extrapolated = pairings[0]
    else:
        e1, e2 = epses[-2], epses[-1]
        p1, p2 = pairings[-2], pairings[-1]
        extrapolated = p2 + (p2 - p1) * e2 / (e1 - e2)
    direct = pair(u_net.base, v)
    return ShadowReport(epses, pairings, extrapolated, direct)
