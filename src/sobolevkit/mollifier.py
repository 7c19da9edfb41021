"""Smooth compactly supported unit-mass kernels.

Every kernel is a scaled copy of one standard bump

    phi(x) = C * exp(1 / (|x|^2 - 1))   for |x| < 1,   0 otherwise,

with C chosen so the bump integrates to one over the unit ball.  A
kernel is fully described by its dimension ``n`` and radius ``eps``:
``standard_bump(n, eps)`` is ``phi_eps(x) = eps^(-n) phi(x/eps)``,
supported in the closed ball of radius ``eps`` with mass one, whose
derivative sups grow like ``eps^(-n-|alpha|)``.  ``verify_unit`` checks
a kernel's sign, support and mass on a grid over its support box.

``validate_multi_index`` is the one rule for the multi-indices of kernel,
test function and family derivatives, capped at ``MAX_DERIVATIVE_ORDER``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import Box, GridFunction, _point_slabs, make_grid, quadrature

__all__ = [
    "MAX_DERIVATIVE_ORDER",
    "MultiIndex",
    "Mollifier",
    "UnitReport",
    "multi_index_order",
    "standard_bump",
    "validate_multi_index",
    "verify_unit",
]

MultiIndex = tuple[int, ...]

# ``_bump_term`` has closed forms for orders 0 to 2
MAX_DERIVATIVE_ORDER = 2

# C per dimension n: 1 / (|S^(n-1)| * int_0^1 r^(n-1) exp(1/(r^2-1)) dr), as the
# bump is radial.  These are the values of a 128-node Gauss-Legendre rule, at
# machine accuracy since the bump is flat to all orders at r = 1;
# tests/test_mollifier.py recomputes them bit for bit.  Literals keep
# numpy.polynomial, which the rule needs, out of every run: the grid commands
# build a kernel before they sample, and importing it there raised their peak RSS.
_NORMALIZATION = {1: 2.2522836210435835, 2: 2.14356577579225, 3: 2.267116739608341}


def multi_index_order(alpha: MultiIndex) -> int:
    return sum(alpha)


def validate_multi_index(alpha: Sequence[int], dim: int, min_order: int = 0) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} has {len(alpha)} entries for dimension {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    order = multi_index_order(alpha)
    if order < min_order:
        raise ValueError(f"multi-index order {order} is below the minimum {min_order}")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"multi-index order {order} exceeds the supported maximum {MAX_DERIVATIVE_ORDER}"
        )
    return alpha


def _points_2d(points: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.shape[-1] != dim:
        raise ValueError(f"points have last axis {pts.shape[-1]}, expected {dim}")
    return pts


def _bump_exponential(r2: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    # u = |x|^2 - 1 and exp(1/u) at points inside the unit ball, from their |x|^2
    u = r2 - 1.0
    return u, np.exp(1.0 / u)


def _squared_norms(z: NDArray[np.float64]) -> NDArray[np.float64]:
    # |z|^2 over the last axis, added column by column in axis order: the bits
    # of np.sum(z * z, axis=-1), which sums an axis this short in order from
    # its first entry (a square is never -0.0), without a reduction per point
    r2 = z[..., 0] * z[..., 0]
    for i in range(1, z.shape[-1]):
        r2 += z[..., i] * z[..., i]
    return r2


def _inside_ball(z: NDArray[np.float64]) -> tuple[NDArray[np.bool_], NDArray[np.float64], NDArray[np.float64]]:
    # which points of z, shape (m, dim), lie in the open unit ball, where the
    # bump can be nonzero, and the bump's u and exp(1/u) at those
    r2 = _squared_norms(z)
    inside = r2 < 1.0
    return inside, *_bump_exponential(r2[inside])


def _bump_term(
    axes: tuple[int, ...], coords: list[NDArray[np.float64]], u: NDArray[np.float64], e: NDArray[np.float64]
) -> NDArray[np.float64]:
    # the derivative of exp(1/u) along ``axes`` (at most two) inside the ball,
    # from ``_bump_exponential``'s u and e and the points' coordinates along ``axes``;
    # each case is computed into one output array, in the operation order of
    # its formula, so a term holds at most two (first order) or three (second
    # order) arrays of the ball's nodes at once
    if not axes:
        return e
    if len(axes) == 1:
        # d/dx_i exp(1/u) = -2 x_i / u^2 * exp(1/u), as ((-2 x_i) / (u u)) e
        [xi] = coords
        term = np.multiply(-2.0, xi)
        term /= u * u
        term *= e
        return term
    # d2/dx_i dx_j exp(1/u) = exp(1/u) * (-2 delta_ij/u^2 + 8 x_i x_j/u^3 + 4 x_i x_j/u^4),
    # as e (((8 x_i) x_j / u^3 + (4 x_i) x_j / u^4) - 2 / (u u))
    xi, xj = coords
    term = np.multiply(8.0, xi)
    term *= xj
    term /= np.power(u, 3)
    part = np.multiply(4.0, xi)
    part *= xj
    part /= np.power(u, 4)
    term += part
    if axes[0] == axes[1]:
        np.multiply(u, u, out=part)
        term -= np.divide(2.0, part, out=part)
    term *= e
    return term


@dataclass(frozen=True)
class Mollifier:
    """Scaled standard bump ``phi_eps(x) = eps^(-n) phi(x/eps)`` supported on ``|x| <= eps``.

    ``dim`` must be 1 to 3 and ``eps`` positive and finite; ``eps = 1``
    is the unscaled bump, whose constant ``normalization`` gives it unit
    mass.
    """

    dim: int
    eps: float

    def __post_init__(self) -> None:
        dim, eps = int(self.dim), float(self.eps)
        if not 1 <= dim <= 3:
            raise ValueError(f"dimension must be between 1 and 3, got {dim}")
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "eps", eps)

    @property
    def normalization(self) -> float:
        return _NORMALIZATION[self.dim]

    def _scaled(self, alpha: MultiIndex, pts: NDArray[np.float64]) -> NDArray[np.float64]:
        # eps^(-n-|alpha|) * C * (d^alpha raw)(pts / eps): the d^alpha phi_eps samples
        order = sum(alpha)
        try:
            scale = self.eps ** (-self.dim - order)
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            where, flows, eps_is = ("beyond", "overflows", "small") if scale else ("below", "underflows", "large")
            raise ValueError(
                f"kernel at eps={self.eps} has values {where} the float64 range"
                f" (eps^-{self.dim + order} {flows}): eps is too {eps_is}"
            )
        axes = tuple(i for i, a in enumerate(alpha) for _ in range(a))
        with np.errstate(over="ignore"):  # a point too far out to scale or square is outside the ball
            z = pts / self.eps
            inside, u, e = _inside_ball(z)
        unit = np.zeros(inside.shape)
        unit[inside] = _bump_term(axes, [z[..., i][inside] for i in axes], u, e)
        return scale * (self.normalization * unit)

    def value(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._scaled((0,) * self.dim, _points_2d(points, self.dim))

    def derivative(self, alpha: Sequence[int], points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._scaled(validate_multi_index(alpha, self.dim), _points_2d(points, self.dim))


def standard_bump(dim: int, eps: float = 1.0) -> Mollifier:
    """The unit-mass standard bump in dimension ``dim``, scaled to support radius ``eps``.

    The constant comes from a radial Gauss-Legendre integral; derivatives
    are available in closed form for orders 0 to ``MAX_DERIVATIVE_ORDER``.
    """
    return Mollifier(dim, eps)


class UnitReport(NamedTuple):
    """Checked unit properties of a scaled kernel."""

    nonneg: bool
    support_ok: bool
    mass_error: float
    mass_tol: float

    @property
    def passed(self) -> bool:
        return self.nonneg and self.support_ok and self.mass_error <= self.mass_tol


def verify_unit(m: Mollifier, grid_resolution: int, tol: float = 1e-3) -> UnitReport:
    """Check the defining kernel properties on a grid over ``[-eps, eps]^n``.

    Verifies nonnegativity and the exact-zero branch outside the support
    ball, and measures ``|quadrature - 1|`` against ``tol``.  The kernel
    is sampled and its node radii taken slab by slab, so the points and
    their temporaries exist one slab at a time.
    """
    grid = make_grid(Box((-m.eps,) * m.dim, (m.eps,) * m.dim), int(grid_resolution))
    f = GridFunction.from_callable(grid, m.value)
    support_ok = True
    for rows, pts in _point_slabs(grid):
        radii = np.sqrt(_squared_norms(pts))
        support_ok = support_ok and bool(np.all(f.values[rows].reshape(-1)[radii > m.eps] == 0.0))
    return UnitReport(bool(np.min(f.values) >= 0.0), support_ok, abs(quadrature(f) - 1.0), float(tol))
