"""Smooth compactly supported unit-mass kernels.

The standard bump profile is

    phi(x) = C * exp(1 / (|x|^2 - 1))   for |x| < 1,   0 otherwise,

with C chosen so the profile integrates to one over the unit ball.
Scaling by ``eps`` gives the family ``phi_eps(x) = eps^(-n) phi(x/eps)``:
support shrinks to the closed ball of radius ``eps`` while the mass
stays one, and the derivative sups grow like ``eps^(-n-|alpha|)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import Box, GridFunction, make_grid, quadrature

__all__ = [
    "MollifierProfile",
    "Mollifier",
    "UnitReport",
    "standard_bump",
    "scale",
    "verify_unit",
    "bump_raw",
    "bump_raw_derivative",
]

# Gauss-Legendre nodes for the radial normalization integral over [0, 1].
# The profile is flat to all orders at r = 1, so the rule converges faster
# than any power of the node count; 128 nodes are at machine accuracy.
_RADIAL_NODES = 128

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _points_2d(points: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.shape[-1] != dim:
        raise ValueError(f"points have last axis {pts.shape[-1]}, expected {dim}")
    return pts


def _raw_closed_form(pts: NDArray[np.float64], axes: tuple[int, ...]) -> NDArray[np.float64]:
    # derivative of exp(1/u), u = |x|^2 - 1, along ``axes`` (at most two),
    # with an exact-zero branch outside |x| < 1
    r2 = np.sum(pts * pts, axis=-1)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    u = r2[inside] - 1.0
    e = np.exp(1.0 / u)
    if not axes:
        out[inside] = e
    elif len(axes) == 1:
        # d/dx_i exp(1/u) = -2 x_i / u^2 * exp(1/u)
        xi = pts[..., axes[0]][inside]
        out[inside] = -2.0 * xi / (u * u) * e
    else:
        # d2/dx_i dx_j exp(1/u) = exp(1/u) * (-2 delta_ij/u^2 + 8 x_i x_j/u^3 + 4 x_i x_j/u^4)
        i, j = axes
        xi = pts[..., i][inside]
        xj = pts[..., j][inside]
        term = 8.0 * xi * xj / u**3 + 4.0 * xi * xj / u**4
        if i == j:
            term = term - 2.0 / (u * u)
        out[inside] = e * term
    return out


def bump_raw(points: NDArray[np.float64]) -> NDArray[np.float64]:
    """Unnormalized bump ``exp(1/(|x|^2 - 1))`` with an exact-zero branch outside ``|x| < 1``."""
    return _raw_closed_form(np.asarray(points, dtype=np.float64), ())


def bump_raw_derivative(alpha: tuple[int, ...], points: NDArray[np.float64]) -> NDArray[np.float64]:
    """Partial derivative ``d^alpha`` of the unnormalized bump, in closed form.

    Only orders 0 to 2 are supported; a higher order raises ``ValueError``.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    axes = tuple(i for i, a in enumerate(alpha) for _ in range(a))
    if len(axes) > 2:
        raise ValueError(f"derivative order {len(axes)} of {alpha} is above 2")
    return _raw_closed_form(_points_2d(points, len(alpha)), axes)


@dataclass(frozen=True)
class MollifierProfile:
    """Normalized standard bump on the unit ball in dimension ``dim``."""

    dim: int
    normalization: float

    @property
    def support_radius(self) -> float:
        return 1.0

    def value(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.normalization * bump_raw(_points_2d(points, self.dim))

    def derivative(self, alpha: tuple[int, ...], points: NDArray[np.float64]) -> NDArray[np.float64]:
        if len(alpha) != self.dim:
            raise ValueError(f"multi-index {alpha} does not match dimension {self.dim}")
        return self.normalization * bump_raw_derivative(alpha, _points_2d(points, self.dim))


@functools.lru_cache(maxsize=None)
def _normalization_constant(dim: int) -> float:
    # the bump is radial: its mass is |S^(dim-1)| * int_0^1 r^(dim-1) exp(1/(r^2-1)) dr
    nodes, weights = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    r = 0.5 * (nodes + 1.0)
    radial = 0.5 * np.sum(weights * r ** (dim - 1) * np.exp(1.0 / (r * r - 1.0)))
    return float(1.0 / (_SPHERE_AREA[dim] * radial))


def standard_bump(dim: int) -> MollifierProfile:
    """The standard bump profile in dimension ``dim``, normalized to unit mass.

    The constant comes from a radial Gauss-Legendre integral; derivatives
    are available in closed form for orders 0 to 2.
    """
    dim = int(dim)
    if not 1 <= dim <= 3:
        raise ValueError(f"dimension must be between 1 and 3, got {dim}")
    return MollifierProfile(dim, _normalization_constant(dim))


@dataclass(frozen=True)
class Mollifier:
    """Scaled kernel ``phi_eps(x) = eps^(-n) phi(x/eps)`` supported on ``|x| <= eps``."""

    profile: MollifierProfile
    eps: float

    @property
    def dim(self) -> int:
        return self.profile.dim

    @property
    def support_radius(self) -> float:
        return self.eps

    def value(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        pts = _points_2d(points, self.dim)
        return self.eps ** (-self.dim) * self.profile.value(pts / self.eps)

    def derivative(self, alpha: tuple[int, ...], points: NDArray[np.float64]) -> NDArray[np.float64]:
        pts = _points_2d(points, self.dim)
        order = sum(alpha)
        return self.eps ** (-self.dim - order) * self.profile.derivative(alpha, pts / self.eps)


def scale(profile: MollifierProfile, eps: float) -> Mollifier:
    """Scale ``profile`` down to support radius ``eps > 0``."""
    eps = float(eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return Mollifier(profile, eps)


@dataclass(frozen=True)
class UnitReport:
    """Checked unit properties of a scaled kernel.

    ``c_bounds[k]`` is the observed sup of ``|d^alpha phi_eps|`` over all
    multi-indices of order ``k``, for ``k = 0, 1, 2``.
    """

    nonneg: bool
    support_ok: bool
    mass_error: float
    c_bounds: tuple[float, float, float]
    mass_tol: float

    @property
    def passed(self) -> bool:
        return self.nonneg and self.support_ok and self.mass_error <= self.mass_tol


def _multi_indices_of_order(dim: int, order: int) -> list[tuple[int, ...]]:
    return [a for a in itertools.product(range(order + 1), repeat=dim) if sum(a) == order]


def verify_unit(m: Mollifier, grid_resolution: int, tol: float = 1e-3) -> UnitReport:
    """Check the defining kernel properties on a grid over ``[-eps, eps]^n``.

    Verifies nonnegativity and the exact-zero branch outside the support
    ball, measures ``|quadrature - 1|``, and records derivative sups up
    to order two.
    """
    n = m.dim
    box = Box((-m.eps,) * n, (m.eps,) * n)
    grid = make_grid(box, int(grid_resolution))
    pts = grid.points()
    vals = m.value(pts)

    nonneg = bool(np.min(vals) >= 0.0)
    radii = np.sqrt(np.sum(pts * pts, axis=-1))
    outside = radii > m.eps
    support_ok = bool(np.all(vals[outside] == 0.0))
    mass = quadrature(GridFunction(grid, vals.reshape(grid.node_shape)))
    mass_error = abs(mass - 1.0)

    c_bounds = []
    for order in range(3):
        sup = 0.0
        for alpha in _multi_indices_of_order(n, order):
            sup = max(sup, float(np.max(np.abs(m.derivative(alpha, pts)))))
        c_bounds.append(sup)

    return UnitReport(nonneg, support_ok, mass_error, tuple(c_bounds), float(tol))
