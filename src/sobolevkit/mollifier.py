"""Smooth compactly supported unit-mass kernels.

Every kernel is a scaled copy of one standard bump

    phi(x) = C * exp(1 / (|x|^2 - 1))   for |x| < 1,   0 otherwise,

with C chosen so the bump integrates to one over the unit ball.  A
kernel is fully described by its dimension ``n`` and radius ``eps``:
``standard_bump(n, eps)`` is ``phi_eps(x) = eps^(-n) phi(x/eps)``,
supported in the closed ball of radius ``eps`` with mass one, whose
derivative sups grow like ``eps^(-n-|alpha|)``.  ``verify_unit`` checks
a kernel's sign, support and mass on a grid over its support box.

Every derivative of the bump, and of the bump times a monomial (the
test functions of ``weakdiff``), comes from one recurrence, which forms
any order.  ``validate_multi_index`` is the one rule for the
multi-indices of kernel, test function and family derivatives, capped
at ``MAX_DERIVATIVE_ORDER``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

# a resolution policy, not a limit of ``_bump_terms``: at order 3 the pairing's
# absolute residual of a correct derivative of sin(3x) reads 1.4 at res 400 in
# 1-d, so a higher order waits for a relative residual and verdicts that carry
# their own error bar (ROADMAP items 8 and 19)
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


@lru_cache(maxsize=None)
def _bump_terms(beta: MultiIndex, alpha: MultiIndex) -> tuple[tuple[int, MultiIndex, int], ...]:
    # the (c, k, m) terms of d^alpha (z^beta exp(1/u)) = sum c z^k u^-m exp(1/u),
    # u = |z|^2 - 1, differentiated once at a time in axis order by
    # d_j z^k = k_j z^(k - e_j), d_j u^-m = -2m z_j u^(-m-1) and
    # d_j exp(1/u) = -2 z_j u^-2 exp(1/u); highest degree of z^k first, then lowest m
    if not any(alpha):
        return ((1, beta, 0),)
    j = max(i for i, a in enumerate(alpha) if a)
    terms: dict[tuple[MultiIndex, int], int] = {}
    for c, k, m in _bump_terms(beta, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]):
        down = k[:j] + (k[j] - 1,) + k[j + 1 :]
        up = k[:j] + (k[j] + 1,) + k[j + 1 :]
        for key, d in (((down, m), k[j] * c), ((up, m + 1), -2 * m * c), ((up, m + 2), -2 * c)):
            if d:
                terms[key] = terms.get(key, 0) + d
    return tuple(sorted(((c, k, m) for (k, m), c in terms.items() if c), key=lambda t: (-sum(t[1]), t[2])))


def _bump_derivative(
    beta: MultiIndex, alpha: MultiIndex, z: NDArray[np.float64], u: NDArray[np.float64], e: NDArray[np.float64]
) -> NDArray[np.float64]:
    # d^alpha (z^beta exp(1/u)) at points z, shape (m, dim), inside the unit ball,
    # from ``_bump_exponential``'s u and e there: each of ``_bump_terms`` is c times
    # the factors of z^k in axis order, divided by u^m, and summed in order into
    # the first; the sum is multiplied by e last.  A pure bump's first-order
    # derivative holds two arrays of the points at once, its second-order three
    total = None
    for c, k, m in _bump_terms(beta, alpha):
        term = np.full(len(u), float(c))
        for axis, power in enumerate(k):
            for _ in range(power):
                term *= z[:, axis]
        if m:
            term /= np.power(u, m)
        if total is None:
            total = term
        else:
            total += term
        del term
    total *= e
    return total


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
        with np.errstate(over="ignore"):  # a point too far out to scale or square is outside the ball
            z = pts / self.eps
            inside, u, e = _inside_ball(z)
        z = np.compress(inside, z, axis=0)  # the ball's points: a third of z[inside]'s time
        unit = np.zeros(inside.shape)
        unit[inside] = _bump_derivative((0,) * self.dim, alpha, z, u, e)
        return scale * (self.normalization * unit)

    def value(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._scaled((0,) * self.dim, _points_2d(points, self.dim))

    def derivative(self, alpha: Sequence[int], points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._scaled(validate_multi_index(alpha, self.dim), _points_2d(points, self.dim))


def standard_bump(dim: int, eps: float = 1.0) -> Mollifier:
    """The unit-mass standard bump in dimension ``dim``, scaled to support radius ``eps``.

    The constant comes from a radial Gauss-Legendre integral; derivatives
    of orders 0 to ``MAX_DERIVATIVE_ORDER`` are exact, from ``_bump_terms``.
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
