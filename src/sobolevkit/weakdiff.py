"""Weak derivatives checked through integration by parts.

``u`` is the alpha-th weak derivative of ``f`` when

    integral(u * phi) = (-1)^|alpha| * integral(f * d^alpha phi)

for every smooth compactly supported test function ``phi``.  Candidates
are verified against a catalog of test functions, never solved for: each
test contributes the residual of the identity above, and the candidate
passes when the worst residual stays below tolerance.  Each distinct test
function is evaluated once per report, across multi-indices: its support
window and the bump's exponential are built once, and only at the grid
nodes inside its support ball, where it can be nonzero; each derivative
is formed from them, by the kernels' bump-derivative recurrence, when its
multi-index is paired.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .convolution import _admit, _convolve_admitted
from .grid import Box, Grid, GridFunction, Region, _finite, _trapezoid_sum, lp_norm
from .mollifier import Mollifier, MultiIndex, _bump_derivative, _bump_exponential, _inside_ball, _points_2d, multi_index_order, standard_bump, validate_multi_index

__all__ = [
    "TestFunction",
    "PairingResidual",
    "test_function_catalog",
    "pair",
    "verify_weak_derivative",
    "commutation_residual",
]

# Largest test function catalog: its entries repeat after 30 (120 in 3-d),
# so a larger count only repeats pairings.
MAX_TEST_FUNCTIONS = 1000


class TestFunction:
    """Smooth test function ``e * bump((x - c)/r) * prod ((x_i - c_i)/r)^beta_i``.

    The ``e`` factor normalizes the pure bump to peak value 1 at its
    center.  Support is the closed ball of radius ``r`` around ``c``;
    derivatives up to order ``MAX_DERIVATIVE_ORDER`` are exact, from the
    kernels' one recurrence, ``mollifier._bump_derivative``.
    """

    def __init__(
        self,
        center: Sequence[float],
        radius: float,
        poly: Sequence[int] | None = None,
        label: str | None = None,
    ) -> None:
        self.center = tuple(float(c) for c in center)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        self.dim = len(self.center)
        if poly is None:
            poly = (0,) * self.dim
        self.poly = tuple(int(b) for b in poly)
        if len(self.poly) != self.dim or any(b < 0 for b in self.poly):
            raise ValueError(f"bad polynomial exponents {poly}")
        if label is None:
            mono = "".join(f"*z{i + 1}^{b}" for i, b in enumerate(self.poly) if b)
            label = f"bump(c={self.center},r={self.radius}){mono}"
        self.label = label

    @property
    def support_lo(self) -> tuple[float, ...]:
        return tuple(c - self.radius for c in self.center)

    @property
    def support_hi(self) -> tuple[float, ...]:
        return tuple(c + self.radius for c in self.center)

    def _scaled(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        return (_points_2d(points, self.dim) - np.asarray(self.center)) / self.radius

    def _closed_form(
        self, alpha: MultiIndex | None, z: NDArray[np.float64], u: NDArray[np.float64], e: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """This function (``alpha`` None) or its ``alpha`` derivative at points inside the support ball.

        ``z`` holds the points' scaled coordinates, shape ``(m, dim)``, and
        ``u``, ``e`` the bump's ``|z|^2 - 1`` and ``exp(1/u)`` there
        (``mollifier._inside_ball``); ``mollifier._bump_derivative`` forms
        the derivative in ``z``, and the chain rule's ``r^-|alpha|`` and the
        normalizing ``e`` are one scalar factor.
        """
        order = multi_index_order(alpha) if alpha else 0
        out = _bump_derivative(self.poly, alpha or (0,) * self.dim, z, u, e)
        out *= math.e * self.radius ** (-order)
        return out

    def _at(self, alpha: MultiIndex | None, points: NDArray[np.float64]) -> NDArray[np.float64]:
        z = self._scaled(points)
        inside, u, e = _inside_ball(z)
        out = np.zeros(inside.shape)
        out[inside] = self._closed_form(alpha, z[inside], u, e)
        return out

    def value(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._at(None, points)

    def derivative(self, alpha: Sequence[int], points: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._at(validate_multi_index(alpha, self.dim), points)

    def support_margin(self, box: Box) -> float:
        """Distance from the support ball to the boundary of ``box`` (negative if it escapes)."""
        return min(
            min(s_lo - b_lo, b_hi - s_hi)
            for s_lo, s_hi, b_lo, b_hi in zip(self.support_lo, self.support_hi, box.lo, box.hi)
        )

    def __repr__(self) -> str:
        return f"TestFunction({self.label})"


def test_function_catalog(box: Box, count: int = 8) -> list[TestFunction]:
    """A deterministic catalog of test functions supported strictly inside ``box``.

    Mixes pure bumps with bump-times-monomial products at varied centers
    and radii; at least 8 are produced.  A count above
    ``MAX_TEST_FUNCTIONS`` raises ``ValueError`` before any is built.
    """
    count = max(int(count), 8)
    if count > MAX_TEST_FUNCTIONS:
        raise ValueError(f"test function count {count} is above the limit of {MAX_TEST_FUNCTIONS}")
    n = box.dim
    widths = box.widths
    center = tuple((lo + hi) / 2.0 for lo, hi in zip(box.lo, box.hi))
    max_r = min(widths) / 2.0

    polys: list[tuple[int, ...]] = [(0,) * n]
    for i in range(n):
        polys.append(tuple(1 if j == i else 0 for j in range(n)))
        polys.append(tuple(2 if j == i else 0 for j in range(n)))
    if n >= 2:
        polys.append(tuple(1 if j < 2 else 0 for j in range(n)))

    out: list[TestFunction] = []
    k = 0
    while len(out) < count:
        # walk centers along the main diagonal, shrink radii as we go
        t = (k % 5 - 2) / 10.0  # offsets -0.2 .. 0.2 of the width
        c = tuple(ci + t * w * 0.8 for ci, w in zip(center, widths))
        r = max_r * (0.45 - 0.04 * (k % 6))
        poly = polys[k % len(polys)]
        cand = TestFunction(c, r, poly, label=f"t{k:02d}")
        if cand.support_margin(box) > 0:
            out.append(cand)
        k += 1
        if k > 20 * count:
            raise ValueError("could not fit the requested catalog inside the box")
    return out


class _Window(NamedTuple):
    """A test function's support box on a grid and its nodes inside the support ball.

    ``slices`` select the box's nodes and ``axis_weights`` are the grid's
    per-axis trapezoid weights there; ``inside`` masks the ball's nodes in the box,
    ``z`` holds their scaled coordinates, shape ``(m, dim)``, and ``u``,
    ``e`` the bump's ``|z|^2 - 1`` and ``exp(1/u)`` at them.
    """

    slices: tuple[slice, ...]
    axis_weights: tuple[NDArray[np.float64], ...]
    inside: NDArray[np.bool_]
    z: NDArray[np.float64]
    u: NDArray[np.float64]
    e: NDArray[np.float64]
    label: str


def _window(grid: Grid, phi: TestFunction) -> _Window:
    """``phi``'s window on ``grid``, from per-axis scaled coordinates: no box-sized point array is built."""
    if phi.dim != grid.dim:
        raise ValueError(f"test function dimension {phi.dim} does not match grid {grid.dim}")
    if phi.support_margin(grid.box) <= 0:
        raise ValueError(f"support of {phi.label} escapes the grid box")
    slices, zs, weights = [], [], []
    for axis, (lo, hi) in enumerate(zip(phi.support_lo, phi.support_hi)):
        nodes = grid.axis_nodes(axis)
        s = slice(np.searchsorted(nodes, lo, "left"), np.searchsorted(nodes, hi, "right"))
        slices.append(s)
        zs.append((nodes[s] - phi.center[axis]) / phi.radius)
        weights.append(grid.axis_weights(axis)[s])
    # |z|^2 summed over the axes in order, as mollifier._squared_norms, the
    # reference order of the |z|^2 sum, adds a point's squares, so the nodes
    # left out are exactly those where phi and its derivatives are 0.0
    r2 = reduce(np.add.outer, [zi * zi for zi in zs])
    inside = r2 < 1.0
    z = np.stack([zi[index] for zi, index in zip(zs, np.nonzero(inside))], axis=-1)
    return _Window(tuple(slices), tuple(weights), inside, z, *_bump_exponential(r2[inside]), phi.label)


def _window_sum(f: GridFunction, window: _Window, values: NDArray[np.float64]) -> float:
    """Trapezoid quadrature of ``f`` times a function that is ``values`` at the window's ball nodes.

    The function is a test function or one of its derivatives, exactly
    ``0.0`` outside the support ball, so the sum over the box, with the
    grid's trapezoid weights restricted to it, is the quadrature over the
    whole grid box.  A product or sum beyond float64 raises
    ``OverflowError`` naming the test function.
    """
    terms = np.zeros(window.inside.shape)
    terms[window.inside] = values
    with np.errstate(over="ignore", invalid="ignore"):
        terms *= f.values[window.slices]
        return _finite(_trapezoid_sum(terms, window.axis_weights), f"pairing with {window.label}")


def pair(f: GridFunction, phi: TestFunction) -> float:
    """Quadrature of ``f * phi`` over the grid box.

    ``phi``'s support must sit strictly inside the box, so the pairing
    sees the whole support and no boundary terms arise.  Only the nodes
    of the support ball are evaluated, so the cost is proportional to
    the support window, not to the grid.  A pairing beyond float64
    raises ``OverflowError`` naming ``phi``.
    """
    window = _window(f.grid, phi)
    return _window_sum(f, window, phi._closed_form(None, window.z, window.u, window.e))


class PairingResidual(NamedTuple):
    """Integration-by-parts residuals, one per test function."""

    alpha: MultiIndex
    tol: float
    test_ids: tuple[str, ...]
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def verdict(self) -> bool:
        return self.max_residual <= self.tol


def _verify_family(
    f: GridFunction,
    candidates: Sequence[tuple[MultiIndex, GridFunction]],
    tests: Sequence[TestFunction],
    tol: float,
) -> tuple[list[PairingResidual], Exception | None]:
    """Check each ``(alpha, u)`` of ``candidates`` as a weak derivative of ``f``, in one pass over ``tests``.

    Each distinct test function's window, exponential and value are built
    once and paired with every candidate still checked; each ``d^alpha
    phi`` is formed when its candidate is paired.  The first failure in
    catalog order of a candidate, a ``ValueError`` or ``ArithmeticError``,
    ends the checks of it and of every later candidate, since an
    alpha-by-alpha walk would raise it before reaching them.  Returns the
    residuals of the candidates before the first that failed, and its
    failure (``None`` when none did).
    """
    if not tests:
        return [], ValueError("no test functions supplied")
    live = len(candidates)
    failure = None
    rows: dict[tuple, list[float]] = {}
    keys = []
    for phi in tests:
        key = (type(phi), phi.center, phi.radius, phi.poly)
        keys.append(key)
        if key not in rows:
            rows[key] = row = []
            error = _pair_window(f, phi, candidates[:live], row)
            if error is not None:
                failure, live = error, len(row)
                if not live:
                    break
    ids = tuple(phi.label for phi in tests)
    results = [
        PairingResidual(alpha, float(tol), ids, tuple(rows[key][i] for key in keys))
        for i, (alpha, _) in enumerate(candidates[:live])
    ]
    return results, failure


def _pair_window(
    f: GridFunction, phi: TestFunction, candidates: Sequence[tuple[MultiIndex, GridFunction]], row: list[float]
) -> Exception | None:
    """Append to ``row`` each candidate's residual against ``phi``, up to the first failure, which is returned.

    ``phi``'s window and value are built once for all the candidates, and
    freed when this returns.
    """
    try:
        window = _window(f.grid, phi)
        value = phi._closed_form(None, window.z, window.u, window.e)
        for alpha, u in candidates:
            lhs = _window_sum(u, window, value)
            rhs = _window_sum(f, window, phi._closed_form(alpha, window.z, window.u, window.e))
            residual = abs(lhs - (-1.0) ** multi_index_order(alpha) * rhs)
            row.append(_finite(residual, f"residual at {phi.label}"))
    except (ValueError, ArithmeticError) as exc:
        # without its traceback, which would keep this window's arrays alive
        return exc.with_traceback(None)
    return None


def verify_weak_derivative(
    f: GridFunction,
    u: GridFunction,
    alpha: Sequence[int],
    tests: Sequence[TestFunction],
    tol: float,
) -> PairingResidual:
    """Check ``u`` as the alpha-th weak derivative of ``f`` against ``tests``.

    Each residual is ``|pair(u, phi) - (-1)^|alpha| pair(f, d^alpha phi)|``;
    the verdict requires the maximum over the catalog to stay within ``tol``.
    A test function listed more than once (same type, center, radius and
    polynomial) is evaluated once, and its residual repeated.  A pairing
    or residual beyond float64 raises ``OverflowError`` naming the test
    function.
    """
    f._check_same_grid(u)
    alpha = validate_multi_index(alpha, f.grid.dim, min_order=1)
    results, failure = _verify_family(f, [(alpha, u)], tests, tol)
    if failure is not None:
        raise failure
    return results[0]


def commutation_residual(
    f: GridFunction,
    u: GridFunction,
    alpha: Sequence[int],
    eps: float,
    p: float,
) -> float:
    """Size of ``d^alpha(f_eps) - (d^alpha f)_eps`` in ``L^p``.

    The first path differentiates the kernel, ``d^alpha f_eps = (d^alpha
    phi_eps) * f``, so ``f`` itself is never finite-differenced; the
    second smooths the verified weak derivative ``u``.  Differentiation
    and smoothing commute, so the residual is pure discretization error
    and shrinks with the grid spacing.
    """
    f._check_same_grid(u)
    alpha = validate_multi_index(alpha, f.grid.dim, min_order=1)
    m = standard_bump(f.grid.dim, eps)
    return _commutation_gap(f, u, m, _admit(f.grid, m, alpha), _admit(f.grid, m), p)


def _commutation_gap(
    f: GridFunction,
    u: GridFunction,
    m: Mollifier,
    derivative: tuple[NDArray[np.float64], Region],
    value: tuple[NDArray[np.float64], Region],
    p: float,
) -> float:
    """``commutation_residual`` from ``_admit``'s kernel and region for ``m``'s alpha-derivative and for ``m``."""
    left, region = _convolve_admitted(f, m, *derivative)
    right, _ = _convolve_admitted(u, m, *value)
    return lp_norm(left - right, p, region)
