"""Convolution of grid functions against scaled kernels.

The smoothed function ``f_eps(x) = integral of phi_eps(x - y) f(y) dy``
is the lattice sum of kernel samples on the offset lattice times the
function values, scaled by the cell volume.  The sum is evaluated as one
full linear convolution by FFT; every node whose window holds no nonzero
pair of samples is set to exactly ``0.0``, as the direct sum would give,
so supports and the boundary collar carry no round-off.  Because the
kernel vanishes outside the ball of radius ``eps``, the value at a node
whose distance to the box boundary exceeds ``eps`` uses only in-box
data, so results are reported on that interior region; nodes outside it
carry a zero placeholder and are flagged absent by the accompanying mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
from numpy.typing import NDArray

from .grid import Box, Grid, GridFunction, Region, format_float, interior_region, lp_norm, make_grid, quadrature
from .mollifier import Mollifier, MollifierProfile, scale, standard_bump

__all__ = [
    "OrbitEntry",
    "OrbitNet",
    "ConvergenceRow",
    "ConvergenceTable",
    "KernelReport",
    "mollify",
    "convolve",
    "orbit",
    "convergence_study",
    "compose",
    "write_convergence_csv",
]


def _window_radii(grid: Grid, eps: float) -> tuple[int, ...]:
    # number of lattice offsets per axis with |k * h| <= eps
    return tuple(int(math.floor(eps / h * (1.0 + 1e-12))) for h in grid.spacing)


def _lattice_kernel(grid: Grid, m: Mollifier, deriv: tuple[int, ...] | None) -> NDArray[np.float64]:
    """Kernel samples on the offset lattice, scaled by the cell volume."""
    radii = _window_radii(grid, m.eps)
    axes = [np.arange(-k, k + 1, dtype=np.float64) * h for k, h in zip(radii, grid.spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    if deriv is None:
        vals = m.value(pts)
    else:
        vals = m.derivative(deriv, pts)
    shape = tuple(2 * k + 1 for k in radii)
    return vals.reshape(shape) * grid.cell_volume


def _full_convolution(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Full linear convolution ``a * b``, exactly ``0.0`` wherever no nonzero pair meets."""
    shape = tuple(n + k - 1 for n, k in zip(a.shape, b.shape))
    axes = tuple(range(a.ndim))

    def fft_convolve(x: np.ndarray, y: np.ndarray) -> NDArray[np.float64]:
        spectrum = np.fft.rfftn(x, shape, axes) * np.fft.rfftn(y, shape, axes)
        return np.fft.irfftn(spectrum, shape, axes)

    out = fft_convolve(a, b)
    # the masks' convolution counts nonzero pairs per node: integers up to round-off
    out[fft_convolve(a != 0, b != 0) < 0.5] = 0.0
    return out


def convolve(
    f: GridFunction,
    m: Mollifier,
    deriv: tuple[int, ...] | None = None,
    zero_extend: bool = False,
) -> tuple[GridFunction, Region]:
    """Lattice convolution of ``f`` with ``phi_eps`` (or a derivative of it).

    With ``zero_extend=False`` values are produced on the interior region
    at distance ``eps`` from the boundary and zeroed elsewhere; the region
    mask flags which nodes carry data.  With ``zero_extend=True``, ``f``
    is extended by zero outside the box and every node gets a value.
    """
    grid = f.grid
    if m.dim != grid.dim:
        raise ValueError(f"kernel dimension {m.dim} does not match grid dimension {grid.dim}")
    if not m.eps < min(grid.box.widths) / 2.0:
        raise ValueError(
            f"eps={m.eps} is too large for the box (needs eps < half the minimum width)"
        )
    radii = _window_radii(grid, m.eps)
    conv = _full_convolution(f.values, _lattice_kernel(grid, m, deriv))
    # node i of the grid is entry i + k of the full convolution, zero-extending f
    vals = conv[tuple(slice(k, k + n) for k, n in zip(radii, grid.node_shape))]
    if zero_extend:
        return GridFunction(grid, vals), Region.full(grid)

    region = interior_region(grid, m.eps)
    if region.is_empty:
        raise ValueError(f"interior region at eps={m.eps} contains no nodes")
    # the eps-interior lies inside the valid window, where no zero extension enters
    vals[~region.mask] = 0.0
    return GridFunction(grid, vals), region


def mollify(f: GridFunction, m: Mollifier) -> tuple[GridFunction, Region]:
    """Smooth ``f`` by the kernel ``m``; values live on the eps-interior region."""
    return convolve(f, m)


@dataclass(frozen=True)
class OrbitEntry:
    eps: float
    f_eps: GridFunction
    region: Region


@dataclass(frozen=True)
class OrbitNet:
    """Mollifications of one base function along a strictly decreasing eps ladder."""

    base: GridFunction
    entries: tuple[OrbitEntry, ...]

    def __post_init__(self) -> None:
        _check_decreasing([e.eps for e in self.entries])


def _check_decreasing(epses: list[float]) -> None:
    if any(b >= a for a, b in zip(epses, epses[1:])):
        raise ValueError(f"eps ladder must be strictly decreasing, got {epses}")


def _check_ladder(eps_list: Sequence[float]) -> list[float]:
    epses = [float(e) for e in eps_list]
    if not epses:
        raise ValueError("eps ladder is empty")
    if any(e <= 0 for e in epses):
        raise ValueError(f"eps values must be positive, got {epses}")
    _check_decreasing(epses)
    return epses


def orbit(
    f: GridFunction,
    eps_list: Sequence[float],
    profile: MollifierProfile | None = None,
) -> OrbitNet:
    """Mollify ``f`` at every eps of a strictly decreasing ladder."""
    epses = _check_ladder(eps_list)
    if profile is None:
        profile = standard_bump(f.grid.dim)
    entries = []
    for eps in epses:
        f_eps, region = mollify(f, scale(profile, eps))
        entries.append(OrbitEntry(eps, f_eps, region))
    return OrbitNet(f, tuple(entries))


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    error: float
    ratio: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    """Approximation errors ``||f_eps - f||_p`` on a fixed comparison region.

    The region is the interior at the largest eps of the ladder, so every
    row measures the same set of nodes; ``ratio`` is the previous row's
    error over this row's.
    """

    p: float
    rows: tuple[ConvergenceRow, ...]

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r.error for r in self.rows)

    @property
    def strictly_decreasing(self) -> bool:
        errs = self.errors
        return all(b < a for a, b in zip(errs, errs[1:]))


def convergence_study(
    f: GridFunction,
    p: float,
    eps_list: Sequence[float],
    profile: MollifierProfile | None = None,
) -> ConvergenceTable:
    """Tabulate ``||f_eps - f||_p`` on the interior at ``max(eps_list)``."""
    epses = _check_ladder(eps_list)
    if profile is None:
        profile = standard_bump(f.grid.dim)
    comparison = interior_region(f.grid, epses[0])
    if comparison.is_empty:
        raise ValueError(f"comparison region at eps={epses[0]} contains no nodes")
    rows: list[ConvergenceRow] = []
    prev: float | None = None
    for eps in epses:
        f_eps, _ = mollify(f, scale(profile, eps))
        err = lp_norm(f_eps - f, p, comparison)
        ratio = None if prev is None else (math.inf if err == 0.0 else prev / err)
        rows.append(ConvergenceRow(eps, err, ratio))
        prev = err
    return ConvergenceTable(float(p), tuple(rows))


def write_convergence_csv(table: ConvergenceTable, out: TextIO) -> None:
    out.write("eps,error,ratio\n")
    for row in table.rows:
        ratio = "" if row.ratio is None else format_float(row.ratio)
        out.write(f"{format_float(row.eps)},{format_float(row.error)},{ratio}\n")


@dataclass(frozen=True)
class KernelReport:
    """Numerical convolution of two kernels, with its support radius and mass."""

    support_radius: float
    mass: float
    kernel: GridFunction


def compose(a: Mollifier, b: Mollifier, grid_resolution: int = 256) -> KernelReport:
    """Convolve the kernels of ``a`` and ``b`` on a shared symmetric grid.

    This is the lattice convolution of :func:`convolve`, read off on the
    centred window of the full convolution, so nodes the two supports
    cannot reach are exactly ``0.0``.  The result is supported in the
    ball of radius ``eps_a + eps_b`` and keeps unit mass, mirroring
    composition of smoothing steps.  The grid covers
    ``[-(eps_a + eps_b), eps_a + eps_b]^n``; the resolution must be even
    so the offset lattice is centered at the origin.
    """
    if a.dim != b.dim:
        raise ValueError(f"kernel dimensions differ: {a.dim} vs {b.dim}")
    grid_resolution = int(grid_resolution)
    if grid_resolution % 2 != 0:
        raise ValueError(f"grid resolution must be even, got {grid_resolution}")
    radius = a.eps + b.eps
    n = a.dim
    grid = make_grid(Box((-radius,) * n, (radius,) * n), grid_resolution)
    pts = grid.points()
    av = a.value(pts).reshape(grid.node_shape)
    bv = b.value(pts).reshape(grid.node_shape)
    # node i of the grid is entry i + resolution / 2 of the full convolution
    half = grid_resolution // 2
    window = tuple(slice(half, half + size) for size in grid.node_shape)
    cv = _full_convolution(av, bv)[window] * grid.cell_volume
    kernel = GridFunction(grid, cv)
    support = np.sqrt(np.sum(pts * pts, axis=-1)).reshape(grid.node_shape)
    hit = np.abs(cv) > 0.0
    support_radius = float(support[hit].max()) if hit.any() else 0.0
    mass = quadrature(kernel)
    return KernelReport(support_radius, mass, kernel)
