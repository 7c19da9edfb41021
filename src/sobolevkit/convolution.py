"""Convolution of grid functions against scaled kernels.

The smoothed function ``f_eps(x) = integral of phi_eps(x - y) f(y) dy``
is the lattice sum of kernel samples on the offset lattice times the
function values, scaled by the cell volume.  The sum is evaluated as one
full linear convolution by FFT, each axis zero-padded to the next
2*3*5-smooth length, which pocketfft transforms several times faster
than a prime one; only the centred window, one value per grid node, is
kept.  The FFT holds one complex spectrum of the padded shape and, beyond
it, slabs of about ``grid._SLAB_NODES`` nodes: the function's rows take
the last-axis and middle-axis transforms into the spectrum; each run of
its last-axis columns takes the kernel's transforms, the axis-0 transform,
the product and the axis-0 inverse; and only the rows of the centred
window are transformed back, straight into the result.  Each 1-d
transform is one that numpy's ``rfftn`` and ``irfftn`` make, on the same
line and in the same order of axes, and each product is the function's
spectrum times the kernel's, never the reverse, so the output has their
bits.  Every node whose window holds no nonzero pair of samples is set
to exactly ``0.0``, as the direct sum would give, so supports and the
boundary collar carry no round-off.  When the kernel's centre sample and
every sample of the function are nonzero, every node has a pair and
nothing is zeroed; otherwise a second FFT, of the nonzero masks, counts
the pairs of every node.  Because the kernel vanishes outside the
ball of radius ``eps``, the value at a node whose distance to the box
boundary exceeds ``eps`` uses only in-box data, so results are reported
on that interior region; nodes outside it carry a zero placeholder and
are flagged absent by the accompanying mask.  The full convolution
shape, the grid widened by the kernel window, is refused above
``grid.MAX_NODES`` nodes like the grid itself; where padding would take
an accepted shape past that limit, the FFTs keep its exact lengths.
Each input is scaled by a power of two before its FFT, so a result that
float64 holds never overflows on the way.  ``compose``, the product of
two kernels, is this convolution of one kernel's samples with the other.
Where the convolution exists is decided in one place, ``_admit``: it
makes every refusal of ``convolve`` from the grid and kernel alone, so
``compose`` and the command line run it before they sample anything,
and ``compose`` and ``commute`` then convolve with the kernel and region
it returned instead of admitting them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import MAX_NODES, Box, Grid, GridFunction, Region, _lattice_points, _point_slabs, _row_slabs, interior_region, lp_norm, make_grid, quadrature
from .mollifier import Mollifier, MultiIndex, _squared_norms, standard_bump

__all__ = [
    "OrbitEntry",
    "OrbitNet",
    "ConvergenceRow",
    "ConvergenceTable",
    "KernelReport",
    "convolve",
    "orbit",
    "convergence_study",
    "compose",
]


# Largest |lattice mass - 1| a value kernel may have.  Kernels with at
# least 3 cells per radius stay within 0.02 in 1-3 dimensions; one cell
# per radius is off by about 0.2, and a kernel narrower than a cell puts
# all its mass on one node.
MASS_TOL = 0.05


def _window_radii(grid: Grid, eps: float) -> tuple[int, ...]:
    # number of lattice offsets per axis with |k * h| <= eps
    return tuple(int(math.floor(eps / h * (1.0 + 1e-12))) for h in grid.spacing)


def _lattice_kernel(grid: Grid, m: Mollifier, deriv: MultiIndex | None) -> NDArray[np.float64]:
    """Kernel samples on the offset lattice, scaled by the cell volume; ``deriv`` None is the zero multi-index."""
    radii = _window_radii(grid, m.eps)
    pts = _lattice_points([np.arange(-k, k + 1, dtype=np.float64) * h for k, h in zip(radii, grid.spacing)])
    vals = m.derivative((0,) * grid.dim if deriv is None else deriv, pts)
    shape = tuple(2 * k + 1 for k in radii)
    # a sample beyond float64 is refused later: by the lattice mass, or by convolve's range check
    with np.errstate(over="ignore", invalid="ignore"):
        return vals.reshape(shape) * grid.cell_volume


def _check_lattice_mass(m: Mollifier, mass: float) -> None:
    """Refuse a value kernel (order 0) whose samples have lost their unit mass on the lattice."""
    if not abs(mass - 1.0) <= MASS_TOL:  # also refuses nan
        raise ValueError(
            f"kernel at eps={m.eps} has lattice mass {mass:.6g}, outside 1 +- {MASS_TOL}:"
            f" the grid is too coarse for this eps"
        )


def _check_full_shape(shape: tuple[int, ...]) -> None:
    # the grid widened by the kernel window: refuse it before it exists (_fft_shape pads it only within the limit)
    count = math.prod(shape)
    if count > MAX_NODES:
        raise ValueError(
            f"full convolution of {'x'.join(map(str, shape))} = {count} nodes"
            f" is above the limit of {MAX_NODES} nodes"
        )


def _full_shape(grid: Grid, eps: float) -> tuple[int, ...]:
    # the grid widened by the kernel window at eps on each side
    return tuple(n + 2 * k for n, k in zip(grid.node_shape, _window_radii(grid, eps)))


def _fast_length(n: int) -> int:
    """Smallest 2*3*5-smooth integer ``>= n``: a length pocketfft transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()  # a power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _fft_shape(full: tuple[int, ...]) -> tuple[int, ...]:
    """The shape the FFTs run on: ``full`` padded to fast lengths, unless that passes ``MAX_NODES``."""
    fast = tuple(_fast_length(n) for n in full)
    # an accepted full shape stays accepted: past the limit, keep the exact lengths
    return fast if math.prod(fast) <= MAX_NODES else full


def _full_convolution(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Centred window of the full linear convolution ``a * b``, exactly ``0.0`` wherever no nonzero pair meets.

    Node ``i`` of the result, which has ``a``'s shape, is entry
    ``i + b.shape // 2`` of the full convolution.  The FFTs run on the
    full shape padded per axis to a 2*3*5-smooth length; the padding
    lies beyond the full shape, so it adds no wrapped-around terms.
    Each input is scaled by the power of two that brings its largest
    magnitude below 1, and the result scaled back: exact in the normal
    range, so no bit changes there, and nothing overflows on the way.  A
    result beyond float64 reads ``inf`` (``nan`` for an infinite input).
    """
    full = tuple(n + k - 1 for n, k in zip(a.shape, b.shape))
    fast = _fft_shape(full)
    last = a.ndim - 1
    window = tuple(slice(k // 2, k // 2 + n) for n, k in zip(a.shape, b.shape))
    # the spectrum's last axis holds the rfft's nonnegative frequencies; a slab of it is a run of columns
    shape = fast[:-1] + (fast[-1] // 2 + 1,)
    columns = list(_row_slabs(shape[-1:] + shape[:-1]))
    rows = list(_row_slabs(a.shape))

    def fft_convolve(f_rows: Callable[[slice], np.ndarray], k: np.ndarray) -> NDArray[np.float64]:
        """``irfftn(rfftn(f, fast) * rfftn(k, fast), fast)[window]`` by slabs, ``f``'s rows given as ``f_rows(rows)``."""
        if not last:
            # the rows are the rfft's own axis: numpy's 1-d product as it stands
            spectrum = np.fft.rfft(f_rows(slice(None)), fast[0])
            spectrum *= np.fft.rfft(k, fast[0])
            return np.fft.irfft(spectrum, fast[0])[window].copy()
        # f's rows through the rfft and the middle axes; rows beyond f stay zero
        spectrum = np.zeros(shape, np.complex128)
        for r in rows:
            slab = np.fft.rfft(f_rows(r), fast[-1])
            for axis in range(last - 1, 0, -1):
                slab = np.fft.fft(slab, fast[axis], axis)
            spectrum[: a.shape[0]][r] = slab
        # each slab of columns: k's transforms, then axis 0 forward, the product and axis 0 back
        head = np.fft.rfft(k, fast[-1])
        for cols in columns:
            slab = head[..., cols]
            for axis in range(last - 1, -1, -1):
                slab = np.fft.fft(slab, fast[axis], axis)
            lines = np.fft.fft(spectrum[..., cols], axis=0)
            lines *= slab  # f's side times k's: numpy's complex multiply does not commute bit for bit
            spectrum[..., cols] = np.fft.ifft(lines, axis=0)
        del head
        # the window's rows through the middle axes and the irfft, each cropped to the window once done
        out = np.empty(a.shape)
        inner = spectrum[window[0]]
        for r in rows:
            slab = inner[r]
            for axis in range(1, last):
                slab = np.fft.ifft(slab, axis=axis)[(slice(None),) * axis + (window[axis],)]
            out[r] = np.fft.irfft(slab, fast[-1])[..., window[-1]]
        return out

    pairless = None
    if b[tuple(k // 2 for k in b.shape)] == 0 or not a.all():
        # the masks' convolution counts nonzero pairs per node: integers up to round-off;
        # run first, so only its boolean verdict is held while the values are convolved
        pairless = fft_convolve(lambda r: a[r] != 0, b != 0) < 0.5
    # otherwise every node pairs its own nonzero sample with the nonzero kernel centre
    ea, eb = (math.frexp(max(-x.min(), x.max()))[1] for x in (a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        out = fft_convolve(lambda r: np.ldexp(a[r], -ea), np.ldexp(b, -eb))
        np.ldexp(out, ea + eb, out=out)
    if pairless is not None:
        out[pairless] = 0.0
    return out


def _admit(
    grid: Grid,
    m: Mollifier,
    deriv: MultiIndex | None = None,
    zero_extend: bool = False,
) -> tuple[NDArray[np.float64], Region]:
    """The lattice kernel and result region of ``convolve`` on ``grid``, or its refusal.

    Every ``ValueError`` of ``convolve`` is raised here, in this order: the
    kernel's dimension, ``eps`` below half the smallest box width, the full
    shape within ``MAX_NODES`` (checked before any array exists), a valid
    multi-index ``deriv``, a kernel scale float64 holds, a value kernel's
    lattice mass (``deriv`` None or zero), a nonempty region.
    """
    if m.dim != grid.dim:
        raise ValueError(f"kernel dimension {m.dim} does not match grid dimension {grid.dim}")
    if not m.eps < min(grid.box.widths) / 2.0:
        raise ValueError(f"eps={m.eps} is too large for the box (needs eps < half the minimum width)")
    _check_full_shape(_full_shape(grid, m.eps))
    kernel = _lattice_kernel(grid, m, deriv)
    if deriv is None or not any(deriv):
        _check_lattice_mass(m, float(kernel.sum()))
    region = Region.full(grid) if zero_extend else interior_region(grid, m.eps)
    if region.is_empty:
        raise ValueError(f"interior region at eps={m.eps} contains no nodes")
    return kernel, region


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

    A kernel the grid cannot take raises ``ValueError`` (see ``_admit``),
    such as a value kernel (``deriv`` None or the zero multi-index) whose
    lattice mass is farther than ``MASS_TOL`` (0.05) from 1: too few cells
    per kernel radius.  A result that float64 cannot hold raises
    ``OverflowError``.
    """
    return _convolve_admitted(f, m, *_admit(f.grid, m, deriv, zero_extend))


def _convolve_admitted(
    f: GridFunction, m: Mollifier, kernel: NDArray[np.float64], region: Region
) -> tuple[GridFunction, Region]:
    """``convolve`` after ``_admit``: ``kernel`` and ``region`` are what ``_admit`` returned for ``m`` on ``f.grid``."""
    # node i of the grid is entry i + k of the full convolution, zero-extending f;
    # the eps-interior lies inside the valid window, where no zero extension enters
    vals = _full_convolution(f.values, kernel)
    vals[~region.mask] = 0.0
    if not np.isfinite(vals).all():
        raise OverflowError(f"convolution with the kernel at eps={m.eps} has values beyond the float64 range")
    # copied, not adopted: adopting raised sample-write-2d's own peak RSS by 2.3-2.5 MB (allocator layout)
    return GridFunction(f.grid, vals), region


class OrbitEntry(NamedTuple):
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


def orbit(f: GridFunction, eps_list: Sequence[float]) -> OrbitNet:
    """Mollify ``f`` at every eps of a strictly decreasing ladder."""
    epses = _check_ladder(eps_list)
    entries = []
    for eps in epses:
        f_eps, region = convolve(f, standard_bump(f.grid.dim, eps))
        entries.append(OrbitEntry(eps, f_eps, region))
    return OrbitNet(f, tuple(entries))


class ConvergenceRow(NamedTuple):
    eps: float
    error: float
    ratio: float | None


class ConvergenceTable(NamedTuple):
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


def _convergence_tables(f: GridFunction, ps: Sequence[float], eps_list: Sequence[float]) -> tuple[ConvergenceTable, ...]:
    """``convergence_study`` of ``f`` for each ``p`` of ``ps``, from one pass over the ladder.

    Each rung's ``f_eps - f`` is computed once and read in every ``p``;
    only one rung is held at a time.
    """
    epses = _check_ladder(eps_list)
    comparison = interior_region(f.grid, epses[0])
    errors: list[tuple[float, ...]] = []
    for eps in epses:
        diff = convolve(f, standard_bump(f.grid.dim, eps))[0] - f
        errors.append(tuple(lp_norm(diff, p, comparison) for p in ps))
        # free this rung before the next convolution allocates its own
        del diff
    tables = []
    for p, errs in zip(ps, zip(*errors)):
        rows = [ConvergenceRow(epses[0], errs[0], None)]
        for eps, prev, err in zip(epses[1:], errs, errs[1:]):
            rows.append(ConvergenceRow(eps, err, math.inf if err == 0.0 else prev / err))
        tables.append(ConvergenceTable(float(p), tuple(rows)))
    return tuple(tables)


def convergence_study(f: GridFunction, p: float, eps_list: Sequence[float]) -> ConvergenceTable:
    """Tabulate ``||f_eps - f||_p`` on the interior at ``max(eps_list)``."""
    return _convergence_tables(f, (p,), eps_list)[0]


class KernelReport(NamedTuple):
    """Numerical convolution of two kernels, with its support radius and mass."""

    support_radius: float
    mass: float
    kernel: GridFunction


def compose(a: Mollifier, b: Mollifier, grid_resolution: int = 256) -> KernelReport:
    """Convolve the kernels of ``a`` and ``b`` on a shared symmetric grid.

    The grid covers ``[-(eps_a + eps_b), eps_a + eps_b]^n``; the resolution
    must be even so the offset lattice is centred at the origin.  The
    result is :func:`convolve` of ``a``'s samples, extended by zero, with
    ``b``: supported in the ball of radius ``eps_a + eps_b`` with unit mass,
    mirroring composition of smoothing steps, and exactly ``0.0`` where the
    two supports cannot reach.  Both kernels must keep their unit mass
    within ``MASS_TOL`` on the grid, and ``b``'s full convolution shape
    must stay within ``MAX_NODES`` nodes, or ``ValueError`` is raised.
    """
    if a.dim != b.dim:
        raise ValueError(f"kernel dimensions differ: {a.dim} vs {b.dim}")
    grid_resolution = int(grid_resolution)
    if grid_resolution % 2 != 0:
        raise ValueError(f"grid resolution must be even, got {grid_resolution}")
    radius = a.eps + b.eps
    n = a.dim
    grid = make_grid(Box((-radius,) * n, (radius,) * n), grid_resolution)
    # b's full shape is refused before any array over the grid exists; a's
    # mass comes next, ahead of b's box check: when a.eps is below half an
    # ulp of b.eps, the box is b's own and that check would blame b for a's fault
    _check_full_shape(_full_shape(grid, b.eps))
    _check_lattice_mass(a, float(_lattice_kernel(grid, a, None).sum()))
    admitted = _admit(grid, b, zero_extend=True)
    # a's samples and the support radius come slab by slab: the node points never exist whole
    kernel = _convolve_admitted(GridFunction.from_callable(grid, a.value), b, *admitted)[0]
    # b's lattice kernel and region, like a's samples: freed before the support radius and the mass
    del admitted
    support_radius = 0.0
    for rows, pts in _point_slabs(grid):
        hit = kernel.values[rows].reshape(-1) != 0.0
        if hit.any():
            # node distances in units of the box half-width, so no square under- or overflows
            reach = radius * np.sqrt(_squared_norms(pts[hit] / radius))
            support_radius = max(support_radius, float(reach.max()))
    return KernelReport(support_radius, quadrature(kernel), kernel)
