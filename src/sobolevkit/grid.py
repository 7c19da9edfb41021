"""Uniform tensor-product grids on boxes.

Everything downstream (mollification, weak-derivative checks, Sobolev
norms) works with functions sampled at the nodes of a uniform grid over
an axis-aligned box in dimension 1 to 3.  This module provides the box
and grid containers, trapezoid quadrature, L^p norms, interior regions,
and the grid-function CSV writer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Box",
    "Grid",
    "GridFunction",
    "Region",
    "make_grid",
    "quadrature",
    "lp_norm",
    "interior_region",
    "write_grid_function_csv",
]

MAX_DIM = 3

# Largest node count a grid may have: one float64 array over it is 128 MiB,
# and a convolution holds several.  Checked before anything is allocated.
MAX_NODES = 2**24


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly ``x``.

    Used by the grid CSV writer and every CLI table, so identical inputs
    produce byte-identical output; integral values drop the trailing ``.0``.
    """
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _as_float_tuple(xs: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lo_1, hi_1] x ... x [lo_n, hi_n]`` with ``1 <= n <= 3``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = _as_float_tuple(self.lo)
        hi = _as_float_tuple(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError(f"lo has {len(lo)} entries but hi has {len(hi)}")
        if not 1 <= len(lo) <= MAX_DIM:
            raise ValueError(f"dimension must be between 1 and {MAX_DIM}, got {len(lo)}")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in zip(lo, hi)):
            raise ValueError("box corners must be finite")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"axis {i}: need lo < hi, got [{a}, {b}]")
            if not math.isfinite(b - a):
                raise ValueError(f"axis {i}: the width of [{a}, {b}] is beyond the float64 range")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> float:
        return math.prod(self.widths)


@dataclass(frozen=True)
class Grid:
    """Uniform grid: ``resolution[i]`` cells per axis, ``resolution[i] + 1`` nodes.

    Node coordinates along axis ``i`` are ``lo[i] + j * spacing[i]`` for
    ``j = 0 .. resolution[i]``; node values throughout the package are
    stored row-major over the axes (C order).
    """

    box: Box
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        res = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) != self.box.dim:
            raise ValueError(
                f"resolution has {len(res)} entries for a {self.box.dim}-d box"
            )
        if any(r < 1 for r in res):
            raise ValueError(f"resolution must be >= 1 per axis, got {res}")
        if self.node_count > MAX_NODES:
            raise ValueError(
                f"grid of {'x'.join(map(str, self.node_shape))} = {self.node_count} nodes"
                f" is above the limit of {MAX_NODES} nodes"
            )

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(w / r for w, r in zip(self.box.widths, self.resolution))

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(r + 1 for r in self.resolution)

    @property
    def node_count(self) -> int:
        return math.prod(self.node_shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def axis_nodes(self, axis: int) -> NDArray[np.float64]:
        return np.linspace(self.box.lo[axis], self.box.hi[axis], self.resolution[axis] + 1)

    def points(self) -> NDArray[np.float64]:
        """All node coordinates as an array of shape ``(node_count, dim)``, row-major over the axes."""
        return _lattice_points([self.axis_nodes(i) for i in range(self.dim)])

    def axis_weights(self, axis: int) -> NDArray[np.float64]:
        """Trapezoid weights along one axis: ``h/2`` at the two end nodes, ``h`` inside."""
        h = self.spacing[axis]
        w = np.full(self.resolution[axis] + 1, h)
        w[0] = w[-1] = h / 2.0
        return w


def _lattice_points(axes: Sequence[NDArray[np.float64]]) -> NDArray[np.float64]:
    """Every point of the tensor lattice of ``axes``, shape ``(N, len(axes))``, row-major over the axes."""
    # the meshgrid arrays are broadcast views, so the stack is the one allocation
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


# Nodes per slab of a slab-wise pass over a grid array: each slab's
# temporaries are a few times this, whatever the grid's size.
_SLAB_NODES = 8192


def _row_slabs(node_shape: Sequence[int]) -> Iterable[slice]:
    """Runs of first-axis rows, each of about ``_SLAB_NODES`` nodes and at least one row, even of no nodes."""
    rows = max(1, _SLAB_NODES // (math.prod(node_shape[1:]) or 1))
    return (slice(i, i + rows) for i in range(0, node_shape[0], rows))


def _trapezoid_sum(
    a: NDArray[np.float64], axis_weights: Sequence[NDArray[np.float64]], where: NDArray[np.bool_] | bool = True
) -> float:
    """The trapezoid sum of ``a`` over ``where``, ``a`` weighted in place, one run of ``_row_slabs`` rows at a time.

    The weights are the tensor product of ``axis_weights``, one per axis of ``a``.  Each slab's weights equal the
    whole product's entry by entry, so the sum has the bits of ``np.sum(reduce(np.multiply.outer, axis_weights) * a)``.
    """
    w0, *rest = axis_weights
    for rows in _row_slabs(a.shape):
        a[rows] *= reduce(np.multiply.outer, [w0[rows], *rest])
    return float(np.sum(a, where=where))


def _point_slabs(grid: Grid) -> Iterable[tuple[slice, NDArray[np.float64]]]:
    """Each run of ``_row_slabs`` rows with the coordinates of its nodes, as ``Grid.points`` orders them."""
    axes = [grid.axis_nodes(i) for i in range(grid.dim)]
    for rows in _row_slabs(grid.node_shape):
        yield rows, _lattice_points([axes[0][rows], *axes[1:]])


def _sample_lattice(
    axes: Sequence[NDArray[np.float64]], fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]
) -> NDArray[np.float64]:
    """``fn`` at every point of the tensor lattice of ``axes``, in one fresh array of shape ``(len(a) for a in axes)``.

    ``fn`` maps ``(N, len(axes))`` points to ``N`` values.  It is called once per run of ``_row_slabs`` rows of the
    first axis with more than one node, in row-major order, so the lattice's points never exist whole.  A result
    without one value per point (a scalar) raises ``ValueError``.
    """
    shape = tuple(map(len, axes))
    # leading one-node axes add nothing to the row-major order: slab the first longer axis
    lead = next((i for i, n in enumerate(shape) if n > 1), 0)
    vals = np.empty(shape)
    rows_of = vals.reshape(shape[lead:])
    for rows in _row_slabs(shape[lead:]):
        pts = _lattice_points([*axes[:lead], axes[lead][rows], *axes[lead + 1 :]])
        slab = np.asarray(fn(pts), dtype=np.float64)
        if slab.shape != pts.shape[:1]:
            raise ValueError(f"sampling gave values of shape {slab.shape} for {len(pts)} points")
        rows_of[rows] = slab.reshape(-1, *shape[lead + 1 :])
        # the next slab's points are built with this slab's gone
        del pts, slab
    return vals


def make_grid(box: Box, resolution: int | Sequence[int]) -> Grid:
    """Build a uniform grid over ``box`` with ``resolution`` cells per axis."""
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution),) * box.dim
    else:
        res = tuple(int(r) for r in resolution)
    return Grid(box, res)


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled at every node of a grid.  All values must be finite."""

    grid: Grid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} values, got {vals.size}"
            )
        self._keep(vals.reshape(self.grid.node_shape).copy())

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]) -> "GridFunction":
        """Sample ``fn``, which maps ``(N, dim)`` points to ``N`` values, into one fresh array the function keeps.

        ``fn`` must be pointwise: it is called once per run of ``_row_slabs`` rows, in row-major order, so the
        node points never exist whole.  A result without one value per point (a scalar) raises ``ValueError``.
        """
        return cls._adopt(grid, _sample_lattice([grid.axis_nodes(i) for i in range(grid.dim)], fn))

    @classmethod
    def _adopt(cls, grid: Grid, vals: NDArray[np.float64]) -> "GridFunction":
        """A grid function that keeps ``vals``, a fresh float64 array of ``grid.node_count`` values no one else holds.

        The public constructor copies its values; this path keeps the fresh
        array itself, so the values exist once.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        f._keep(vals.reshape(grid.node_shape))
        return f

    def _keep(self, vals: NDArray[np.float64]) -> None:
        # checked finite slab by slab, then read-only: the one array this function holds
        if not all(np.isfinite(vals[rows]).all() for rows in _row_slabs(vals.shape)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("grid functions live on different grids")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction._adopt(self.grid, self.values - other.values)


@dataclass(frozen=True)
class Region:
    """Boolean node mask singling out a subset of a grid's nodes."""

    grid: Grid
    mask: NDArray[np.bool_]

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.size != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} mask entries, got {mask.size}"
            )
        self._keep(mask.reshape(self.grid.node_shape).copy())

    @classmethod
    def _adopt(cls, grid: Grid, mask: NDArray[np.bool_]) -> "Region":
        """A region that keeps ``mask``, a fresh bool array of shape ``grid.node_shape`` no one else holds.

        The public constructor copies its mask; this path keeps the fresh
        array itself, so one full-grid mask exists.
        """
        region = object.__new__(cls)
        object.__setattr__(region, "grid", grid)
        region._keep(mask)
        return region

    def _keep(self, mask: NDArray[np.bool_]) -> None:
        # read-only: the one mask array this region holds
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def full(cls, grid: Grid) -> "Region":
        # a read-only view: the copy __post_init__ takes is the only full-grid array
        return cls(grid, np.broadcast_to(True, grid.node_shape))

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())


def quadrature(f: GridFunction) -> float:
    """Tensor-product trapezoid approximation of the integral of ``f`` over the grid box, on one weighted copy."""
    return _trapezoid_sum(f.values.copy(), [f.grid.axis_weights(i) for i in range(f.grid.dim)])


def lp_norm(f: GridFunction, p: float, region: Region | None = None) -> float:
    """Discrete ``L^p`` norm of ``f`` over ``region``.

    Finite ``p >= 1`` integrates ``|f|^p`` with the trapezoid rule and
    takes the p-th root; ``p = inf`` takes the max of ``|f|`` over the
    region's nodes (the grid stand-in for the essential supremum).  When
    the sum of ``|f|^p`` overflows or underflows (p = 200, |f| near 1e-3),
    it is redone on ``|f| / max|f|`` and the root scaled back, so no
    finite norm reads ``inf`` and no nonzero one 0; a norm beyond float64
    raises ``OverflowError``.  ``region=None`` is the whole grid.
    """
    if region is not None and region.grid != f.grid:
        raise ValueError("region and grid function live on different grids")
    # no region: every node, with no mask array built
    mask = True if region is None else region.mask
    if p == math.inf:  # -inf falls through to the refusal below
        # an empty region gives the initial 0.0
        return float(np.max(np.abs(f.values), where=mask, initial=0.0))
    p = float(p)
    if not p >= 1.0:  # also refuses nan
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    total = _weighted_power_sum(f, p, mask)
    if not _needs_rescale(total):
        return total ** (1.0 / p)
    # all zero: the sum is 0 on any scale
    top = float(np.max(np.abs(f.values), where=mask, initial=0.0)) or 1.0
    total = _weighted_power_sum(f, p, mask, top)
    return _finite_norm(top * total ** (1.0 / p), "L^p", p)


def _needs_rescale(total: float) -> bool:
    """Whether a sum of p-th powers overflowed or fell below float64's normal range, so its root is inf, 0 or inexact."""
    return not sys.float_info.min <= total < math.inf


def _weighted_power_sum(f: GridFunction, p: float, mask: NDArray[np.bool_] | bool, top: float = 1.0) -> float:
    """The trapezoid sum of ``(|f| / top)^p`` over ``mask``, holding one full-grid float64 array; overflow gives inf."""
    a = np.abs(f.values)
    if top != 1.0:
        a /= top
    with np.errstate(over="ignore"):
        a **= p  # the same fast scalar-power path as ``a ** p``
        return _trapezoid_sum(a, [f.grid.axis_weights(i) for i in range(f.grid.dim)], mask)


def _finite_norm(norm: float, what: str, p: float) -> float:
    """``norm``, or an ``OverflowError`` naming ``p`` when float64 cannot hold it."""
    return _finite(norm, f"{what} norm at p={format_float(p)}")


def _finite(value: float, what: str) -> float:
    """``value``, or an ``OverflowError`` naming ``what`` when float64 cannot hold it."""
    if not math.isfinite(value):
        raise OverflowError(f"{what} is beyond the float64 range")
    return value


def interior_region(grid: Grid, eps: float) -> Region:
    """Nodes at distance strictly greater than ``eps`` from the box boundary.

    The distance is ``min_i min(x_i - lo_i, hi_i - x_i)``, so a node is
    interior when it is interior along every axis.
    """
    eps = float(eps)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    masks = []
    for axis in range(grid.dim):
        x = grid.axis_nodes(axis)
        masks.append(np.minimum(x - grid.box.lo[axis], grid.box.hi[axis] - x) > eps)
    return Region._adopt(grid, reduce(np.logical_and.outer, masks))


def _format_axis_floats(xs: Sequence[float]) -> str:
    return ",".join(format_float(x) for x in xs)


def write_grid_function_csv(f: GridFunction, out: TextIO) -> None:
    """Write ``f`` as CSV: a grid header line, then one coord...,value row per node."""
    lo = _format_axis_floats(f.grid.box.lo)
    hi = _format_axis_floats(f.grid.box.hi)
    res = ",".join(str(r) for r in f.grid.resolution)
    out.write(f"# grid lo={lo} hi={hi} res={res}\n")
    pts = f.grid.points()
    vals = f.values.ravel()
    for row, v in zip(pts, vals):
        coords = ",".join(format_float(c) for c in row)
        out.write(f"{coords},{format_float(v)}\n")
