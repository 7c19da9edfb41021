"""Laws of the partial smoothing action, on random grids, functions and kernels.

``phi_eps * f`` exists only on the eps-interior ``Omega_eps``, where the
kernel fits in the box.  Three laws tie ``convolve`` to that picture, in
1-3 dimensions, for smooth and sparse ``f``, with value and
first-derivative kernels:

- composition: on ``Omega_{a+b}``, smoothing by ``b`` and then by ``a``
  is one smoothing by the lattice product of the two kernels, within
  ``1e-13 * max|f|``;
- translation: shifting ``f`` by whole nodes shifts its smoothing, on the
  nodes where both are defined;
- the collar outside ``Omega_eps`` is exactly ``0.0``.

Both sides of the first two laws have the same zero pattern: for a
sparse ``f``, every node that no nonzero pair of samples reaches is
exactly ``0.0`` on each side.  Elsewhere a value can round to an exact
zero on one side only where the true value is below round-off, so the
pattern is checked on the unreached nodes.

The grids have the same power-of-two spacing ``H`` on every axis, and each
radius lies a quarter cell or more from a multiple of it, so no node sits
on the edge of an interior region.  The last test pins the bits of
``_full_convolution`` to numpy's own n-d transforms with f's spectrum
times the kernel's: the order of that product fixes output bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolevkit import convolution
from sobolevkit.convolution import _fft_shape, _full_convolution, _lattice_kernel, convolve
from sobolevkit.grid import Box, GridFunction, interior_region, make_grid
from sobolevkit.mollifier import standard_bump

H = 1.0 / 16.0
LAWS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def kernels(draw, dim):
    """A kernel of 3 to 4 cells and a fraction per radius, and a derivative: none or one first one."""
    eps = (draw(st.integers(3, 4)) + draw(st.floats(0.25, 0.75))) * H
    axis = draw(st.none() | st.integers(0, dim - 1))
    deriv = None if axis is None else tuple(int(i == axis) for i in range(dim))
    return standard_bump(dim, eps), deriv


@st.composite
def functions(draw, dim, margin):
    """A grid of at least ``2 * margin`` cells per axis and a smooth or sparse function on it."""
    extra = {1: 24, 2: 6, 3: 2}[dim]
    res = tuple(2 * margin + draw(st.integers(0, extra)) for _ in range(dim))
    grid = make_grid(Box((0.0,) * dim, tuple(n * H for n in res)), res)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    if draw(st.booleans()):
        x = grid.points()
        phase = np.sum(x * rng.uniform(-6.0, 6.0, dim), axis=1) + rng.uniform(0.0, 6.0)
        values = np.sin(phase) + rng.uniform(-1.0, 1.0) * x[:, 0] ** 2
    else:
        count = draw(st.integers(1, 4))
        values = np.zeros(grid.node_count)
        values[rng.choice(grid.node_count, count, replace=False)] = rng.uniform(-1.0, 1.0, count)
    return GridFunction(grid, scale * values.reshape(grid.node_shape))


@st.composite
def composition_cases(draw):
    dim = draw(st.integers(1, 3))
    a, deriv = draw(kernels(dim))
    b, _ = draw(kernels(dim))
    # Omega_{a+b} holds the node 10 cells from each face
    return draw(functions(dim, margin=10)), a, deriv, b


def unreached(values, *kernels):
    """Nodes that no nonzero entry of ``values`` reaches through a nonzero sample of each kernel in turn.

    ``values`` is sparse, and node ``c + d`` of a full convolution pairs
    entry ``c`` with the kernel sample at offset ``d`` from its centre.
    """
    offsets = np.zeros((1, values.ndim), dtype=int)
    for kernel in kernels:
        steps = np.argwhere(kernel != 0) - np.array(kernel.shape) // 2
        offsets = np.unique((offsets[:, None] + steps[None]).reshape(-1, values.ndim), axis=0)
    hits = (np.argwhere(values != 0)[:, None] + offsets[None]).reshape(-1, values.ndim)
    hits = hits[np.all((hits >= 0) & (hits < values.shape), axis=1)]
    mask = np.ones(values.shape, dtype=bool)
    mask[tuple(hits.T)] = False
    return mask


def is_sparse(f):
    return np.count_nonzero(f.values) <= 4


def _lattice_product(grid, a, deriv, b):
    """The lattice kernel of ``a`` (or its derivative) convolved with that of ``b``: the full product."""
    ka = _lattice_kernel(grid, a, deriv)
    kb = _lattice_kernel(grid, b, None)
    return _full_convolution(np.pad(ka, [(n // 2, n // 2) for n in kb.shape]), kb)


@LAWS
@given(composition_cases())
def test_composition_is_the_product_kernel_on_the_joint_interior(case):
    f, a, deriv, b = case
    inner, _ = convolve(f, b)
    twice, _ = convolve(inner, a, deriv=deriv)
    once = _full_convolution(f.values, _lattice_product(f.grid, a, deriv, b))
    joint = interior_region(f.grid, a.eps + b.eps).mask
    assert joint.any()
    top = np.abs(f.values).max()
    np.testing.assert_allclose(twice.values[joint], once[joint], rtol=0, atol=1e-13 * top)
    if is_sparse(f):
        zero = joint & unreached(f.values, _lattice_kernel(f.grid, b, None), _lattice_kernel(f.grid, a, deriv))
        assert not twice.values[zero].any() and not once[zero].any()


@LAWS
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(functions(dim, margin=7), kernels(dim))), st.data())
def test_translation_by_whole_nodes(case, data):
    f, (m, deriv) = case
    dim = f.grid.dim
    shift = tuple(data.draw(st.integers(0, 3)) for _ in range(dim))
    moved = np.zeros(f.grid.node_shape)
    moved[tuple(slice(s, None) for s in shift)] = f.values[tuple(slice(None, n - s) for n, s in zip(f.grid.node_shape, shift))]
    got, region = convolve(GridFunction(f.grid, moved), m, deriv=deriv)
    want, _ = convolve(f, m, deriv=deriv)
    # node i of the moved smoothing is node i - shift of f's, where both are in the interior
    later = tuple(slice(s, None) for s in shift)
    earlier = tuple(slice(None, n - s) for n, s in zip(f.grid.node_shape, shift))
    both = region.mask[later] & region.mask[earlier]
    assert both.any()
    top = np.abs(f.values).max()
    np.testing.assert_allclose(got.values[later][both], want.values[earlier][both], rtol=0, atol=1e-13 * top)
    if is_sparse(f):
        # a node f's support cannot reach is exactly zero, and so is its shifted copy
        zero = both & unreached(f.values, _lattice_kernel(f.grid, m, deriv))[earlier]
        assert not got.values[later][zero].any() and not want.values[earlier][zero].any()


@LAWS
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(functions(dim, margin=5), kernels(dim))))
def test_collar_is_exactly_zero(case):
    f, (m, deriv) = case
    got, region = convolve(f, m, deriv=deriv)
    np.testing.assert_array_equal(region.mask, interior_region(f.grid, m.eps).mask)
    collar = got.values[~region.mask]
    assert collar.size
    assert np.all(collar == 0.0) and not np.signbit(collar).any()


def numpy_reference(a, b):
    """``_full_convolution(a, b)`` from numpy's n-d transforms: ``S = rfftn(f side); S *= rfftn(kernel side)``.

    The result is ``irfftn(S)[window]``, with the same power-of-two scaling,
    the same padded shape and the same masks' convolution for the exact zeros.
    """
    fast = _fft_shape(tuple(n + k - 1 for n, k in zip(a.shape, b.shape)))
    axes = tuple(range(a.ndim))
    window = tuple(slice(k // 2, k // 2 + n) for n, k in zip(a.shape, b.shape))

    def product(x, y):
        spectrum = np.fft.rfftn(x, fast, axes)
        spectrum *= np.fft.rfftn(y, fast, axes)
        return np.fft.irfftn(spectrum, fast, axes)[window]

    ea, eb = (math.frexp(max(-x.min(), x.max()))[1] for x in (a, b))
    out = np.ldexp(product(np.ldexp(a, -ea), np.ldexp(b, -eb)), ea + eb)
    if b[tuple(k // 2 for k in b.shape)] == 0 or not a.all():
        out[product(a != 0, b != 0) < 0.5] = 0.0
    return out


# (f shape, kernel shape): full shape -> padded shape
ENGINE_CASES = [
    ((37,), (9,)),  # 45: an odd length
    ((100,), (7,)),  # 106 -> 108
    ((30, 21), (5, 5)),  # (34, 25) -> (36, 25)
    ((150, 130), (21, 21)),  # (170, 150) -> (180, 150): several slabs of rows and of columns
    ((12, 9), (31, 27)),  # (42, 35) -> (45, 36): a kernel wider than f, as in compose
    ((17, 13, 11), (7, 5, 3)),  # (23, 17, 13) -> (24, 18, 15)
    ((40, 36, 30), (9, 9, 9)),  # (48, 44, 38) -> (48, 45, 40): several slabs
    ((9, 10, 12), (15, 13, 17)),  # (23, 22, 28) -> (24, 24, 30): a kernel wider than f
]


class TestSpectrumOrder:
    """``_full_convolution`` has the bits of numpy's own transforms, f's spectrum times the kernel's.

    numpy's complex multiply does not commute bit for bit, so swapping the
    factors of a spectrum product moves output bits; so does transforming
    the axes in another order.  Each case runs at its padded shape and at
    the exact lengths the FFTs keep when padding would pass the node limit,
    on the value path and on the masks' path, entered once by zeros in f
    and once by a zero kernel centre.
    """

    def test_f_side_times_kernel_side(self, monkeypatch):
        rng = np.random.default_rng(2718)
        padded_limit = convolution.MAX_NODES
        for f_shape, k_shape in ENGINE_CASES:
            full = tuple(n + k - 1 for n, k in zip(f_shape, k_shape))
            for limit in (padded_limit, math.prod(full)):
                monkeypatch.setattr(convolution, "MAX_NODES", limit)
                fast = _fft_shape(full)
                assert fast == full or limit == padded_limit
                for path in ("values", "zeros in f", "zero kernel centre"):
                    a = rng.uniform(-3.0, 3.0, f_shape)
                    b = rng.uniform(-1.0, 1.0, k_shape)
                    if path == "zeros in f":
                        a[rng.random(f_shape) < 0.2] = 0.0
                    elif path == "zero kernel centre":
                        b[tuple(k // 2 for k in k_shape)] = 0.0
                    got = _full_convolution(a, b)
                    assert got.tobytes() == numpy_reference(a, b).tobytes(), (f_shape, k_shape, fast, path)
