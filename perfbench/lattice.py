"""Numpy reference for sobolevkit's lattice convolution.

The oracles, the tracer's work counts and the memory guard all use the
window rule below, which is the rule the program uses: an axis of
spacing ``h`` gets the offsets ``|k| <= floor(eps / h * (1 + 1e-12))``.
Nothing here imports sobolevkit, so the oracles stay independent of the
code they check.
"""

from __future__ import annotations

import math

import numpy as np


def window_radii(spacing, eps):
    return tuple(int(math.floor(eps / h * (1.0 + 1e-12))) for h in spacing)


def window_madds(node_shape, spacing, eps, zero_extend=False):
    """Multiply-adds of one windowed sum: output nodes times kernel nodes.

    Without ``zero_extend`` only nodes whose whole window lies in the grid
    get a sum; with it every node does.  The program copies every window
    before summing, so this is also its element count of that copy.
    """
    radii = window_radii(spacing, eps)
    kernel_nodes = math.prod(2 * k + 1 for k in radii)
    if zero_extend:
        out_nodes = math.prod(node_shape)
    else:
        out_nodes = math.prod(max(n - 2 * k, 0) for n, k in zip(node_shape, radii))
    return out_nodes * kernel_nodes


def format_float(x):
    """Shortest round-trip decimal with a trailing ``.0`` dropped, as the CSV writers print."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def axis_nodes(lo, hi, res):
    return [np.linspace(a, b, r + 1) for a, b, r in zip(lo, hi, res)]


def boundary_distance(axes):
    """Distance of every node to the box boundary, shape ``node_shape``."""
    dist = None
    for axis, x in enumerate(axes):
        d = np.minimum(x - x[0], x[-1] - x)
        shape = [1] * len(axes)
        shape[axis] = x.size
        d = d.reshape(shape)
        dist = d if dist is None else np.minimum(dist, d)
    return np.broadcast_to(dist, tuple(x.size for x in axes))


def trapezoid_weights(axes):
    w = np.ones(1)
    for x in axes:
        h = (x[-1] - x[0]) / (x.size - 1)
        axis_w = np.full(x.size, h)
        axis_w[0] = axis_w[-1] = h / 2.0
        w = np.multiply.outer(w, axis_w)
    return w.reshape(tuple(x.size for x in axes))


def bump_normalization(dim):
    """``1 / integral of exp(1/(|x|^2 - 1))`` over the unit ball, by a radial Gauss rule.

    Independent of the program's tensor-product quadrature; the two agree
    to about 1e-11 relative.
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (nodes + 1.0)
    radial = 0.5 * np.sum(weights * r ** (dim - 1) * np.exp(1.0 / (r * r - 1.0)))
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
    return 1.0 / (sphere * radial)


def lattice_kernel(spacing, eps):
    """Scaled bump sampled on the offset lattice, times the cell volume."""
    dim = len(spacing)
    radii = window_radii(spacing, eps)
    r2 = 0.0
    for axis, (k, h) in enumerate(zip(radii, spacing)):
        shape = [1] * dim
        shape[axis] = 2 * k + 1
        z = (np.arange(-k, k + 1) * h / eps).reshape(shape)
        r2 = r2 + z * z
    r2 = np.broadcast_to(r2, tuple(2 * k + 1 for k in radii))
    vals = np.zeros(r2.shape)
    inside = r2 < 1.0
    vals[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return vals * (bump_normalization(dim) * eps ** (-dim) * math.prod(spacing))


def valid_sum(values, kernel):
    """``out[i] = sum_d kernel[d] * values[i + d]`` where the window fits, one shifted slice per offset."""
    out_shape = tuple(n - s + 1 for n, s in zip(values.shape, kernel.shape))
    out = np.zeros(out_shape)
    for offset in zip(*np.nonzero(kernel)):
        window = tuple(slice(o, o + n) for o, n in zip(offset, out_shape))
        out += kernel[offset] * values[window]
    return out


def point_sum(values, kernel, node):
    """The windowed sum at one node whose window fits inside the grid."""
    window = tuple(slice(i - s // 2, i + s // 2 + 1) for i, s in zip(node, kernel.shape))
    return float(np.sum(kernel * values[window]))
