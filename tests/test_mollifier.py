import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sobolevkit
from sobolevkit.grid import _SLAB_NODES, Box, GridFunction, make_grid, quadrature
from sobolevkit.convolution import compose
from sobolevkit.mollifier import (
    Mollifier,
    UnitReport,
    _bump_derivative,
    _bump_exponential,
    _inside_ball,
    _squared_norms,
    standard_bump,
    verify_unit,
)

# Normalization constants, frozen from an independent radial computation:
# the bump is radial, so its mass over the unit ball reduces to a 1-d
# integral of exp(1/(r^2-1)) against the surface-area factor.
FROZEN_C = {1: 2.2522836210435810, 2: 2.1435657757922366, 3: 2.2671167396083265}
FROZEN_RAW_MASS_1D = 0.4439938161680794


def derivative_sups(m: Mollifier, res: int) -> list[float]:
    """Sup of ``|d^alpha m|`` over all ``|alpha| = k``, for k = 0, 1, 2, on a grid over ``[-eps, eps]^n``."""
    grid = make_grid(Box((-m.eps,) * m.dim, (m.eps,) * m.dim), res)
    pts = grid.points()
    return [
        max(
            float(np.max(np.abs(m.derivative(alpha, pts))))
            for alpha in itertools.product(range(k + 1), repeat=m.dim)
            if sum(alpha) == k
        )
        for k in range(3)
    ]


def radial_oracle_constant(dim: int) -> float:
    f = lambda r: math.exp(1.0 / (r * r - 1.0))
    if dim == 1:
        mass, _ = quad(lambda r: 2.0 * f(r), 0.0, 1.0)
    elif dim == 2:
        mass, _ = quad(lambda r: 2.0 * math.pi * r * f(r), 0.0, 1.0)
    else:
        mass, _ = quad(lambda r: 4.0 * math.pi * r * r * f(r), 0.0, 1.0)
    return 1.0 / mass


class TestNormalization:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_radial_oracle(self, dim):
        bump = standard_bump(dim)
        assert bump.normalization == pytest.approx(radial_oracle_constant(dim), abs=1e-13)
        assert bump.normalization == pytest.approx(FROZEN_C[dim], abs=1e-13)

    def test_constants_are_the_radial_rule_bit_for_bit(self):
        # 128 Gauss-Legendre nodes on [0, 1] for |S^(n-1)| * int_0^1 r^(n-1) exp(1/(r^2-1)) dr
        nodes, weights = np.polynomial.legendre.leggauss(128)
        r = 0.5 * (nodes + 1.0)
        for dim, sphere_area in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)):
            radial = 0.5 * np.sum(weights * r ** (dim - 1) * np.exp(1.0 / (r * r - 1.0)))
            assert standard_bump(dim).normalization == float(1.0 / (sphere_area * radial))

    def test_raw_mass_1d(self):
        mass, _ = quad(lambda r: 2.0 * math.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
        assert mass == pytest.approx(FROZEN_RAW_MASS_1D, abs=1e-13)
        assert standard_bump(1).normalization * mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_3d_constant_needs_little_memory(self):
        # peak RSS (VmHWM, kB) after the import versus after the first 3-d
        # constant; ru_maxrss would not do, since a child inherits the
        # forking process's peak, and this test process can be large
        code = (
            "import sobolevkit\n"
            "from sobolevkit.mollifier import standard_bump\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "before = peak()\n"
            "standard_bump(3).normalization\n"
            "print(peak() - before)\n"
        )
        src = str(Path(sobolevkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 20 * 1024

    def test_rejects_bad_dimension(self):
        for dim in (0, 4, -1):
            with pytest.raises(ValueError, match="dimension"):
                standard_bump(dim)


class TestSupportAndSign:
    def test_exact_zero_outside_unit_ball(self):
        x = np.array([[-2.0], [-1.0], [1.0], [1.0 + 1e-12], [7.5]])
        np.testing.assert_array_equal(standard_bump(1).derivative((0,), x), np.zeros(5))

    def test_positive_inside(self):
        x = np.linspace(-0.999, 0.999, 101).reshape(-1, 1)
        assert np.all(standard_bump(1).derivative((0,), x) > 0.0)

    def test_scaled_support_is_closed_eps_ball(self):
        m = standard_bump(1, 0.25)
        outside = np.array([[0.25], [-0.25], [0.3], [1.0]])
        np.testing.assert_array_equal(m.value(outside), np.zeros(4))
        # near the boundary exp(1/(z^2-1)) underflows, so probe well inside
        assert m.value(np.array([[0.24]]))[0] > 0.0

    def test_peak_value(self):
        # phi_eps(0) = C * e^(-1) * eps^(-n)
        for dim in (1, 2):
            for eps in (1.0, 0.5, 0.1):
                m = standard_bump(dim, eps)
                peak = m.value(np.zeros((1, dim)))[0]
                assert peak == pytest.approx(FROZEN_C[dim] / math.e * eps**-dim, rel=1e-10)


class TestDerivatives:
    @staticmethod
    def _fd(points, axis, h, fn):
        shift = np.zeros(points.shape[-1])
        shift[axis] = h
        return (fn(points + shift) - fn(points - shift)) / (2.0 * h)

    def test_gradient_matches_finite_difference(self):
        pts = np.linspace(-0.85, 0.85, 41).reshape(-1, 1)
        got = standard_bump(1).derivative((1,), pts)
        want = self._fd(pts, 0, 1e-6, lambda q: standard_bump(1).derivative((0,), q))
        np.testing.assert_allclose(got, want, atol=5e-5)

    def test_second_matches_finite_difference(self):
        pts = np.linspace(-0.8, 0.8, 33).reshape(-1, 1)
        got = standard_bump(1).derivative((2,), pts)
        want = self._fd(pts, 0, 1e-4, lambda q: standard_bump(1).derivative((1,), q))
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_mixed_2d_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        got = standard_bump(2).derivative((1, 1), pts)
        want = self._fd(pts, 1, 1e-5, lambda q: standard_bump(2).derivative((1, 0), q))
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_mixed_partials_commute(self):
        # differentiate x1 then x2 and x2 then x1 through their defining limits
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.9, 0.9, size=(60, 2))
        d12 = self._fd(pts, 1, 1e-5, lambda q: standard_bump(2).derivative((1, 0), q))
        d21 = self._fd(pts, 0, 1e-5, lambda q: standard_bump(2).derivative((0, 1), q))
        np.testing.assert_allclose(d12, d21, atol=1e-6)
        np.testing.assert_allclose(standard_bump(2).derivative((1, 1), pts), d12, atol=1e-5)

    def test_rejects_order_above_two(self):
        # the recurrence forms every order, but MAX_DERIVATIVE_ORDER = 2 caps what the
        # public entries accept: above it the pairings are not resolved at usable grids
        for alpha in [(3,), (2, 1), (1, 1, 1), (0, 4)]:
            with pytest.raises(ValueError, match="exceeds the supported maximum 2"):
                standard_bump(len(alpha)).derivative(alpha, np.zeros((1, len(alpha))))

    def test_odd_symmetry_of_gradient(self):
        pts = np.linspace(0.05, 0.9, 20).reshape(-1, 1)
        np.testing.assert_allclose(
            standard_bump(1).derivative((1,), pts), -standard_bump(1).derivative((1,), -pts), atol=1e-15
        )

    def test_rejects_negative_multi_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            standard_bump(2).derivative((-1, 2), np.zeros((1, 2)))

    def test_profile_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            standard_bump(2).derivative((1,), np.zeros((1, 2)))


class TestScaling:
    def test_rejects_nonpositive_eps(self):
        for eps in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive"):
                standard_bump(1, eps)
            with pytest.raises(ValueError, match="positive"):
                Mollifier(2, eps)
        for dim in (0, 4):
            with pytest.raises(ValueError, match="dimension"):
                standard_bump(dim, 0.5)

    def test_scale_outside_float64_is_refused(self):
        # eps^-2 of 1e200 underflowed to 0.0 and gave an all-zero kernel
        for eps, side in ((1e-200, "beyond"), (1e200, "below")):
            with pytest.raises(ValueError, match=re.escape(f"kernel at eps={eps} has values {side} the float64 range")):
                standard_bump(2, eps).value(np.zeros((1, 2)))
        # the first derivative needs eps^-2 in 1-d, which 1e-160 overflows; the value does not
        assert standard_bump(1, 1e-160).value(np.zeros((1, 1)))[0] > 0.0
        with pytest.raises(ValueError, match=r"\(eps\^-2 overflows\): eps is too small"):
            standard_bump(1, 1e-160).derivative((1,), np.zeros((1, 1)))

    def test_value_scaling_identity(self):
        bump = standard_bump(1)
        m = standard_bump(1, 0.2)
        x = np.array([[0.07], [-0.11], [0.0]])
        np.testing.assert_allclose(m.value(x), 5.0 * bump.value(x / 0.2), rtol=1e-14)

    @pytest.mark.parametrize("eps", [1.0, 0.37, 0.002])
    def test_mass_is_scale_invariant(self, eps):
        report = verify_unit(standard_bump(1, eps), 400)
        assert report.mass_error <= 1e-10

    def test_derivative_sups_scale_like_eps_powers(self):
        # same relative sample nodes at every eps, so the ratio is exact
        for dim in (1, 2):
            res = 400 if dim == 1 else 96
            coarse = derivative_sups(standard_bump(dim, 1.0), res)
            fine = derivative_sups(standard_bump(dim, 0.5), res)
            for k in range(3):
                assert fine[k] / coarse[k] == pytest.approx(2.0 ** (dim + k), rel=1e-12)
            assert coarse[0] < coarse[1] < coarse[2]
            assert fine[0] < fine[1] < fine[2]


class TestVerifyUnit:
    @pytest.mark.parametrize("dim,eps,res", [(1, 0.1, 400), (1, 1.0, 400), (2, 0.3, 120)])
    def test_standard_kernels_pass(self, dim, eps, res):
        report = verify_unit(standard_bump(dim, eps), res)
        assert report.nonneg
        assert report.support_ok
        assert report.mass_error <= report.mass_tol
        assert report.passed

    def test_mass_error_is_tiny_at_moderate_resolution(self):
        report = verify_unit(standard_bump(1, 0.2), 160)
        assert report.mass_error <= 1e-9

    def test_report_fails_on_bad_mass(self):
        report = UnitReport(True, True, 0.5, 1e-3)
        assert not report.passed

    def test_report_fails_on_sign(self):
        report = UnitReport(False, True, 0.0, 1e-3)
        assert not report.passed


def one_pass_unit(m, res, tol=1e-3):
    """``verify_unit`` as one pass over every node: the oracle for the slab-wise version."""
    grid = make_grid(Box((-m.eps,) * m.dim, (m.eps,) * m.dim), res)
    pts = grid.points()
    vals = m.value(pts)
    radii = np.sqrt(np.sum(pts * pts, axis=-1))
    w = reduce(np.multiply.outer, [grid.axis_weights(i) for i in range(grid.dim)])
    mass = float(np.sum(w * vals.reshape(grid.node_shape)))
    return UnitReport(bool(np.min(vals) >= 0.0), bool(np.all(vals[radii > m.eps] == 0.0)), abs(mass - 1.0), tol)


class _LateFault:
    """The standard bump plus ``c`` where ``x1 > 0.9 eps``: a fault only the last slabs hold."""

    def __init__(self, dim, c):
        self.dim, self.eps, self.c = dim, 1.0, c
        self._bump = standard_bump(dim)

    def value(self, pts):
        return self._bump.value(pts) + np.where(pts[:, 0] > 0.9, self.c, 0.0)


class TestSlabwiseVerifyUnit:
    # each first axis here spans several slabs of grid._SLAB_NODES nodes
    @pytest.mark.parametrize("dim,res", [(1, 20000), (2, 256), (3, 40)])
    @pytest.mark.parametrize("eps", [1e-100, 1e-3, 0.3, 7.3])
    def test_matches_one_pass(self, dim, res, eps):
        assert (res + 1) ** dim > 2 * _SLAB_NODES
        m = standard_bump(dim, eps)
        assert verify_unit(m, res, 1e-6) == one_pass_unit(m, res, 1e-6)

    @pytest.mark.parametrize("dim,res", [(1, 20000), (2, 256), (3, 40)])
    @pytest.mark.parametrize("c", [-1.0, 1.0])
    def test_fault_in_a_late_slab_is_seen(self, dim, res, c):
        m = _LateFault(dim, c)
        report = verify_unit(m, res)
        assert report == one_pass_unit(m, res)
        # in 1-d every node of [-eps, eps] is in the closed ball
        assert report.nonneg == (c > 0) and report.support_ok == (dim == 1)

    @pytest.mark.parametrize("res", [256, 512])
    def test_holds_two_grid_arrays_and_one_slab(self, res):
        # the value array and the quadrature's weights, plus a slab's points and
        # temporaries that do not grow with the grid: 61.5 bytes per node, all
        # the points' temporaries alive together, before values were sampled by slab
        m = standard_bump(2, 0.5)
        nodes = (res + 1) ** 2
        tracemalloc.start()
        try:
            report = verify_unit(m, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 2 * 8 * nodes + 128 * _SLAB_NODES


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSquaredNorms:
    """``_squared_norms`` has the bits of ``np.sum(z * z, axis=-1)``, the reference order of |z|^2.

    ``verify_unit``'s support radii are checked against ``one_pass_unit``'s
    ``np.sum`` in ``TestSlabwiseVerifyUnit.test_matches_one_pass``.
    """

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_points(self, dim):
        rng = np.random.default_rng(40 + dim)
        for z in (
            rng.uniform(-1.5, 1.5, (10_000, dim)),
            rng.standard_normal((7, 9, dim)) * 10.0 ** rng.integers(-150, 150, (7, 9, dim)),
            rng.uniform(-1.0, 1.0, (dim, 5000)).T,  # columns strided apart
        ):
            assert _same_bits(_squared_norms(z), np.sum(z * z, axis=-1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zeros_subnormals_and_overflow(self, dim):
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = [0.0, -0.0, tiny, -tiny, 3e-310, 1e-160, 1.0, -0.7, 1e154, 1.4e154, -1e200, 1.8e308]
        z = np.array(list(itertools.product(specials, repeat=dim)))
        with np.errstate(over="ignore"):
            got, want = _squared_norms(z), np.sum(z * z, axis=-1)
        assert np.isinf(want).any() and (want == 0.0).any()
        assert _same_bits(got, want)

    @pytest.mark.parametrize("dim,res", [(1, 20000), (2, 256), (3, 40)])
    def test_compose_support_radius_matches_whole_array_reference(self, dim, res):
        a, b = standard_bump(dim, 0.1), standard_bump(dim, 0.06)
        report = compose(a, b, res)
        grid, radius = report.kernel.grid, a.eps + b.eps
        pts = grid.points()
        hit = report.kernel.values.reshape(-1) != 0.0
        want = float((radius * np.sqrt(np.sum((pts[hit] / radius) ** 2, axis=-1))).max())
        assert report.support_radius == want


def _ball_node_peak(term, *args):
    """``term(*args)``'s tracemalloc peak, and its result."""
    tracemalloc.start()
    try:
        result = term(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


class TestBumpTermTemporaries:
    """A pure bump's ``_bump_derivative`` of order 1 or 2 is summed into one output array, with the bits of its formula."""

    @staticmethod
    def _ball():
        # a 2-d ball of about 14,000 nodes
        axis = np.linspace(-1.0, 1.0, 135)
        z = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        z = z[np.sum(z * z, axis=-1) < 1.0]
        return z, *_bump_exponential(np.sum(z * z, axis=-1))

    def test_first_order_peaks_at_two_arrays(self):
        z, u, e = self._ball()
        assert 13_000 < len(u) < 15_000
        for i in range(2):
            alpha = tuple(int(j == i) for j in range(2))
            peak, term = _ball_node_peak(_bump_derivative, (0, 0), alpha, z, u, e)
            assert peak <= 2 * u.nbytes + 4096, peak / u.nbytes
            assert _same_bits(term, -2.0 * z[:, i] / (u * u) * e)

    def test_second_order_peaks_at_three_arrays(self):
        z, u, e = self._ball()
        for axes in [(0, 0), (0, 1), (1, 1)]:
            alpha = tuple(axes.count(j) for j in range(2))
            xi, xj = (z[:, i] for i in axes)
            peak, term = _ball_node_peak(_bump_derivative, (0, 0), alpha, z, u, e)
            assert peak <= 3 * u.nbytes + 4096, (axes, peak / u.nbytes)
            want = 8.0 * xi * xj / u**3 + 4.0 * xi * xj / u**4
            if axes[0] == axes[1]:
                want = want - 2.0 / (u * u)
            assert _same_bits(term, e * want)


class TestRecurrenceAboveTheCap:
    """Orders 3 and 4 of ``_bump_derivative``, which the cap keeps from the public entries, are the
    central differences of the order below, along every axis they differentiate."""

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_finite_difference(self, dim, order):
        rng = np.random.default_rng(10 * dim + order)
        z = rng.uniform(-0.75, 0.75, (2000, dim))
        z = z[_squared_norms(z) < 0.75**2][:200]

        def derivative(beta, alpha, points):
            inside, u, e = _inside_ball(points)
            assert inside.all()
            return _bump_derivative(beta, alpha, points, u, e)

        h = 1e-5
        for alpha in itertools.product(range(order + 1), repeat=dim):
            if sum(alpha) != order:
                continue
            for beta in [(0,) * dim, tuple(int(b) for b in rng.integers(0, 3, dim))]:
                got = derivative(beta, alpha, z)
                for j in (j for j, a in enumerate(alpha) if a):
                    below = tuple(a - (i == j) for i, a in enumerate(alpha))
                    shift = h * np.eye(dim)[j]
                    want = (derivative(beta, below, z + shift) - derivative(beta, below, z - shift)) / (2.0 * h)
                    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got)), (alpha, beta, j)


def test_mollifier_integrates_to_one_on_larger_box():
    # quadrature over a box strictly containing the support still sees mass one
    m = standard_bump(1, 0.3)
    grid = make_grid(Box((-1.0,), (1.0,)), 800)
    f = GridFunction(grid, m.value(grid.points()))
    assert quadrature(f) == pytest.approx(1.0, abs=1e-10)
