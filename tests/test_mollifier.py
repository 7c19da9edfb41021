import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sobolevkit
from sobolevkit.grid import Box, GridFunction, make_grid, quadrature
from sobolevkit.mollifier import (
    Mollifier,
    UnitReport,
    bump_raw,
    bump_raw_derivative,
    scale,
    standard_bump,
    verify_unit,
)

# Normalization constants, frozen from an independent radial computation:
# the profile is radial, so its mass over the unit ball reduces to a 1-d
# integral of exp(1/(r^2-1)) against the surface-area factor.
FROZEN_C = {1: 2.2522836210435810, 2: 2.1435657757922366, 3: 2.2671167396083265}
FROZEN_RAW_MASS_1D = 0.4439938161680794


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
        profile = standard_bump(dim)
        assert profile.normalization == pytest.approx(radial_oracle_constant(dim), abs=1e-13)
        assert profile.normalization == pytest.approx(FROZEN_C[dim], abs=1e-13)

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
            "standard_bump(3)\n"
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
        np.testing.assert_array_equal(bump_raw(x), np.zeros(5))

    def test_positive_inside(self):
        x = np.linspace(-0.999, 0.999, 101).reshape(-1, 1)
        assert np.all(bump_raw(x) > 0.0)

    def test_scaled_support_is_closed_eps_ball(self):
        m = scale(standard_bump(1), 0.25)
        outside = np.array([[0.25], [-0.25], [0.3], [1.0]])
        np.testing.assert_array_equal(m.value(outside), np.zeros(4))
        # near the boundary exp(1/(z^2-1)) underflows, so probe well inside
        assert m.value(np.array([[0.24]]))[0] > 0.0

    def test_peak_value(self):
        # phi_eps(0) = C * e^(-1) * eps^(-n)
        for dim in (1, 2):
            for eps in (1.0, 0.5, 0.1):
                m = scale(standard_bump(dim), eps)
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
        got = bump_raw_derivative((1,), pts)
        want = self._fd(pts, 0, 1e-6, bump_raw)
        np.testing.assert_allclose(got, want, atol=5e-5)

    def test_second_matches_finite_difference(self):
        pts = np.linspace(-0.8, 0.8, 33).reshape(-1, 1)
        got = bump_raw_derivative((2,), pts)
        want = self._fd(pts, 0, 1e-4, lambda q: bump_raw_derivative((1,), q))
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_mixed_2d_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        got = bump_raw_derivative((1, 1), pts)
        want = self._fd(pts, 1, 1e-5, lambda q: bump_raw_derivative((1, 0), q))
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_mixed_partials_commute(self):
        # differentiate x1 then x2 and x2 then x1 through their defining limits
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.9, 0.9, size=(60, 2))
        d12 = self._fd(pts, 1, 1e-5, lambda q: bump_raw_derivative((1, 0), q))
        d21 = self._fd(pts, 0, 1e-5, lambda q: bump_raw_derivative((0, 1), q))
        np.testing.assert_allclose(d12, d21, atol=1e-6)
        np.testing.assert_allclose(bump_raw_derivative((1, 1), pts), d12, atol=1e-5)

    def test_rejects_order_above_two(self):
        # only orders 0 to 2 have closed forms; there is no numerical fallback
        for alpha in [(3,), (2, 1), (1, 1, 1), (0, 4)]:
            with pytest.raises(ValueError, match="above 2"):
                bump_raw_derivative(alpha, np.zeros((1, len(alpha))))

    def test_odd_symmetry_of_gradient(self):
        pts = np.linspace(0.05, 0.9, 20).reshape(-1, 1)
        np.testing.assert_allclose(
            bump_raw_derivative((1,), pts), -bump_raw_derivative((1,), -pts), atol=1e-15
        )

    def test_rejects_negative_multi_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bump_raw_derivative((-1, 2), np.zeros((1, 2)))

    def test_profile_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            standard_bump(2).derivative((1,), np.zeros((1, 2)))


class TestScaling:
    def test_rejects_nonpositive_eps(self):
        profile = standard_bump(1)
        for eps in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive"):
                scale(profile, eps)

    def test_value_scaling_identity(self):
        profile = standard_bump(1)
        m = scale(profile, 0.2)
        x = np.array([[0.07], [-0.11], [0.0]])
        np.testing.assert_allclose(m.value(x), 5.0 * profile.value(x / 0.2), rtol=1e-14)

    @pytest.mark.parametrize("eps", [1.0, 0.37, 0.002])
    def test_mass_is_scale_invariant(self, eps):
        report = verify_unit(scale(standard_bump(1), eps), 400)
        assert report.mass_error <= 1e-10

    def test_derivative_sups_scale_like_eps_powers(self):
        # same relative sample nodes at every eps, so the ratio is exact
        for dim in (1, 2):
            res = 400 if dim == 1 else 96
            coarse = verify_unit(scale(standard_bump(dim), 1.0), res)
            fine = verify_unit(scale(standard_bump(dim), 0.5), res)
            for k in range(3):
                assert fine.c_bounds[k] / coarse.c_bounds[k] == pytest.approx(
                    2.0 ** (dim + k), rel=1e-12
                )


class TestVerifyUnit:
    @pytest.mark.parametrize("dim,eps,res", [(1, 0.1, 400), (1, 1.0, 400), (2, 0.3, 120)])
    def test_standard_kernels_pass(self, dim, eps, res):
        report = verify_unit(scale(standard_bump(dim), eps), res)
        assert report.nonneg
        assert report.support_ok
        assert report.mass_error <= report.mass_tol
        assert report.passed
        assert report.c_bounds[0] < report.c_bounds[1] < report.c_bounds[2]

    def test_mass_error_is_tiny_at_moderate_resolution(self):
        report = verify_unit(scale(standard_bump(1), 0.2), 160)
        assert report.mass_error <= 1e-9

    def test_report_fails_on_bad_mass(self):
        report = UnitReport(True, True, 0.5, (1.0, 1.0, 1.0), 1e-3)
        assert not report.passed

    def test_report_fails_on_sign(self):
        report = UnitReport(False, True, 0.0, (1.0, 1.0, 1.0), 1e-3)
        assert not report.passed


def test_mollifier_integrates_to_one_on_larger_box():
    # quadrature over a box strictly containing the support still sees mass one
    m = scale(standard_bump(1), 0.3)
    grid = make_grid(Box((-1.0,), (1.0,)), 800)
    f = GridFunction(grid, m.value(grid.points()))
    assert quadrature(f) == pytest.approx(1.0, abs=1e-10)
