import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolevkit.cli import _table
from sobolevkit.convolution import OrbitNet, orbit
from sobolevkit.dynamics import (
    MAX_NEWTON_ITER,
    MAX_RK4_STEPS,
    RK4_STEP,
    distributional_shadow,
    exponential_flow,
    invertibility_check,
    newton_net,
)
from sobolevkit.grid import Box, GridFunction, interior_region, make_grid
from sobolevkit.mollifier import standard_bump
from sobolevkit.weakdiff import TestFunction, commutation_residual

SQRT2 = 1.4142135623730951


def unit_grid(res=400):
    return make_grid(Box((0.0,), (1.0,)), res)


def sample(grid, fn):
    return GridFunction(grid, fn(grid.points()[:, 0]))


def attenuation(eps):
    z = np.linspace(-1.0, 1.0, 4001)
    vals = standard_bump(1).value(z.reshape(-1, 1)) * np.cos(2.0 * math.pi * eps * z)
    return float(np.trapezoid(vals, z))


class TestNewton:
    def test_square_root_of_two(self):
        trace = newton_net(lambda x: x * x, 3.0, 2.0, 1.5, tol=1e-14)
        assert trace.converged
        assert trace.final == pytest.approx(SQRT2, abs=1e-12)
        assert 5 <= trace.iterations <= 20
        assert len(trace.iterates) == len(trace.residuals)

    def test_contraction_rate_of_frozen_slope(self):
        # for f = x^2 anchored at 1.5 the error contracts by |1 - 2 sqrt2 / 3|
        trace = newton_net(lambda x: x * x, 3.0, 2.0, 1.5, tol=1e-14)
        rate = abs(1.0 - 2.0 * SQRT2 / 3.0)
        ratios = [b / a for a, b in zip(trace.residuals[2:-1], trace.residuals[3:])]
        assert ratios
        for r in ratios:
            assert r == pytest.approx(rate, rel=0.2)

    def test_linear_solves_in_one_step(self):
        trace = newton_net(lambda x: 3.0 * x + 1.0, 3.0, 7.0, 0.0)
        assert trace.converged
        assert trace.final == 2.0
        assert trace.iterations == 1
        assert trace.residuals[-1] == 0.0

    def test_starting_at_solution(self):
        trace = newton_net(lambda x: x, 1.0, 0.25, 0.25)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.iterates == (0.25,)

    def test_wrong_sign_slope_diverges(self):
        trace = newton_net(lambda x: x * x, -3.0, 2.0, 1.5)
        assert not trace.converged
        assert all(math.isfinite(r) for r in trace.residuals)
        assert all(math.isfinite(x) for x in trace.iterates)
        assert trace.residuals[-1] > trace.residuals[0]

    def test_divergence_stops_before_overflow(self):
        # error doubles every step; the cap kicks in long before inf
        trace = newton_net(lambda x: 3.0 * x, 1.0, 1.0, 10.0)
        assert not trace.converged
        assert max(trace.residuals) <= 1e15 * 4.0

    def test_budget_exhaustion(self):
        trace = newton_net(lambda x: x, 10.0, 1.0, 0.0, max_iter=5)
        assert not trace.converged
        assert trace.iterations == 5

    def test_non_finite_function_value(self):
        trace = newton_net(lambda x: math.nan, 1.0, 0.0, 1.0)
        assert not trace.converged
        assert trace.iterates == ()
        assert trace.residuals == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="zero"):
            newton_net(lambda x: x, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            newton_net(lambda x: x, 1.0, math.inf, 0.0)
        with pytest.raises(ValueError, match="max_iter"):
            newton_net(lambda x: x, 1.0, 1.0, 0.0, max_iter=0)

    def test_budget_limit(self):
        # every iterate is kept, and a budget of 10^9 ran past 10 s; it is refused before f is called
        def never(x):
            raise AssertionError("f was called")

        message = f"max_iter {MAX_NEWTON_ITER + 1} is above the limit of {MAX_NEWTON_ITER}"
        with pytest.raises(ValueError, match=message):
            newton_net(never, 1.0, 1.0, 0.0, max_iter=MAX_NEWTON_ITER + 1)
        assert newton_net(lambda x: x, 1.0, 1.0, 0.0, max_iter=MAX_NEWTON_ITER).converged

    def test_anchor_recorded(self):
        trace = newton_net(lambda x: x, 2.0, 1.0, 0.0, anchor=7.0)
        assert trace.anchor == 7.0
        assert newton_net(lambda x: x, 2.0, 1.0, 0.5).anchor == 0.5

    def test_csv_format(self):
        # integer iteration counts print as ints, integral floats drop ".0"
        text = _table(("iter", "x", "residual"), [(0, 1.0, 1.0), (1, 2.0, 0.0)])
        assert text == "iter,x,residual\n0,1,1\n1,2,0\n"


class TestInvertibility:
    def test_perturbed_identity_is_invertible(self):
        grid = unit_grid()
        f = sample(grid, lambda x: x + 0.1 * np.sin(2 * math.pi * x))
        u = sample(grid, lambda x: 1.0 + 0.2 * math.pi * np.cos(2 * math.pi * x))
        eps = 0.1
        report = invertibility_check(f, eps)
        assert report.invertible
        # differentiating the kernel and smoothing the weak derivative agree
        assert commutation_residual(f, u, (1,), eps, math.inf) <= 1e-3

        # the smoothed slope is 1 + 0.2 pi A(eps) cos(2 pi x) on the interior
        a = attenuation(eps)
        x = grid.points()[:, 0][interior_region(grid, eps).mask]
        predicted = np.min(np.abs(1.0 + 0.2 * math.pi * a * np.cos(2 * math.pi * x)))
        assert report.min_abs_df_eps == pytest.approx(predicted, abs=1e-4)

    def test_identity_is_invertible(self):
        grid = unit_grid(200)
        f = sample(grid, lambda x: x)
        assert invertibility_check(f, 0.1).invertible

    def test_sign_change_is_rejected(self):
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        report = invertibility_check(f, 0.1)
        assert not report.invertible

    def test_requires_1d(self):
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 32)
        f = GridFunction(grid, np.zeros(grid.node_count))
        with pytest.raises(ValueError, match="1-d"):
            invertibility_check(f, 0.1)


class TestExponentialFlow:
    def test_known_value(self):
        check = exponential_flow(1.0, 2.0, 0.3, 0.4)
        assert check.lhs == pytest.approx(2.0 * math.exp(0.7), rel=1e-15)
        assert check.residual <= 1e-12

    def test_rk4_accuracy(self):
        worst = 0.0
        for k, x0, t in [(1.0, 5.0, 1.0), (-1.0, -5.0, 1.0), (0.7, 2.0, -0.9)]:
            check = exponential_flow(k, x0, 0.0, t)
            worst = max(worst, check.rk4_error)
        assert worst <= 1e-10

    def test_zero_time(self):
        check = exponential_flow(2.0, 3.0, 0.5, 0.0)
        assert check.rk4_error == 0.0
        assert check.lhs == pytest.approx(3.0 * math.exp(1.0), rel=1e-15)

    def test_zero_rate_is_exact(self):
        check = exponential_flow(0.0, 2.0, 0.1, 0.2)
        assert check.lhs == 2.0
        assert check.rhs == 2.0
        assert check.residual == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            exponential_flow(math.nan, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "k,x0,s,t", [(1e300, 1.0, 7.0, 2.0), (1e200, 1e200, 0.0, 1e-250), (800.0, 1.0, 0.0, 1.0)]
    )
    def test_overflow_names_the_values(self, k, x0, s, t):
        message = f"exponential flow at k={k}, x0={x0}, s={s}, t={t} leaves the float64 range"
        with pytest.raises(OverflowError) as info:
            exponential_flow(k, x0, s, t)
        assert str(info.value) == message

    def test_rk4_step_limit(self):
        # |t| = 1000 is the longest control run; beyond it the step count is refused
        assert MAX_RK4_STEPS * RK4_STEP == 1000.0
        for t in (1000.001, -1e5, 1e9):
            with pytest.raises(ValueError, match="RK4 steps"):
                exponential_flow(0.0, 1.0, 0.0, t)

    def test_rk4_limit_checked_before_the_step_count(self):
        # ceil(|t| / step) of a huge t is a 300-digit integer, or no integer at all
        for t in (1e305, -1e306, 1.7e308):
            with pytest.raises(ValueError) as info:
                exponential_flow(1.0, 1.0, 0.0, t)
            assert str(info.value) == (
                f"t={t} needs more than {MAX_RK4_STEPS} RK4 steps of {RK4_STEP}: |t| must be at most 1000"
            )

    @given(
        k=st.floats(-2.0, 2.0),
        x0=st.floats(-10.0, 10.0),
        s=st.floats(-2.0, 2.0),
        t=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_law_residual(self, k, x0, s, t):
        check = exponential_flow(k, x0, s, t)
        scale = max(1.0, abs(check.lhs), abs(check.rhs))
        assert check.residual <= 1e-12 * scale

    def test_csv_format(self):
        header = ("k", "x0", "s", "t", "lhs", "rhs", "residual", "rk4_error")
        text = _table(header, [(0.0, 2.0, 0.1, 0.2, 2.0, 2.0, 0.0, 0.0)])
        assert text == "k,x0,s,t,lhs,rhs,residual,rk4_error\n0,2,0.1,0.2,2,2,0,0\n"


class TestDistributionalShadow:
    def test_affine_base_recovered_exactly(self):
        # smoothing leaves affine functions alone up to the tiny lattice
        # mass defect, which the extrapolation amplifies by about one
        grid = unit_grid()
        f = sample(grid, lambda x: x)
        net = orbit(f, [0.25, 0.125])
        v = TestFunction((0.5,), 0.2)
        report = distributional_shadow(net, v)
        assert report.direct is not None
        assert report.extrapolated == pytest.approx(report.direct, abs=1e-8)

    def test_residual_model(self):
        # pairings converge like p0 + c2 eps^2 with c2 = m2/2 * integral(f v''),
        # m2 the kernel second moment; the two-rung extrapolation then
        # lands at p0 - c2 eps1 eps2
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        v = TestFunction((0.6,), 0.15)

        z = np.linspace(-1.0, 1.0, 4001)
        m2 = float(np.trapezoid(z * z * standard_bump(1).value(z.reshape(-1, 1)), z))
        from sobolevkit.grid import quadrature

        vpp = v.derivative((2,), grid.points()).reshape(grid.node_shape)
        c2 = 0.5 * m2 * quadrature(GridFunction(grid, f.values * vpp))

        for ladder, rel in (([0.2, 0.1], 0.15), ([0.1, 0.05], 0.05)):
            report = distributional_shadow(orbit(f, ladder), v)
            gap = report.extrapolated - report.direct
            assert gap == pytest.approx(-c2 * ladder[0] * ladder[1], rel=rel)

    def test_residual_shrinks_quadratically_down_the_ladder(self):
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        v = TestFunction((0.6,), 0.15)
        coarse = distributional_shadow(orbit(f, [0.2, 0.1]), v)
        fine = distributional_shadow(orbit(f, [0.1, 0.05]), v)
        ratio = abs(coarse.extrapolated - coarse.direct) / abs(fine.extrapolated - fine.direct)
        assert 3.0 < ratio < 4.5

    def test_single_rung(self):
        grid = unit_grid(200)
        f = sample(grid, lambda x: x)
        net = orbit(f, [0.1])
        report = distributional_shadow(net, TestFunction((0.5,), 0.2))
        assert report.extrapolated == report.pairings[0]

    def test_witness_must_clear_absent_band(self):
        grid = unit_grid(200)
        f = sample(grid, lambda x: x)
        net = orbit(f, [0.2])
        with pytest.raises(ValueError, match="absent band"):
            distributional_shadow(net, TestFunction((0.5,), 0.45))

    def test_empty_net(self):
        grid = unit_grid(100)
        f = sample(grid, lambda x: x)
        with pytest.raises(ValueError, match="empty"):
            distributional_shadow(OrbitNet(f, ()), TestFunction((0.5,), 0.2))
