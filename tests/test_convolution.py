import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sobolevkit.convolution import (
    OrbitEntry,
    OrbitNet,
    _check_full_shape,
    _check_lattice_mass,
    _fast_length,
    _fft_shape,
    _full_convolution,
    compose,
    convergence_study,
    convolve,
    orbit,
)
from sobolevkit.cli import _table
from sobolevkit.grid import MAX_NODES, Box, GridFunction, interior_region, lp_norm, make_grid
from sobolevkit.mollifier import standard_bump


def unit_grid(res=400):
    return make_grid(Box((0.0,), (1.0,)), res)


def sample(grid, fn):
    return GridFunction(grid, fn(grid.points()[:, 0]))


def direct_sum(f, m, deriv=None):
    """Reference lattice convolution of ``f`` (zero-extended) by summing window offsets."""
    grid = f.grid
    radii = [int(math.floor(m.eps / h * (1.0 + 1e-12))) for h in grid.spacing]
    offsets = [np.arange(-k, k + 1) for k in radii]
    padded = np.pad(f.values, [(k, k) for k in radii])
    out = np.zeros(grid.node_shape)
    for d in itertools.product(*offsets):
        x = np.array([[di * h for di, h in zip(d, grid.spacing)]])
        w = (m.value(x) if deriv is None else m.derivative(deriv, x))[0] * grid.cell_volume
        # out[i] += phi(d h) f[i - d]
        window = tuple(slice(k - di, k - di + n) for di, k, n in zip(d, radii, grid.node_shape))
        out += w * padded[window]
    return out, radii


def random_grid_function(rng, dim):
    box = Box(tuple(rng.uniform(-1.0, 0.0, dim)), tuple(rng.uniform(1.0, 2.0, dim)))
    res = tuple(int(r) for r in rng.integers(12, 30 if dim < 3 else 18, dim))
    grid = make_grid(box, res)
    return GridFunction(grid, rng.uniform(-3.0, 3.0, grid.node_shape))


def count_forward_ffts(monkeypatch, f_shape, k_shape):
    """Name each forward transform of the FFT engine from here on, with its padded last-axis length.

    A transform begins with ``np.fft.rfft`` along the last axis: of the
    kernel side, shape ``k_shape``, in one call, recorded as ``("k", n)``;
    of the function side one slab of first-axis rows at a time, recorded as
    ``("f", n)`` once the slabs have covered the rows of ``f_shape``.
    """
    transforms = []
    rows = 0
    real = np.fft.rfft

    def counting(x, n=None, *args, **kwargs):
        nonlocal rows
        shape = np.shape(x)
        if shape == k_shape:
            transforms.append(("k", n))
        else:
            assert shape[1:] == f_shape[1:]
            rows += shape[0]
            if rows == f_shape[0]:
                transforms.append(("f", n))
                rows = 0
        return real(x, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return transforms


def zero_set_case(rng, dim, res, k=3):
    """The unit-cube grid at ``res`` cells per axis, random samples on it and a kernel of window radius ``k``."""
    grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
    return grid, rng.uniform(-3.0, 3.0, grid.node_shape), standard_bump(dim, (k + 0.5) / res)


def attenuation(eps, freq=2.0 * math.pi):
    """integral of phi(z) cos(freq * eps * z) dz, by dense 1-d trapezoid."""
    z = np.linspace(-1.0, 1.0, 4001)
    vals = standard_bump(1).value(z.reshape(-1, 1)) * np.cos(freq * eps * z)
    return float(np.trapezoid(vals, z))


class TestBasicProperties:
    def test_constant_is_preserved(self):
        grid = unit_grid()
        f = GridFunction(grid, np.full(401, 2.5))
        f_eps, region = convolve(f, standard_bump(1, 0.2))
        assert np.max(np.abs(f_eps.values[region.mask] - 2.5)) <= 1e-10

    def test_linear_in_the_function(self):
        grid = unit_grid(200)
        rng = np.random.default_rng(2)
        f = GridFunction(grid, rng.uniform(-1, 1, 201))
        g = GridFunction(grid, rng.uniform(-1, 1, 201))
        m = standard_bump(1, 0.15)
        lhs, region = convolve(GridFunction(grid, 3.0 * f.values - 2.0 * g.values), m)
        rhs = 3.0 * convolve(f, m)[0].values - 2.0 * convolve(g, m)[0].values
        np.testing.assert_allclose(lhs.values[region.mask], rhs[region.mask], atol=1e-12)

    def test_preserves_nonnegativity(self):
        grid = unit_grid(200)
        rng = np.random.default_rng(4)
        f = GridFunction(grid, rng.uniform(0.0, 3.0, 201))
        f_eps, region = convolve(f, standard_bump(1, 0.1))
        assert np.min(f_eps.values[region.mask]) >= 0.0

    def test_sup_never_amplified(self):
        grid = unit_grid(200)
        rng = np.random.default_rng(6)
        f = GridFunction(grid, rng.uniform(-5.0, 5.0, 201))
        f_eps, region = convolve(f, standard_bump(1, 0.1))
        assert np.max(np.abs(f_eps.values[region.mask])) <= 5.0 * (1.0 + 1e-9)

    def test_translation_equivariance(self):
        # shifting a compactly supported f by whole cells shifts its smoothing
        grid = unit_grid(400)
        bump = standard_bump(1)
        g = lambda x, c: bump.value(((x - c) / 0.1).reshape(-1, 1))
        x = grid.points()[:, 0]
        f_left = GridFunction(grid, g(x, 0.35))
        f_right = GridFunction(grid, g(x, 0.45))
        m = standard_bump(1, 0.12)
        left, _ = convolve(f_left, m)
        right, _ = convolve(f_right, m)
        shift = 40  # 0.1 in cells
        inner = slice(100, 260)
        np.testing.assert_allclose(
            right.values[inner.start + shift : inner.stop + shift],
            left.values[inner],
            atol=1e-12,
        )

    def test_region_is_eps_interior_and_zeros_outside(self):
        grid = unit_grid(100)
        f = GridFunction(grid, np.ones(101))
        f_eps, region = convolve(f, standard_bump(1, 0.25))
        np.testing.assert_array_equal(region.mask, interior_region(grid, 0.25).mask)
        assert np.all(f_eps.values[~region.mask] == 0.0)

    def test_zero_extension_agrees_on_interior(self):
        grid = unit_grid(100)
        rng = np.random.default_rng(8)
        f = GridFunction(grid, rng.uniform(-1, 1, 101))
        m = standard_bump(1, 0.2)
        plain, region = convolve(f, m)
        extended, full = convolve(f, m, zero_extend=True)
        assert full.mask.all()
        np.testing.assert_array_equal(
            extended.values[region.mask], plain.values[region.mask]
        )

    def test_eps_too_large(self):
        f = GridFunction(unit_grid(50), np.ones(51))
        with pytest.raises(ValueError, match="too large"):
            convolve(f, standard_bump(1, 0.5))

    def test_full_shape_above_node_limit(self):
        # 161^3 nodes fit; widened by 72 nodes a side they are 305^3
        f = GridFunction(make_grid(Box((0.0,) * 3, (1.0,) * 3), 160), np.zeros((161,) * 3))
        with pytest.raises(ValueError, match=f"full convolution of 305x305x305 = {305**3} nodes"):
            convolve(f, standard_bump(3, 0.45))

    def test_dimension_mismatch(self):
        f = GridFunction(unit_grid(50), np.ones(51))
        with pytest.raises(ValueError, match="dimension"):
            convolve(f, standard_bump(2, 0.1))

    @pytest.mark.parametrize("dim,cells", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_lattice_mass_tolerance(self, dim, cells):
        # one or two cells per radius miss unit mass by more than 0.05 (the
        # smoothed function would be a multiple of f); three cells do not
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), 20)
        f = GridFunction(grid, np.ones(grid.node_shape))
        m = standard_bump(dim, cells * grid.spacing[0])
        if cells >= 3:
            f_eps, region = convolve(f, m)
            assert np.max(np.abs(f_eps.values[region.mask] - 1.0)) <= 0.05
        else:
            with pytest.raises(ValueError, match="lattice mass"):
                convolve(f, m)
        # derivative kernels have no unit mass to keep and are not checked
        convolve(f, m, deriv=(1,) + (0,) * (dim - 1))

    def test_zero_multi_index_is_the_value_kernel(self):
        # a kernel narrower than a cell puts lattice mass 82.857 on one node;
        # deriv=(0,) names the value kernel and is refused as deriv=None is,
        # not convolved into 82.857 times f
        f = GridFunction(make_grid(Box((0,), (1,)), 10), np.ones(11))
        m = standard_bump(1, 0.001)
        with pytest.raises(ValueError, match="lattice mass 82.8569") as refused:
            convolve(f, m)
        with pytest.raises(ValueError) as zero_refused:
            convolve(f, m, deriv=(0,))
        assert str(zero_refused.value) == str(refused.value)


class TestAgainstAnalyticModels:
    def test_sine_attenuation_factor(self):
        # smoothing sin(2 pi x) multiplies it by A(eps) = integral phi cos(2 pi eps z)
        # the achievable agreement is set by how densely the grid samples
        # the kernel: eps/h cells across half the support
        grid = unit_grid(400)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        for eps, tol in ((0.2, 1e-10), (0.1, 1e-7), (0.05, 5e-5)):
            f_eps, region = convolve(f, standard_bump(1, eps))
            predicted = attenuation(eps) * f.values[region.mask]
            measured = f_eps.values[region.mask]
            assert np.max(np.abs(measured - predicted)) <= tol

    def test_sine_sup_error(self):
        grid = unit_grid(400)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        eps = 0.1
        table = convergence_study(f, math.inf, [eps])
        predicted = abs(1.0 - attenuation(eps))
        assert table.errors[0] == pytest.approx(predicted, rel=1e-6)

    def test_kink_error_is_eps_times_first_moment(self):
        # at the corner of |x - 1/2| the smoothing error is eps * integral |z| phi(z)
        grid = unit_grid(400)
        f = sample(grid, lambda x: np.abs(x - 0.5))
        z = np.linspace(-1.0, 1.0, 4001)
        first_moment = float(np.trapezoid(np.abs(z) * standard_bump(1).value(z.reshape(-1, 1)), z))
        for eps in (0.2, 0.1):
            f_eps, _ = convolve(f, standard_bump(1, eps))
            assert f_eps.values[200] == pytest.approx(eps * first_moment, rel=5e-3)

    def test_derivative_kernel_orientation(self):
        # (phi_eps' * sin)(x) = 2 pi A(eps) cos(2 pi x); a flipped kernel
        # would negate this, so the check pins the orientation
        grid = unit_grid(400)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        eps = 0.15
        d_eps, region = convolve(f, standard_bump(1, eps), deriv=(1,))
        x = grid.points()[:, 0][region.mask]
        predicted = 2.0 * math.pi * attenuation(eps) * np.cos(2.0 * math.pi * x)
        np.testing.assert_allclose(d_eps.values[region.mask], predicted, atol=1e-5)


class TestConvergenceStudy:
    def test_second_order_in_eps(self):
        grid = unit_grid(800)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        table = convergence_study(f, 2.0, [0.2, 0.1, 0.05])
        assert table.strictly_decreasing
        assert table.rows[0].ratio is None
        for row in table.rows[1:]:
            assert 2.5 < row.ratio < 4.5

    def test_fixed_comparison_region(self):
        # every row must measure the same nodes: errors at small eps would
        # otherwise pick up nodes near the boundary that large eps excludes
        grid = unit_grid(400)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        table = convergence_study(f, math.inf, [0.2, 0.05])
        region = interior_region(grid, 0.2)
        f_small, _ = convolve(f, standard_bump(1, 0.05))
        assert table.errors[1] == pytest.approx(
            lp_norm(f_small - f, math.inf, region), abs=1e-15
        )

    def test_ladder_validation(self):
        f = sample(unit_grid(100), lambda x: x)
        for bad in ([], [0.2, 0.2], [0.1, 0.2], [0.2, -0.1]):
            with pytest.raises(ValueError):
                convergence_study(f, 2.0, bad)

    def test_csv_format(self):
        # the first row has no ratio: an empty cell
        text = _table(("eps", "error", "ratio"), [(0.2, 0.5, None), (0.1, 0.125, 4.0)])
        assert text == "eps,error,ratio\n0.2,0.5,\n0.1,0.125,4\n"


class TestOrbit:
    def test_entries_follow_ladder(self):
        grid = unit_grid(200)
        f = sample(grid, lambda x: np.sin(2.0 * math.pi * x))
        net = orbit(f, [0.2, 0.1, 0.05])
        assert [e.eps for e in net.entries] == [0.2, 0.1, 0.05]
        assert net.base is f
        # smaller eps keeps more nodes
        counts = [int(e.region.mask.sum()) for e in net.entries]
        assert counts == sorted(counts)

    def test_rejects_non_decreasing_ladder(self):
        grid = unit_grid(100)
        f = sample(grid, lambda x: x)
        entry = OrbitEntry(0.1, f, interior_region(grid, 0.1))
        wider = OrbitEntry(0.2, f, interior_region(grid, 0.2))
        with pytest.raises(ValueError, match="strictly decreasing"):
            OrbitNet(f, (entry, wider))


class TestCompose:
    def test_commutative(self):
        a, b = standard_bump(1, 0.1), standard_bump(1, 0.2)
        ab = compose(a, b)
        ba = compose(b, a)
        np.testing.assert_allclose(ab.kernel.values, ba.kernel.values, atol=1e-12)

    def test_support_and_mass(self):
        report = compose(standard_bump(1, 0.1), standard_bump(1, 0.2), 512)
        cell = report.kernel.grid.spacing[0]
        assert report.support_radius <= 0.3 + cell
        assert report.mass == pytest.approx(1.0, abs=1e-6)

    def test_peak_at_center(self):
        report = compose(standard_bump(1, 0.15), standard_bump(1, 0.15))
        values = report.kernel.values
        assert int(np.argmax(values)) == values.size // 2

    def test_2d_mass(self):
        report = compose(standard_bump(2, 0.3), standard_bump(2, 0.3), 64)
        assert report.mass == pytest.approx(1.0, abs=1e-3)

    def test_odd_resolution_rejected(self):
        m = standard_bump(1, 0.1)
        with pytest.raises(ValueError, match="even"):
            compose(m, m, 255)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            compose(standard_bump(1, 0.1), standard_bump(2, 0.1))


class TestAgainstDirectSum:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("zero_extend", [False, True])
    def test_random_grids(self, dim, zero_extend):
        rng = np.random.default_rng(100 + dim)
        first = tuple(int(i == 0) for i in range(dim))
        second = tuple(2 * int(i == dim - 1) for i in range(dim))
        derivs = [None, first, second]
        for trial in range(3):
            f = random_grid_function(rng, dim)
            eps = float(rng.uniform(0.15, 0.4)) * min(f.grid.box.widths)
            m = standard_bump(dim, eps)
            for deriv in derivs:
                got, region = convolve(f, m, deriv=deriv, zero_extend=zero_extend)
                want, _ = direct_sum(f, m, deriv)
                if not zero_extend:
                    want[~region.mask] = 0.0
                np.testing.assert_allclose(
                    got.values, want, rtol=0.0, atol=1e-12 * np.max(np.abs(f.values))
                )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_compact_support_is_exactly_zero_outside_window(self, dim):
        rng = np.random.default_rng(200 + dim)
        f = random_grid_function(rng, dim)
        inside = tuple(slice(n // 3, n // 3 + 2) for n in f.grid.node_shape)
        values = np.zeros(f.grid.node_shape)
        values[inside] = rng.uniform(0.5, 1.0, values[inside].shape)
        f = GridFunction(f.grid, values)
        m = standard_bump(dim, 0.2 * min(f.grid.box.widths))
        got, _ = convolve(f, m, zero_extend=True)
        want, radii = direct_sum(f, m)
        reach = np.zeros(f.grid.node_shape, dtype=bool)
        reach[tuple(slice(max(s.start - k, 0), s.stop + k) for s, k in zip(inside, radii))] = True
        assert np.all(got.values[~reach] == 0.0)
        # inside the window too, the zero set is the direct sum's, node for node
        np.testing.assert_array_equal(got.values == 0.0, want == 0.0)

    @pytest.mark.parametrize("dim,res", [(1, 40), (2, 16)])
    def test_compose(self, dim, res):
        a, b = standard_bump(dim, 0.1), standard_bump(dim, 0.25)
        report = compose(a, b, res)
        grid = report.kernel.grid
        pts = grid.points()
        av = a.value(pts).reshape(grid.node_shape)
        bv = b.value(pts).reshape(grid.node_shape)
        full = np.zeros(tuple(2 * n - 1 for n in grid.node_shape))
        for j in np.ndindex(*grid.node_shape):
            full[tuple(slice(i, i + n) for i, n in zip(j, grid.node_shape))] += bv[j] * av
        want = full[tuple(slice(res // 2, res // 2 + n) for n in grid.node_shape)] * grid.cell_volume
        got = report.kernel.values
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        np.testing.assert_array_equal(got == 0.0, want == 0.0)

    @staticmethod
    def _matches_direct_sum(f, m, deriv):
        got, _ = convolve(f, m, deriv=deriv, zero_extend=True)
        want, _ = direct_sum(f, m, deriv)
        np.testing.assert_allclose(got.values, want, rtol=0.0, atol=1e-12 * np.max(np.abs(f.values)))
        np.testing.assert_array_equal(got.values == 0.0, want == 0.0)
        return got.values

    @pytest.mark.parametrize("dim,res", [(1, 60), (2, 30), (3, 16)])
    def test_isolated_zeros_keep_their_values(self, dim, res):
        rng = np.random.default_rng(300 + dim)
        grid, values, m = zero_set_case(rng, dim, res)
        holes = rng.choice(values.size, 5, replace=False)
        values.flat[holes] = 0.0
        f = GridFunction(grid, values)
        first = tuple(int(i == 0) for i in range(dim))
        for deriv in (None, first):
            got = self._matches_direct_sum(f, m, deriv)
            # each zero sample's window holds nonzero samples
            assert np.all(got.flat[holes] != 0.0)

    @pytest.mark.parametrize("dim,res,block", [(1, 60, 20), (2, 30, 10), (3, 22, 8)])
    def test_zero_block_wider_than_window(self, dim, res, block, monkeypatch):
        rng = np.random.default_rng(400 + dim)
        grid, values, m = zero_set_case(rng, dim, res, k=3)
        start = (res + 1 - block) // 2
        values[(slice(start, start + block),) * dim] = 0.0
        f = GridFunction(grid, values)
        # nodes whose whole window lies in the block
        centre = (slice(start + 3, start + block - 3),) * dim
        first = tuple(int(i == 0) for i in range(dim))
        transforms = count_forward_ffts(monkeypatch, values.shape, (7,) * dim)
        for deriv in (None, first):
            transforms.clear()
            got = self._matches_direct_sum(f, m, deriv)
            assert got[centre].size > 0
            assert np.all(got[centre] == 0.0)
            # f has zeros, so with either kernel the mask FFT finds the pairless nodes
            assert [side for side, _ in transforms] == ["f", "k"] * 2

    def test_only_zero_free_f_skips_mask_fft(self, monkeypatch):
        rng = np.random.default_rng(500)
        grid, values, m = zero_set_case(rng, 3, 16)
        transforms = count_forward_ffts(monkeypatch, values.shape, (7, 7, 7))
        for zeros, ffts in ((0, 2), (1, 4), (5, 4)):
            values.flat[rng.choice(values.size, zeros, replace=False)] = 0.0
            f = GridFunction(grid, values)
            transforms.clear()
            self._matches_direct_sum(f, m, None)
            # f and the kernel, and once f has a zero their nonzero masks, at the
            # 2*3*5-smooth length of the full shape's last axis, 23
            assert transforms == [("f", 24), ("k", 24)] * (ffts // 2)
            # the derivative kernel's centre is zero: its masks are always convolved
            transforms.clear()
            self._matches_direct_sum(f, m, (1, 0, 0))
            assert len(transforms) == 4


    @pytest.mark.parametrize("kshape", [(5, 4), (3, 6), (1, 7)])
    def test_asymmetric_kernel_window(self, kshape):
        # a kernel whose nonzero set is not symmetric, as no bump's is, with a nonzero centre
        rng = np.random.default_rng(600 + sum(kshape))
        a = rng.uniform(-1.0, 1.0, (14, 11))
        a[rng.random(a.shape) < 0.1] = 0.0
        a[4:10, 3:8] = 0.0
        b = rng.uniform(0.5, 1.0, kshape) * (rng.random(kshape) < 0.5)
        b[tuple(k // 2 for k in kshape)] = 1.0
        full = np.zeros(tuple(n + k - 1 for n, k in zip(a.shape, kshape)))
        pairs = np.zeros(full.shape)
        for j in np.ndindex(*kshape):
            window = tuple(slice(i, i + n) for i, n in zip(j, a.shape))
            full[window] += b[j] * a
            pairs[window] += (b[j] != 0) * (a != 0)
        full[pairs == 0] = 0.0
        want = full[tuple(slice(k // 2, k // 2 + n) for k, n in zip(kshape, a.shape))]
        got = _full_convolution(a, b)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)


class TestRange:
    @pytest.mark.parametrize("k", [1000, -1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # magnitudes 2^-8 to 2^17: times 2^1000, unscaled spectra overflow float64;
        # times 2^-1000, every sample stays normal, so both sides are exact
        rng = np.random.default_rng(700)
        a = rng.choice([-1.0, 1.0], (20, 17)) * rng.uniform(1.0, 2.0, (20, 17)) * 2.0 ** rng.integers(-8, 17, (20, 17))
        a[rng.random(a.shape) < 0.2] = 0.0
        b = rng.uniform(0.0, 1.0, (7, 5))
        np.testing.assert_array_equal(_full_convolution(a * 2.0**k, b), _full_convolution(a, b) * 2.0**k)

    def test_result_beyond_float64_names_the_eps(self):
        # the lattice mass 1.019 takes 1.79e308 past the largest float64
        f = GridFunction(unit_grid(40), np.full(41, 1.79e308))
        with pytest.raises(OverflowError, match="kernel at eps=0.075 has values beyond the float64 range"):
            convolve(f, standard_bump(1, 0.075))

    def test_nan_lattice_mass_is_refused(self):
        with pytest.raises(ValueError, match="lattice mass nan"):
            _check_lattice_mass(standard_bump(1, 0.1), math.nan)


def is_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestFftShape:
    def test_fast_length_brute_force(self):
        smooth = [n for n in range(1, 2100) if is_smooth(n)]
        for n in range(1, 2001):
            got = _fast_length(n)
            assert is_smooth(got) and got >= n
            assert not any(n <= s < got for s in smooth)

    def test_smooth_3d_full_shapes_are_padded(self):
        assert _fft_shape((73, 65, 57)) == (75, 72, 60)
        assert _fft_shape((53, 49, 47)) == (54, 50, 48)
        assert _fft_shape((401,)) == (405,)

    def test_padding_never_passes_the_node_limit(self):
        # 255*255*258 nodes fit; padded to 256*256*270 they would not
        _check_full_shape((255, 255, 258))
        assert _fft_shape((255, 255, 258)) == (255, 255, 258)
        # 256^3 is exactly the limit
        assert _fft_shape((253, 253, 253)) == (256, 256, 256)
        assert math.prod(_fft_shape((253, 253, 253))) == MAX_NODES
        with pytest.raises(ValueError, match=f"full convolution of 257x257x257 = {257**3} nodes is above"):
            _check_full_shape((257, 257, 257))


class TestWorkingMemory:
    # one complex spectrum of the padded shape, about 8 bytes per padded node,
    # the result and slabs; holding two spectra and the whole real inverse took
    # 26.6 bytes per padded node in 3-d and 30.5 in 2-d (value path)
    @pytest.mark.parametrize("f_shape,k_shape,limit", [((101,) * 3, (51,) * 3, 16), ((401,) * 2, (41,) * 2, 23)])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_peak_per_padded_node(self, f_shape, k_shape, limit, zeros):
        rng = np.random.default_rng(len(f_shape))
        a = rng.uniform(0.5, 1.0, f_shape)
        if zeros:
            # an exact zero in f: the masks' convolution runs too, and its verdict is held
            a.flat[0] = 0.0
        b = rng.uniform(0.5, 1.0, k_shape)
        fast = _fft_shape(tuple(n + k - 1 for n, k in zip(f_shape, k_shape)))
        tracemalloc.start()
        try:
            out = _full_convolution(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == f_shape
        assert peak <= limit * math.prod(fast)
