import math
import re
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from sobolevkit import weakdiff as wd
from sobolevkit.cli import _table
from sobolevkit.convolution import convolve
from sobolevkit.grid import _SLAB_NODES, Box, GridFunction, _lattice_points, interior_region, make_grid
from sobolevkit.mollifier import _bump_exponential, _inside_ball, multi_index_order, standard_bump, validate_multi_index
from sobolevkit.sobolev import DerivativeFamily, enumerate_multi_indices, membership_report, sobolev_norm

RAW_MASS_1D = 0.4439938161680794  # integral of exp(1/(z^2-1)) over [-1, 1]


def unit_grid(res=400):
    return make_grid(Box((0.0,), (1.0,)), res)


def sample(grid, fn):
    return GridFunction(grid, fn(grid.points()[:, 0]))


# the multi-index rules are mollifier's; weakdiff applies them to test functions and pairings
class TestMultiIndex:
    def test_order(self):
        assert multi_index_order((0, 0)) == 0
        assert multi_index_order((1, 2)) == 3

    def test_validate_accepts(self):
        assert validate_multi_index([1, 0], 2) == (1, 0)
        assert validate_multi_index((2,), 1) == (2,)

    def test_validate_rejects(self):
        with pytest.raises(ValueError, match="entries for dimension"):
            validate_multi_index((1,), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            validate_multi_index((-1, 1), 2)
        with pytest.raises(ValueError, match="exceeds"):
            validate_multi_index((3,), 1)
        with pytest.raises(ValueError, match="below the minimum"):
            validate_multi_index((0,), 1, min_order=1)


ALPHA_ABOVE_CAP = "multi-index order 3 exceeds the supported maximum 2"
K_ABOVE_CAP = "order k must be at most 2, got 3"


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda f, phi: standard_bump(1).derivative((3,), np.array([[0.5]])), ALPHA_ABOVE_CAP),
        (lambda f, phi: phi.derivative((3,), np.array([[0.5]])), ALPHA_ABOVE_CAP),
        (lambda f, phi: wd.verify_weak_derivative(f, f, (3,), [phi], 1e-3), ALPHA_ABOVE_CAP),
        (lambda f, phi: DerivativeFamily({(0,): f, (3,): f}), ALPHA_ABOVE_CAP),
        (lambda f, phi: sobolev_norm(DerivativeFamily({(0,): f}), 3, 2.0), K_ABOVE_CAP),
        (lambda f, phi: membership_report(DerivativeFamily({(0,): f}), 3, 2.0, [phi], 1e-3), K_ABOVE_CAP),
    ],
    ids=["Mollifier.derivative", "TestFunction.derivative", "verify_weak_derivative", "DerivativeFamily",
         "sobolev_norm", "membership_report"],
)
def test_library_entries_refuse_order_three_by_one_cap(refused, message):
    # one multi-index rule and one cap, MAX_DERIVATIVE_ORDER, behind every entry
    f = sample(unit_grid(100), np.sin)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused(f, wd.TestFunction((0.5,), 0.3))


class TestBumpTestFunctions:
    def test_peak_value_one(self):
        phi = wd.TestFunction((0.5,), 0.3)
        assert phi.value(np.array([[0.5]]))[0] == pytest.approx(1.0, rel=1e-14)

    def test_support_bounds(self):
        phi = wd.TestFunction((0.5, 0.0), 0.25)
        assert phi.support_lo == (0.25, -0.25)
        assert phi.support_hi == (0.75, 0.25)
        outside = np.array([[0.76, 0.0], [0.5, 0.26], [0.0, 0.0]])
        np.testing.assert_array_equal(phi.value(outside), np.zeros(3))

    def test_support_margin(self):
        box = Box((0.0,), (1.0,))
        assert wd.TestFunction((0.5,), 0.3).support_margin(box) == pytest.approx(0.2)
        assert wd.TestFunction((0.1,), 0.3).support_margin(box) < 0

    def test_monomial_derivative_at_center(self):
        # d/dx of e * bump(z) * z at the center is 1/r exactly
        r = 0.2
        phi = wd.TestFunction((0.5,), r, poly=(1,))
        got = phi.derivative((1,), np.array([[0.5]]))[0]
        assert got == pytest.approx(1.0 / r, rel=1e-13)

    @pytest.mark.parametrize("poly", [(0,), (1,), (2,)])
    def test_first_derivative_matches_fd(self, poly):
        phi = wd.TestFunction((0.5,), 0.3, poly=poly)
        x = np.linspace(0.25, 0.75, 41).reshape(-1, 1)
        h = 1e-6
        fd = (phi.value(x + h) - phi.value(x - h)) / (2.0 * h)
        np.testing.assert_allclose(phi.derivative((1,), x), fd, atol=5e-4)

    def test_second_derivative_matches_fd(self):
        phi = wd.TestFunction((0.5,), 0.3, poly=(2,))
        x = np.linspace(0.3, 0.7, 31).reshape(-1, 1)
        h = 1e-4
        fd = (phi.value(x + h) - 2.0 * phi.value(x) + phi.value(x - h)) / (h * h)
        np.testing.assert_allclose(phi.derivative((2,), x), fd, atol=1e-3)

    def test_mixed_derivative_matches_fd(self):
        phi = wd.TestFunction((0.5, 0.5), 0.4, poly=(1, 1))
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.2, 0.8, size=(30, 2))
        h = 1e-5
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        fd = (
            phi.value(pts + ex + ey)
            - phi.value(pts + ex - ey)
            - phi.value(pts - ex + ey)
            + phi.value(pts - ex - ey)
        ) / (4.0 * h * h)
        np.testing.assert_allclose(phi.derivative((1, 1), pts), fd, atol=1e-3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_derivative_is_the_product_rule(self, dim):
        # d^alpha (bump * z^beta) = sum over gamma <= alpha of binomials times d^gamma bump
        # times d^(alpha - gamma) z^beta, with the bump's derivatives written out by hand
        rng = np.random.default_rng(40 + dim)
        for alpha in enumerate_multi_indices(dim, 2):
            poly = tuple(int(b) for b in rng.integers(0, 3, dim))
            phi = wd.TestFunction(tuple(rng.uniform(-1.0, 1.0, dim)), float(rng.uniform(0.2, 2.0)), poly)
            pts = np.asarray(phi.center) + phi.radius * rng.uniform(-1.2, 1.2, (200, dim))
            z = (pts - np.asarray(phi.center)) / phi.radius
            inside, u, e = _inside_ball(z)
            z = z[inside]
            expected = np.zeros(len(pts))
            for gamma in np.ndindex(*(a + 1 for a in alpha)):
                axes = [i for i, g in enumerate(gamma) for _ in range(g)]
                if not axes:
                    bump = e
                elif len(axes) == 1:
                    bump = -2.0 * z[:, axes[0]] / u**2 * e
                else:
                    zz = z[:, axes[0]] * z[:, axes[1]]
                    bump = (8.0 * zz / u**3 + 4.0 * zz / u**4 - 2.0 * (axes[0] == axes[1]) / u**2) * e
                monomial = math.prod(
                    math.comb(a, g) * math.perm(b, a - g) * z[:, i] ** max(b - a + g, 0)
                    for i, (a, g, b) in enumerate(zip(alpha, gamma, poly))
                )
                expected[inside] += bump * monomial
            expected *= math.e * phi.radius ** (-sum(alpha))
            got = phi.derivative(alpha, pts)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), (alpha, poly)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            wd.TestFunction((0.5,), 0.0)

    def test_flat_points_follow_the_kernel_shape_rule(self):
        # a flat array is one point in 2-d and 3-d, as for the kernels, not a run of points
        flat = np.array([0.5, 0.5, 0.5, 0.6, 0.5, 0.5])
        phi = wd.TestFunction((0.5,) * 3, 0.3)
        for value in (phi.value, standard_bump(3).value):
            with pytest.raises(ValueError, match=r"^points have last axis 6, expected 3$"):
                value(flat)
        np.testing.assert_array_equal(phi.value(flat[:3]), phi.value(flat[None, :3]))

    @pytest.mark.parametrize("poly", [(0, 0), (1, 0), (1, 1), (2, 0)])
    def test_product_rule_peak_is_six_ball_arrays(self, poly):
        # the recurrence's terms are summed in place into the first, so at most 3
        # arrays of the ball's nodes live at once, within this bound of 6
        phi = wd.TestFunction((0.5, 0.5), 0.3377, poly)
        window = wd._window(make_grid(Box((0.0, 0.0), (1.0, 1.0)), 200), phi)
        array_bytes = 8 * len(window.e)
        for alpha in enumerate_multi_indices(2, 2)[1:]:
            tracemalloc.start()
            try:
                phi._closed_form(alpha, window.z, window.u, window.e)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * array_bytes + 4096, (alpha, peak / array_bytes)


class TestCatalog:
    def test_count_and_uniqueness(self):
        cat = wd.test_function_catalog(Box((0.0,), (1.0,)))
        assert len(cat) >= 8
        labels = [phi.label for phi in cat]
        assert len(set(labels)) == len(labels)

    def test_all_supported_inside(self):
        box = Box((0.0, -1.0), (1.0, 1.0))
        for phi in wd.test_function_catalog(box, 10):
            assert phi.support_margin(box) > 0

    def test_mixes_polynomial_factors(self):
        cat = wd.test_function_catalog(Box((0.0,), (1.0,)))
        assert any(any(b > 0 for b in phi.poly) for phi in cat)
        assert any(all(b == 0 for b in phi.poly) for phi in cat)

    def test_count_limit(self):
        box = Box((0.0,), (1.0,))
        assert len(wd.test_function_catalog(box, wd.MAX_TEST_FUNCTIONS)) == wd.MAX_TEST_FUNCTIONS
        with pytest.raises(ValueError, match="count 1001 is above the limit of 1000"):
            wd.test_function_catalog(box, wd.MAX_TEST_FUNCTIONS + 1)

    def test_deterministic(self):
        a = wd.test_function_catalog(Box((0.0,), (1.0,)))
        b = wd.test_function_catalog(Box((0.0,), (1.0,)))
        assert [(p.center, p.radius, p.poly) for p in a] == [
            (p.center, p.radius, p.poly) for p in b
        ]


class TestPair:
    def test_against_frozen_bump_mass(self):
        # integral of e * bump((x-c)/r) is e * r * (raw bump mass)
        grid = unit_grid()
        ones = GridFunction(grid, np.ones(401))
        phi = wd.TestFunction((0.5,), 0.3)
        expected = math.e * 0.3 * RAW_MASS_1D
        assert wd.pair(ones, phi) == pytest.approx(expected, abs=1e-10)

    def test_support_must_stay_inside(self):
        grid = unit_grid(100)
        f = GridFunction(grid, np.ones(101))
        with pytest.raises(ValueError, match="escapes"):
            wd.pair(f, wd.TestFunction((0.9,), 0.3))

    def test_dim_mismatch(self):
        f = GridFunction(unit_grid(50), np.ones(51))
        with pytest.raises(ValueError, match="dimension"):
            wd.pair(f, wd.TestFunction((0.5, 0.5), 0.2))


def full_grid_pairing(f, fn):
    """Reference: trapezoid sum of ``f * fn`` over every node of the grid, and its size."""
    vals = fn(f.grid.points()).reshape(f.grid.node_shape)
    w = reduce(np.multiply.outer, [f.grid.axis_weights(i) for i in range(f.grid.dim)])
    terms = w * f.values * vals
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def flattened(grid, fn, rng):
    """Random values divided by ``|fn|`` (floored at 1e-300) where ``fn`` is nonzero."""
    vals = fn(grid.points()).reshape(grid.node_shape)
    scale = np.where(vals != 0.0, np.maximum(np.abs(vals), 1e-300), 1.0)
    return GridFunction(grid, rng.uniform(-3.0, 3.0, grid.node_shape) / scale)


def support_box_mask(grid, phi):
    """Nodes inside the closed support box of ``phi``."""
    mask = np.ones(grid.node_shape, dtype=bool)
    for axis, (lo, hi) in enumerate(zip(phi.support_lo, phi.support_hi)):
        x = grid.axis_nodes(axis)
        shape = [1] * grid.dim
        shape[axis] = x.size
        mask &= ((x >= lo) & (x <= hi)).reshape(shape)
    return mask


def random_pairing_case(rng, dim, on_nodes):
    """A random grid function and a test function supported inside its box.

    With ``on_nodes`` the grid has unit spacing on an integer box and the
    support box's faces fall exactly on nodes.
    """
    if on_nodes:
        res = tuple(int(r) for r in rng.integers(8, 24 if dim < 3 else 14, dim))
        box = Box((0.0,) * dim, tuple(float(r) for r in res))
        radius = float(rng.integers(2, min(res) // 2))
        center = tuple(float(rng.integers(radius + 1, r - radius)) for r in res)
    else:
        box = Box(tuple(rng.uniform(-1.0, 0.0, dim)), tuple(rng.uniform(1.0, 2.0, dim)))
        res = tuple(int(r) for r in rng.integers(10, 60 if dim < 3 else 20, dim))
        radius = float(rng.uniform(0.1, 0.45)) * min(box.widths)
        center = tuple(rng.uniform(lo + radius + 1e-3, hi - radius - 1e-3) for lo, hi in zip(box.lo, box.hi))
    grid = make_grid(box, res)
    f = GridFunction(grid, rng.uniform(-3.0, 3.0, grid.node_shape))
    poly = tuple(int(b) for b in rng.integers(0, 3, dim))
    return f, wd.TestFunction(center, radius, poly)


def derivative_indices(dim):
    """Every multi-index of order 1 or 2."""
    return [a for a in enumerate_multi_indices(dim, 2) if sum(a) > 0]


def lattice_point_window(grid, phi):
    """Reference: the support box's nodes as one point array, scaled, and the ball test on their summed squares."""
    slices = []
    for axis, (lo, hi) in enumerate(zip(phi.support_lo, phi.support_hi)):
        nodes = grid.axis_nodes(axis)
        slices.append(slice(np.searchsorted(nodes, lo, "left"), np.searchsorted(nodes, hi, "right")))
    axes = [grid.axis_nodes(axis)[s] for axis, s in enumerate(slices)]
    z = (_lattice_points(axes) - np.asarray(phi.center)) / phi.radius
    r2 = np.sum(z * z, axis=-1)
    return tuple(slices), r2, (r2 < 1.0).reshape([len(a) for a in axes]), z[r2 < 1.0]


# (box width, resolution, centre, radius, on_sphere): with on_sphere, the
# sphere passes through nodes, such as (3, 4) at radius 5 from a node
WINDOW_CASES = [
    (20.0, 20, (10.0,), 4.0, True),
    (20.0, 20, (10.37,), 4.0, False),
    (1.0, 40, (0.5,), 0.25, True),
    (20.0, 20, (10.0, 10.0), 5.0, True),
    (40.0, 40, (20.0, 20.0), 13.0, True),
    (1.0, 40, (0.5, 0.5), 0.25, True),
    (20.0, 20, (10.37, 9.81), 5.0, False),
    (20.0, 37, (10.0, 10.0), 5.0, False),
    (12.0, 12, (6.0, 6.0, 6.0), 3.0, True),
    (20.0, 20, (10.0, 10.0, 10.0), 7.0, True),
    (1.0, 20, (0.5, 0.5, 0.5), 0.15, True),
    (12.0, 12, (6.3, 5.9, 6.05), 3.0, False),
]


class CountingTestFunction(wd.TestFunction):
    """Records how many points each evaluation of the closed form receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = []

    def _closed_form(self, alpha, z, u, e):
        self.counts.append(len(z))
        return super()._closed_form(alpha, z, u, e)


class TestWindowedPairing:
    # each window's first axis spans several slabs of _SLAB_NODES nodes
    @pytest.mark.parametrize("res, center, radius", [(40000, (0.5,), 0.4), (400, (0.5, 0.5), 0.4), (60, (0.5,) * 3, 0.4)])
    def test_window_sum_is_the_box_weight_formula_bit_for_bit(self, res, center, radius):
        dim = len(center)
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
        f = GridFunction(grid, np.random.default_rng(dim).standard_normal(grid.node_shape))
        phi = wd.TestFunction(center, radius, (1,) * dim)
        window = wd._window(grid, phi)
        assert window.inside.size > 2 * _SLAB_NODES and window.inside.shape[0] > 1
        value = phi._closed_form(None, window.z, window.u, window.e)
        terms = np.zeros(window.inside.shape)
        terms[window.inside] = value
        w = reduce(np.multiply.outer, [grid.axis_weights(i)[s] for i, s in enumerate(window.slices)])
        assert wd._window_sum(f, window, value) == float(np.sum(terms * f.values[window.slices] * w))

    @pytest.mark.parametrize("center", [(0.5, 0.55), (0.55, 0.5), (0.55, 0.55)])
    def test_support_between_grid_lines_pairs_to_zero(self, center):
        # the support box holds no node along some axis: an empty window
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 10)
        f = GridFunction(grid, np.ones(grid.node_shape))
        phi = wd.TestFunction(center, 0.01)
        assert wd._window(grid, phi).inside.size == 0
        assert wd.pair(f, phi) == 0.0
        assert wd.verify_weak_derivative(f, f, (1, 0), [phi], 1e-3).residuals == (0.0,)

    @pytest.mark.parametrize("on_nodes", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_full_grid_oracle(self, dim, on_nodes):
        rng = np.random.default_rng(100 * dim + on_nodes)
        for _ in range(6):
            f, phi = random_pairing_case(rng, dim, on_nodes)
            pairings = [(phi.value, wd.pair(f, phi))]
            window = wd._window(f.grid, phi)
            for alpha in derivative_indices(dim):
                dphi = phi._closed_form(alpha, window.z, window.u, window.e)
                pairings.append((partial(phi.derivative, alpha), wd._window_sum(f, window, dphi)))
            for fn, got in pairings:
                expected, size = full_grid_pairing(f, fn)
                assert abs(got - expected) <= 1e-14 * size

    @pytest.mark.parametrize("width, res, center, radius, on_sphere", WINDOW_CASES)
    def test_window_is_the_lattice_point_window_bit_for_bit(self, width, res, center, radius, on_sphere):
        # per-axis scaled coordinates, squared and summed in np.sum's order,
        # keep the same nodes and the same z, u and exp(1/u) to the last bit
        dim = len(center)
        grid = make_grid(Box((0.0,) * dim, (width,) * dim), res)
        phi = wd.TestFunction(center, radius, (1,) * dim)
        window = wd._window(grid, phi)
        slices, r2, inside, z = lattice_point_window(grid, phi)
        assert np.any(np.abs(r2 - 1.0) <= 1e-15) == on_sphere
        assert window.slices == slices
        np.testing.assert_array_equal(window.inside, inside)
        assert window.z.shape == z.shape and window.z.tobytes() == z.tobytes()
        u, e = _bump_exponential(np.sum(z * z, axis=-1))
        assert window.u.tobytes() == u.tobytes() and window.e.tobytes() == e.tobytes()

    @pytest.mark.parametrize("on_nodes", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_window_matches_random_lattice_point_windows(self, dim, on_nodes):
        rng = np.random.default_rng(400 * dim + on_nodes)
        for _ in range(6):
            f, phi = random_pairing_case(rng, dim, on_nodes)
            window = wd._window(f.grid, phi)
            _, _, inside, z = lattice_point_window(f.grid, phi)
            np.testing.assert_array_equal(window.inside, inside)
            assert window.z.tobytes() == z.tobytes()

    @pytest.mark.parametrize("on_nodes", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_test_function_vanishes_outside_window(self, dim, on_nodes):
        rng = np.random.default_rng(200 * dim + on_nodes)
        for _ in range(6):
            f, phi = random_pairing_case(rng, dim, on_nodes)
            outside = f.grid.points()[~support_box_mask(f.grid, phi).ravel()]
            assert len(outside) > 0
            assert np.all(phi.value(outside) == 0.0)
            for alpha in derivative_indices(dim):
                assert np.all(phi.derivative(alpha, outside) == 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_evaluates_only_the_window(self, dim):
        # the saving: a pairing costs the support window, not the grid
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), 40 if dim < 3 else 20)
        pts = grid.points()
        f = GridFunction(grid, np.sin(pts.sum(axis=-1)))
        u = GridFunction(grid, np.cos(pts.sum(axis=-1)))
        phi = CountingTestFunction((0.5,) * dim, 0.2)
        window_nodes = int(support_box_mask(grid, phi).sum())
        assert window_nodes < grid.node_count // 2
        wd.pair(f, phi)
        wd.verify_weak_derivative(f, u, (1,) + (0,) * (dim - 1), [phi], 1e-2)
        # through the closed form: pair's value, then verify's value and derivative
        assert len(phi.counts) == 3
        assert max(phi.counts) <= window_nodes

    @pytest.mark.parametrize("on_nodes", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residuals_match_full_grid_oracle(self, dim, on_nodes):
        # u and f are divided by |phi| and |d^alpha phi| so that every node
        # of the support ball weighs about the same, out to the sphere where
        # phi falls below 1e-300: a node left out of a pairing shows
        rng = np.random.default_rng(300 * dim + on_nodes)
        for _ in range(4):
            f, phi = random_pairing_case(rng, dim, on_nodes)
            for alpha in derivative_indices(dim):
                dphi = partial(phi.derivative, alpha)
                u_case = flattened(f.grid, phi.value, rng)
                f_case = flattened(f.grid, dphi, rng)
                res = wd.verify_weak_derivative(f_case, u_case, alpha, [phi], 1.0)
                lhs, lhs_size = full_grid_pairing(u_case, phi.value)
                rhs, rhs_size = full_grid_pairing(f_case, dphi)
                expected = abs(lhs - (-1) ** sum(alpha) * rhs)
                assert abs(res.residuals[0] - expected) <= 1e-14 * (lhs_size + rhs_size)

    def test_repeated_test_functions_are_evaluated_once(self):
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 40)
        pts = grid.points()
        f = GridFunction(grid, np.sin(pts.sum(axis=-1)))
        u = GridFunction(grid, np.cos(pts.sum(axis=-1)))
        # the two differ only in their polynomial factor
        copies = [
            [CountingTestFunction((0.5, 0.5), 0.2, (1, 0), label=f"a{i}") for i in range(3)],
            [CountingTestFunction((0.5, 0.5), 0.2, (0, 0), label=f"b{i}") for i in range(3)],
        ]
        tests = [phi for both in zip(*copies) for phi in both]  # a0 b0 a1 b1 a2 b2
        res = wd.verify_weak_derivative(f, u, (1, 0), tests, 1e-2)
        for group in copies:
            assert sum(len(phi.counts) for phi in group) == 2  # one value, one derivative
        assert res.test_ids == ("a0", "b0", "a1", "b1", "a2", "b2")
        assert res.residuals[0::2] == (res.residuals[0],) * 3
        assert res.residuals[1::2] == (res.residuals[1],) * 3
        assert res.residuals[0] != res.residuals[1]
        single = [wd.verify_weak_derivative(f, u, (1, 0), [group[0]], 1e-2).residuals[0] for group in copies]
        assert res.residuals[:2] == tuple(single)

    def test_rejects_non_finite_products(self):
        grid = unit_grid(100)
        f = GridFunction(grid, np.full(101, 1e308))
        phi = wd.TestFunction((0.5,), 0.1, label="narrow")
        # every value is finite, but 1e308 times the derivative overflows
        with pytest.raises(OverflowError, match=r"^pairing with narrow is beyond the float64 range$"):
            wd.verify_weak_derivative(f, f, (1,), [phi], 1e-4)

    def test_pairing_beyond_float64_names_the_test_function(self):
        # every product 1e308 * phi is finite, but their integral is near 4.8e308
        grid = make_grid(Box((0.0,), (10.0,)), 100)
        f = GridFunction(grid, np.full(101, 1e308))
        phi = wd.TestFunction((5.0,), 4.0, label="wide")
        with pytest.raises(OverflowError, match=r"^pairing with wide is beyond the float64 range$"):
            wd.pair(f, phi)

    def test_residual_beyond_float64_names_the_test_function(self):
        # both sides of the identity are finite, near 1.09e308 with opposite signs
        grid = make_grid(Box((-1.0,), (1.0,)), 400)
        x = grid.axis_nodes(0)
        f = GridFunction(grid, -1e308 * x)
        u = GridFunction(grid, np.full(401, 1e308))
        phi = wd.TestFunction((0.0,), 0.9, label="centred")
        assert 1e308 < wd.pair(u, phi) < 1.2e308
        with pytest.raises(OverflowError, match=r"^residual at centred is beyond the float64 range$"):
            wd.verify_weak_derivative(f, u, (1,), [phi], 1e-4)


class TestVerifyWeakDerivative:
    def setup_method(self):
        self.grid = unit_grid()
        self.catalog = wd.test_function_catalog(self.grid.box)

    def test_smooth_first_order(self):
        f = sample(self.grid, lambda x: np.sin(2 * math.pi * x))
        u = sample(self.grid, lambda x: 2 * math.pi * np.cos(2 * math.pi * x))
        res = wd.verify_weak_derivative(f, u, (1,), self.catalog, 1e-4)
        assert res.verdict
        assert res.max_residual <= 1e-6

    def test_sign_convention_via_affine(self):
        # wrong sign in the integration-by-parts identity would leave a
        # residual of twice the pairing instead of zero
        f = sample(self.grid, lambda x: x)
        u = sample(self.grid, lambda x: np.ones_like(x))
        res = wd.verify_weak_derivative(f, u, (1,), self.catalog, 1e-6)
        assert res.verdict

    def test_second_order(self):
        # second kernel derivatives of the narrowest catalog bump are only
        # just resolved at this spacing, so the residual floor is larger
        f = sample(self.grid, lambda x: np.sin(2 * math.pi * x))
        u = sample(self.grid, lambda x: -((2 * math.pi) ** 2) * np.sin(2 * math.pi * x))
        res = wd.verify_weak_derivative(f, u, (2,), self.catalog, 5e-3)
        assert res.verdict

    def test_kink_has_weak_derivative(self):
        f = sample(self.grid, lambda x: np.abs(x - 0.5))
        u = sample(self.grid, lambda x: np.sign(x - 0.5))
        res = wd.verify_weak_derivative(f, u, (1,), self.catalog, 1e-4)
        assert res.verdict

    def test_step_is_rejected_with_point_mass_residual(self):
        # candidate 0 for the step's derivative misses the jump: each
        # residual is |phi_j(1/2)| times the jump height, up to the
        # half-cell quadrature offset at the jump node
        f = sample(self.grid, lambda x: (x >= 0.5).astype(float))
        zero = GridFunction(self.grid, np.zeros(401))
        res = wd.verify_weak_derivative(f, zero, (1,), self.catalog, 1e-4)
        assert not res.verdict
        expected = max(abs(phi.value(np.array([[0.5]]))[0]) for phi in self.catalog)
        assert res.max_residual == pytest.approx(expected, abs=1e-2)
        assert res.max_residual >= 0.1

    def test_2d_mixed_derivative(self):
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 160)
        pts = grid.points()
        f = GridFunction(grid, pts[:, 0] * pts[:, 1])
        u = GridFunction(grid, np.ones(grid.node_count))
        cat = wd.test_function_catalog(grid.box)
        res = wd.verify_weak_derivative(f, u, (1, 1), cat, 2e-4)
        assert res.verdict

    def test_requires_positive_order(self):
        f = sample(self.grid, lambda x: x)
        with pytest.raises(ValueError, match="below the minimum"):
            wd.verify_weak_derivative(f, f, (0,), self.catalog, 1e-4)

    def test_requires_tests(self):
        f = sample(self.grid, lambda x: x)
        with pytest.raises(ValueError, match="no test functions"):
            wd.verify_weak_derivative(f, f, (1,), [], 1e-4)

    def test_grid_mismatch(self):
        f = sample(self.grid, lambda x: x)
        g = GridFunction(unit_grid(100), np.zeros(101))
        with pytest.raises(ValueError, match="different grids"):
            wd.verify_weak_derivative(f, g, (1,), self.catalog, 1e-4)

    def test_csv_output(self):
        res = wd.PairingResidual((1,), 1e-4, ("a", "b"), (0.5, 0.25))
        text = _table(("test_id", "residual"), zip(res.test_ids, res.residuals))
        assert text == "test_id,residual\na,0.5\nb,0.25\n"


class TestMollifiedDerivative:
    # d^alpha f_eps is the convolution of f with the kernel's derivative
    def test_constant_has_zero_derivative(self):
        grid = unit_grid()
        f = GridFunction(grid, np.full(401, 4.0))
        d, region = convolve(f, standard_bump(1, 0.2), deriv=(1,))
        assert np.max(np.abs(d.values[region.mask])) <= 1e-12

    def test_affine_slope_recovered(self):
        grid = unit_grid()
        f = sample(grid, lambda x: 3.0 * x + 1.0)
        d, region = convolve(f, standard_bump(1, 0.2), deriv=(1,))
        np.testing.assert_allclose(d.values[region.mask], 3.0, atol=1e-9)

    def test_stages_commute(self):
        # derivative-then-smooth equals smooth-then-derivative wherever
        # both windows see only valid data
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        m1, m2 = standard_bump(1, 0.1), standard_bump(1, 0.15)

        smooth_first, _ = convolve(f, m1)
        route_a, _ = convolve(smooth_first, m2, deriv=(1,))
        deriv_first, _ = convolve(f, m2, deriv=(1,))
        route_b, _ = convolve(deriv_first, m1)

        safe = interior_region(grid, m1.eps + m2.eps + 2.0 * grid.spacing[0])
        diff = np.abs(route_a.values - route_b.values)[safe.mask]
        assert np.max(diff) <= 1e-10


class TestCommutationResidual:
    def test_first_order_is_small(self):
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        u = sample(grid, lambda x: 2 * math.pi * np.cos(2 * math.pi * x))
        assert wd.commutation_residual(f, u, (1,), 0.2, math.inf) <= 1e-3

    def test_second_order_is_small(self):
        grid = unit_grid()
        f = sample(grid, lambda x: np.sin(2 * math.pi * x))
        u = sample(grid, lambda x: -((2 * math.pi) ** 2) * np.sin(2 * math.pi * x))
        assert wd.commutation_residual(f, u, (2,), 0.2, math.inf) <= 1e-2

    def test_shrinks_with_spacing(self):
        f_c = sample(unit_grid(200), lambda x: np.sin(2 * math.pi * x))
        u_c = sample(unit_grid(200), lambda x: 2 * math.pi * np.cos(2 * math.pi * x))
        f_f = sample(unit_grid(400), lambda x: np.sin(2 * math.pi * x))
        u_f = sample(unit_grid(400), lambda x: 2 * math.pi * np.cos(2 * math.pi * x))
        coarse = wd.commutation_residual(f_c, u_c, (1,), 0.2, 2.0)
        fine = wd.commutation_residual(f_f, u_f, (1,), 0.2, 2.0)
        assert fine < 0.6 * coarse
