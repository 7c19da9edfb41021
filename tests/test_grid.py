import io
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolevkit.grid import (
    MAX_NODES,
    _SLAB_NODES,
    Box,
    Grid,
    GridFunction,
    Region,
    interior_region,
    lp_norm,
    make_grid,
    quadrature,
    write_grid_function_csv,
)


def unit_grid(res=10):
    return make_grid(Box((0.0,), (1.0,)), res)


def read_grid_function_csv(inp):
    """Inverse of ``write_grid_function_csv``: the header gives the grid, the last column the values."""
    header = inp.readline().strip()
    if not header.startswith("# grid "):
        raise ValueError(f"missing grid header, got {header!r}")
    fields = dict(part.partition("=")[::2] for part in header[len("# grid "):].split())
    lo, hi = (tuple(float(x) for x in fields[key].split(",")) for key in ("lo", "hi"))
    res = tuple(int(x) for x in fields["res"].split(","))
    values = [float(line.split(",")[-1]) for line in inp if line.strip()]
    return GridFunction(Grid(Box(lo, hi), res), np.array(values))


class TestBox:
    def test_dim_and_widths(self):
        box = Box((0.0, -1.0), (2.0, 1.0))
        assert box.dim == 2
        assert box.widths == (2.0, 2.0)
        assert box.volume == 4.0

    def test_rejects_inverted_axis(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Box((0.0,), (0.0,))

    def test_rejects_dimension_four(self):
        with pytest.raises(ValueError, match="between 1 and 3"):
            Box((0.0,) * 4, (1.0,) * 4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box((0.0,), (math.inf,))

    def test_rejects_width_beyond_float64(self):
        # finite corners whose hi - lo overflows: the axis's spacing would be inf
        with pytest.raises(ValueError, match=r"axis 1: the width of \[-1e\+308, 1e\+308\] is beyond the float64 range"):
            Box((0.0, -1e308), (1.0, 1e308))


class TestGrid:
    def test_nodes_of_unit_grid(self):
        grid = unit_grid(4)
        assert grid.node_shape == (5,)
        np.testing.assert_allclose(grid.axis_nodes(0), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_spacing_and_cell_volume(self):
        grid = make_grid(Box((0.0, 0.0), (1.0, 2.0)), (4, 8))
        assert grid.spacing == (0.25, 0.25)
        assert grid.cell_volume == 0.0625

    def test_points_shape(self):
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 3)
        pts = grid.points()
        assert pts.shape == (16, 2)
        # row-major: the second axis varies fastest
        np.testing.assert_allclose(pts[0], [0.0, 0.0])
        np.testing.assert_allclose(pts[1], [0.0, 1.0 / 3.0])

    # in 1-d the axis's own node array is as large as the result, so 2-d and 3-d show the bound
    @pytest.mark.parametrize("dim,res", [(2, 300), (3, 60)])
    def test_points_built_in_one_allocation(self, dim, res):
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
        tracemalloc.start()
        try:
            pts = grid.points()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * pts.nbytes == 1.1 * 8 * dim * grid.node_count
        # the same array as raveling each meshgrid axis and stacking the copies
        axes = [grid.axis_nodes(i) for i in range(dim)]
        reference = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert pts.shape == reference.shape and np.array_equal(pts, reference)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_grid(Box((0.0,), (1.0,)), 0)

    def test_rejects_resolution_dim_mismatch(self):
        with pytest.raises(ValueError):
            Grid(Box((0.0,), (1.0,)), (4, 4))

    def test_node_limit(self):
        # a Grid holds no arrays, so building one at the limit allocates nothing
        cube = Box((0.0,) * 3, (1.0,) * 3)
        assert make_grid(cube, 255).node_count == MAX_NODES == 2**24
        with pytest.raises(ValueError, match=f"257x257x257 = {257**3} nodes is above the limit of {MAX_NODES}"):
            make_grid(cube, 256)


class TestGridFunction:
    def test_rejects_non_finite_values(self):
        grid = unit_grid(2)
        with pytest.raises(ValueError, match="finite"):
            GridFunction(grid, [0.0, math.nan, 1.0])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="expected 3 values"):
            GridFunction(unit_grid(2), [1.0, 2.0])

    def test_values_are_read_only(self):
        f = GridFunction(unit_grid(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_arithmetic_requires_same_grid(self):
        f = GridFunction(unit_grid(2), [1.0, 2.0, 3.0])
        g = GridFunction(unit_grid(4), np.zeros(5))
        with pytest.raises(ValueError, match="different grids"):
            _ = f - g

    def test_adopt_keeps_the_fresh_array_read_only(self):
        vals = np.array([1.0, 2.0, 3.0])
        f = GridFunction._adopt(unit_grid(2), vals)
        assert np.shares_memory(f.values, vals)
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_adopt_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            GridFunction._adopt(unit_grid(2), np.array([0.0, math.inf, 1.0]))

    def test_difference_holds_one_new_array(self):
        # the difference plus the finiteness check's bool per node; copying it held two
        grid = make_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 99)
        f = GridFunction(grid, np.ones(grid.node_shape))
        g = GridFunction(grid, np.full(grid.node_shape, 0.5))
        tracemalloc.start()
        try:
            d = f - g
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(d.values == 0.5) and not d.values.flags.writeable
        assert peak - 8 * grid.node_count < 1.5 * grid.node_count


def _smooth(pts):
    return np.sin(3.0 * pts[:, 0]) * np.exp(pts[:, -1]) + pts[:, 0] * pts[:, -1]


class TestFromCallable:
    # 20001, 301^2 and 41^3 nodes: 3, 12 and 11 slabs, the last one short
    @pytest.mark.parametrize("dim,res", [(1, 20000), (2, 300), (3, 40)])
    def test_equals_one_call_on_all_points(self, dim, res):
        grid = make_grid(Box((-1.0,) * dim, (2.0,) * dim), res)
        slabs = []

        def fn(pts):
            slabs.append(pts.copy())
            return _smooth(pts)

        f = GridFunction.from_callable(grid, fn)
        # one call per slab, in row-major order: together they are grid.points()
        assert len(slabs) > 2 and max(map(len, slabs)) <= _SLAB_NODES
        assert np.array_equal(np.concatenate(slabs), grid.points())
        assert f.values.tobytes() == _smooth(grid.points()).tobytes()
        assert f.values.shape == grid.node_shape and not f.values.flags.writeable

    @pytest.mark.parametrize(
        "fn", [lambda pts: 1.0, lambda pts: np.zeros(len(pts) - 1), lambda pts: pts, lambda pts: np.zeros((len(pts), 1))]
    )
    def test_refuses_a_result_without_one_value_per_point(self, fn):
        # a scalar would broadcast over the slab: the result must be one flat value per point
        with pytest.raises(ValueError, match="for 11 points"):
            GridFunction.from_callable(unit_grid(10), fn)


class TestQuadrature:
    def test_constant_is_exact(self):
        f = GridFunction(unit_grid(7), np.ones(8))
        assert quadrature(f) == pytest.approx(1.0, abs=1e-15)

    def test_affine_is_exact(self):
        grid = unit_grid(10)
        f = GridFunction(grid, grid.points()[:, 0])
        assert quadrature(f) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        grid = unit_grid(100)
        f = GridFunction(grid, grid.points()[:, 0] ** 2)
        assert quadrature(f) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_2d_volume(self):
        grid = make_grid(Box((0.0, 0.0), (2.0, 3.0)), (5, 6))
        f = GridFunction(grid, np.ones(grid.node_count))
        assert quadrature(f) == pytest.approx(6.0, abs=1e-12)

    # each first axis spans several slabs of _SLAB_NODES nodes
    @pytest.mark.parametrize("res", [(20000,), (499, 40), (19, 29, 29)])
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_matches_one_pass_formula_bit_for_bit(self, res, scale):
        grid = make_grid(Box((0.0,) * len(res), (1.3,) * len(res)), res)
        assert grid.node_count > 2 * _SLAB_NODES and grid.node_shape[0] > 1
        v = scale * np.random.default_rng(len(res)).standard_normal(grid.node_shape)
        w = reduce(np.multiply.outer, [grid.axis_weights(i) for i in range(grid.dim)])
        assert quadrature(GridFunction(grid, v)) == float(np.sum(w * v))

    def test_holds_one_full_grid_array(self):
        # the values are copied and weighted in place, slab by slab, so no
        # whole-grid weight array is built beside them
        grid = make_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 99)
        f = GridFunction(grid, np.ones(grid.node_shape))
        tracemalloc.start()
        try:
            total = quadrature(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == pytest.approx(1.0, rel=1e-12)
        assert peak - 8 * grid.node_count < grid.node_count / 2


class TestLpNorm:
    def test_constant_all_p(self):
        grid = unit_grid(16)
        f = GridFunction(grid, np.full(17, -3.0))
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p) == pytest.approx(3.0, rel=1e-12)
        assert lp_norm(f, math.inf) == 3.0

    def test_known_l2(self):
        # ||x||_L2([0,1]) = 1/sqrt(3)
        grid = unit_grid(400)
        f = GridFunction(grid, grid.points()[:, 0])
        assert lp_norm(f, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    def test_rejects_p_below_one(self):
        f = GridFunction(unit_grid(2), np.ones(3))
        with pytest.raises(ValueError, match=">= 1"):
            lp_norm(f, 0.5)

    def test_rejects_nan_p(self):
        f = GridFunction(unit_grid(2), np.ones(3))
        with pytest.raises(ValueError, match=">= 1"):
            lp_norm(f, math.nan)

    def test_rejects_minus_inf_p(self):
        # -inf is not the sup norm: it is refused like any p below 1
        f = GridFunction(unit_grid(4), np.array([0.0, 1.0, -3.0, 2.0, 0.0]))
        with pytest.raises(ValueError, match=">= 1"):
            lp_norm(f, -math.inf)

    def test_huge_values_do_not_overflow(self):
        # |f|^p overflows for p > 1 although every norm is finite
        grid = unit_grid(400)
        x = grid.points()[:, 0]
        for p in (1.0, 2.0, 3.5):
            expected = 1e300 * lp_norm(GridFunction(grid, x), p)
            assert lp_norm(GridFunction(grid, 1e300 * x), p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p,name", [(1.0, "1"), (2.0, "2"), (2.5, "2.5")])
    def test_norm_beyond_float64_names_p(self, p, name):
        # the rescaled norm of 1e300 on a box 1e300 wide is still near 1e300 * 1e300^(1/p)
        grid = make_grid(Box((0.0,), (1e300,)), 10)
        f = GridFunction(grid, np.full(11, 1e300))
        with pytest.raises(OverflowError, match=rf"^L\^p norm at p={name} is beyond the float64 range$"):
            lp_norm(f, p)
        assert lp_norm(f, math.inf) == 1e300

    def test_sum_overflow_gives_no_warning(self):
        # every weighted |f| is finite but their sum is not: the first pass
        # warned "overflow encountered in reduce" before lp_norm rescaled
        grid = make_grid(Box((0.0,), (2.0,)), 10)
        f = GridFunction(grid, np.full(11, 1e308))
        with pytest.raises(OverflowError, match=r"^L\^p norm at p=1 is beyond the float64 range$"):
            lp_norm(f, 1.0)
        assert lp_norm(f, 2.0) == pytest.approx(1e308 * math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [200.0, 1000.0])
    def test_tiny_values_at_large_p_are_not_zero(self, p):
        # (1e-3)^200 underflows to 0: the sum is redone on |f| / max|f|, as on overflow
        grid = unit_grid(400)
        x = grid.points()[:, 0]
        assert lp_norm(GridFunction(grid, np.full(401, 1e-3)), p) == pytest.approx(1e-3, rel=1e-12)
        expected = 1e-3 * lp_norm(GridFunction(grid, x), p)
        assert expected > 0.0
        assert lp_norm(GridFunction(grid, 1e-3 * x), p) == pytest.approx(expected, rel=1e-12)

    def test_subnormal_sum_is_rescaled(self):
        # a sum of 1e-310 keeps about 5 digits; the rescaled sum keeps all of them
        grid = unit_grid(4)
        f = GridFunction(grid, np.full(5, 1e-155))
        assert lp_norm(f, 2.0) == pytest.approx(1e-155, rel=1e-15)

    def test_zero_function_is_zero_at_every_p(self):
        f = GridFunction(unit_grid(4), np.zeros(5))
        assert [lp_norm(f, p) for p in (1.0, 200.0, math.inf)] == [0.0, 0.0, 0.0]

    def test_empty_region_is_zero(self):
        grid = unit_grid(4)
        f = GridFunction(grid, np.ones(5))
        empty = Region(grid, np.zeros(5, dtype=bool))
        assert lp_norm(f, math.inf, empty) == 0.0
        assert lp_norm(f, 2.0, empty) == 0.0

    @pytest.mark.parametrize("p,temporaries", [(math.inf, 1), (2.0, 1)])
    def test_no_region_builds_no_mask(self, p, temporaries):
        # beyond its one float64 temporary (|f|, raised to p and weighted in place,
        # where the weights, |f|^p and their product once took three), the
        # whole-grid norm allocates well under one byte per node: a full-grid bool
        # mask, copied from Region.full, took one
        grid = make_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 99)
        f = GridFunction(grid, np.ones(grid.node_shape))
        tracemalloc.start()
        try:
            norm = lp_norm(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert peak - 8 * temporaries * grid.node_count < grid.node_count / 2

    def test_region_grid_mismatch(self):
        f = GridFunction(unit_grid(10), np.ones(11))
        region = Region.full(unit_grid(5))
        with pytest.raises(ValueError, match="different grids"):
            lp_norm(f, 2.0, region)

    # each first axis spans several slabs of _SLAB_NODES nodes
    @pytest.mark.parametrize("res", [(20000,), (499, 40), (19, 29, 29)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 100.0])
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_one_pass_formula_bit_for_bit(self, res, p, scale, masked):
        grid = make_grid(Box((0.0,) * len(res), (1.3,) * len(res)), res)
        assert grid.node_count > 2 * _SLAB_NODES and grid.node_shape[0] > 1
        rng = np.random.default_rng(len(res))
        v = scale * rng.standard_normal(grid.node_shape)
        mask = rng.random(grid.node_shape) < 0.5 if masked else True
        w = reduce(np.multiply.outer, [grid.axis_weights(i) for i in range(grid.dim)])
        with np.errstate(over="ignore"):
            total = float(np.sum(w * np.abs(v) ** p, where=mask))
        if math.isfinite(total):
            expected = total ** (1 / p)
        else:
            # the overflow fallback: the same sum of |v| / max|v|, scaled back
            assert p > 1.0 and scale == 1e300
            top = float(np.max(np.abs(v), where=mask, initial=0.0))
            expected = top * float(np.sum(w * (np.abs(v) / top) ** p, where=mask)) ** (1 / p)
        region = Region(grid, mask) if masked else None
        assert lp_norm(GridFunction(grid, v), p, region) == expected


class TestRegion:
    def test_full_holds_one_full_grid_mask_while_built(self):
        # the region's own read-only copy is the only full-grid array: building
        # an all-True array first and copying it held two
        grid = make_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 99)
        tracemalloc.start()
        try:
            mask = Region.full(grid).mask
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.shape == grid.node_shape and mask.all() and not mask.flags.writeable
        assert grid.node_count <= peak < 1.5 * grid.node_count


class TestInteriorRegion:
    def test_eps_zero_drops_only_boundary(self):
        grid = unit_grid(10)
        region = interior_region(grid, 0.0)
        expected = np.ones(11, dtype=bool)
        expected[0] = expected[-1] = False
        np.testing.assert_array_equal(region.mask, expected)

    def test_quarter_margin(self):
        grid = unit_grid(10)
        region = interior_region(grid, 0.25)
        kept = grid.points()[:, 0][region.mask]
        np.testing.assert_allclose(kept, [0.3, 0.4, 0.5, 0.6, 0.7])

    def test_2d_distances(self):
        # a node's distance to the boundary is its least distance along any axis
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
        assert not interior_region(grid, 0.0).mask[0, 2]
        assert interior_region(grid, 0.49).mask[2, 2] and not interior_region(grid, 0.5).mask[2, 2]
        assert interior_region(grid, 0.24).mask[1, 2] and not interior_region(grid, 0.25).mask[1, 2]

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            interior_region(unit_grid(4), -0.1)

    def test_holds_one_full_grid_mask(self):
        # the mask built from the per-axis masks is the region's own; copying it held two
        grid = make_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 99)
        tracemalloc.start()
        try:
            region = interior_region(grid, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * grid.node_count
        assert region.mask.shape == grid.node_shape and not region.mask.flags.writeable
        # the public constructor still copies what it is given
        mask = np.array(region.mask)
        assert not np.shares_memory(Region(grid, mask).mask, mask)

    @given(eps_small=st.floats(0.0, 0.2), gap=st.floats(0.0, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_antitone_in_eps(self, eps_small, gap):
        grid = unit_grid(17)
        small = interior_region(grid, eps_small).mask
        large = interior_region(grid, eps_small + gap).mask
        # growing the margin can only remove nodes
        assert np.all(large <= small)


class TestProperties:
    @given(scalar=st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_quadrature_is_linear_in_scaling(self, scalar):
        grid = unit_grid(13)
        rng = np.random.default_rng(7)
        f = GridFunction(grid, rng.uniform(-1.0, 1.0, size=14))
        assert quadrature(GridFunction(grid, scalar * f.values)) == pytest.approx(scalar * quadrature(f), abs=1e-10)

    @given(scalar=st.floats(-50.0, 50.0), p=st.sampled_from([1.0, 2.0, 4.0, math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_norm_homogeneity(self, scalar, p):
        grid = unit_grid(9)
        rng = np.random.default_rng(11)
        f = GridFunction(grid, rng.uniform(-1.0, 1.0, size=10))
        assert lp_norm(GridFunction(grid, scalar * f.values), p) == pytest.approx(abs(scalar) * lp_norm(f, p), abs=1e-9)

    @given(seed=st.integers(0, 2**16), p=st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, seed, p):
        grid = unit_grid(9)
        rng = np.random.default_rng(seed)
        f = GridFunction(grid, rng.uniform(-1.0, 1.0, size=10))
        g = GridFunction(grid, rng.uniform(-1.0, 1.0, size=10))
        assert lp_norm(GridFunction(grid, f.values + g.values), p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestCsv:
    def test_exact_output(self):
        grid = unit_grid(2)
        f = GridFunction(grid, grid.points()[:, 0])
        out = io.StringIO()
        write_grid_function_csv(f, out)
        assert out.getvalue() == "# grid lo=0 hi=1 res=2\n0,0\n0.5,0.5\n1,1\n"

    def test_round_trip(self):
        grid = make_grid(Box((0.0, -1.0), (1.0, 1.0)), (3, 4))
        rng = np.random.default_rng(3)
        f = GridFunction(grid, rng.uniform(-2.0, 2.0, size=grid.node_count))
        out = io.StringIO()
        write_grid_function_csv(f, out)
        back = read_grid_function_csv(io.StringIO(out.getvalue()))
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, f.values)

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            read_grid_function_csv(io.StringIO("0,1\n"))
