import math
import tracemalloc

import numpy as np
import pytest

from sobolevkit import sobolev
from sobolevkit import weakdiff as wd
from sobolevkit.cli import _alpha_label, _table
from sobolevkit.grid import Box, GridFunction, lp_norm, make_grid
from sobolevkit.sobolev import (
    DerivativeFamily,
    enumerate_multi_indices,
    membership_report,
    sobolev_norm,
)
from sobolevkit.weakdiff import TestFunction, test_function_catalog, verify_weak_derivative

SQRT_4_3 = 1.1547005383792515  # W^{1,2} norm of x on [0, 1]


def unit_grid(res=400):
    return make_grid(Box((0.0,), (1.0,)), res)


def sample(grid, fn):
    return GridFunction(grid, fn(grid.points()[:, 0]))


def affine_family(grid):
    return DerivativeFamily(
        {
            (0,): sample(grid, lambda x: x),
            (1,): GridFunction(grid, np.ones(grid.node_count)),
        }
    )


def sine_family(grid, k=2):
    w = 2.0 * math.pi
    entries = {(0,): sample(grid, lambda x: np.sin(w * x))}
    if k >= 1:
        entries[(1,)] = sample(grid, lambda x: w * np.cos(w * x))
    if k >= 2:
        entries[(2,)] = sample(grid, lambda x: -(w**2) * np.sin(w * x))
    return DerivativeFamily(entries)


class TestEnumerateMultiIndices:
    def test_1d(self):
        assert enumerate_multi_indices(1, 2) == [(0,), (1,), (2,)]

    def test_2d_ordering(self):
        assert enumerate_multi_indices(2, 2) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_order_zero(self):
        assert enumerate_multi_indices(3, 0) == [(0, 0, 0)]


class TestDerivativeFamily:
    def test_basic_access(self):
        fam = affine_family(unit_grid(100))
        assert (1,) in fam
        assert (2,) not in fam
        assert fam.alphas() == [(0,), (1,)]
        with pytest.raises(ValueError, match=r"missing derivatives \[\(2,\)\]"):
            sobolev._check_family(fam.dim, 2, fam)
        assert fam.function is fam[(0,)]

    def test_requires_order_zero(self):
        grid = unit_grid(10)
        with pytest.raises(ValueError, match="order-zero"):
            DerivativeFamily({(1,): GridFunction(grid, np.ones(11))})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DerivativeFamily({})

    def test_rejects_mixed_grids(self):
        with pytest.raises(ValueError, match="different grids"):
            DerivativeFamily(
                {
                    (0,): GridFunction(unit_grid(10), np.ones(11)),
                    (1,): GridFunction(unit_grid(20), np.ones(21)),
                }
            )


class TestSobolevNorm:
    def test_affine_l2(self):
        # (integral x^2 + integral 1)^(1/2) = sqrt(4/3)
        fam = affine_family(unit_grid())
        assert sobolev_norm(fam, 1, 2.0) == pytest.approx(SQRT_4_3, abs=5e-6)

    def test_affine_sup(self):
        # max|x| + max|1| = 2, attained at the endpoint node
        fam = affine_family(unit_grid())
        assert sobolev_norm(fam, 1, math.inf) == 2.0

    def test_rejects_minus_inf_p(self):
        fam = affine_family(unit_grid())
        with pytest.raises(ValueError, match=">= 1"):
            sobolev_norm(fam, 1, -math.inf)

    def test_affine_l1(self):
        fam = affine_family(unit_grid())
        assert sobolev_norm(fam, 1, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_sine_order_two(self):
        # each |d^j sin(2 pi x)|^2 integrates to (2 pi)^(2j) / 2 exactly
        w = 2.0 * math.pi
        expected = math.sqrt((1.0 + w**2 + w**4) / 2.0)
        fam = sine_family(unit_grid())
        assert sobolev_norm(fam, 2, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_k(self):
        fam = sine_family(unit_grid(200))
        norms = [sobolev_norm(fam, k, 2.0) for k in (0, 1, 2)]
        assert norms[0] < norms[1] < norms[2]

    def test_huge_family_does_not_overflow(self):
        # each per-alpha norm is finite, but its p-th power is not
        fam = affine_family(unit_grid())
        big = DerivativeFamily({a: GridFunction(fam[a].grid, 1e200 * fam[a].values) for a in fam.alphas()})
        for p in (2.0, 3.0):
            assert sobolev_norm(big, 1, p) == pytest.approx(1e200 * sobolev_norm(fam, 1, p), rel=1e-12)

    def test_tiny_family_at_large_p_is_not_zero(self):
        # each per-alpha norm is near 1e-3, and its 200th power underflows to 0
        fam = affine_family(unit_grid())
        tiny = DerivativeFamily({a: GridFunction(fam[a].grid, 1e-3 * fam[a].values) for a in fam.alphas()})
        assert sobolev_norm(tiny, 1, 200.0) == pytest.approx(1e-3 * sobolev_norm(fam, 1, 200.0), rel=1e-12)
        zero = GridFunction(unit_grid(), np.zeros(unit_grid().node_count))
        assert sobolev_norm(DerivativeFamily({(0,): zero, (1,): zero}), 1, 200.0) == 0.0

    @pytest.mark.parametrize("p,name", [(1.0, "1"), (2.0, "2"), (math.inf, "inf")])
    def test_norm_beyond_float64_names_p(self, p, name):
        # each per-alpha norm is 1.5e308; their combination is not a float64
        grid = unit_grid(10)
        big = GridFunction(grid, np.full(11, 1.5e308))
        with pytest.raises(OverflowError, match=rf"^W\^\{{k,p\}} norm at p={name} is beyond the float64 range$"):
            sobolev_norm(DerivativeFamily({(0,): big, (1,): big}), 1, p)

    def test_missing_derivative(self):
        fam = affine_family(unit_grid(100))
        with pytest.raises(ValueError, match=r"missing derivatives \[\(2,\)\]"):
            sobolev_norm(fam, 2, 2.0)

    def test_bad_arguments(self):
        fam = affine_family(unit_grid(100))
        with pytest.raises(ValueError, match="order k must be at least 0"):
            sobolev_norm(fam, -1, 2.0)
        with pytest.raises(ValueError, match=">= 1"):
            sobolev_norm(fam, 1, 0.5)

    def test_order_above_maximum_refused(self):
        # no derivative family of order 3 or more exists to be complete
        fam = affine_family(unit_grid(100))
        with pytest.raises(ValueError, match="order k must be at most 2, got 3"):
            sobolev_norm(fam, 3, 2.0)


class TestMembershipReport:
    def test_sine_is_member(self):
        grid = unit_grid()
        fam = sine_family(grid)
        cat = test_function_catalog(grid.box)
        report = membership_report(fam, 1, 2.0, cat, 1e-4)
        assert report.member
        assert report.norm == pytest.approx(sobolev_norm(fam, 1, 2.0), rel=1e-12)
        zero_entry = report.entries[0]
        assert zero_entry.alpha == (0,)
        assert zero_entry.pairing_residual is None
        assert zero_entry.verdict

    def test_step_with_zero_candidate_is_rejected(self):
        grid = unit_grid()
        f = sample(grid, lambda x: (x >= 0.5).astype(float))
        fam = DerivativeFamily({(0,): f, (1,): GridFunction(grid, np.zeros(401))})
        cat = test_function_catalog(grid.box)
        report = membership_report(fam, 1, 2.0, cat, 1e-4)
        assert not report.member
        assert report.norm is None
        assert not report.entries[1].verdict
        assert report.entries[1].pairing_residual >= 0.1

    def test_requires_order_one(self):
        grid = unit_grid(100)
        fam = affine_family(grid)
        cat = test_function_catalog(grid.box)
        with pytest.raises(ValueError, match="at least 1"):
            membership_report(fam, 0, 2.0, cat, 1e-4)

    @pytest.mark.parametrize("slope, member", [(1.0, False), (2.0, True)])
    def test_verifies_against_the_family_function(self, slope, member):
        # the family holds f = 2x, so only the slope 2 is its derivative
        grid = unit_grid()
        fam = DerivativeFamily({
            (0,): sample(grid, lambda x: 2.0 * x),
            (1,): sample(grid, lambda x: np.full_like(x, slope)),
        })
        report = membership_report(fam, 1, 2.0, test_function_catalog(grid.box), 1e-4)
        assert report.member == member
        assert report.entries[1].verdict == member

    def test_csv_format(self):
        rows = [
            (_alpha_label((0,)), None, 0.5, True),
            # a verdict computed by numpy prints like a Python bool
            (_alpha_label((1,)), np.float64(1e-08), 1.0, np.True_),
            ("overall", None, 1.25, True),
        ]
        text = _table(("alpha", "pairing_residual", "lp_norm", "verdict"), rows)
        assert text == (
            "alpha,pairing_residual,lp_norm,verdict\n"
            "0,,0.5,true\n"
            "1,1e-08,1,true\n"
            "overall,,1.25,true\n"
        )

    def test_csv_2d_alpha_labels(self):
        rows = [(_alpha_label((1, 0)), 0.001, 2.0, False), ("overall", None, None, False)]
        lines = _table(("alpha", "pairing_residual", "lp_norm", "verdict"), rows).splitlines()
        assert lines[1] == "1 0,0.001,2,false"
        assert lines[-1] == "overall,,,false"



def alpha_by_alpha(fam, k, p, tests, tol):
    """Reference: each entry's norm, then its own verification, one multi-index at a time."""
    out = []
    for alpha in enumerate_multi_indices(fam.dim, k):
        norm = lp_norm(fam[alpha], p)
        result = verify_weak_derivative(fam.function, fam[alpha], alpha, tests, tol) if sum(alpha) else None
        out.append((alpha, result, norm))
    return out


def pairing_family(grid, k):
    """sin(w x1 + c) x2 with its derivatives up to order ``k``, as the pairing benchmark samples it."""
    x1, x2 = grid.points().T
    w, c = 4.0281, 0.4201
    entries = {
        (0, 0): np.sin(w * x1 + c) * x2,
        (0, 1): np.sin(w * x1 + c),
        (1, 0): w * np.cos(w * x1 + c) * x2,
        (0, 2): np.zeros_like(x1),
        (1, 1): w * np.cos(w * x1 + c),
        (2, 0): -w * w * np.sin(w * x1 + c) * x2,
    }
    return DerivativeFamily({a: GridFunction(grid, v) for a, v in entries.items() if sum(a) <= k})


# three test functions with disjoint supports on a box 400 wide, 6 cells in radius
FAR_BOX = Box((0.0, 0.0), (400.0, 400.0))
FAR_TESTS = [TestFunction(c, 60.0, label=name) for name, c in (("A", (100, 100)), ("B", (200, 300)), ("C", (300, 100)))]


def hot(grid, name):
    """1e306 within 30 of the named test function's centre: only that pairing overflows, the L^2 norm stays finite."""
    [phi] = [phi for phi in FAR_TESTS if phi.label == name]
    near = np.sum((grid.points() - phi.center) ** 2, axis=-1) < 30.0**2
    return GridFunction(grid, np.where(near, 1e306, 0.0))


class TestOneCatalogPass:
    # membership_report pairs every multi-index in one pass over the catalog;
    # it must report and raise what the alpha-by-alpha walk does

    @pytest.mark.parametrize("dim, k", [(1, 2), (2, 2), (3, 1)])
    def test_matches_the_alpha_by_alpha_walk(self, dim, k):
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), (120, 60, 16)[dim - 1])
        pts = grid.points()
        # the candidates are deliberately not all derivatives, so verdicts differ
        entries = {a: GridFunction(grid, np.cos(pts @ (np.arange(dim) + sum(a) + 1.0))) for a in
                   enumerate_multi_indices(dim, k)}
        fam = DerivativeFamily(entries)
        tests = test_function_catalog(grid.box, 12)
        report = membership_report(fam, k, 2.0, tests, 1e-2)
        walk = alpha_by_alpha(fam, k, 2.0, tests, 1e-2)
        assert [e.alpha for e in report.entries] == [alpha for alpha, _, _ in walk]
        for entry, (_, result, norm) in zip(report.entries, walk):
            assert entry.lp_norm == norm
            if result is None:
                assert (entry.pairing_residual, entry.verdict) == (None, True)
            else:
                assert (entry.pairing_residual, entry.verdict) == (result.max_residual, result.verdict)

    @pytest.mark.parametrize(
        "first, second, tests, message",
        [
            # both fail, at different test functions: the earlier multi-index's failure is raised,
            # whichever comes first in the catalog
            ("C", "A", FAR_TESTS, "pairing with C is beyond the float64 range"),
            ("A", "C", FAR_TESTS, "pairing with A is beyond the float64 range"),
            # a later multi-index's norm overflow stays behind an earlier one's pairing failure
            ("B", "huge", FAR_TESTS, "pairing with B is beyond the float64 range"),
            # and an earlier multi-index's norm overflow comes before a later one's pairing failure
            ("huge", "A", FAR_TESTS, "L^p norm at p=2 is beyond the float64 range"),
            ("huge", "zero", [], "L^p norm at p=2 is beyond the float64 range"),
            ("zero", "huge", [], "no test functions supplied"),
            ("zero", "huge", FAR_TESTS[:1] + [TestFunction((390.0, 200.0), 60.0, label="D")],
             "support of D escapes the grid box"),
        ],
    )
    def test_raises_what_the_alpha_by_alpha_walk_raises(self, first, second, tests, message):
        grid = make_grid(FAR_BOX, 40)
        zero = GridFunction(grid, np.zeros(grid.node_count))
        candidates = {"zero": zero, "huge": GridFunction(grid, np.full(grid.node_count, 1e308))}
        candidates.update((name, hot(grid, name)) for name in "ABC")
        fam = DerivativeFamily({(0, 0): zero, (0, 1): candidates[first], (1, 0): candidates[second]})
        with pytest.raises((ValueError, ArithmeticError)) as walk:
            alpha_by_alpha(fam, 1, 2.0, tests, 1e-4)
        with pytest.raises((ValueError, ArithmeticError)) as report:
            membership_report(fam, 1, 2.0, tests, 1e-4)
        assert (type(report.value), str(report.value)) == (type(walk.value), str(walk.value))
        assert str(report.value) == message

    def test_one_window_and_exponential_per_distinct_test_function(self, monkeypatch):
        # the pairing benchmark's 48-entry catalog holds 30 distinct test
        # functions; two multi-indices used to build each one twice
        calls = {"window": 0, "exponential": 0, "value": 0, "derivative": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wd, "_window", counted("window", wd._window))
        monkeypatch.setattr(wd, "_bump_exponential", counted("exponential", wd._bump_exponential))
        closed_form = wd.TestFunction._closed_form

        def counting_closed_form(phi, alpha, z, u, e):
            calls["value" if alpha is None else "derivative"] += 1
            return closed_form(phi, alpha, z, u, e)

        monkeypatch.setattr(wd.TestFunction, "_closed_form", counting_closed_form)
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 60)
        tests = test_function_catalog(grid.box, 48)
        assert len({(phi.center, phi.radius, phi.poly) for phi in tests}) == 30
        report = membership_report(pairing_family(grid, 1), 1, 2.0, tests, 1e-3)
        assert report.member
        assert calls == {"window": 30, "exponential": 30, "value": 30, "derivative": 60}

    def test_window_memory_does_not_grow_with_multi_indices(self, monkeypatch):
        # per window: the value, and one derivative at a time, whatever the family's size
        grid = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 200)
        tests = test_function_catalog(grid.box, 8)
        pair_window = wd._pair_window

        def window_peaks(k):
            peaks = []

            def traced(*args):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                error = pair_window(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                return error

            monkeypatch.setattr(wd, "_pair_window", traced)
            fam = pairing_family(grid, k)
            tracemalloc.start()
            try:
                membership_report(fam, k, 2.0, tests, 1e-2)
            finally:
                tracemalloc.stop()
            return peaks

        k1, k2 = window_peaks(1), window_peaks(2)
        assert len(k1) == len(k2) == 8
        # one more array over the ball's nodes would add about a tenth; the
        # slack is for the residuals' Python floats
        for one, two in zip(k1, k2):
            assert two <= 1.01 * one
