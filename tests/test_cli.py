import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sobolevkit

from sobolevkit import cli, convolution, expr
from sobolevkit.cli import (
    DEFAULT_SEED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    SEED_ENV_VAR,
    CliError,
    main,
    resolve_seed,
)
from sobolevkit.expr import EvalError, evaluate_many, parse
from sobolevkit.grid import MAX_NODES, Box, make_grid

SQRT2 = 1.4142135623730951


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMollify:
    def test_basic_output(self, capsys):
        code, out, _ = run(
            capsys, ["mollify", "--f", "x1", "--eps", "0.2", "--res", "20"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# grid lo=0 hi=1 res=20"
        assert len(lines) == 22
        assert lines[1] == "0,0"  # boundary node carries the zero placeholder

    def test_interior_values_track_affine_input(self, capsys):
        code, out, _ = run(
            capsys, ["mollify", "--f", "x1", "--eps", "0.2", "--res", "200"]
        )
        assert code == EXIT_OK
        mid = out.splitlines()[101]  # node at x = 0.5
        x, value = (float(p) for p in mid.split(","))
        assert x == 0.5
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_eps_must_fit_box(self, capsys):
        code, _, err = run(
            capsys, ["mollify", "--f", "x1", "--eps", "0.6", "--res", "50"]
        )
        assert code == EXIT_VALIDATION
        assert "too large" in err

    def test_under_resolved_kernel_exits_two(self, capsys):
        # a kernel narrower than one cell would put all its mass on one node
        code, out, err = run(
            capsys, ["mollify", "--lo", "0", "--hi", "1", "--res", "10", "--eps", "0.001", "--f", "1"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "lattice mass" in err


class TestConverge:
    def test_error_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["converge", "--f", "sin(2*pi*x1)", "--res", "200", "--p", "inf"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "eps,error,ratio"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[2] == ""  # no ratio on the first rung
        errors = [float(row.split(",")[1]) for row in lines[1:]]
        assert errors == sorted(errors, reverse=True)

    def test_rejects_increasing_ladder(self, capsys):
        code, _, err = run(
            capsys,
            ["converge", "--f", "x1", "--eps", "0.1,0.2", "--res", "100"],
        )
        assert code == EXIT_VALIDATION
        assert "strictly decreasing" in err


class TestCommute:
    def test_single_row(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "commute",
                "--f", "sin(2*pi*x1)",
                "--u", "2*pi*cos(2*pi*x1)",
                "--alpha", "1",
                "--eps", "0.2",
                "--p", "inf",
                "--res", "200",
            ],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "alpha,eps,p,residual"
        alpha, eps, p, residual = lines[1].split(",")
        assert (alpha, eps, p) == ("1", "0.2", "inf")
        assert float(residual) <= 1e-2


class TestWeakVerify:
    def test_verified(self, capsys):
        code, out, err = run(
            capsys,
            [
                "weak-verify",
                "--f", "sin(2*pi*x1)",
                "--u", "2*pi*cos(2*pi*x1)",
                "--alpha", "1",
            ],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "test_id,residual"
        assert len(lines) == 9
        assert "weak-verify: verified" in err

    def test_rejected_candidate_still_exits_zero(self, capsys):
        # a finished verification with a negative verdict is a successful
        # run; the verdict goes to stderr and the residuals to stdout
        code, out, err = run(
            capsys,
            ["weak-verify", "--f", "step(x1-0.5)", "--u", "0", "--alpha", "1"],
        )
        assert code == EXIT_OK
        assert "not verified" in err
        worst = max(float(line.split(",")[1]) for line in out.splitlines()[1:])
        assert worst >= 0.1


class TestSobolev:
    def test_membership_norm(self, capsys):
        code, out, _ = run(
            capsys,
            ["sobolev", "--f", "x1", "--deriv", "1=1", "--k", "1", "--p", "2"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "alpha,pairing_residual,lp_norm,verdict"
        summary = lines[-1].split(",")
        assert summary[0] == "overall"
        assert summary[3] == "true"
        assert float(summary[2]) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-4)

    @pytest.mark.parametrize(
        "argv,message",
        [
            # an order-zero --deriv replaced --f without a word: the table reported on 2x
            (["--res", "400", "--f", "x1", "--deriv", "0=2*x1", "--deriv", "1=1"],
             "error: --deriv '0' has order 0; give the function itself with --f\n"),
            # ... and an --f it never used still had to sample: log(0) exited 3
            (["--f", "log(x1)", "--deriv", "0=x1", "--deriv", "1=1"],
             "error: --deriv '0' has order 0; give the function itself with --f\n"),
            # the second of two --deriv 1 was used quietly
            (["--res", "100", "--f", "x1", "--deriv", "1=5", "--deriv", "1=1"],
             "error: --deriv '1' is given twice\n"),
        ],
        ids=["order-zero", "order-zero-unused-f", "repeated"],
    )
    def test_order_zero_or_repeated_deriv_refused(self, argv, message):
        result = run_subprocess(["sobolev", *argv])
        assert (result.returncode, result.stdout) == (EXIT_VALIDATION, b"")
        assert result.stderr.decode() == message

    def test_missing_deriv_flag(self, capsys):
        code, _, err = run(capsys, ["sobolev", "--f", "x1", "--k", "1"])
        assert code == EXIT_VALIDATION
        assert "missing" in err

    def test_bad_deriv_syntax(self, capsys):
        code, _, err = run(
            capsys, ["sobolev", "--f", "x1", "--deriv", "cos(x1)"]
        )
        assert code == EXIT_VALIDATION
        assert "ALPHA=EXPR" in err


class TestCompose:
    def test_support_and_mass(self, capsys):
        code, out, _ = run(
            capsys, ["compose", "--eps-a", "0.1", "--eps-b", "0.2"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "support_radius,mass"
        support, mass = (float(v) for v in lines[1].split(","))
        assert support <= 0.3 + 0.6 / 256 + 1e-12
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_kernel_out(self, capsys, tmp_path):
        target = tmp_path / "kernel.csv"
        code, _, _ = run(
            capsys,
            ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--kernel-out", str(target)],
        )
        assert code == EXIT_OK
        content = target.read_text().splitlines()
        assert content[0].startswith("# grid lo=-0.2 hi=0.2 res=256")

    def test_under_resolved_kernel_exits_two(self, capsys):
        # eps-b 0.001 is below one cell (2.002 / 256), so that kernel's mass
        # lands on its centre node and the composed mass read 6.48
        code, out, err = run(
            capsys, ["compose", "--eps-a", "1", "--eps-b", "0.001", "--res", "256"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: kernel at eps=0.001 has lattice mass 6.47967")
        assert err.count("\n") == 1

    def test_tiny_kernels_compose_like_unit_ones(self, capsys):
        # the composed kernel peaks near eps^-3 = 1e300, which float64 holds;
        # multiplying the two kernels before scaling overflowed on the way
        masses = []
        for eps in ("1e-100", "1"):
            code, out, err = run(
                capsys, ["compose", "--dim", "3", "--res", "10", "--eps-a", eps, "--eps-b", eps]
            )
            assert (code, err) == (EXIT_OK, "")
            masses.append(float(out.splitlines()[1].split(",")[1]))
        assert masses[0] == pytest.approx(masses[1], rel=0, abs=1e-12)

    def test_support_radius_scales_with_the_kernels(self, capsys):
        # the squared node distances under- or overflowed: 1e-200 printed radius 0,
        # 1e300 printed inf after a numpy warning
        def radius(eps):
            code, out, err = run(capsys, ["compose", "--res", "40", "--eps-a", eps, "--eps-b", eps])
            assert (code, err) == (EXIT_OK, "")
            return float(out.splitlines()[1].split(",")[0])

        unit = radius("1")
        for eps in ("1e-200", "1e300"):
            assert radius(eps) == pytest.approx(unit * float(eps), rel=1e-12, abs=0)

    def test_odd_resolution(self, capsys):
        code, _, err = run(
            capsys, ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--res", "255"]
        )
        assert code == EXIT_VALIDATION
        assert "even" in err


class TestKernelBuilds:
    """How many lattice kernels each convolving command builds."""

    @pytest.mark.parametrize(
        "argv,builds",
        [
            # a's mass check, then b's admission, whose kernel the convolution uses
            (["compose", "--eps-a", "0.1", "--eps-b", "0.2", "--res", "40"], 2),
            # the alpha-derivative and value kernels, each admitted once before sampling
            (["commute", "--f", "x1", "--u", "1", "--alpha", "1", "--eps", "0.1", "--res", "40"], 2),
            # admitted before sampling, then again by convolve itself, which the
            # benchmark's traced run must see called for each of mollify's convolutions
            (["mollify", "--f", "x1", "--eps", "0.1", "--res", "40"], 2),
            # each rung admitted before sampling, then again by convergence_study's convolve
            (["converge", "--f", "x1", "--eps", "0.2,0.1,0.05", "--res", "40"], 6),
        ],
    )
    def test_lattice_kernel_calls(self, capsys, monkeypatch, argv, builds):
        calls = 0
        lattice_kernel = convolution._lattice_kernel

        def counting(*args):
            nonlocal calls
            calls += 1
            return lattice_kernel(*args)

        monkeypatch.setattr(convolution, "_lattice_kernel", counting)
        code, _, err = run(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert calls == builds


class TestNewton:
    def test_square_root(self, capsys):
        code, out, err = run(
            capsys,
            ["newton", "--f", "x1^2", "--a", "1.5", "--y", "2", "--x0", "1.5"],
        )
        assert code == EXIT_OK
        assert "newton: converged" in err
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(SQRT2, abs=1e-6)
        assert float(last[2]) <= 1e-12

    def test_divergence_reported(self, capsys):
        code, _, err = run(
            capsys,
            ["newton", "--f", "x1^2", "--a", "-1.5", "--y", "2", "--x0", "1.5"],
        )
        assert code == EXIT_OK
        assert "did not converge" in err

    def test_domain_error_is_numerical(self, capsys):
        code, _, err = run(
            capsys,
            ["newton", "--f", "log(x1)", "--a", "1", "--y", "0", "--x0", "-5"],
        )
        assert code == EXIT_NUMERICAL
        assert "error" in err

    @pytest.mark.parametrize(
        "f,x0,message",
        [
            # both errors of math.pow used to read "invalid power"
            ("x1^2", "1e200", "overflow in 'x1^2'"),
            ("(-1)^0.5", "1", "invalid power in '(-1)^0.5'"),
        ],
    )
    def test_power_errors_are_named(self, capsys, f, x0, message):
        code, out, err = run(capsys, ["newton", "--f", f, "--a", "1", "--y", "2", "--x0", x0])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"error: evaluating {f!r}: {message} (at offset {f.index('^')})\n"

    def test_frozen_slope_beyond_float64_is_numerical(self, capsys):
        # (1e303 - 0) / 2e-6 overflows: exit 3 naming --a, where newton_net's "df_a" message exited 2
        code, out, err = run(capsys, ["newton", "--f", "step(x1)*1e303", "--a", "0", "--y", "0", "--x0", "1"])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == "error: the frozen slope of --f at --a 0 is beyond the float64 range\n"

    @pytest.mark.parametrize("a", ["1e9", "1e11"])
    def test_slope_step_scales_with_the_anchor(self, a):
        # a fixed step of 1e-6 is lost in a + h from |a| near 1e10: the slope of x1 read 0
        # at 1e11 (exit 2) and was inexact at 1e9 (10 iterations for a linear f)
        result = run_subprocess(["newton", "--f", "x1", "--a", a, "--y", "0", "--x0", "1"])
        assert result.returncode == EXIT_OK
        assert result.stderr == b"newton: converged after 1 iterations\n"
        assert result.stdout.decode().splitlines() == ["iter,x,residual", "0,1,1", "1,0,0"]

    def test_zero_slope_names_the_flags(self):
        result = run_subprocess(["newton", "--f", "x1^2", "--a", "0", "--y", "2", "--x0", "1"])
        assert (result.returncode, result.stdout) == (EXIT_VALIDATION, b"")
        assert result.stderr == b"error: the frozen slope of --f at --a 0 is zero; the chord step is undefined\n"

    @pytest.mark.parametrize("flag,raw", [("--a", "inf"), ("--y", "nan"), ("--x0", "-inf")])
    def test_non_finite_flag_is_invalid(self, capsys, flag, raw):
        argv = {"--a": "1", "--y": "2", "--x0": "1"} | {flag: raw}
        code, out, err = run(capsys, ["newton", "--f", "x1^2", *(f"{k}={v}" for k, v in argv.items())])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: {flag} must be finite, got {raw!r}\n"


class TestLargeFiniteP:
    # the sums of p-th powers underflowed to 0: errors 0,0 with ratio inf, and lp_norm 0 for
    # the constant 1e-3, all with exit 0
    def test_converge_errors_are_nonzero(self, capsys):
        code, out, _ = run(capsys, ["converge", "--res", "40", "--eps", "0.2,0.1", "--p", "200", "--f", "x1"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(float(error) > 0.0 for _, error, _ in rows)
        assert rows[1][2] != "inf"

    def test_sobolev_norms_are_nonzero(self, capsys):
        code, out, _ = run(capsys, ["sobolev", "--res", "200", "--p", "200", "--f", "1e-3*x1", "--deriv", "1=1e-3"])
        assert code == EXIT_OK
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
        assert float(rows["1"][2]) == pytest.approx(1e-3, rel=1e-12)
        assert float(rows["0"][2]) > 0.0 and float(rows["overall"][2]) >= 1e-3


class TestFlow:
    def test_group_law_row(self, capsys):
        code, out, _ = run(
            capsys, ["flow", "--k", "1", "--x0", "2", "--s", "0.3", "--t", "0.4"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,x0,s,t,lhs,rhs,residual,rk4_error"
        row = [float(v) for v in lines[1].split(",")]
        assert row[4] == pytest.approx(2.0 * math.exp(0.7), rel=1e-12)
        assert row[6] <= 1e-12
        assert row[7] <= 1e-10

    def test_non_finite_input(self, capsys):
        code, _, err = run(
            capsys, ["flow", "--k", "inf", "--x0", "1", "--s", "0", "--t", "0"]
        )
        assert code == EXIT_VALIDATION
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # math.exp overflowed with a bare "math range error"
            ["--k", "1e300", "--x0", "1", "--s", "7", "--t", "2"],
            # the RK4 control run overflowed and printed rk4_error inf
            ["--k", "1e200", "--x0", "1e200", "--s", "0", "--t", "1e-250"],
        ],
    )
    def test_overflow_names_the_values(self, capsys, argv):
        code, out, err = run(capsys, ["flow", *argv])
        k, x0, s, t = (float(v) for v in argv[1::2])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"error: exponential flow at k={k}, x0={x0}, s={s}, t={t} leaves the float64 range\n"


def _child_env():
    """The environment of a child process that imports this package."""
    src = str(Path(sobolevkit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_measured(argv, timeout=60):
    """Like ``run_subprocess``, but the child then prints its peak resident set (Linux ``VmHWM``, kB) to stdout.

    ``ru_maxrss`` would not do: a child's starts from its parent's resident set at fork.
    """
    script = (
        "import sys\nfrom sobolevkit.cli import main\ncode = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, timeout=timeout
    )


def run_subprocess(argv, timeout=60):
    """The CLI in a child process; a hang fails the test at ``timeout`` seconds."""
    return subprocess.run(
        [sys.executable, "-m", "sobolevkit.cli", *argv],
        env=_child_env(),
        capture_output=True,
        timeout=timeout,
    )


class TestSampleExpression:
    # the values' one array is the only full-grid allocation: the node points, 8 * dim
    # bytes per node when built whole, exist one slab at a time
    @pytest.mark.parametrize("dim,res", [(2, 300), (3, 60)])
    def test_holds_the_values_and_one_slab(self, dim, res):
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
        source = "exp(x1)*log(x2+1)+sin(x1*x2)"
        tracemalloc.start()
        try:
            f = cli._sample_expression(source, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.node_count + 512 * 1024
        # the whole-grid walk's values, bit for bit
        assert f.values.tobytes() == evaluate_many(parse(source, dim), grid.points()).tobytes()

    @pytest.mark.parametrize("lo,hi,res", [("0,0", "1,1", "300"), ("0,0,0", "1,1,1", "60")])
    def test_first_domain_error_in_a_later_slab(self, capsys, monkeypatch, lo, hi, res):
        # log fails from x1 = 0.92 on and sqrt, which is evaluated first, from 0.97: the
        # first failing node in row-major order, several slabs in, names the log
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return evaluate_many(*args)

        monkeypatch.setattr(expr, "evaluate_many", counted)
        source = "sqrt(0.97 - x1) + log(0.92 - x1)"
        code, out, err = run(capsys, ["mollify", "--lo", lo, "--hi", hi, "--res", res, "--eps", "0.1", "--f", source])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"error: evaluating {source!r}: log of non-positive value in 'log(0.92-x1)' (at offset 18)\n"
        assert len(calls) > 2

    # (dim, lo, hi, source, points): a + - * / whose operands each read fewer axes is
    # broadcast, every other node is walked on the lattice of the axes it reads; points
    # is how many the walks take in all, the grid's node count where the root is walked
    SPLIT_TABLE = [
        (1, -1.0, 1.0, "x1", 51),
        (1, -1.0, 1.0, "2.5", 1),
        (1, -1.0, 1.0, "-0", 1),
        (2, -1.0, 1.0, "pi", 1),
        (2, -1.0, 1.0, "sin(3*x1+0.5)*x2", 62),
        (2, -1.0, 1.0, "3.1*cos(3.1*x1+0.5)*x2", 62),
        (2, -1.0, 1.0, "sin(3.1*x1+0.5)", 31),
        (2, -1.0, 1.0, "x2", 31),
        # a box straddling 0: signed zeros from both sides of each product
        (2, -1.0, 1.0, "x1*(0-x2)", 62),
        (2, -1.0, 1.0, "(0-x1)*x2 - 0*x1", 961),
        (2, -1.0, 1.0, "x1/(x2+2)", 62),
        (2, 0.0, 1.0, "(x1+1)/(x2+1)*x1", 961),
        (2, 0.0, 1.0, "(x1-0.5)*(x2-0.5)", 62),
        (2, 0.0, 1.0, "exp(x1)/(1+x2)", 62),
        (2, 0.0, 1.0, "exp(-abs(x1-0.3))*sin(2*pi*x2+1.2)+log(1+x1*x2)", 961),
        (2, 0.0, 1.0, "min(x1, x2)", 961),
        (2, 0.0, 1.0, "x1*1e-300*x2*1e-300", 961),
        (3, -1.0, 1.0, "x1", 13),
        (3, -1.0, 1.0, "x2*x3", 26),
        (3, -1.0, 1.0, "x1*x2*x3", 39),
        (3, -1.0, 1.0, "x3*(x1-x2)", 39),
        (3, 0.0, 1.0, "abs(x1-0.5)+x2*x3", 39),
        (3, 0.0, 1.0, "(x1+x2)/(x3+0.5)", 39),
        (3, 0.0, 1.0, "log(1+x2*x3)*x1", 182),
        (3, 0.0, 1.0, "exp(x1)*log(x2+1)+sin(x1*x3)", 195),
        (3, 0.0, 1.0, "exp(x1)*x2+sin(x1*x2*x3)", 2197),
    ]
    CUBE_RES = {1: 50, 2: 30, 3: 12}

    @staticmethod
    def walked_points(monkeypatch, source, grid):
        """The points ``evaluate_many`` walks while ``source`` is sampled on ``grid``."""
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return evaluate_many(*args)

        with monkeypatch.context() as patch:
            patch.setattr(expr, "evaluate_many", counted)
            cli._sample_expression(source, grid)
        return sum(calls)

    def check_split(self, monkeypatch, grid, source, points):
        assert self.walked_points(monkeypatch, source, grid) == points
        f = cli._sample_expression(source, grid)
        assert f.values.tobytes() == evaluate_many(parse(source, grid.dim), grid.points()).tobytes()

    # each id ends in whether the expression is sampled from parts, fewer points than the grid's nodes
    @pytest.mark.parametrize(
        "dim,lo,hi,source,points",
        SPLIT_TABLE,
        ids=[f"{d}-{lo}-{hi}-{s}-{n < (51, 961, 2197)[d - 1]}" for d, lo, hi, s, n in SPLIT_TABLE],
    )
    def test_split_equals_the_walk(self, monkeypatch, dim, lo, hi, source, points):
        grid = make_grid(Box((lo,) * dim, (hi,) * dim), self.CUBE_RES[dim])
        self.check_split(monkeypatch, grid, source, points)

    @pytest.mark.parametrize(
        "lo,hi,res,sources",
        [
            ("0,-1", "1,2", "30,7", {"sin(3*x1)*x2": 39, "x1*(0-x2)": 39, "x1/(x2+2)": 39, "(x1-0.5)*(x2-0.5)": 39,
                                     "exp(x1)/(1+x2*x2)": 39, "x2": 8, "pi": 1, "min(x1, x2)": 248}),
            ("0,-1,0.5", "1,2,3", "12,5,9", {"x3*(x1-x2)": 29, "(x1+x2)/(x3+0.5)": 29, "abs(x1-0.5)+x2*x3": 29,
                                             "log(x3)*x1*x2": 29, "x2": 6, "exp(x1)*x2+sin(x1*x2*x3)": 780}),
            ("0,0", "1,1", "1,40", {"x1*x2": 43, "sin(3*x1+0.5)*x2": 43, "x1": 2, "x2*x2+x1": 43, "2.5": 1}),
        ],
    )
    def test_split_equals_the_walk_on_anisotropic_grids(self, monkeypatch, lo, hi, res, sources):
        # axes of different lengths and a box off the unit cube: each part's lattice takes
        # its own axes' nodes, and a one-row first axis still slabs
        box = Box(*(tuple(map(float, corner.split(","))) for corner in (lo, hi)))
        grid = make_grid(box, tuple(map(int, res.split(","))))
        for source, points in sources.items():
            self.check_split(monkeypatch, grid, source, points)

    @pytest.mark.parametrize(
        "lo,hi,source,message",
        [
            ("0,0", "1,1", "x2/(x1-0.5)", "division by zero in 'x2/(x1-0.5)' (at offset 2)"),
            ("0,0", "1,1", "exp(700*x1)*exp(700*x2)", "non-finite result in 'exp(700*x1)*exp(700*x2)' (at offset 11)"),
            ("0,0", "1,1", "sqrt(0.5-x2)*log(x1)", "log of non-positive value in 'log(x1)' (at offset 13)"),
            ("0,0,0", "1,1,1", "(x1+x2)/(x3-0.5)", "division by zero in '(x1+x2)/(x3-0.5)' (at offset 7)"),
            ("0,0", "1,1", "1/(x1-0.5)*x2", "division by zero in '1/(x1-0.5)' (at offset 1)"),
            # the right part fails at the first node, the left only in later rows
            ("0,0", "1,1", "log(0.9-x1)*log(x2-0.1)", "log of non-positive value in 'log(x2-0.1)' (at offset 12)"),
            ("0,0", "1,1", "(1e300*x1+1e300)/(1e-300*x2+1e-300)",
             "non-finite result in '(1e+300*x1+1e+300)/(1e-300*x2+1e-300)' (at offset 16)"),
            ("0,0,0", "1,1,1", "sqrt(x2-0.5)*x3", "sqrt of negative value in 'sqrt(x2-0.5)' (at offset 0)"),
            ("0,0,0", "1,1,1", "log(x1)", "log of non-positive value in 'log(x1)' (at offset 0)"),
        ],
    )
    def test_split_errors_are_the_walks(self, capsys, lo, hi, source, message):
        # a part that fails drops the split: the whole-grid walk raises its own error
        code, out, err = run(capsys, ["mollify", "--lo", lo, "--hi", hi, "--res", "40", "--eps", "0.2", "--f", source])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"error: evaluating {source!r}: {message}\n"

    def test_separable_parts_walk_their_own_lattice(self, capsys, monkeypatch):
        # pairing-2d's argv shape: sin(...)*x2 and w*cos(...)*x2 walk two 101-node axes each,
        # sin(...) one; the whole-grid walk took 3 * 101^2 points
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return evaluate_many(*args)

        monkeypatch.setattr(expr, "evaluate_many", counted)
        argv = ["sobolev", "--lo", "0,0", "--hi", "1,1", "--res", "100", "--k", "1", "--count", "8",
                "--f", "sin(3.1*x1+0.5)*x2", "--deriv", "1,0=3.1*cos(3.1*x1+0.5)*x2", "--deriv", "0,1=sin(3.1*x1+0.5)"]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK and out.splitlines()[-1].endswith(",true")
        assert sum(calls) <= 5 * 101

    @pytest.mark.parametrize(
        "dim,res,source,points",
        [
            (2, 1000, "sin(3*x1+0.5)*x2", 2002),
            (2, 300, "(x1+1)/(x2+1)", 602),
            (3, 100, "x1", 101),
            # the walked part log(1+x2*x3) is 101^2 nodes, two slabs
            (3, 100, "log(1+x2*x3)*x1", 10302),
            (3, 100, "(x1+x2)/(x3+0.5)", 303),
        ],
        ids=["2-1000-sin(3*x1+0.5)*x2", "2-300-(x1+1)/(x2+1)", "3-100-x1", "3-100-log(1+x2*x3)*x1", "3-100-(x1+x2)/(x3+0.5)"],
    )
    def test_split_holds_the_values_and_one_slab(self, monkeypatch, dim, res, source, points):
        # every part reads fewer axes than the grid; the values are broadcast into and
        # checked finite one slab at a time
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
        assert self.walked_points(monkeypatch, source, grid) == points
        tracemalloc.start()
        try:
            cli._sample_expression(source, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.node_count + 512 * 1024

    @pytest.mark.parametrize("dim,res,source", [(2, 300, "exp(x1)*log(x2+1)+sin(x1*x2)"), (3, 60, "exp(x1)*x2+sin(x1*x2*x3)")])
    def test_walk_holds_one_slab_of_points(self, monkeypatch, dim, res, source):
        # the previous slab's points and values die before the next slab's are built
        grid = make_grid(Box((0.0,) * dim, (1.0,) * dim), res)
        assert self.walked_points(monkeypatch, source, grid) == grid.node_count
        tracemalloc.start()
        try:
            cli._sample_expression(source, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.node_count + 256 * 1024


class TestBoxWidth:
    # finite corners whose width overflows: mollify, converge and commute printed numpy's
    # "invalid value" warnings before a nan lattice mass, and weak-verify and sobolev
    # said the test catalog would not fit
    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--eps", "0.1"],
            ["converge", "--eps", "0.1,0.05"],
            ["commute", "--eps", "0.1", "--u", "1"],
            ["weak-verify", "--u", "1"],
            ["sobolev", "--deriv", "1=1"],
        ],
    )
    def test_exit_two_with_one_error_line(self, argv):
        result = run_subprocess([*argv, "--lo=-1e308", "--hi=1e308", "--res", "40", "--f", "x1"])
        assert (result.returncode, result.stdout) == (EXIT_VALIDATION, b"")
        assert result.stderr.decode() == "error: axis 0: the width of [-1e+308, 1e+308] is beyond the float64 range\n"


class TestRefusedBeforeWork:
    # each of these ran for hours (10^12 RK4 steps, 10^15 multi-indices)
    # or printed a 152 kB error line before the refusal came first
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["flow", "--k", "0", "--x0", "1", "--s", "0", "--t", "1e9"], "RK4 steps"),
            (["flow", "--k", "0", "--x0", "1", "--s", "0", "--t=-1e5"], "RK4 steps"),
            (["sobolev", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "4", "--k", "100000", "--f", "x1"],
             "order k must be at most 2, got 100000"),
            (["sobolev", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "4", "--k", "40", "--f", "x1"],
             "order k must be at most 2, got 40"),
            (["sobolev", "--res", "4", "--k", "2000", "--f", "x1"], "order k must be at most 2, got 2000"),
            (["weak-verify", "--res", "20", "--f", "x1", "--u", "1", "--count", "1000000000"],
             "test function count 1000000000 is above the limit of 1000"),
            # a grid of 255^3 nodes is under MAX_NODES, its full convolution shape is not
            (["compose", "--dim", "3", "--res", "254", "--eps-a", "0.1", "--eps-b", "0.1"],
             f"full convolution of 381x381x381 = {381**3} nodes is above the limit of {MAX_NODES} nodes"),
            # |t| is bounded before the step count: ceil(1e306 / step) raised "cannot convert
            # float infinity to integer" (exit 3), and 1e305 printed a 300-digit count
            (["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "1e306"],
             "t=1e+306 needs more than 1000000 RK4 steps of 0.001: |t| must be at most 1000"),
            (["flow", "--k", "0", "--x0", "1", "--s", "0", "--t", "1e305"],
             "t=1e+305 needs more than 1000000 RK4 steps of 0.001: |t| must be at most 1000"),
            # still running after 10 s, keeping every iterate
            (["newton", "--f", "sin(x1)", "--a", "0", "--y", "2", "--x0", "0", "--max-iter", "1000000000"],
             "max_iter 1000000000 is above the limit of 100000"),
            # a budget is refused before --f is evaluated for the frozen slope: log(0) there exited 3
            (["newton", "--f", "log(x1)", "--a", "0", "--y", "2", "--x0", "1", "--max-iter", "1000000000"],
             "max_iter 1000000000 is above the limit of 100000"),
            (["newton", "--f", "log(x1)", "--a", "0", "--y", "2", "--x0", "1", "--max-iter", "0"],
             "max_iter must be at least 1, got 0"),
        ],
    )
    def test_exit_two_with_short_error(self, argv, message):
        result = run_subprocess(argv)
        assert result.returncode == EXIT_VALIDATION
        assert result.stdout == b""
        stderr = result.stderr.decode()
        assert stderr.startswith("error:")
        assert message in stderr
        assert stderr.count("\n") == 1
        assert len(result.stderr) < 300

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_full_shape_just_above_limit(self):
        # the 173^3 grid widened by b's window is 259^3 nodes: refused with that exact
        # shape, not its padded FFT shape, before any array over the grid exists
        result = run_measured(["compose", "--dim", "3", "--res", "172", "--eps-a", "0.1", "--eps-b", "0.1"])
        assert result.returncode == EXIT_VALIDATION
        assert result.stderr.decode() == (
            f"error: full convolution of 259x259x259 = {259**3} nodes is above the limit of {MAX_NODES} nodes\n"
        )
        # the only stdout line is the child's peak RSS in kB; the grid's samples alone are 40 MB
        assert int(result.stdout) < 60 * 1024

    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--eps", "0.05", "--f", "x1"],
            ["converge", "--eps", "0.05,0.01", "--f", "x1"],
            ["commute", "--eps", "0.05", "--alpha", "1,0,0", "--f", "x1", "--u", "1"],
        ],
    )
    def test_oversized_convolution_refused_before_sampling(self, capsys, monkeypatch, argv):
        # a 251^3 grid is under MAX_NODES; its full convolution shape at eps 0.05 is not
        def tripwire(*args, **kwargs):
            raise AssertionError("the expression was sampled")

        monkeypatch.setattr(expr, "evaluate_many", tripwire)
        code, out, err = run(capsys, argv + ["--lo", "0,0,0", "--hi", "1,1,1", "--res", "250"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == (
            f"error: full convolution of 275x275x275 = {275**3} nodes is above the limit of {MAX_NODES} nodes\n"
        )

    def test_largest_3d_compose_still_runs(self):
        # the 101^3 grid widened by b's window is 151^3 nodes
        result = run_subprocess(["compose", "--dim", "3", "--res", "100", "--eps-a", "0.1", "--eps-b", "0.1"])
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith(b"support_radius,mass\n")

    def test_longest_flow_still_runs(self, capsys):
        code, out, _ = run(capsys, ["flow", "--k", "0", "--x0", "1", "--s", "0", "--t", "-1000"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == "0,1,0,-1000,1,1,0,0"


class TestTinyKernels:
    # kernels float64 cannot hold: eps^-dim overflowed Python's float power (exit 3
    # with an errno tuple), and squaring points scaled by 1e300 printed numpy warnings
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mollify", "--lo", "0,0", "--hi", "1,1", "--res", "10", "--eps", "1e-200", "--f", "x1"],
             "kernel at eps=1e-200 has values beyond the float64 range (eps^-2 overflows)"),
            (["mollify", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "10", "--eps", "1e-120", "--f", "x1"],
             "kernel at eps=1e-120 has values beyond the float64 range (eps^-3 overflows)"),
            (["commute", "--lo", "0,0", "--hi", "1,1", "--res", "10", "--eps", "1e-200", "--f", "x1",
              "--u", "1", "--alpha", "1,0"],
             "kernel at eps=1e-200 has values beyond the float64 range (eps^-3 overflows)"),
            (["compose", "--dim", "3", "--res", "10", "--eps-a", "1e-120", "--eps-b", "1e-120"],
             "kernel at eps=1e-120 has values beyond the float64 range (eps^-3 overflows)"),
            (["compose", "--dim", "1", "--res", "100", "--eps-a", "0.1", "--eps-b", "1e-300"],
             "kernel at eps=1e-300 has lattice mass 1.65714e+297"),
            (["compose", "--dim", "1", "--res", "100", "--eps-a", "1e300", "--eps-b", "1e-300"],
             "kernel at eps=1e-300 has lattice mass inf"),
            # a kernel far narrower than a cell: its one sample times the cell volume
            # overflowed with a numpy warning, or its FFT ended in a traceback (exit 1)
            (["mollify", "--lo", "0", "--hi", "1e300", "--res", "100", "--eps", "1e-300", "--f", "1"],
             "kernel at eps=1e-300 has lattice mass inf,"),
            (["commute", "--lo", "0", "--hi", "1e300", "--res", "100", "--eps", "1e-4", "--alpha", "2",
              "--f", "1", "--u", "0"],
             "kernel at eps=0.0001 has lattice mass 8.28569e+301,"),
            # eps^-2 underflowed to 0.0: compose blamed an eps too small, mollify printed
            # a warning and "grid function values must be finite"
            (["compose", "--dim", "2", "--eps-a", "1e200", "--eps-b", "1e200"],
             "kernel at eps=1e+200 has values below the float64 range (eps^-2 underflows): eps is too large\n"),
            (["mollify", "--lo", "0,0", "--hi", "1e200,1e200", "--res", "40", "--eps", "1e199", "--f", "1"],
             "kernel at eps=1e+199 has values below the float64 range (eps^-2 underflows): eps is too large\n"),
            # an infinite cell volume times the zero corner samples is a nan mass
            (["mollify", "--lo", "0,0", "--hi", "6e155,6e155", "--res", "40", "--eps", "1.5e154", "--f", "1"],
             "kernel at eps=1.5e+154 has lattice mass nan,"),
            # eps_a below half an ulp of eps_b: a + b rounds to b, and b was blamed
            # as "too large for the box" for a's fault
            (["compose", "--eps-a", "1e-20", "--eps-b", "1"], "kernel at eps=1e-20 has lattice mass 6.47319e+17,"),
            (["compose", "--eps-a", "1e-20", "--eps-b", "0.1"], "kernel at eps=1e-20 has lattice mass 6.47319e+16,"),
        ],
    )
    def test_exit_two_with_one_error_line(self, argv, message):
        result = run_subprocess(argv)
        assert result.returncode == EXIT_VALIDATION
        assert result.stdout == b""
        stderr = result.stderr.decode()
        assert stderr.startswith("error: " + message)
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("dim,eps", [("2", "1e-153"), ("1", "3e-308")])
    def test_compose_kernels_float64_holds(self, capsys, dim, eps):
        # the composed kernels peak near eps^-dim (1e306, 3e307), which float64 holds;
        # both were refused for a product of whole-grid samples, the 1-d one for an
        # overflowing lattice sum
        masses = []
        for e in (eps, "1"):
            code, out, err = run(capsys, ["compose", "--dim", dim, "--res", "40", "--eps-a", e, "--eps-b", e])
            assert (code, err) == (EXIT_OK, "")
            masses.append(float(out.splitlines()[1].split(",")[1]))
        assert masses[0] == pytest.approx(masses[1], rel=0, abs=1e-12)


class TestCellVolume:
    # a cell volume float64 rounds to inf or 0 made every trapezoid weight wrong:
    # weak-verify printed 3 numpy warnings and nan residuals with exit 0, sobolev
    # printed a warning and blamed an overflowing norm (exit 3) for a norm of 1e300,
    # and the 3-d box of side 1e-120 read an lp_norm of 0 for a norm of 1e-180
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["weak-verify", "--lo=0,0", "--hi=1e300,1e300", "--res", "40", "--alpha", "1,0",
              "--f", "1", "--u", "0"],
             "grid cell volume overflows to inf in float64: the cells are too large\n"),
            (["sobolev", "--lo=0,0", "--hi=1e300,1e300", "--res", "40", "--f", "1",
              "--deriv", "1,0=0", "--deriv", "0,1=0"],
             "grid cell volume overflows to inf in float64: the cells are too large\n"),
            (["sobolev", "--lo=0,0,0", "--hi=1e-120,1e-120,1e-120", "--res", "10", "--f", "1",
              "--deriv", "1,0,0=0", "--deriv", "0,1,0=0", "--deriv", "0,0,1=0"],
             "grid cell volume underflows to 0 in float64: the cells are too small\n"),
        ],
    )
    def test_exit_two_with_one_error_line(self, argv, message):
        result = run_subprocess(argv)
        assert result.returncode == EXIT_VALIDATION
        assert result.stdout == b""
        assert result.stderr.decode() == "error: " + message


class TestBeyondFloat64:
    def test_huge_values_float64_holds_are_smoothed(self):
        # the FFT of 1e307 samples overflowed on the way: four numpy warnings, then
        # "grid function values must be finite"
        columns = []
        for f in ("1", "1e307"):
            result = run_subprocess(["mollify", "--res", "40", "--eps", "0.1", "--f", f])
            assert (result.returncode, result.stderr) == (EXIT_OK, b"")
            rows = result.stdout.decode().splitlines()[1:]
            columns.append([[float(v) for v in row.split(",")] for row in rows])
        unit, huge = columns
        assert [x for x, _ in huge] == [x for x, _ in unit]
        for (_, want), (_, got) in zip(unit, huge):
            assert got == pytest.approx(1e307 * want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "argv,eps",
        [
            (["mollify", "--res", "40", "--eps", "0.075", "--f", "1.79e308"], "0.075"),
            (["commute", "--res", "40", "--eps", "0.1", "--f", "1.79e308*x1", "--u", "1.79e308"], "0.1"),
        ],
    )
    def test_result_beyond_float64_exits_three(self, argv, eps):
        # a lattice mass just above 1 takes 1.79e308 past the largest float64
        result = run_subprocess(argv)
        assert (result.returncode, result.stdout) == (EXIT_NUMERICAL, b"")
        assert result.stderr.decode() == (
            f"error: convolution with the kernel at eps={eps} has values beyond the float64 range\n"
        )

    def test_pairing_beyond_float64_exits_three(self):
        # u = x1 near -1e300 on trapezoid weights of 2.5e299 and 5e299 pairs to about 1e600: this
        # printed a numpy overflow warning and inf residuals, and exited 0
        argv = ["weak-verify", "--lo=-1e300", "--hi=0", "--res", "2", "--f", "1e-300*x1", "--u", "x1"]
        result = run_subprocess(argv)
        assert (result.returncode, result.stdout) == (EXIT_NUMERICAL, b"")
        assert result.stderr.decode() == "error: pairing with t00 is beyond the float64 range\n"


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            ["flow", "--k", "1", "--x0", "2", "--s", "0.1", "--t", "0.2", "-o", str(target)],
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("k,x0,s,t,")

    def test_deterministic_repeat(self, capsys):
        argv = ["converge", "--f", "sin(2*pi*x1)", "--res", "100"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            # f has exact zeros on the planes x1 = 0.5 and x2 = 0
            ["converge", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "20", "--eps", "0.3,0.2",
             "--f", "abs(x1-0.5)*x2"],
            # a derivative kernel, whose centre sample is zero
            ["commute", "--lo", "0,0", "--hi", "1,1", "--res", "40", "--eps", "0.2",
             "--f", "x1*x2", "--u", "x2", "--alpha", "1,0"],
        ],
    )
    def test_deterministic_repeat_with_exact_zeros(self, argv):
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        assert first.returncode == EXIT_OK
        assert (first.returncode, first.stdout, first.stderr) == (second.returncode, second.stdout, second.stderr)

    @pytest.mark.parametrize(
        "argv", [["suite", "--seed", "5"], ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "1"]]
    )
    def test_closed_stdout_pipe_ends_quietly(self, argv):
        child = subprocess.Popen(
            [sys.executable, "-m", "sobolevkit.cli", *argv],
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # the reader is gone before the command, still importing, writes
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (EXIT_OK, b"")

    def test_unwritable_kernel_out(self, capsys, tmp_path):
        # an open() error ended in a traceback with exit 1
        target = tmp_path / "missing" / "k.csv"
        argv = ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--kernel-out", str(target)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: cannot write kernel output: ") and str(target) in err
        assert err.count("\n") == 1

    def test_output_matches_stdout(self, capsys, tmp_path):
        argv = ["mollify", "--f", "x1^2", "--eps", "0.1", "--res", "50"]
        _, direct, _ = run(capsys, argv)
        target = tmp_path / "m.csv"
        run(capsys, argv + ["-o", str(target)])
        assert target.read_text() == direct


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# grid settings\nres = 100\nhi = 2\n")
        code, out, _ = run(
            capsys,
            ["mollify", "--f", "x1", "--eps", "0.2", "--config", str(cfg)],
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "# grid lo=0 hi=2 res=100"

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("res=100\n")
        code, out, _ = run(
            capsys,
            ["mollify", "--f", "x1", "--eps", "0.2", "--res", "50", "--config", str(cfg)],
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "# grid lo=0 hi=1 res=50"

    def test_underscore_keys_accepted(self, capsys, tmp_path):
        # an unreachable tolerance makes the run spend its whole budget,
        # which shows the config's max_iter value took effect
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 5\n")
        code, _, err = run(
            capsys,
            [
                "newton",
                "--f", "x1^2", "--a", "1.5", "--y", "2", "--x0", "1.5",
                "--tol", "1e-30",
                "--config", str(cfg),
            ],
        )
        assert code == EXIT_OK
        assert "after 5 iterations" in err

    def test_abbreviated_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps=0.3\nres=100\n")
        argv = ["mollify", "--f", "x1^2", "--config", str(cfg)]
        code, abbreviated, _ = run(capsys, argv + ["--ep", "0.05"])
        assert code == EXIT_OK
        _, spelled_out, _ = run(capsys, argv + ["--eps", "0.05"])
        _, from_file, _ = run(capsys, argv + ["--eps", "0.3"])
        assert abbreviated == spelled_out
        assert abbreviated != from_file

    def test_short_output_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output={tmp_path / 'from_file.csv'}\n")
        explicit = tmp_path / "explicit.csv"
        code, _, _ = run(
            capsys,
            ["mollify", "--f", "x1", "--eps", "0.2", "--res", "20", "-o", str(explicit), "--config", str(cfg)],
        )
        assert code == EXIT_OK
        assert explicit.read_text().startswith("# grid lo=0 hi=1 res=20")
        assert not (tmp_path / "from_file.csv").exists()

    def test_repeated_deriv_lines_all_apply(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("deriv = 1,0=2*x1\nderiv = 0,1=0\nres=40\n")
        argv = ["sobolev", "--f", "x1^2", "--lo", "0,0", "--hi", "1,1", "--config", str(cfg)]
        code, out, err = run(capsys, argv)
        assert code == EXIT_OK, err
        rows = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert {"0 0", "1 0", "0 1"} <= rows
        # explicit --deriv flags replace the file's lines
        code, _, err = run(capsys, argv + ["--deriv", "1,0=2*x1"])
        assert code == EXIT_VALIDATION
        assert "missing derivatives [(0, 1)]" in err

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run(
            capsys, ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", str(cfg)]
        )
        assert code == EXIT_VALIDATION
        assert "bogus" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", "/nonexistent.cfg"]
        )
        assert code == EXIT_VALIDATION
        assert "config" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("res 100\n")
        code, _, err = run(
            capsys, ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", str(cfg)]
        )
        assert code == EXIT_VALIDATION
        assert "key=value" in err


class TestValidationExits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--f", "2+", "--eps", "0.1"],
            ["mollify", "--f", "x1", "--eps", "abc"],
            ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "1", "--hi", "0"],
            ["converge", "--f", "x1", "--p", "0.5"],
            ["commute", "--f", "x1", "--u", "1", "--alpha", "1,1", "--eps", "0.1"],
            ["weak-verify", "--f", "x1", "--u", "1", "--alpha", "0"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == EXIT_VALIDATION
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--eps=-inf"],
            ["mollify", "--eps=nan"],
            ["mollify", "--eps=0.7"],
            ["mollify", "--eps=0.1,0.05"],
            ["converge", "--p", "0.5"],
            ["converge", "--eps", "0.2,0.7"],
            ["commute", "--u", "1", "--eps", "0.1", "--alpha", "0"],
            ["commute", "--u", "1", "--eps", "0.1", "--p", "nan"],
            ["commute", "--u", "1", "--eps", "0.1,0.05"],
            ["weak-verify", "--u", "1", "--alpha=-1"],
            ["weak-verify", "--u", "1", "--count", "0"],
            ["weak-verify", "--u", "1", "--count", "1000000000"],
            ["sobolev", "--k", "one"],
            ["sobolev", "--p", "0.5"],
            ["sobolev", "--count", "0"],
            ["sobolev", "--deriv", "3=1"],
            ["sobolev", "--deriv", "1"],
            ["sobolev", "--deriv", "0=x1", "--deriv", "1=1"],
            ["sobolev", "--deriv", "1=5", "--deriv", "1=1"],
            ["converge", "--eps", "0.1,0.2"],
            ["sobolev", "--k", "0"],
            ["sobolev", "--k", "1"],
            ["mollify", "--eps", "0.001"],
            ["converge", "--res", "40"],
            # an empty eps-interior, and kernel scales eps^-2 and eps^-3 beyond float64:
            # each was refused only by the convolution, after sampling
            ["mollify", "--res", "11", "--eps", "0.49"],
            ["mollify", "--lo", "0,0", "--hi", "1,1", "--eps", "1e-200"],
            ["commute", "--lo", "0,0", "--hi", "1,1", "--u", "1", "--eps", "1e-200", "--alpha", "1,0"],
        ],
    )
    def test_bad_flag_refused_before_sampling(self, capsys, monkeypatch, argv):
        # log(0) at the node x1 = 0 is a domain error (exit 3) once sampled
        def no_sampling(*_):
            raise AssertionError("an expression was sampled")

        monkeypatch.setattr(expr, "evaluate_many", no_sampling)
        # argv's own flags come last, so they override the defaults here
        command, *flags = argv
        code, out, err = run(capsys, [command, "--lo", "0", "--hi", "1", "--res", "10", *flags, "--f", "log(x1)"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["converge", "--eps", "0.1,0.2"], "eps ladder must be strictly decreasing, got [0.1, 0.2]"),
            (["sobolev", "--k", "0"], "order k must be at least 1, got 0"),
            (["sobolev", "--k", "1"], "candidate family is missing derivatives [(1,)] for k=1"),
            # a value kernel that has lost its unit mass on the lattice (the default ladder ends at 0.025)
            (["mollify", "--res", "10", "--eps", "0.001"],
             "kernel at eps=0.001 has lattice mass 82.8569, outside 1 +- 0.05: the grid is too coarse for this eps"),
            (["converge", "--res", "40"],
             "kernel at eps=0.025 has lattice mass 0.828569, outside 1 +- 0.05: the grid is too coarse for this eps"),
            (["mollify", "--res", "11", "--eps", "0.49"], "interior region at eps=0.49 contains no nodes"),
            (["mollify", "--lo", "0,0", "--hi", "1,1", "--eps", "1e-200"],
             "kernel at eps=1e-200 has values beyond the float64 range (eps^-2 overflows): eps is too small"),
            (["commute", "--lo", "0,0", "--hi", "1,1", "--u", "1", "--eps", "1e-200", "--alpha", "1,0"],
             "kernel at eps=1e-200 has values beyond the float64 range (eps^-3 overflows): eps is too small"),
        ],
    )
    def test_refusal_does_not_depend_on_the_expression(self, capsys, argv, message):
        for f in ("x1", "log(x1)"):
            code, out, err = run(capsys, [argv[0], "--res", "20", *argv[1:], "--f", f])
            assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")

    @pytest.mark.parametrize("count", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["weak-verify", "--res", "20", "--f", "x1", "--u", "1"],
            ["sobolev", "--res", "20", "--f", "x1", "--deriv", "1=1"],
        ],
    )
    def test_count_below_one(self, capsys, argv, count):
        code, out, err = run(capsys, argv + [f"--count={count}"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: --count must be at least 1, got '{count}'\n"

    def test_count_of_one_runs_the_smallest_catalog(self, capsys):
        code, out, _ = run(capsys, ["weak-verify", "--res", "20", "--f", "x1", "--u", "1", "--count", "1"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--f", "sin(1e999)", "--eps", "0.1", "--res", "20"],
            ["mollify", "--f", "abs(1e999)", "--eps", "0.1", "--res", "20"],
            ["newton", "--f", "sin(1e999)", "--a", "1", "--y", "1", "--x0", "1"],
        ],
    )
    def test_non_finite_literal(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == EXIT_VALIDATION
        assert "number literal '1e999' is out of range (at offset 4)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--res", "50", "--eps", "0.2,0.1", "--f", "abs(x1-0.5)"],
            ["commute", "--res", "50", "--eps", "0.2", "--f", "x1", "--u", "1", "--alpha", "1"],
            ["sobolev", "--res", "50", "--f", "x1", "--deriv", "1=1"],
        ],
    )
    def test_nan_p(self, capsys, argv):
        # nan passes a `p < 1` test; these printed nan errors with exit 0
        code, out, err = run(capsys, argv + ["--p", "nan"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "error: --p must be >= 1 or inf, got 'nan'\n"

    TOL_COMMANDS = [
        ["weak-verify", "--res", "400", "--f", "x1^2", "--u", "2*x1"],
        ["sobolev", "--res", "50", "--f", "x1", "--deriv", "1=1"],
        ["newton", "--f", "x1^2", "--a", "1", "--y", "2", "--x0", "1"],
    ]

    @pytest.mark.parametrize("tol", ["nan", "-1", "-1e-9"])
    @pytest.mark.parametrize("argv", TOL_COMMANDS)
    def test_bad_tol(self, capsys, argv, tol):
        # a negative tol printed "not verified" for a correct derivative,
        # and newton --tol nan ran every iteration to "did not converge"
        code, out, err = run(capsys, argv + [f"--tol={tol}"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: --tol must be >= 0, got {tol!r}\n"

    @pytest.mark.parametrize("argv", TOL_COMMANDS)
    def test_empty_tol(self, capsys, argv):
        # weak-verify and sobolev read an empty --tol as the default 1e-4
        code, out, err = run(capsys, argv + ["--tol="])
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: --tol must be a number, got ''\n")

    @pytest.mark.parametrize("tol", ["inf", "0"])
    @pytest.mark.parametrize("argv", TOL_COMMANDS)
    def test_inf_and_zero_tol_accepted(self, capsys, argv, tol):
        code, out, _ = run(capsys, argv + ["--tol", tol])
        assert code == EXIT_OK
        assert out

    def test_numerical_domain_error(self, capsys):
        code, _, err = run(
            capsys, ["mollify", "--f", "log(x1-2)", "--eps", "0.1", "--res", "50"]
        )
        assert code == EXIT_NUMERICAL
        assert "log" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["mollify", "--eps", "0.1"]) == 2
        capsys.readouterr()


class TestOverflow:
    def test_sobolev_norm_of_huge_function(self, capsys):
        # |f|^2 overflows at 1e200 while every norm is finite: the rows
        # must be 1e200 times those of f = x1, with no numpy warning
        argv = ["sobolev", "--res", "50", "--tol", "1e300"]
        code, out, err = run(capsys, argv + ["--f", "1e200*x1", "--deriv", "1=1e200"])
        assert code == EXIT_OK
        assert "Warning" not in err
        _, unit_out, _ = run(capsys, argv + ["--f", "x1", "--deriv", "1=1"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        unit_rows = [line.split(",") for line in unit_out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "1", "overall"]
        for row, unit in zip(rows, unit_rows):
            assert float(row[2]) == pytest.approx(1e200 * float(unit[2]), rel=1e-12)
        # sqrt(4/3) up to the trapezoid error of x^2 at 50 cells
        assert float(rows[-1][2]) == pytest.approx(1e200 * math.sqrt(4.0 / 3.0), rel=1e-4)

    def test_norm_beyond_float64_exits_three(self, capsys):
        # the integral of |f| on a box 1e300 wide is near 1e600: this printed inf with exit 0
        argv = ["sobolev", "--lo=-1", "--hi=1e300", "--res", "10", "--k", "1", "--p", "1",
                "--f", "abs(x1-0.5)", "--deriv", "1=2*step(x1-0.5)-1"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (EXIT_NUMERICAL, "", "error: L^p norm at p=1 is beyond the float64 range\n")

    def test_norm_sum_overflow_is_one_error_line(self, capsys):
        # each weighted |f| is finite but their sum is not: numpy's "overflow
        # encountered in reduce" warning went to stderr before the error line
        argv = ["sobolev", "--lo", "0", "--hi", "2", "--res", "10", "--k", "1", "--p", "1", "--f", "1e308", "--deriv", "1=0"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (EXIT_NUMERICAL, "", "error: L^p norm at p=1 is beyond the float64 range\n")

    def test_pairing_overflow_is_one_error_line(self, capsys):
        # every value is finite, but 1e308 * d phi is not: this exited 2
        # with "grid function values must be finite"
        code, out, err = run(capsys, ["weak-verify", "--res", "50", "--f", "1e308", "--u", "0"])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "error: pairing with t00 is beyond the float64 range\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak-verify", "--res", "100", "--f", "1e308*x1", "--u", "1e308"],
            ["sobolev", "--res", "100", "--f", "1e308*x1", "--deriv", "1=1e308"],
        ],
    )
    def test_pairing_product_overflow_names_the_test_function(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (EXIT_NUMERICAL, "", "error: pairing with t00 is beyond the float64 range\n")


class TestResourceLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mollify", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "5000", "--f", "x1", "--eps", "0.1"],
            ["compose", "--dim", "3", "--res", "5000", "--eps-a", "0.1", "--eps-b", "0.1"],
        ],
    )
    def test_huge_grid_refused_before_allocation(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == (
            f"error: grid of 5001x5001x5001 = {5001**3} nodes is above the limit of {MAX_NODES} nodes\n"
        )

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (MemoryError("cannot allocate"), EXIT_VALIDATION),
            (MemoryError(), EXIT_VALIDATION),
            (OverflowError("math range error"), EXIT_NUMERICAL),
            (FloatingPointError("overflow encountered in multiply"), EXIT_NUMERICAL),
            (ZeroDivisionError("float division by zero"), EXIT_NUMERICAL),
            (EvalError("log of a nonpositive number", 0), EXIT_NUMERICAL),
        ],
    )
    def test_exceptions_map_to_exit_codes(self, capsys, monkeypatch, exc, expected):
        # exit 1 means failed suite criteria, so no exception may surface as 1
        def handler(args):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "flow", handler)
        code, out, err = run(capsys, ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "1"])
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestSeed:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert resolve_seed() == DEFAULT_SEED

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        assert resolve_seed() == 12345

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        assert resolve_seed("99") == 99

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(CliError):
            resolve_seed()

    def test_negative_flag(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        with pytest.raises(CliError, match=r"^--seed must be a non-negative integer, got '-1'$"):
            resolve_seed("-1")

    def test_negative_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-5")
        with pytest.raises(CliError, match=rf"^{SEED_ENV_VAR} must be a non-negative integer, got '-5'$"):
            resolve_seed()

    @pytest.mark.parametrize("argv,env", [(["suite", "--seed", "-1"], None), (["suite"], "-5")])
    def test_negative_seed_refused_before_any_criterion(self, capsys, monkeypatch, argv, env):
        # numpy refused it only after criteria 1-9 had run, with "expected non-negative integer"
        def no_criteria(*_, **__):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli.acceptance, "run_all", no_criteria)
        if env is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: ") and "must be a non-negative integer" in err and err.count("\n") == 1


class TestSuite:
    def test_all_criteria_pass(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, _ = run(capsys, ["suite"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "status,index,name,detail"
        assert len(lines) == 13
        for line in lines[1:]:
            assert line.startswith("PASS,")

    def test_full_run_leaves_numpy_random_out(self):
        # the flow draws and the fuzz bytes come from the stdlib random module;
        # numpy.random, with secrets and hashlib, added about 5 MB to the peak
        script = (
            "import sys\nfrom sobolevkit.cli import main\ncode = main(['suite'])\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\nsys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=120
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.count("\nPASS,") == 12
        assert result.stderr == "False\n"


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_operator_chain_exits_two(op):
    src = str(Path(sobolevkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    expression = op.join(["x1"] * 3000)
    result = subprocess.run(
        [sys.executable, "-m", "sobolevkit.cli", "mollify", "--f", expression, "--eps", "0.1", "--res", "20"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
    )
    assert result.returncode == EXIT_VALIDATION
    stderr = result.stderr.decode("utf-8", "replace")
    assert stderr.startswith("error:")
    assert "deeply nested" in stderr
    assert "Traceback" not in stderr
    # the 9 kB source is quoted only around the offset
    assert "(at offset " in stderr
    assert stderr.count("\n") == 1
    assert len(result.stderr) < 300


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; the package runs on numpy alone
    src = str(Path(sobolevkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, sobolevkit.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
