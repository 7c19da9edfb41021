import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobolevkit

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

    def test_odd_resolution(self, capsys):
        code, _, err = run(
            capsys, ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--res", "255"]
        )
        assert code == EXIT_VALIDATION
        assert "even" in err


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
        cfg.write_text("eps=0.3\nres=20\n")
        argv = ["mollify", "--f", "x1^2", "--config", str(cfg)]
        _, abbreviated, _ = run(capsys, argv + ["--ep", "0.05"])
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


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_operator_chain_exits_two(op):
    src = str(Path(sobolevkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    expression = op.join(["x1"] * 3000)
    result = subprocess.run(
        [sys.executable, "-m", "sobolevkit.cli", "mollify", "--f", expression, "--eps", "0.1", "--res", "20"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_VALIDATION
    assert result.stderr.startswith("error:")
    assert "deeply nested" in result.stderr
    assert "Traceback" not in result.stderr


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
