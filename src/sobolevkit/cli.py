"""Command line front end.

Every subcommand reads plain flags (optionally seeded from a ``key=value``
config file via ``--config``) and writes CSV with shortest round-trip
float formatting, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 suite criteria failed, 2 invalid configuration,
3 numerical failure (domain error while evaluating an expression).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import acceptance
from .acceptance import DEFAULT_SEED
from .convolution import compose, convergence_study, mollify, write_convergence_csv
from .dynamics import exponential_flow, newton_net, write_flow_csv, write_newton_csv
from .expr import EvalError, GRAMMAR_HELP, ParseError, evaluate, evaluate_many, parse
from .grid import Box, GridFunction, format_float, make_grid, write_grid_function_csv
from .mollifier import scale, standard_bump
from .sobolev import DerivativeFamily, membership_report, write_membership_csv
from .weakdiff import test_function_catalog, verify_weak_derivative, write_pairing_csv

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SEED_ENV_VAR = "SOBOLEVKIT_SEED"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _parse_floats(raw: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise CliError(f"{what} must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise CliError(f"{what} is empty")
    return values


def _parse_float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"{what} must be a number, got {raw!r}") from None


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{what} must be an integer, got {raw!r}") from None


def _parse_p(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = _parse_float(raw, "--p")
    if p < 1.0:
        raise CliError(f"--p must be >= 1 or inf, got {raw!r}")
    return p


def _parse_alpha(raw: str, dim: int) -> tuple[int, ...]:
    try:
        alpha = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise CliError(f"--alpha must be comma-separated integers, got {raw!r}") from None
    if len(alpha) == 1 and dim > 1:
        raise CliError(f"--alpha has 1 entry for a {dim}-d grid; give one entry per axis")
    if len(alpha) != dim:
        raise CliError(f"--alpha {raw!r} has {len(alpha)} entries for a {dim}-d grid")
    return alpha


@dataclass(frozen=True)
class RunConfig:
    """Validated grid and ladder settings shared by the grid-based commands."""

    box: Box
    resolution: tuple[int, ...]
    eps_ladder: tuple[float, ...]
    tol: float

    @property
    def dim(self) -> int:
        return self.box.dim

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        lo = _parse_floats(args.lo, "--lo")
        hi = _parse_floats(args.hi, "--hi")
        try:
            box = Box(lo, hi)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        res_values = args.res.split(",")
        if len(res_values) == 1:
            resolution = (_parse_int(res_values[0], "--res"),) * box.dim
        else:
            resolution = tuple(_parse_int(r, "--res") for r in res_values)
        if len(resolution) != box.dim:
            raise CliError(f"--res {args.res!r} has {len(resolution)} entries for a {box.dim}-d box")
        if any(r < 1 for r in resolution):
            raise CliError(f"--res entries must be positive, got {args.res!r}")
        eps_ladder = _parse_floats(args.eps, "--eps") if getattr(args, "eps", None) else ()
        tol = _parse_float(args.tol, "--tol") if getattr(args, "tol", None) else 1e-4
        return cls(box, resolution, eps_ladder, tol)

    def grid(self):
        return make_grid(self.box, self.resolution)


def _sample_expression(source: str, grid) -> GridFunction:
    try:
        ast = parse(source, grid.dim)
    except ParseError as exc:
        raise CliError(f"in expression {source!r}: {exc}") from None
    try:
        values = evaluate_many(ast, grid.points())
    except EvalError as exc:
        raise CliError(f"evaluating {source!r}: {exc}", EXIT_NUMERICAL) from None
    return GridFunction(grid, np.array(values))


def _single_eps(config: RunConfig) -> float:
    if len(config.eps_ladder) != 1:
        raise CliError(f"this command needs exactly one --eps value, got {config.eps_ladder}")
    return config.eps_ladder[0]


def _cmd_mollify(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid()
    f = _sample_expression(args.f, grid)
    smoothed, _ = mollify(f, scale(standard_bump(grid.dim), _single_eps(config)))
    out = io.StringIO()
    write_grid_function_csv(smoothed, out)
    return out.getvalue(), EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid()
    f = _sample_expression(args.f, grid)
    table = convergence_study(f, _parse_p(args.p), config.eps_ladder)
    out = io.StringIO()
    write_convergence_csv(table, out)
    return out.getvalue(), EXIT_OK


def _cmd_commute(args: argparse.Namespace) -> tuple[str, int]:
    from .weakdiff import commutation_residual

    config = RunConfig.from_args(args)
    grid = config.grid()
    f = _sample_expression(args.f, grid)
    u = _sample_expression(args.u, grid)
    alpha = _parse_alpha(args.alpha, grid.dim)
    eps = _single_eps(config)
    residual = commutation_residual(f, u, alpha, eps, _parse_p(args.p))
    alpha_label = " ".join(str(a) for a in alpha)
    text = "alpha,eps,p,residual\n" + ",".join(
        [alpha_label, format_float(eps), format_float(_parse_p(args.p)), format_float(residual)]
    ) + "\n"
    return text, EXIT_OK


def _cmd_weak_verify(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid()
    f = _sample_expression(args.f, grid)
    u = _sample_expression(args.u, grid)
    alpha = _parse_alpha(args.alpha, grid.dim)
    tests = test_function_catalog(grid.box, _parse_int(args.count, "--count"))
    result = verify_weak_derivative(f, u, alpha, tests, config.tol)
    out = io.StringIO()
    write_pairing_csv(result, out)
    verdict = "verified" if result.verdict else "not verified"
    print(
        f"weak-verify: {verdict} (max residual {format_float(result.max_residual)}, tol {format_float(config.tol)})",
        file=sys.stderr,
    )
    return out.getvalue(), EXIT_OK


def _cmd_sobolev(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid()
    f = _sample_expression(args.f, grid)
    k = _parse_int(args.k, "--k")
    entries = {(0,) * grid.dim: f}
    for deriv_item in args.deriv or []:
        alpha_raw, sep, source = deriv_item.partition("=")
        if not sep:
            raise CliError(f"--deriv needs ALPHA=EXPR, got {deriv_item!r}")
        alpha = _parse_alpha(alpha_raw.strip(), grid.dim)
        entries[alpha] = _sample_expression(source.strip(), grid)
    try:
        family = DerivativeFamily(entries)
        tests = test_function_catalog(grid.box, _parse_int(args.count, "--count"))
        report = membership_report(f, family, k, _parse_p(args.p), tests, config.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = io.StringIO()
    write_membership_csv(report, out)
    return out.getvalue(), EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> tuple[str, int]:
    eps_a = _parse_float(args.eps_a, "--eps-a")
    eps_b = _parse_float(args.eps_b, "--eps-b")
    res = _parse_int(args.res, "--res")
    try:
        dim = _parse_int(args.dim, "--dim")
        profile = standard_bump(dim)
        report = compose(scale(profile, eps_a), scale(profile, eps_b), res)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.kernel_out:
        with open(args.kernel_out, "w") as fh:
            write_grid_function_csv(report.kernel, fh)
    text = "support_radius,mass\n" + ",".join(
        [format_float(report.support_radius), format_float(report.mass)]
    ) + "\n"
    return text, EXIT_OK


def _cmd_newton(args: argparse.Namespace) -> tuple[str, int]:
    a = _parse_float(args.a, "--a")
    y = _parse_float(args.y, "--y")
    x0 = _parse_float(args.x0, "--x0")
    max_iter = _parse_int(args.max_iter, "--max-iter")
    tol = _parse_float(args.tol, "--tol")
    try:
        ast = parse(args.f, 1)
    except ParseError as exc:
        raise CliError(f"in expression {args.f!r}: {exc}") from None

    def fn(x: float) -> float:
        return evaluate(ast, (x,))

    try:
        # frozen chord slope from a central difference at the anchor
        h = 1e-6
        df_a = (fn(a + h) - fn(a - h)) / (2.0 * h)
        trace = newton_net(fn, df_a, y, x0, max_iter=max_iter, tol=tol, anchor=a)
    except EvalError as exc:
        raise CliError(f"evaluating {args.f!r}: {exc}", EXIT_NUMERICAL) from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = io.StringIO()
    write_newton_csv(trace, out)
    status = "converged" if trace.converged else "did not converge"
    print(f"newton: {status} after {trace.iterations} iterations", file=sys.stderr)
    return out.getvalue(), EXIT_OK


def _cmd_flow(args: argparse.Namespace) -> tuple[str, int]:
    k = _parse_float(args.k, "--k")
    x0 = _parse_float(args.x0, "--x0")
    s = _parse_float(args.s, "--s")
    t = _parse_float(args.t, "--t")
    try:
        check = exponential_flow(k, x0, s, t)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = io.StringIO()
    write_flow_csv(check, out)
    return out.getvalue(), EXIT_OK


def resolve_seed(raw: str | None = None) -> int:
    """Seed for randomized sweeps: flag value, else SOBOLEVKIT_SEED, else a fixed default."""
    if raw is not None:
        return _parse_int(raw, "--seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cmd_suite(args: argparse.Namespace) -> tuple[str, int]:
    seed = resolve_seed(args.seed)
    results = acceptance.run_all(seed=seed)
    lines = ["status,index,name,detail"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = r.detail.replace(",", ";")
        lines.append(f"{status},{r.index},{r.name},{detail}")
    all_ok = all(r.passed for r in results)
    return "\n".join(lines) + "\n", EXIT_OK if all_ok else EXIT_SUITE_FAIL


HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[str, int]]] = {
    "mollify": _cmd_mollify,
    "converge": _cmd_converge,
    "commute": _cmd_commute,
    "weak-verify": _cmd_weak_verify,
    "sobolev": _cmd_sobolev,
    "compose": _cmd_compose,
    "newton": _cmd_newton,
    "flow": _cmd_flow,
    "suite": _cmd_suite,
}


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="key=value file supplying defaults for any flag")
    parent.add_argument("-o", "--output", help="write CSV here instead of stdout")
    return parent


def _grid_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--lo", default="0", help="box lower corner, comma-separated (default 0)")
    parent.add_argument("--hi", default="1", help="box upper corner, comma-separated (default 1)")
    parent.add_argument("--res", default="400", help="cells per axis (default 400)")
    parent.add_argument("--tol", default="1e-4", help="verification tolerance (default 1e-4)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolevkit",
        description="Smoothing kernels, weak-derivative checks and Sobolev norms on sampled grids.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    gridp = _grid_parent()

    p = sub.add_parser("mollify", parents=[common, gridp], help="smooth an expression, print the grid CSV")
    p.add_argument("--f", required=True, help="expression to smooth")
    p.add_argument("--eps", required=True, help="kernel radius")

    p = sub.add_parser("converge", parents=[common, gridp], help="error table along a shrinking eps ladder")
    p.add_argument("--f", required=True)
    p.add_argument("--p", default="2", help="norm exponent, number or 'inf' (default 2)")
    p.add_argument("--eps", default="0.2,0.1,0.05,0.025", help="strictly decreasing ladder")

    p = sub.add_parser("commute", parents=[common, gridp], help="derivative-vs-smoothing commutation residual")
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True, help="verified weak derivative of f")
    p.add_argument("--alpha", default="1", help="derivative multi-index, comma-separated")
    p.add_argument("--eps", required=True)
    p.add_argument("--p", default="2")

    p = sub.add_parser("weak-verify", parents=[common, gridp], help="integration-by-parts residuals for a candidate derivative")
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True, help="candidate weak derivative")
    p.add_argument("--alpha", default="1")
    p.add_argument("--count", default="8", help="test functions in the catalog (default 8)")

    p = sub.add_parser("sobolev", parents=[common, gridp], help="membership report and W^{k,p} norm")
    p.add_argument("--f", required=True)
    p.add_argument("--k", default="1", help="derivative order (default 1)")
    p.add_argument("--p", default="2")
    p.add_argument("--deriv", action="append", metavar="ALPHA=EXPR",
                   help="candidate derivative, repeatable (e.g. --deriv 1=cos(x1))")
    p.add_argument("--count", default="8")

    p = sub.add_parser("compose", parents=[common], help="convolve two kernels, report support and mass")
    p.add_argument("--eps-a", required=True)
    p.add_argument("--eps-b", required=True)
    p.add_argument("--dim", default="1")
    p.add_argument("--res", default="256", help="cells per axis for the composition grid (even)")
    p.add_argument("--kernel-out", help="also write the composed kernel CSV here")

    p = sub.add_parser("newton", parents=[common], help="chord iteration x <- x + (y - f(x))/df(a)")
    p.add_argument("--f", required=True, help="1-d expression in x1")
    p.add_argument("--a", required=True, help="anchor where the derivative is frozen")
    p.add_argument("--y", required=True, help="target value")
    p.add_argument("--x0", required=True, help="starting iterate")
    p.add_argument("--max-iter", default="60")
    p.add_argument("--tol", default="1e-12")

    p = sub.add_parser("flow", parents=[common], help="exponential flow group-law and RK4 check")
    p.add_argument("--k", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)

    p = sub.add_parser("suite", parents=[common], help="run every acceptance criterion; exit 0 iff all pass")
    p.add_argument("--seed", help=f"sweep seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")

    return parser


def load_config(path: str) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    items: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        items.append((key.strip().replace("_", "-"), value.strip()))
    return items


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file supplies defaults that explicit flags override."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    defaults: dict[str, str] = {}
    derivs: list[str] = []
    for key, value in load_config(args.config):
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("config", "command"):
            raise CliError(f"config key {key!r} is not a flag of the {args.command!r} command")
        if dest == "deriv":
            derivs.append(value)
        else:
            defaults[dest] = value
    # re-parse with the file's values as the command's defaults, so argparse
    # itself decides which flags were given (abbreviations and -o included)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparsers.choices[args.command].set_defaults(**defaults)
    args = parser.parse_args(argv)
    if derivs and args.deriv is None:
        args.deriv = derivs
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        text, code = HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
