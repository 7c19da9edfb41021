"""Command line front end.

Every subcommand reads plain flags (optionally seeded from a ``key=value``
config file via ``--config``) and writes CSV with shortest round-trip
float formatting, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 suite criteria failed, 2 invalid configuration
(any ``ValueError``, such as a grid or an FFT shape above ``grid.MAX_NODES``
nodes) or out of memory, 3 numerical failure (a domain error while evaluating
an expression, an overflow, or any other ``ArithmeticError``).
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import acceptance
from .acceptance import DEFAULT_SEED
from .convolution import _admit, _check_ladder, compose, convergence_study, convolve
from .dynamics import MAX_NEWTON_ITER, exponential_flow, newton_net
from .expr import EvalError, GRAMMAR_HELP, ParseError, evaluate, excerpt, parse, sample
from .grid import Box, Grid, GridFunction, format_float, make_grid, write_grid_function_csv
from .mollifier import standard_bump, validate_multi_index
from .sobolev import DerivativeFamily, _check_family, _check_order, membership_report
from .weakdiff import MAX_TEST_FUNCTIONS, _commutation_gap, test_function_catalog, verify_weak_derivative

__all__ = ["main", "RunConfig"]

_T = TypeVar("_T")

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SEED_ENV_VAR = "SOBOLEVKIT_SEED"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _flagged(what: str, check: Callable[..., _T], *args: object) -> _T:
    """``check(*args)``, its ``ValueError`` refused with the library's message after the flag ``what``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise CliError(f"{what}: {exc}") from None


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


def _parse_finite(raw: str, what: str) -> float:
    value = _parse_float(raw, what)
    if not math.isfinite(value):
        raise CliError(f"{what} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{what} must be an integer, got {raw!r}") from None


def _parse_p(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = _parse_float(raw, "--p")
    if not p >= 1.0:  # also refuses nan
        raise CliError(f"--p must be >= 1 or inf, got {raw!r}")
    return p


def _parse_tol(raw: str) -> float:
    tol = _parse_float(raw, "--tol")
    if not tol >= 0.0:  # also refuses nan; inf accepts any finite residual
        raise CliError(f"--tol must be >= 0, got {raw!r}")
    return tol


def _parse_bounded(raw: str, what: str, limit: int) -> int:
    """An integer flag from 1 to a library's ``limit``, refused here so the message names the flag."""
    value = _parse_int(raw, what)
    if value < 1:
        raise CliError(f"{what} must be at least 1, got {raw!r}")
    if value > limit:
        raise CliError(f"{what} must be at most {limit}, got {raw!r}")
    return value


def _parse_alpha(raw: str, what: str, dim: int, min_order: int = 1) -> tuple[int, ...]:
    try:
        alpha = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise CliError(f"{what} must be comma-separated integers, got {raw!r}") from None
    if len(alpha) == 1 and dim > 1:
        raise CliError(f"{what} has 1 entry for a {dim}-d grid; give one entry per axis")
    if len(alpha) != dim:
        raise CliError(f"{what} {raw!r} has {len(alpha)} entries for a {dim}-d grid")
    return _flagged(what, validate_multi_index, alpha, dim, min_order)


class RunConfig(NamedTuple):
    """The validated grid, and the parsed ``--eps`` values, of the grid-based commands."""

    grid: Grid
    eps_ladder: tuple[float, ...]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        lo = _parse_floats(args.lo, "--lo")
        hi = _parse_floats(args.hi, "--hi")
        box = _flagged("--lo/--hi", Box, lo, hi)
        res_values = args.res.split(",")
        if len(res_values) == 1:
            resolution = (_parse_int(res_values[0], "--res"),) * box.dim
        else:
            resolution = tuple(_parse_int(r, "--res") for r in res_values)
        if len(resolution) != box.dim:
            raise CliError(f"--res {args.res!r} has {len(resolution)} entries for a {box.dim}-d box")
        if any(r < 1 for r in resolution):
            raise CliError(f"--res entries must be positive, got {args.res!r}")
        # refuses a grid above MAX_NODES nodes; nothing is allocated yet
        grid = make_grid(box, resolution)
        eps_ladder = _parse_floats(args.eps, "--eps") if getattr(args, "eps", None) else ()
        return cls(grid, eps_ladder)


def _check_cell_volume(grid: Grid) -> None:
    """Refuse a grid whose cell volume float64 rounds to 0 or inf: every quadrature weight on it is off."""
    volume = grid.cell_volume
    if volume == 0.0 or volume == math.inf:
        flows, size = ("underflows", "small") if volume == 0.0 else ("overflows", "large")
        raise CliError(f"grid cell volume {flows} to {format_float(volume)} in float64: the cells are too {size}")


def _expression_error(source: str, exc: ParseError | EvalError) -> CliError:
    # quote only an excerpt around the offset: the source may be kilobytes long
    shown = repr(excerpt(source, exc.offset))
    if isinstance(exc, ParseError):
        return CliError(f"in expression {shown}: {exc}")
    return CliError(f"evaluating {shown}: {exc}", EXIT_NUMERICAL)


def _sample_expression(source: str, grid: Grid) -> GridFunction:
    try:
        ast = parse(source, grid.dim)
        return GridFunction._adopt(grid, sample(ast, [grid.axis_nodes(i) for i in range(grid.dim)]))
    except (ParseError, EvalError) as exc:
        raise _expression_error(source, exc) from None


def _cell(value: object) -> str:
    """Empty for ``None``, lowercase for a bool, shortest round-trip decimal for a float."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text of every command but ``mollify``: the header line, then one line per row."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _alpha_label(alpha: Sequence[int]) -> str:
    return " ".join(str(a) for a in alpha)


def _single_eps(config: RunConfig) -> float:
    if len(config.eps_ladder) != 1:
        raise CliError(f"this command needs exactly one --eps value, got {config.eps_ladder}")
    return config.eps_ladder[0]


def _cmd_mollify(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid
    m = _flagged("--eps", standard_bump, grid.dim, _single_eps(config))
    # each command admits its convolutions before it samples, so a refused
    # kernel exits 2 with convolve's own message whatever the expression
    _admit(grid, m)
    f = _sample_expression(args.f, grid)
    smoothed, _ = convolve(f, m)
    out = io.StringIO()
    write_grid_function_csv(smoothed, out)
    return out.getvalue(), EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    for eps in config.eps_ladder:
        _admit(config.grid, _flagged("--eps", standard_bump, config.grid.dim, eps))
    p = _parse_p(args.p)
    _check_ladder(config.eps_ladder)
    f = _sample_expression(args.f, config.grid)
    table = convergence_study(f, p, config.eps_ladder)
    rows = [(r.eps, r.error, r.ratio) for r in table.rows]
    return _table(("eps", "error", "ratio"), rows), EXIT_OK


def _cmd_commute(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    grid = config.grid
    alpha = _parse_alpha(args.alpha, "--alpha", grid.dim)
    eps = _single_eps(config)
    # commutation_residual's admissions, in its order: the alpha-derivative kernel, then the value kernel
    m = _flagged("--eps", standard_bump, grid.dim, eps)
    derivative = _admit(grid, m, alpha)
    value = _admit(grid, m)
    p = _parse_p(args.p)
    f = _sample_expression(args.f, grid)
    u = _sample_expression(args.u, grid)
    residual = _commutation_gap(f, u, m, derivative, value, p)
    return _table(("alpha", "eps", "p", "residual"), [(_alpha_label(alpha), eps, p, residual)]), EXIT_OK


def _cmd_weak_verify(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    tol = _parse_tol(args.tol)
    grid = config.grid
    alpha = _parse_alpha(args.alpha, "--alpha", grid.dim)
    tests = test_function_catalog(grid.box, _parse_bounded(args.count, "--count", MAX_TEST_FUNCTIONS))
    _check_cell_volume(grid)
    f = _sample_expression(args.f, grid)
    u = _sample_expression(args.u, grid)
    result = verify_weak_derivative(f, u, alpha, tests, tol)
    verdict = "verified" if result.verdict else "not verified"
    print(
        f"weak-verify: {verdict} (max residual {format_float(result.max_residual)}, tol {format_float(tol)})",
        file=sys.stderr,
    )
    return _table(("test_id", "residual"), zip(result.test_ids, result.residuals)), EXIT_OK


def _cmd_sobolev(args: argparse.Namespace) -> tuple[str, int]:
    config = RunConfig.from_args(args)
    tol = _parse_tol(args.tol)
    grid = config.grid
    k = _parse_int(args.k, "--k")
    p = _parse_p(args.p)
    tests = test_function_catalog(grid.box, _parse_bounded(args.count, "--count", MAX_TEST_FUNCTIONS))
    # --f is the family's order-zero entry; each --deriv gives one other multi-index, once
    derivs: dict[tuple[int, ...], str] = {}
    for deriv_item in args.deriv or []:
        alpha_raw, sep, source = (part.strip() for part in deriv_item.partition("="))
        if not sep:
            raise CliError(f"--deriv needs ALPHA=EXPR, got {deriv_item!r}")
        alpha = _parse_alpha(alpha_raw, "--deriv", grid.dim, min_order=0)
        if not any(alpha):
            raise CliError(f"--deriv {alpha_raw!r} has order 0; give the function itself with --f")
        if alpha in derivs:
            raise CliError(f"--deriv {alpha_raw!r} is given twice")
        derivs[alpha] = source
    _flagged("--k", _check_order, k)
    _check_family(grid.dim, k, {(0,) * grid.dim, *derivs})
    _check_cell_volume(grid)
    entries = {(0,) * grid.dim: _sample_expression(args.f, grid)}
    for alpha, source in derivs.items():
        entries[alpha] = _sample_expression(source, grid)
    family = DerivativeFamily(entries)
    report = membership_report(family, k, p, tests, tol)
    rows = [(_alpha_label(e.alpha), e.pairing_residual, e.lp_norm, e.verdict) for e in report.entries]
    rows.append(("overall", None, report.norm, report.member))
    return _table(("alpha", "pairing_residual", "lp_norm", "verdict"), rows), EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> tuple[str, int]:
    eps_a = _parse_float(args.eps_a, "--eps-a")
    eps_b = _parse_float(args.eps_b, "--eps-b")
    res = _parse_int(args.res, "--res")
    dim = _parse_int(args.dim, "--dim")
    # the library's checks, in the order it makes them, each naming its flag
    if not 1 <= dim <= 3:
        raise CliError(f"--dim must be between 1 and 3, got {args.dim!r}")
    for flag, raw, eps in (("--eps-a", args.eps_a, eps_a), ("--eps-b", args.eps_b, eps_b)):
        if not (eps > 0 and math.isfinite(eps)):
            raise CliError(f"{flag} must be positive and finite, got {raw!r}")
    if res < 1 or res % 2:
        raise CliError(f"--res must be a positive even integer, got {args.res!r}")
    report = compose(standard_bump(dim, eps_a), standard_bump(dim, eps_b), res)
    if args.kernel_out:
        try:
            with open(args.kernel_out, "w") as fh:
                write_grid_function_csv(report.kernel, fh)
        except OSError as exc:
            raise CliError(f"cannot write kernel output: {exc}") from None
    return _table(("support_radius", "mass"), [(report.support_radius, report.mass)]), EXIT_OK


def _cmd_newton(args: argparse.Namespace) -> tuple[str, int]:
    a = _parse_finite(args.a, "--a")
    y = _parse_finite(args.y, "--y")
    x0 = _parse_finite(args.x0, "--x0")
    # refused before --f is evaluated for the frozen slope, whatever the expression
    max_iter = _parse_bounded(args.max_iter, "--max-iter", MAX_NEWTON_ITER)
    tol = _parse_tol(args.tol)
    try:
        ast = parse(args.f, 1)

        def fn(x: float) -> float:
            return evaluate(ast, (x,))

        # frozen chord slope from a central difference at the anchor, with a step
        # relative to |a|, so a + h stays distinct from a
        h = 1e-6 * max(1.0, abs(a))
        df_a = (fn(a + h) - fn(a - h)) / (2.0 * h)
        if not math.isfinite(df_a):
            raise CliError(f"the frozen slope of --f at --a {format_float(a)} is beyond the float64 range", EXIT_NUMERICAL)
        if df_a == 0.0:
            raise CliError(f"the frozen slope of --f at --a {format_float(a)} is zero; the chord step is undefined")
        trace = newton_net(fn, df_a, y, x0, max_iter=max_iter, tol=tol, anchor=a)
    except (ParseError, EvalError) as exc:
        raise _expression_error(args.f, exc) from None
    status = "converged" if trace.converged else "did not converge"
    print(f"newton: {status} after {trace.iterations} iterations", file=sys.stderr)
    rows = [(k, x, r) for k, (x, r) in enumerate(zip(trace.iterates, trace.residuals))]
    return _table(("iter", "x", "residual"), rows), EXIT_OK


def _cmd_flow(args: argparse.Namespace) -> tuple[str, int]:
    k = _parse_float(args.k, "--k")
    x0 = _parse_float(args.x0, "--x0")
    s = _parse_float(args.s, "--s")
    t = _parse_float(args.t, "--t")
    check = exponential_flow(k, x0, s, t)
    header = ("k", "x0", "s", "t", "lhs", "rhs", "residual", "rk4_error")
    return _table(header, [tuple(getattr(check, name) for name in header)]), EXIT_OK


def resolve_seed(raw: str | None = None) -> int:
    """Non-negative seed for randomized sweeps: flag value, else SOBOLEVKIT_SEED, else a fixed default."""
    what = "--seed"
    if raw is None:
        raw, what = os.environ.get(SEED_ENV_VAR), SEED_ENV_VAR
        if raw is None:
            return DEFAULT_SEED
    seed = _parse_int(raw, what)
    if seed < 0:
        raise CliError(f"{what} must be a non-negative integer, got {raw!r}")
    return seed


def _cmd_suite(args: argparse.Namespace) -> tuple[str, int]:
    seed = resolve_seed(args.seed)
    results = acceptance.run_all(seed=seed)
    rows = [("PASS" if r.passed else "FAIL", r.index, r.name, r.detail.replace(",", ";")) for r in results]
    all_ok = all(r.passed for r in results)
    return _table(("status", "index", "name", "detail"), rows), EXIT_OK if all_ok else EXIT_SUITE_FAIL


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
    p.add_argument("--tol", default="1e-4", help="verification tolerance (default 1e-4)")

    p = sub.add_parser("sobolev", parents=[common, gridp], help="membership report and W^{k,p} norm")
    p.add_argument("--f", required=True)
    p.add_argument("--k", default="1", help="derivative order (default 1)")
    p.add_argument("--p", default="2")
    p.add_argument("--deriv", action="append", metavar="ALPHA=EXPR",
                   help="candidate derivative, repeatable (e.g. --deriv 1=cos(x1))")
    p.add_argument("--count", default="8")
    p.add_argument("--tol", default="1e-4")

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
        text, code = HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse has printed its usage or help
        return int(exc.code) if exc.code else EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ArithmeticError as exc:
        # EvalError, OverflowError, FloatingPointError, ZeroDivisionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; keep the shutdown flush from raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


def entry() -> None:
    """Process entry of ``python -m sobolevkit.cli`` and the ``sobolevkit`` script.

    Every import is done by now, so ``gc.freeze()`` first moves the objects
    they made (numpy's, mostly) out of the collector's reach: neither the
    full collections of the run nor those of interpreter shutdown walk them
    again.  Shutdown still flushes, closes files and runs atexit.  ``main``
    itself does not freeze, so a caller in process keeps a heap the
    collector can fully reclaim.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
