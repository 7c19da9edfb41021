"""A seeded contract fuzz of the command line.

``_cases`` draws about 700 argv over every subcommand, mixing valid
flags, edge values and flags that are invalid whatever else is given,
and runs each through ``cli.main`` in process.  Each run must keep the
contract the README states:

* the exit code is 0, 2 or 3 (``suite`` is drawn only with a refused
  ``--seed``, so its exit 1 never comes up);
* on a nonzero exit, stdout is empty and stderr is one ``error:`` line;
* on exit 0, stdout holds no ``nan``, and ``inf`` only where the README
  documents it: the ``p`` column of ``commute --p inf`` and a ``converge``
  ratio after an error of exactly 0;
* a flag drawn from an invalid pool exits 2 with the same stderr whatever
  the expressions are: one that evaluates, one that fails to evaluate
  and one that fails to parse;
* one argv in 20 runs twice and gives identical bytes.

argparse's own errors (an unknown command or flag, a missing required
flag) are outside the one-``error:``-line rule: argparse prints its
``usage:`` block first.  For them the fuzz asserts that shape instead:
exit 2, empty stdout, the ``usage: sobolevkit`` block, then one last
``sobolevkit[ <command>]: error: ...`` line.

Every value is passed as ``--flag=value``, since argparse takes a value
that starts with ``-`` (``--eps -0.1``) for a flag.  pytest turns a
numpy warning into an error, so a warning fails the run too.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from collections import Counter
from typing import NamedTuple

from sobolevkit import cli

SEED = 2718
COUNT = 700
REPEAT_EVERY = 20

# expressions in x1..x<dim>: ones that evaluate on the drawn boxes, ones that
# fail to evaluate somewhere on them, and ones that fail to parse
GOOD = ("x1", "sin(3*x1)", "abs(x1-0.5)", "x1^2+1", "exp(x1)", "step(x1-0.5)", "2.5", "min(x1, 3)", "-x1")
GOOD_2D = ("x1*x2", "cos(2*pi*x1)+x2", "abs(x1-0.5)+x2")
GOOD_3D = ("x1*x2*x3", "sin(x1)*x3+x2")
FAILING = ("log(x1-2)", "sqrt(-1-x1)", "exp(1000*x1+1000)", "1e308*(x1+2)*10", "1/(x1-x1)")
UNPARSABLE = ("(", "x1 +", "", "x9", "foo(x1)", "1..2", "x1^^2")
# the expressions an invalid flag's refusal is checked against
VARIANTS = ("x1", FAILING[0], UNPARSABLE[0])

# (lo, hi) corners repeated on every axis; the last three make a cell volume
# or a box width float64 cannot hold in some dimensions
BOXES = (("0", "1"),) * 12 + (("-1", "1"), ("0", "2"), ("0", "1e-120"), ("0", "1e300"), ("-1e308", "1e308"))
RES = {1: ("1", "10", "40", "100", "400", "400"), 2: ("2", "10", "30", "40", "40", "40,30"), 3: ("4", "10", "16", "16")}
# kernel radii, and radii the checks refuse on the unit box or that leave few cells
EPS = ("0.05", "0.1", "0.2", "0.3", "0.45")
WILD_EPS = ("0.49", "1e-3", "1e-200", "1e300", "2")
LADDERS = ("0.2,0.1", "0.3,0.2,0.1", "0.2,0.1,0.05", "0.4,0.2")
P = ("1", "2", "2", "3.5", "inf", "200")
TOL = ("1e-4", "0", "inf", "1e-2", "1")
COUNTS = ("1", "8", "12", "30")


def _invalid_grid(dim: int) -> tuple[tuple[str, str], ...]:
    """(flag, value) pairs refused whatever the box, the other flags and the expressions are."""
    return (
        ("res", "0"), ("res", "-3"), ("res", "abc"), ("res", "1.5"), ("res", ",".join(["10"] * (dim + 1))),
        ("res", "100000000"), ("lo", "abc"), ("config", "/nonexistent/run.cfg"),
    )


# --tol values weak-verify and sobolev refuse; the other grid commands have no --tol
INVALID_TOL = (("tol", "-1"), ("tol", "nan"), ("tol", ""))


def _alpha(dim: int, order: int) -> str:
    return ",".join([str(order)] + ["0"] * (dim - 1))


def _eps(rng: random.Random, res: str | None = None) -> str:
    """Mostly a radius of ``EPS`` of at least 8 cells of the unit box at ``res``, as a kernel's lattice mass needs."""
    cells = min(int(r) for r in res.split(",")) if res else math.inf
    fits = [eps for eps in EPS if float(eps) * cells >= 8]
    return rng.choice(fits) if fits and rng.random() < 0.8 else rng.choice(EPS + WILD_EPS)


def _invalid_alpha(dim: int) -> tuple[str, ...]:
    return (_alpha(dim, 0), _alpha(dim, 3), ",".join(["1"] * (dim + 1)), "a", _alpha(dim, -1))


class Case(NamedTuple):
    command: str
    flags: tuple[tuple[str, str], ...]
    # a flag was drawn from an invalid pool: exit 2 whatever the expressions
    invalid: bool = False

    def argv(self, expression: str | None = None) -> list[str]:
        """The argv, with every ``--f``, ``--u`` and ``--deriv`` expression replaced by ``expression`` if given."""
        argv = [self.command]
        for name, value in self.flags:
            if expression is not None and name in ("f", "u"):
                value = expression
            elif expression is not None and name == "deriv" and "=" in value:
                value = value.partition("=")[0] + "=" + expression
            argv.append(f"--{name}={value}")
        return argv


def _expression(rng: random.Random, dim: int) -> str:
    pool = GOOD + (GOOD_2D if dim >= 2 else ()) + (GOOD_3D if dim == 3 else ())
    draw = rng.random()
    if draw < 0.7:
        return rng.choice(pool)
    return rng.choice(FAILING if draw < 0.85 else UNPARSABLE)


def _grid_flags(rng: random.Random, dim: int) -> list[tuple[str, str]]:
    lo, hi = rng.choice(BOXES)
    return [("lo", ",".join([lo] * dim)), ("hi", ",".join([hi] * dim)), ("res", rng.choice(RES[dim]))]


def _draw(rng: random.Random) -> Case:
    # suite and argparse's errors have few shapes: draw them half as often
    command = rng.choice(
        ("mollify", "converge", "commute", "weak-verify", "sobolev", "compose", "newton", "flow") * 2
        + ("suite", "argparse")
    )
    dim = rng.choice((1, 1, 2, 2, 3))
    invalid: list[tuple[str, str]] = []
    if command == "argparse":
        return rng.choice((
            Case("frob", ()),
            Case("mollify", (("eps", "0.1"),)),  # --f missing
            Case("mollify", (("f", "x1"), ("eps", "0.1"), ("bogus", "1"))),
            Case("newton", (("f", "x1"), ("a", "1"), ("y", "2"))),  # --x0 missing
            Case("compose", (("eps-a", "0.1"), ("eps-b", "0.1"), ("f", "x1"))),  # no --f on compose
        ))
    if command in ("mollify", "converge", "commute", "weak-verify", "sobolev"):
        flags = _grid_flags(rng, dim)
        flags.append(("f", _expression(rng, dim)))
        invalid += _invalid_grid(dim)
        if command == "mollify":
            flags.append(("eps", _eps(rng, flags[2][1])))
            invalid += [("eps", v) for v in ("0", "-0.1", "nan", "inf", "abc", "", "0.2,0.1")]
        elif command == "converge":
            if rng.random() < 0.7:
                flags.append(("eps", rng.choice(LADDERS)))
            if rng.random() < 0.5:
                flags.append(("p", rng.choice(P)))
            invalid += [("eps", v) for v in ("0.1,0.2", "0.2,0.2", "-0.1", "nan")]
            invalid += [("p", v) for v in ("0.5", "nan", "abc", "-1")]
        elif command == "commute":
            flags += [("u", _expression(rng, dim)), ("eps", _eps(rng, flags[2][1]))]
            if dim > 1 or rng.random() < 0.5:
                flags.append(("alpha", _alpha(dim, rng.choice((1, 1, 2)))))
            if rng.random() < 0.5:
                flags.append(("p", rng.choice(P)))
            invalid += [("alpha", v) for v in _invalid_alpha(dim)]
            invalid += [("p", v) for v in ("0.5", "nan")] + [("eps", v) for v in ("0", "-0.1", "0.2,0.1")]
        elif command == "weak-verify":
            flags.append(("u", _expression(rng, dim)))
            if rng.random() < 0.3:
                flags.append(("tol", rng.choice(TOL)))
            if dim > 1 or rng.random() < 0.5:
                flags.append(("alpha", _alpha(dim, rng.choice((1, 1, 2)))))
            if rng.random() < 0.5:
                flags.append(("count", rng.choice(COUNTS)))
            invalid += [("alpha", v) for v in _invalid_alpha(dim)]
            invalid += [("count", v) for v in ("0", "1001", "abc")] + list(INVALID_TOL)
        else:
            k = rng.choice((1, 1, 2))
            flags.append(("k", str(k)))
            if rng.random() < 0.3:
                flags.append(("tol", rng.choice(TOL)))
            if rng.random() < 0.5:
                flags.append(("p", rng.choice(P)))
            if rng.random() < 0.5:
                flags.append(("count", rng.choice(COUNTS)))
            # every multi-index of order 1..k, each kept with probability 0.9
            # (a missing one is refused), in axis order
            alphas = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            if k == 2:
                alphas += [
                    tuple(a + b for a, b in zip(alphas[i], alphas[j])) for i in range(dim) for j in range(i, dim)
                ]
            for alpha in alphas:
                if rng.random() < 0.9:
                    flags.append(("deriv", ",".join(map(str, alpha)) + "=" + _expression(rng, dim)))
            invalid += [("k", v) for v in ("0", "3", "abc")] + [("count", v) for v in ("0", "1001")]
            invalid += [("deriv", "1"), ("deriv", _alpha(dim, 0) + "=x1"), ("p", "0.5")] + list(INVALID_TOL)
    elif command == "compose":
        res = rng.choice(("16", "32", "32", "7") + (("64", "64") if dim < 3 else ()))
        flags = [("eps-a", _eps(rng)), ("eps-b", _eps(rng)), ("dim", str(dim)), ("res", res)]
        invalid += [("eps-a", v) for v in ("0", "-1", "nan", "abc")]
        invalid += [("dim", v) for v in ("0", "4", "abc")] + [("res", v) for v in ("0", "abc", "9")]
    elif command == "newton":
        flags = [("f", _expression(rng, 1)), ("a", rng.choice(("0", "1", "1.5", "-2", "1e9", "1e11"))),
                 ("y", rng.choice(("0", "2", "-1"))), ("x0", rng.choice(("0", "1", "3")))]
        if rng.random() < 0.5:
            flags.append(("max-iter", rng.choice(("1", "5", "60"))))
        if rng.random() < 0.3:
            flags.append(("tol", rng.choice(("1e-12", "0", "1e-3"))))
        invalid += [("a", v) for v in ("nan", "inf", "abc")] + [("y", "nan"), ("x0", "-inf")]
        invalid += [("max-iter", v) for v in ("100001", "abc", "0")] + [("tol", "-1")]
    elif command == "flow":
        flags = [("k", rng.choice(("0", "1", "-2", "3", "700"))), ("x0", rng.choice(("1", "-1", "0", "1e300"))),
                 ("s", rng.choice(("0", "0.5", "1"))), ("t", rng.choice(("0", "0.5", "1", "-2")))]
        invalid += [("k", "nan"), ("x0", "abc"), ("t", "1e306"), ("t", "1001"), ("s", "inf")]
    else:  # suite runs only when refused: its criteria take seconds
        return Case("suite", (("seed", rng.choice(("-1", "abc", "1.5", ""))),), invalid=True)
    if rng.random() < 0.25:
        name, value = rng.choice(invalid)
        flags = [(n, v) for n, v in flags if n != name or name == "deriv"] + [(name, value)]
        return Case(command, tuple(flags), invalid=True)
    return Case(command, tuple(flags))


def _cases() -> list[Case]:
    rng = random.Random(SEED)
    return [_draw(rng) for _ in range(COUNT)]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_argparse_error(err: str) -> bool:
    lines = err.splitlines()
    return err.startswith("usage: sobolevkit ") and lines[-1].startswith("sobolevkit") and ": error: " in lines[-1]


def _inf_allowed(case: Case, header: list[str], row: list[str], column: int) -> bool:
    name = header[column]
    if case.command == "commute" and name == "p":
        return True
    return case.command == "converge" and name == "ratio" and row[header.index("error")] == "0"


def _violations(case: Case, code: int, out: str, err: str) -> list[str]:
    found = []
    if code not in (0, 2, 3):
        found.append(f"exit {code}")
    if code != 0:
        if out:
            found.append("stdout on a nonzero exit")
        one_line = err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        if not (one_line or (code == 2 and _is_argparse_error(err))):
            found.append(f"stderr is not one error line: {err!r}")
    else:
        if "nan" in out.lower():
            found.append("nan in stdout")
        lines = [line.split(",") for line in out.splitlines()]
        for row in lines[1:]:
            for column, cell in enumerate(row):
                if "inf" in cell.lower() and not _inf_allowed(case, lines[0], row, column):
                    found.append(f"{cell} in column {lines[0][column]!r}")
    return found


def test_every_argv_keeps_the_contract():
    failures = []
    for index, case in enumerate(_cases()):
        argv = case.argv()
        result = _run(argv)
        found = _violations(case, *result)
        if case.invalid:
            if result[0] != cli.EXIT_VALIDATION:
                found.append(f"an invalid flag exits {result[0]}")
            if any(name in ("f", "u", "deriv") for name, _ in case.flags):
                for expression in VARIANTS:
                    if _run(case.argv(expression))[2] != result[2]:
                        found.append(f"the refusal changes with --f {expression!r}")
        if index % REPEAT_EVERY == 0 and _run(argv) != result:
            found.append("a second run differs")
        failures += [f"{argv}: {f}" for f in found]
    assert not failures, "\n".join(failures)


def test_the_draw_reaches_every_outcome():
    """The fuzz stays a fuzz: every command, every exit code of the contract and argparse's errors all come up."""
    cases = _cases()
    assert Counter(case.command for case in cases).keys() >= set(cli.HANDLERS)
    outcomes = Counter()
    for case in cases[::7]:
        code, _, err = _run(case.argv())
        outcomes[code] += 1
        outcomes["argparse"] += _is_argparse_error(err)
        outcomes["invalid"] += case.invalid
    assert all(outcomes[key] >= 3 for key in (0, 2, 3, "argparse", "invalid")), outcomes

