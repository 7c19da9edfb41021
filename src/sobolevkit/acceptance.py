"""End-to-end acceptance checks.

Each criterion exercises one pillar of the toolkit at a pinned tolerance
and reports a single pass/fail with a short detail string.  The CLI
``suite`` subcommand and the acceptance test module both run these, so
there is exactly one definition of "done" for the numerical claims.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .convolution import _convergence_tables, compose, convolve, orbit
from .dynamics import _group_law, exponential_flow, invertibility_check, newton_net
from .expr import _parse_core, evaluate, parse
from .grid import Box, GridFunction, make_grid
from .mollifier import standard_bump, verify_unit
from .sobolev import DerivativeFamily, sobolev_norm
from .weakdiff import (
    TestFunction,
    commutation_residual,
    test_function_catalog,
    verify_weak_derivative,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

DEFAULT_SEED = 20250825

EPS_LADDER = (0.2, 0.1, 0.05, 0.025)

# criterion 12 parses FUZZ_COUNT random strings of 0..FUZZ_LENGTHS-1 bytes
FUZZ_COUNT = 100_000
FUZZ_LENGTHS = 24
# strings drawn per bulk call; a small chunk keeps peak RSS flat
_FUZZ_CHUNK = 4096
# a random byte b below 240 gives the length b % FUZZ_LENGTHS; the 16 bytes
# from 240 up are dropped, so each length has exactly 10 of the 240 kept bytes
_LENGTH_OF_BYTE = bytes(b % FUZZ_LENGTHS for b in range(256))
_REJECTED_BYTES = bytes(range(256 - 256 % FUZZ_LENGTHS, 256))


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str


@functools.lru_cache(maxsize=None)
def _unit_grid(res: int):
    return make_grid(Box((0.0,), (1.0,)), res)


def _sample(res: int, fn) -> GridFunction:
    return GridFunction.from_callable(_unit_grid(res), lambda pts: fn(pts[:, 0]))


def _sin(res: int) -> GridFunction:
    return _sample(res, lambda x: np.sin(2.0 * np.pi * x))


def _kink(res: int) -> GridFunction:
    return _sample(res, lambda x: np.abs(x - 0.5))


def _smooth_bump(res: int) -> GridFunction:
    # wide enough that the largest ladder eps is already in the rate-4 regime
    return GridFunction.from_callable(_unit_grid(res), TestFunction((0.5,), 0.45).value)


def _sign(res: int) -> GridFunction:
    return _sample(res, lambda x: np.sign(x - 0.5))


def criterion_mollifier_unit() -> CriterionResult:
    """Scaled kernels stay nonnegative, supported in the eps-ball, and of unit mass."""
    worst = 0.0
    ok = True
    for n in (1, 2):
        for eps in (1.0, 0.5, 0.1):
            report = verify_unit(standard_bump(n, eps), 256, tol=1e-3)
            ok = ok and report.passed
            worst = max(worst, report.mass_error)
    return CriterionResult(1, "mollifier-unit-properties", ok, f"max mass error {worst:.3e} (tol 1e-3)")


def criterion_approximate_identity() -> CriterionResult:
    """Smoothing errors shrink along the eps ladder; smooth functions shrink at rate ~4."""
    res = 2000
    cases = {"sin": (_sin(res), True), "kink": (_kink(res), False), "bump": (_smooth_bump(res), True)}
    ok = True
    notes = []
    for name, (f, smooth) in cases.items():
        # one pass over the ladder gives all three tables of f
        for table in _convergence_tables(f, (1.0, 2.0, math.inf), EPS_LADDER):
            p = table.p
            if not table.strictly_decreasing:
                ok = False
                notes.append(f"{name} p={p} not decreasing")
            if smooth:
                ratios = [r.ratio for r in table.rows[1:]]
                if not all(2.5 <= r <= 5.5 for r in ratios):
                    ok = False
                    notes.append(f"{name} p={p} ratios {ratios}")
    detail = "; ".join(notes) if notes else "9 tables decreasing, smooth ratios in [2.5, 5.5]"
    return CriterionResult(2, "approximate-identity", ok, detail)


def criterion_affine_exactness() -> CriterionResult:
    """Unit mass and symmetry reproduce affine functions on the interior."""
    f = _sample(400, lambda x: 3.0 * x + 1.0)
    smoothed, region = convolve(f, standard_bump(1, 0.2))
    gap = float(np.max(np.abs(smoothed.values - f.values), where=region.mask, initial=0.0))
    return CriterionResult(3, "affine-exactness", gap <= 1e-8, f"max interior gap {gap:.3e} (tol 1e-8)")


def criterion_commutation() -> CriterionResult:
    """Kernel-derivative route matches smoothing the weak derivative, and improves with resolution."""
    residuals = {}
    for res in (400, 800):
        residuals[res] = commutation_residual(_kink(res), _sign(res), (1,), 0.1, 2.0)
    ok = residuals[400] <= 1e-3 and residuals[800] <= 0.6 * residuals[400]
    return CriterionResult(
        4,
        "commutation-residual",
        ok,
        f"res400 {residuals[400]:.3e} (tol 1e-3), res800/res400 {residuals[800] / residuals[400]:.3f} (need <= 0.6)",
    )


def criterion_weak_verification() -> CriterionResult:
    """True weak derivatives verify; the Heaviside point mass is rejected loudly."""
    res = 400
    grid = _unit_grid(res)
    tests = test_function_catalog(grid.box, 8)
    smooth_f = _sin(res)
    smooth_u = _sample(res, lambda x: 2.0 * np.pi * np.cos(2.0 * np.pi * x))
    r1 = verify_weak_derivative(smooth_f, smooth_u, (1,), tests, 1e-4)
    r2 = verify_weak_derivative(_kink(res), _sign(res), (1,), tests, 1e-4)
    heaviside = _sample(res, lambda x: np.where(x < 0.5, 0.0, 1.0))
    zero = _sample(res, lambda x: np.zeros_like(x))
    r3 = verify_weak_derivative(heaviside, zero, (1,), tests, 1e-4)
    ok = r1.verdict and r2.verdict and (not r3.verdict) and r3.max_residual >= 0.1
    return CriterionResult(
        5,
        "weak-derivative-verification",
        ok,
        f"smooth {r1.max_residual:.2e}, kink {r2.max_residual:.2e} (tol 1e-4); "
        f"heaviside residual {r3.max_residual:.3f} (need >= 0.1)",
    )


def criterion_sobolev_norm() -> CriterionResult:
    """W^{1,p} norm of f(x) = x on [0,1]: sqrt(4/3) for p=2, exactly 2 for p=inf."""
    res = 400
    fam = DerivativeFamily({
        (0,): _sample(res, lambda x: x),
        (1,): _sample(res, lambda x: np.ones_like(x)),
    })
    n2 = sobolev_norm(fam, 1, 2.0)
    ninf = sobolev_norm(fam, 1, math.inf)
    expected = math.sqrt(4.0 / 3.0)
    ok = abs(n2 - expected) <= 1e-4 and ninf == 2.0
    return CriterionResult(
        6,
        "sobolev-norm-values",
        ok,
        f"p=2: {n2:.10f} vs {expected:.10f} (tol 1e-4); p=inf: {ninf} (need exactly 2)",
    )


def criterion_compose() -> CriterionResult:
    """Composing eps=0.1 and eps=0.2 kernels: support adds, mass stays one."""
    report = compose(standard_bump(1, 0.1), standard_bump(1, 0.2), 256)
    cell = 0.6 / 256
    support_ok = report.support_radius <= 0.3 + cell
    mass_ok = abs(report.mass - 1.0) <= 1e-3
    return CriterionResult(
        7,
        "kernel-composition",
        support_ok and mass_ok,
        f"support {report.support_radius:.6f} (limit {0.3 + cell:.6f}), mass error {abs(report.mass - 1.0):.3e} (tol 1e-3)",
    )


def criterion_newton() -> CriterionResult:
    """Chord iteration solves x^2 = 2 to 1e-10; a zero frozen slope is rejected."""
    trace = newton_net(lambda x: x * x, 3.0, 2.0, 1.5, max_iter=60, tol=1e-14)
    gap = abs(trace.final - math.sqrt(2.0))
    converged = trace.converged and trace.iterations <= 60 and gap <= 1e-10
    try:
        newton_net(lambda x: x * x, 0.0, 2.0, 1.5)
        rejected = False
    except ValueError:
        rejected = True
    ok = converged and rejected
    return CriterionResult(
        8,
        "newton-chord",
        ok,
        f"|x - sqrt(2)| = {gap:.3e} after {trace.iterations} iterations (tol 1e-10); zero slope rejected: {rejected}",
    )


def criterion_invertibility() -> CriterionResult:
    """Monotone functions stay invertible after smoothing; a critical point is flagged."""
    res = 400
    mono = _sample(res, lambda x: x + 0.1 * np.sin(2.0 * np.pi * x))
    good = invertibility_check(mono, 0.1)
    parab = _sample(res, lambda x: (x - 0.5) ** 2)
    bad = invertibility_check(parab, 0.1)
    ok = good.invertible and not bad.invertible
    return CriterionResult(
        9,
        "invertibility-after-smoothing",
        ok,
        f"monotone min |Df_eps| {good.min_abs_df_eps:.4f} invertible={good.invertible}; "
        f"critical point invertible={bad.invertible}",
    )


def criterion_flow(seed: int) -> CriterionResult:
    """Group law holds to 1e-12 over a random sweep; RK4 matches the closed form."""
    rng = random.Random(seed)
    worst = 0.0
    # the sweep reads only the group law, so it runs no RK4 control
    for _ in range(100):
        k, s, t = (rng.uniform(-1.0, 1.0) for _ in range(3))
        x0 = rng.uniform(-5.0, 5.0)
        lhs, rhs = _group_law(k, x0, s, t)
        worst = max(worst, abs(lhs - rhs))
    rk4 = exponential_flow(1.0, 1.0, 0.0, 1.0).rk4_error
    ok = worst <= 1e-12 and rk4 <= 1e-8
    return CriterionResult(
        10,
        "exponential-flow-group-law",
        ok,
        f"max group-law residual {worst:.3e} (tol 1e-12); RK4 error {rk4:.3e} (tol 1e-8)",
    )


def criterion_shadow() -> CriterionResult:
    """Pairings of the smoothing net extrapolate to the direct pairing."""
    from .dynamics import distributional_shadow

    res = 2000
    net = orbit(_sign(res), EPS_LADDER)
    v = TestFunction((0.5,), 0.2)
    report = distributional_shadow(net, v)
    gap = abs(report.extrapolated - report.direct)
    # off-center witness so the limit is away from zero; wide enough that the
    # order-1 extrapolation residual (~ eps1*eps2*|v''|) stays inside tolerance
    w = TestFunction((0.55,), 0.22)
    report_w = distributional_shadow(net, w)
    gap_w = abs(report_w.extrapolated - report_w.direct)
    ok = gap <= 1e-3 and gap_w <= 1e-3
    return CriterionResult(
        11,
        "distributional-shadow",
        ok,
        f"centered gap {gap:.3e}, off-center gap {gap_w:.3e} (tol 1e-3)",
    )


def _fuzz_lengths(rng: random.Random, n: int) -> bytes:
    """``n`` lengths, one per byte, from random bytes mapped and rejected by ``bytes.translate``."""
    lengths = b""
    while len(lengths) < n:
        lengths += rng.randbytes(n - len(lengths)).translate(_LENGTH_OF_BYTE, _REJECTED_BYTES)
    return lengths


def _fuzz_chunks(rng: random.Random, count: int) -> Iterator[list[str]]:
    """Yield ``count`` strings of 0..FUZZ_LENGTHS-1 uniform random bytes, one list per chunk.

    Each chunk of up to ``_FUZZ_CHUNK`` strings draws its lengths and a
    block of bytes with ``randbytes``; string ``i`` of a chunk is the first
    ``length`` bytes of its own ``FUZZ_LENGTHS - 1``-byte slot, read as latin-1.
    """
    width = FUZZ_LENGTHS - 1
    for done in range(0, count, _FUZZ_CHUNK):
        n = min(_FUZZ_CHUNK, count - done)
        lengths = _fuzz_lengths(rng, n)
        text = rng.randbytes(n * width).decode("latin-1")
        yield [text[start : start + length] for start, length in zip(range(0, n * width, width), lengths)]


def criterion_parser(seed: int) -> CriterionResult:
    """Operator precedence is exact and random byte strings never crash the parser.

    Each of the ``FUZZ_COUNT`` strings goes once, in order, through the
    parser's non-raising core, which returns the ``ParseError`` that
    ``parse`` would raise; any exception that escapes it is a crash.
    The strings are ``str`` and the dimension is 3 for every one, so the
    core runs without ``parse``'s argument checks.
    """
    cases = {
        "2+3*4": 14.0,
        "2^3^2": 512.0,
        "-2^2": -4.0,
        "2^-3": 0.125,
        "(2+3)*4": 20.0,
        "min(2,3)+max(4,5)": 7.0,
        "step(0)-step(-1)": 1.0,
        "abs(x1-0.5)": 0.25,
    }
    precedence_ok = True
    for source, expected in cases.items():
        got = evaluate(parse(source, 1), (0.25,))
        if got != expected:
            precedence_ok = False
    crashes = 0
    for chunk in _fuzz_chunks(random.Random(seed), FUZZ_COUNT):
        for source in chunk:
            try:
                _parse_core(source, 3)
            except Exception:
                crashes += 1
        # drop this chunk's strings before the next chunk is drawn, so one chunk is alive at a time
        del chunk
    ok = precedence_ok and crashes == 0
    return CriterionResult(
        12,
        "expression-parser",
        ok,
        f"precedence exact: {precedence_ok}; fuzz crashes {crashes}/{FUZZ_COUNT}",
    )


CRITERIA = (
    criterion_mollifier_unit,
    criterion_approximate_identity,
    criterion_affine_exactness,
    criterion_commutation,
    criterion_weak_verification,
    criterion_sobolev_norm,
    criterion_compose,
    criterion_newton,
    criterion_invertibility,
    criterion_flow,
    criterion_shadow,
    criterion_parser,
)


def run_all(seed: int | None = None) -> list[CriterionResult]:
    """Run every criterion; randomized sweeps use ``seed`` (default fixed)."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    results = []
    for fn in CRITERIA:
        if fn in (criterion_flow, criterion_parser):
            results.append(fn(seed))
        else:
            results.append(fn())
    return results
