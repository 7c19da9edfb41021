"""The benchmark's workloads: CLI arguments made from a seed, and output oracles.

A seed sets only the constants inside the expressions (a kink location,
a phase, a frequency) and the suite's ``--seed``.  Grid sizes and eps
values are fixed, so every seed asks for the same amount of work.  Each
oracle recomputes the expected output with numpy alone and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import lattice

# Values must match the numpy lattice sum to this share of the largest
# input magnitude.  Summing in another order (an FFT, say) moves them by
# about 1e-15; a lattice-mass or normalization error moves them by far
# more than 1e-9.
RTOL = 1e-9

# The smallest kernel here has 3 cells per radius and a lattice mass of
# 1.019.  A window with too few cells has a mass far from one:
# ``mollify --res 10 --eps 0.001`` puts all of it on one node, mass 82.9.
MASS_TOL = 0.05

SMOOTH_EPS = (0.2, 0.175, 0.15, 0.125, 0.1, 0.075)
SUITE_CRITERIA = 12


@dataclass(frozen=True)
class Case:
    """One generated invocation: the CLI arguments plus what the oracle needs."""

    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Case]
    check: Callable[[Case, bytes, int], list]

    def windows(self, case: Case):
        """``(node_shape, spacing, eps)`` of every convolution the invocation will run."""
        p = case.params
        if "eps" not in p:
            return []
        res = p["res"]
        spacing = tuple((b - a) / r for a, b, r in zip(p["lo"], p["hi"], res))
        node_shape = tuple(r + 1 for r in res)
        return [(node_shape, spacing, eps) for eps in p["eps"]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _const(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _csv_rows(stdout: bytes) -> list[str]:
    return stdout.decode("ascii").splitlines()


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * scale


def _mass_problems(kernels) -> list:
    return [
        f"kernel at eps={eps} has lattice mass {float(k.sum()):.6g}, outside 1 +- {MASS_TOL}"
        for eps, k in kernels
        if abs(float(k.sum()) - 1.0) > MASS_TOL
    ]


def _grid(params):
    axes = lattice.axis_nodes(params["lo"], params["hi"], params["res"])
    meshes = np.meshgrid(*axes, indexing="ij")
    spacing = tuple((b - a) / r for a, b, r in zip(params["lo"], params["hi"], params["res"]))
    return axes, meshes, spacing


# --- smooth-3d: error table along an eps ladder ------------------------------


def smooth_case(c: str, res: int = 40, eps=SMOOTH_EPS) -> Case:
    argv = ("converge", "--lo", "0,0,0", "--hi", "1,1,1", "--res", str(res),
            "--eps", ",".join(lattice.format_float(e) for e in eps), "--p", "2",
            "--f", f"abs(x1-{c})+x2*x3")
    return Case(argv, {"lo": (0.0,) * 3, "hi": (1.0,) * 3, "res": (res,) * 3,
                       "eps": tuple(eps), "c": float(c), "p": 2.0})


def _smooth_make(seed: int) -> Case:
    return smooth_case(_const(_rng("smooth-3d", seed), 0.3, 0.7))


def _smooth_check(case: Case, stdout: bytes, code: int) -> list:
    p = case.params
    if code != 0:
        return [f"exit code {code}"]
    rows = _csv_rows(stdout)
    if rows[:1] != ["eps,error,ratio"] or len(rows) != 1 + len(p["eps"]):
        return [f"expected a header and {len(p['eps'])} rows, got {rows[:2]}... ({len(rows)} lines)"]
    axes, (x1, x2, x3), spacing = _grid(p)
    f = np.abs(x1 - p["c"]) + x2 * x3
    dist = lattice.boundary_distance(axes)
    comparison = dist > p["eps"][0]
    weights = lattice.trapezoid_weights(axes)
    problems = []
    kernels = []
    prev = None
    for row, eps in zip(rows[1:], p["eps"]):
        kernel = lattice.lattice_kernel(spacing, eps)
        kernels.append((eps, kernel))
        k = lattice.window_radii(spacing, eps)
        f_eps = np.zeros(f.shape)
        f_eps[tuple(slice(r, n - r) for r, n in zip(k, f.shape))] = lattice.valid_sum(f, kernel)
        f_eps[~(dist > eps)] = 0.0
        err = float(np.sum(weights * np.abs(f_eps - f) ** p["p"], where=comparison)) ** (1.0 / p["p"])
        ratio = None if prev is None else prev / err
        prev = err
        got = row.split(",")
        if len(got) != 3 or float(got[0]) != eps:
            problems.append(f"row {row!r} does not start with eps {eps}")
            continue
        if not _close(float(got[1]), err, err):
            problems.append(f"eps {eps}: error {got[1]}, oracle {err!r}")
        if (ratio is None) != (got[2] == "") or (ratio is not None and not _close(float(got[2]), ratio, ratio)):
            problems.append(f"eps {eps}: ratio {got[2]!r}, oracle {ratio!r}")
    return problems + _mass_problems(kernels)


# --- sample-write-2d: expression sampling and the grid CSV -------------------

SAMPLE_NODES = 256


def sample_case(c: str, phase: str, seed: int, res: int = 400, eps: float = 0.02,
                samples: int = SAMPLE_NODES) -> Case:
    argv = ("mollify", "--lo", "0,0", "--hi", "1,1", "--res", str(res), "--eps", lattice.format_float(eps),
            "--f", f"exp(-abs(x1-{c}))*sin(2*pi*x2+{phase})+log(1+x1*x2)")
    return Case(argv, {"lo": (0.0, 0.0), "hi": (1.0, 1.0), "res": (res, res), "eps": (eps,),
                       "c": float(c), "phase": float(phase), "seed": seed, "samples": samples})


def _sample_make(seed: int) -> Case:
    rng = _rng("sample-write-2d", seed)
    return sample_case(_const(rng, 0.3, 0.7), _const(rng, 0.0, 3.0), seed)


def grid_csv_check(case: Case, stdout: bytes, code: int, f) -> list:
    """Header, exact coordinates, an exactly zero collar, and sampled interior values."""
    p = case.params
    if code != 0:
        return [f"exit code {code}"]
    axes, _, spacing = _grid(p)
    rows = _csv_rows(stdout)
    lo, hi = (",".join(lattice.format_float(v) for v in p[k]) for k in ("lo", "hi"))
    res = ",".join(str(r) for r in p["res"])
    header = f"# grid lo={lo} hi={hi} res={res}"
    if rows[:1] != [header]:
        return [f"header {rows[:1]}, expected {header!r}"]
    if len(rows) - 1 != f.size:
        return [f"{len(rows) - 1} data rows, expected {f.size}"]
    labels = [[lattice.format_float(v) for v in x] for x in axes]
    coords = np.meshgrid(*[np.array(lab, dtype=object) for lab in labels], indexing="ij")
    expected = ",".join(["{}"] * len(axes))
    values = np.empty(f.size)
    for i, (row, *parts) in enumerate(zip(rows[1:], *(c.ravel() for c in coords))):
        prefix, _, value = row.rpartition(",")
        if prefix != expected.format(*parts):
            return [f"row {i + 1}: coordinates {prefix!r}, expected {expected.format(*parts)!r}"]
        values[i] = float(value)
    values = values.reshape(f.shape)
    eps = p["eps"][0]
    inside = lattice.boundary_distance(axes) > eps
    problems = []
    if np.any(values[~inside] != 0.0):
        problems.append("a node within eps of the boundary is not exactly 0")
    kernel = lattice.lattice_kernel(spacing, eps)
    scale = float(np.max(np.abs(f)))
    interior = np.argwhere(inside)
    rng = np.random.default_rng(p["seed"])
    for node in interior[rng.choice(len(interior), size=min(p["samples"], len(interior)), replace=False)]:
        want = lattice.point_sum(f, kernel, node)
        got = values[tuple(node)]
        if not _close(got, want, scale):
            problems.append(f"node {tuple(int(i) for i in node)}: {got!r}, oracle {want!r}")
            break
    return problems + _mass_problems([(eps, kernel)])


def _sample_check(case: Case, stdout: bytes, code: int) -> list:
    p = case.params
    _, (x1, x2), _ = _grid(p)
    f = np.exp(-np.abs(x1 - p["c"])) * np.sin(2 * np.pi * x2 + p["phase"]) + np.log(1 + x1 * x2)
    return grid_csv_check(case, stdout, code, f)


# --- pairing-2d: weak-derivative pairings and the Sobolev norm ---------------


def pairing_case(w: str, phase: str, res: int = 300, count: int = 48) -> Case:
    argv = ("sobolev", "--lo", "0,0", "--hi", "1,1", "--res", str(res), "--k", "1", "--count", str(count),
            "--f", f"sin({w}*x1+{phase})*x2",
            "--deriv", f"1,0={w}*cos({w}*x1+{phase})*x2",
            "--deriv", f"0,1=sin({w}*x1+{phase})")
    return Case(argv, {"lo": (0.0, 0.0), "hi": (1.0, 1.0), "res": (res, res),
                       "w": float(w), "phase": float(phase)})


def _pairing_make(seed: int) -> Case:
    rng = _rng("pairing-2d", seed)
    return pairing_case(_const(rng, 2.0, 5.0), _const(rng, 0.0, 3.0))


def _pairing_check(case: Case, stdout: bytes, code: int) -> list:
    p = case.params
    if code != 0:
        return [f"exit code {code}"]
    axes, (x1, x2), _ = _grid(p)
    w, phase = p["w"], p["phase"]
    family = {
        "0 0": np.sin(w * x1 + phase) * x2,
        "0 1": np.sin(w * x1 + phase),
        "1 0": w * np.cos(w * x1 + phase) * x2,
    }
    weights = lattice.trapezoid_weights(axes)
    norms = {alpha: float(np.sum(weights * g * g)) ** 0.5 for alpha, g in family.items()}
    norms["overall"] = sum(n * n for n in norms.values()) ** 0.5
    rows = _csv_rows(stdout)
    if rows[:1] != ["alpha,pairing_residual,lp_norm,verdict"] or len(rows) != 1 + len(norms):
        return [f"unexpected membership table {rows}"]
    problems = []
    for row, (alpha, norm) in zip(rows[1:], norms.items()):
        got = row.split(",")
        if len(got) != 4 or got[0] != alpha or got[3] != "true":
            problems.append(f"row {row!r}: expected alpha {alpha!r} with verdict true")
        elif not _close(float(got[2]), norm, norm):
            problems.append(f"alpha {alpha}: norm {got[2]}, oracle {norm!r}")
    return problems


# --- suite: the twelve acceptance criteria -----------------------------------


def _suite_make(seed: int) -> Case:
    return Case(("suite", "--seed", str(_rng("suite", seed).randrange(1, 2**31))))


def _suite_check(case: Case, stdout: bytes, code: int) -> list:
    rows = _csv_rows(stdout)
    passed = [r for r in rows[1:] if r.startswith("PASS,")]
    if code != 0 or rows[:1] != ["status,index,name,detail"] or len(passed) != SUITE_CRITERIA or len(rows) != 1 + SUITE_CRITERIA:
        return [f"exit code {code}, {len(passed)} PASS rows of {len(rows) - 1}, expected {SUITE_CRITERIA}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smooth-3d", _smooth_make, _smooth_check),
        Workload("sample-write-2d", _sample_make, _sample_check),
        Workload("pairing-2d", _pairing_make, _pairing_check),
        Workload("suite", _suite_make, _suite_check),
    )
}
