"""Toy-size self-check of the benchmark: oracles, probing, memory guard, tracer and BENCHMARK.json.

    python3 perfbench/smoke.py

Run it from the repository root.  It spawns a handful of CLI invocations
on grids of a few thousand nodes, takes about half a minute, and exits 1
if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import lattice  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import CRITERIA, TARGETS, per_layer_metrics  # noqa: E402
from workloads import Case  # noqa: E402

FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILED.append(what)


def cli(case: Case) -> tuple[int, bytes]:
    inv = run.run_child([sys.executable, "-m", "sobolevkit.cli", *case.argv], run.child_env(ROOT), ROOT)
    return inv.status, inv.stdout


def one_d_mollify(res: int, eps: float) -> tuple[Case, np.ndarray]:
    """``mollify`` of f(x) = 1 + x on [0, 1], with its sampled values for the oracle."""
    argv = ("mollify", "--lo", "0", "--hi", "1", "--res", str(res), "--eps", lattice.format_float(eps), "--f", "1+x1")
    case = Case(argv, {"lo": (0.0,), "hi": (1.0,), "res": (res,), "eps": (eps,), "seed": 0, "samples": res})
    return case, 1.0 + lattice.axis_nodes((0.0,), (1.0,), (res,))[0]


def scale_value(stdout: bytes, row: int, factor: float) -> bytes:
    """``stdout`` with the last field of line ``row`` multiplied by ``factor``."""
    lines = stdout.split(b"\n")
    head, _, value = lines[row].rpartition(b",")
    lines[row] = head + b"," + repr(float(value) * factor).encode()
    return b"\n".join(lines)


def check_oracles() -> None:
    toys = {
        "smooth-3d": workloads.smooth_case("0.4567", res=16, eps=(0.25, 0.1875)),
        "sample-write-2d": workloads.sample_case("0.4321", "1.2345", 7, res=40, eps=0.1, samples=41 * 41),
        "pairing-2d": workloads.pairing_case("3.1", "0.5", res=100, count=8),
    }
    outputs = {}
    for name, case in toys.items():
        code, out = cli(case)
        outputs[name] = out
        problems = workloads.WORKLOADS[name].check(case, out, code)
        check(not problems, f"{name} oracle accepts a toy run {problems[:1]}")

    # a relative change of 1e-7 in one value must be caught
    sample = workloads.WORKLOADS["sample-write-2d"]
    bad = scale_value(outputs["sample-write-2d"], 1 + 20 * 41 + 20, 1 + 1e-7)
    check(bool(sample.check(toys["sample-write-2d"], bad, 0)), "sample-write-2d oracle rejects a changed value")
    smooth = workloads.WORKLOADS["smooth-3d"]
    bad = scale_value(outputs["smooth-3d"], 2, 1 + 1e-7)
    check(bool(smooth.check(toys["smooth-3d"], bad, 0)), "smooth-3d oracle rejects a changed ratio")
    swapped = outputs["pairing-2d"].replace(b"true", b"false", 1)
    check(bool(workloads.WORKLOADS["pairing-2d"].check(toys["pairing-2d"], swapped, 0)),
          "pairing-2d oracle rejects a false verdict")

    # too few lattice cells per radius: the program answers with exit 0
    # and a multiple of f; the oracle must refuse it
    for res, eps in ((10, 0.001), (10, 0.01)):
        case, f = one_d_mollify(res, eps)
        code, out = cli(case)
        problems = workloads.grid_csv_check(case, out, code, f)
        check(any("lattice mass" in p for p in problems),
              f"oracle rejects mollify --res {res} --eps {eps} (exit {code}): {problems[:1]}")
    case, f = one_d_mollify(64, 0.1)
    code, out = cli(case)
    problems = workloads.grid_csv_check(case, out, code, f)
    check(not problems, f"oracle accepts a resolved 1-d mollify {problems[:1]}")


def check_probing() -> None:
    """Pausing the child to probe the CPU's speed must not change what it prints."""
    case = workloads.sample_case("0.4321", "1.2345", 7, res=100, eps=0.05)
    argv = [sys.executable, "-m", "sobolevkit.cli", *case.argv]
    plain = run.run_child(argv, run.child_env(ROOT), ROOT)
    probed = run.run_child(argv, run.child_env(ROOT), ROOT, probing=True)
    check(probed.probes > 0 and probed.wall_scale > 0 and probed.cpu_scale > 0,
          f"{probed.probes} probes, wall scale {probed.wall_scale:.3f}, CPU scale {probed.cpu_scale:.3f}")
    check(probed.status == plain.status == 0 and probed.stdout == plain.stdout,
          f"a probed run prints the same {len(plain.stdout)} bytes as a plain one")


def check_guard() -> None:
    huge = workloads.smooth_case("0.5", res=100, eps=(0.1,))
    windows = workloads.WORKLOADS["smooth-3d"].windows(huge)
    copy = 8 * lattice.window_madds(*windows[0])
    check(abs(copy / 2**30 - 36.7) < 0.05, f"3-d res 100 eps 0.1 window copy is {copy / 2**30:.2f} GiB")
    try:
        run.guard_memory(windows, 16 * 2**30)
        refused = False
    except run.BenchError:
        refused = True
    check(refused, "memory guard refuses it with 16 GiB available")
    for name, wl in workloads.WORKLOADS.items():
        try:
            largest = run.guard_memory(wl.windows(wl.make(1)), 4 * 2**30)
            check(True, f"memory guard admits {name} with 4 GiB available ({largest / 2**20:.0f} MiB copy)")
        except run.BenchError as exc:
            check(False, f"memory guard admits {name} with 4 GiB available: {exc}")


def traced(case: Case) -> tuple[dict, bytes]:
    inv = run.run_child([sys.executable, str(HERE / "tracer.py"), "--", *case.argv], run.child_env(ROOT), ROOT)
    head, _, body = inv.stdout.partition(b"\n")
    return json.loads(head), body


def check_tracer() -> None:
    case = workloads.sample_case("0.4321", "1.2345", 7, res=40, eps=0.1)
    first, body = traced(case)
    second, _ = traced(case)
    counts = first["counts"]
    exact = [n for n in counts if n != "convolution.rss_rise_mb"]
    check(all(first["counts"][n] == second["counts"][n] for n in exact), "work counts repeat exactly")
    check(all(first["spans"][n][0] == second["spans"][n][0] for n in first["spans"]), "call counts repeat exactly")
    predicted = sum(lattice.window_madds(*w) for w in workloads.WORKLOADS["sample-write-2d"].windows(case))
    check(counts["convolution.window_madds"] == predicted, f"window_madds {counts['convolution.window_madds']} == {predicted}")
    # exp(-abs(x1-c))*sin(2*pi*x2+ph)+log(1+x1*x2) has 22 nodes
    check(counts["expr.node_visits"] == 22 * 41 * 41, f"node_visits {counts['expr.node_visits']} == 22 * 41^2")
    check(counts["grid.csv_bytes"] == len(body), f"csv_bytes {counts['grid.csv_bytes']} == {len(body)} bytes of stdout")
    # cli imports evaluate_many and write_grid_function_csv by name
    for span in ("cli.main", "expr.evaluate_many", "grid.write_grid_function_csv", "convolution.convolve"):
        check(first["spans"][span][0] == 1, f"span {span} recorded once")

    pairing, _ = traced(workloads.pairing_case("3.1", "0.5", res=100, count=8))
    check(pairing["counts"]["weakdiff.test_evals"] == 2 * 2 * 8 * 101 * 101,
          f"test_evals {pairing['counts']['weakdiff.test_evals']} == 2 derivatives * 2 * 8 tests * 101^2")

    # in this process: every namespace patched, CRITERIA identical to the globals
    import tracer  # noqa: PLC0415  (imports sobolevkit from src/)

    targets = list(TARGETS) + [("acceptance", c) for c in CRITERIA]
    originals = {name: getattr(sys.modules[f"sobolevkit.{name[0]}"], name[1]) for name in targets}
    tracer.install(tracer.Tracer())
    stale = [
        f"{name}.{attr}"
        for name, mod in sys.modules.items() if name.startswith("sobolevkit")
        for attr, value in vars(mod).items() if any(value is o for o in originals.values())
    ]
    check(not stale, f"no sobolevkit namespace keeps an untraced target {stale[:3]}")
    acceptance = sys.modules["sobolevkit.acceptance"]
    check(all(any(fn is getattr(acceptance, c) for c in CRITERIA) for fn in acceptance.CRITERIA),
          "acceptance.CRITERIA entries are the wrapped module globals")


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["per_layer"]] == [n for n, _ in per_layer_metrics()],
          "BENCHMARK.json per_layer lists the traced metrics in order")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json names every workload")
    check(sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the untraced metrics")
    empty = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "suite", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=HERE, capture_output=True, timeout=60)
    check(empty.returncode != 0 and not empty.stdout, "run.py outside a checkout exits non-zero and prints nothing")


def main() -> int:
    check_oracles()
    check_probing()
    check_guard()
    check_manifest()
    check_tracer()
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
