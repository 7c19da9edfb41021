"""sobolevkit benchmark: the real CLI, run as a closed loop, one invocation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.

With ``--trace 0`` it times fresh interpreters importing ``sobolevkit.cli``
(``setup_s``), then spawns ``python -m sobolevkit.cli`` back to back for
about ``--seconds`` seconds and reports, as medians over the invocations, the
wall time from spawn to exit (``cmd_s``), the child's user+sys CPU time
(``cpu_s``) and its peak RSS (``peak_rss_mb``).  The three times are
scaled to a reference CPU speed measured while each child runs
(``pace.py``).

With ``--trace 1`` it alternates untraced and traced in-process runs of
``main`` (``tracer.py``) for about ``--seconds`` seconds and reports each
layer's self time, call count and work counts.

Every invocation is checked: its exit code, its stdout bytes against the
first invocation of the run, and that first output against a numpy
oracle.  The last stdout line is the result JSON; the line before it is
context that no bound applies to.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import lattice  # noqa: E402
import pace  # noqa: E402
from layers import COUNTS, CRITERIA, MEASURED_COUNTS, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3

# Untraced metrics and their units.
END_TO_END = {"cmd_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# The program copies every convolution window before summing; refuse a
# workload whose largest copy would take more than this share of the
# memory the machine has available.
MEMORY_SHARE = 0.5


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured or printed."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    stdout: bytes
    stderr: bytes
    # times ``wall_s`` and ``cpu_s`` by these for seconds at the reference speed
    wall_scale: float = 1.0
    cpu_scale: float = 1.0
    probes: int = 0


_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
_LIBC.prctl.restype = ctypes.c_int
PR_SET_PDEATHSIG = 1


def _die_with(parent: int):
    """A ``preexec_fn`` that has the child killed when ``parent`` ends.

    However the benchmark ends, even by SIGKILL while a child is stopped
    for a probe, no child is left behind, stopped or running.
    """
    def preexec() -> None:
        _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:  # it ended before prctl took effect
            os._exit(1)

    return preexec


def run_child(argv: list[str], env: dict, cwd: Path, probing: bool = False) -> Invocation:
    """Spawn ``argv``, reap it with ``os.wait4`` for its own rusage, and read its output.

    With ``probing`` the child is paused now and then to measure the speed
    of its CPU (``pace.py``); its wall time then excludes the pauses.  Its
    output goes to unnamed files in ``cwd``, not to pipes: a child paused
    while it writes to a pipe can lose part of what it writes and still
    exit 0 (100 MB written to a pipe in 5 MB pieces, paused every few
    milliseconds, arrived as 27 to 51 MB).
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                preexec_fn=_die_with(os.getpid()))
        try:
            if probing:
                probed = pace.wait_probing(proc.pid)
            else:
                _, status, usage = os.wait4(proc.pid, 0)
                probed = pace.Probed(status, usage, 0.0, [])
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - probed.paused_s
        proc.returncode = os.waitstatus_to_exitcode(probed.status)
        usage = probed.usage
        out.seek(0)
        err.seek(0)
        invocation = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                                proc.returncode, out.read(), err.read())
    if probing:
        invocation.wall_scale, invocation.cpu_scale = probed.wall_scale(), probed.cpu_scale()
        invocation.probes = len(probed.probes)
    return invocation


def mem_available_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def guard_memory(windows, available: int) -> int:
    """Largest window copy in bytes; raises if it exceeds ``MEMORY_SHARE`` of ``available``."""
    largest = max((8 * lattice.window_madds(*w) for w in windows), default=0)
    if largest > MEMORY_SHARE * available:
        raise BenchError(
            f"a convolution window copy needs {largest / 2**30:.1f} GiB, more than "
            f"{MEMORY_SHARE:.0%} of the {available / 2**30:.1f} GiB available"
        )
    return largest


def child_env(root: Path) -> dict:
    """The caller's environment with ``src`` put first on ``PYTHONPATH``; nothing else changes."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def context(root: Path) -> dict:
    """Code size, machine and library versions: recorded beside the result, never gated."""
    package = root / "src" / "sobolevkit"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in package.glob("*.py"))
    public_names = None
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            public_names = len(ast.literal_eval(node.value))

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "src_lines": src_lines,
        "public_names": public_names,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def oracle_problems(workload, case, stdout: bytes, code: int) -> list:
    try:
        return workload.check(case, stdout, code)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc!r}"]


def failures(workload, case, runs: list[tuple[int, bytes]]) -> tuple[int, list]:
    """Failed invocations among ``(exit code, stdout)`` pairs, and the oracle's problems.

    The first output is the reference: it must satisfy the oracle, and
    every other invocation must match it byte for byte.
    """
    code0, out0 = runs[0]
    problems = oracle_problems(workload, case, out0, code0)
    if problems:
        return len(runs), problems
    return sum(1 for code, out in runs if code != code0 or out != out0), []


def closed_loop(seconds: float, spawn) -> list:
    """Call ``spawn`` back to back while the next call is expected to end within ``seconds``.

    There is always at least one call, and a run never overshoots by a
    whole call, so its length stays near ``seconds`` however slow the
    machine is.
    """
    results, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(spawn())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def end_to_end(workload, case, seconds: float, root: Path, env: dict) -> dict:
    py = sys.executable
    setup = [run_child([py, "-c", "import sobolevkit.cli"], env, root, probing=True) for _ in range(SETUP_SAMPLES)]
    calls = closed_loop(seconds, lambda: run_child([py, "-m", "sobolevkit.cli", *case.argv], env, root, probing=True))
    failed, problems = failures(workload, case, [(c.status, c.stdout) for c in calls])
    failed += sum(1 for s in setup if s.status != 0)
    # times at the reference speed (pace.py); the raw ones go to the context line
    wall = [c.wall_s * c.wall_scale for c in calls]
    cpu = [c.cpu_s * c.cpu_scale for c in calls]
    values = {
        "cmd_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
        "setup_s": statistics.median(s.wall_s * s.wall_scale for s in setup),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra = {
        "cmd_s_samples": len(wall),
        "cmd_s_max": max(wall),
        "cpu_s_max": max(cpu),
        "setup_s_samples": [s.wall_s * s.wall_scale for s in setup],
        "raw_cmd_s": statistics.median(c.wall_s for c in calls),
        "raw_cpu_s": statistics.median(c.cpu_s for c in calls),
        "raw_setup_s": statistics.median(s.wall_s for s in setup),
        "wall_scale": statistics.median(c.wall_scale for c in calls),
        "cpu_scale": statistics.median(c.cpu_scale for c in calls),
        "probes_per_call": statistics.median(c.probes for c in calls),
    }
    return {"attempted": len(calls) + len(setup), "failed": failed, "metrics": metrics,
            "problems": problems, "stderr": calls[0].stderr, "extra": extra}


def _split_traced(inv: Invocation) -> tuple[dict, bytes]:
    head, _, body = inv.stdout.partition(b"\n")
    return json.loads(head), body


def traced(workload, case, seconds: float, root: Path, env: dict) -> dict:
    py = sys.executable
    tracer = str(HERE / "tracer.py")
    plain, traced_runs, outputs = [], [], []

    def pair():
        for argv, sink in (([py, tracer, "--plain", "--", *case.argv], plain),
                           ([py, tracer, "--", *case.argv], traced_runs)):
            inv = run_child(argv, env, root)
            if inv.status != 0:
                outputs.append((inv.status, inv.stdout))
                continue
            report, body = _split_traced(inv)
            sink.append(report)
            outputs.append((report["exit_code"], body))

    closed_loop(seconds, pair)
    if not traced_runs or not plain:
        raise BenchError(f"the tracer exited non-zero on all {len(outputs)} runs")
    failed, problems = failures(workload, case, outputs)
    # work counts and call counts must repeat exactly between traced runs
    first = traced_runs[0]
    for report in traced_runs[1:]:
        same_calls = all(report["spans"][n][0] == first["spans"][n][0] for n in first["spans"])
        same_counts = all(report["counts"][n] == first["counts"][n] for n in COUNTS
                          if n not in MEASURED_COUNTS)
        if not (same_calls and same_counts):
            failed += 1
            problems.append("call or work counts differ between traced runs")
    predicted = sum(lattice.window_madds(*w) for w in workload.windows(case))
    if predicted and first["counts"]["convolution.window_madds"] != predicted:
        failed += 1
        problems.append(f"traced window_madds {first['counts']['convolution.window_madds']}, predicted {predicted}")

    def median(key):
        return statistics.median(key(r) for r in traced_runs)

    metrics = {"import.s": (median(lambda r: r["import_s"]), "s")}
    for module, fn in TARGETS:
        span = f"{module}.{fn}"
        metrics[f"{span}.self_s"] = (median(lambda r: r["spans"][span][1]), "s")
        metrics[f"{span}.calls"] = (first["spans"][span][0], "count")
    for criterion in CRITERIA:
        metrics[f"acceptance.{criterion}.s"] = (median(lambda r: r["spans"][f"acceptance.{criterion}"][2]), "s")
    for name, unit in COUNTS.items():
        exact = name not in MEASURED_COUNTS
        metrics[name] = (first["counts"][name] if exact else median(lambda r: r["counts"][name]), unit)
    metrics["trace.overhead_s"] = (median(lambda r: r["main_s"]) - statistics.median(r["main_s"] for r in plain), "s")
    layers: dict[str, float] = {}
    for span, (_, self_s, _) in first["spans"].items():
        if span != "cli.main":
            layers[span.split(".")[0]] = layers.get(span.split(".")[0], 0.0) + self_s
    spans = {n: s[1] for n, s in first["spans"].items() if n != "cli.main"}
    extra = {"traced_runs": len(traced_runs), "layer_self_s": layers,
             "largest_layer": max(layers, key=layers.get), "largest_span": max(spans, key=spans.get)}
    return {"attempted": len(outputs), "failed": failed, "metrics": metrics,
            "problems": problems, "stderr": b"", "extra": extra}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "sobolevkit" / "cli.py").is_file():
            raise BenchError(f"no src/sobolevkit/cli.py under {root}; run from the repository root")
        workload = WORKLOADS[args.workload]
        case = workload.make(args.seed)
        largest_copy = guard_memory(workload.windows(case), mem_available_bytes())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = child_env(root)
    measure = traced if args.trace else end_to_end
    try:
        result = measure(workload, case, args.seconds, root, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"][:5]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if result["failed"] and result["stderr"]:
        sys.stderr.write(result["stderr"].decode(errors="replace")[-2000:])
    info = {"workload": args.workload, "seed": args.seed, "argv": list(case.argv),
            "largest_window_copy_bytes": largest_copy, **result["extra"], **context(root),
            "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
