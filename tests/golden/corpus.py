"""The byte-identity corpus: fixed CLI invocations and what each one printed.

``corpus.json`` holds, for every invocation, the exit code and, for each
stream (stdout, stderr and any file the command writes), its SHA-256, its
line count and a sample of its lines: every line of a stream under 64 KB,
every 97th line of a larger one.  It also records the platform it was
made on: numpy version, machine and Python minor version, and also the C
library and the SIMD targets numpy dispatches to on that CPU, since the
evaluator's ``math`` calls and numpy's ``exp`` can round differently
under either.

On that platform ``tests/test_corpus.py`` requires the same bytes.  On
another one, where numpy's FFT or libm may round differently, it requires
the same exit codes and line counts, the same text in every stored line,
and each number in it within 1e-12 of the largest number in that line.

Each invocation runs in this process through ``cli.main``, with
``SOBOLEVKIT_SEED`` unset and warnings turned into errors.  A path under
the run's temporary directory is written ``{tmp}`` in the argv and in the
captured text.

A change that means to alter the output rewrites the file from the code in
``src/`` and names each invocation that moved:

    PYTHONPATH=src python tests/golden/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from sobolevkit.cli import SEED_ENV_VAR, main

CORPUS = Path(__file__).with_name("corpus.json")
PERFBENCH = str(Path(__file__).resolve().parents[2] / "perfbench")

SMALL_STREAM = 64 * 1024
ROW_STEP = 97
RTOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def platform_key() -> dict:
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "libc": " ".join(platform.libc_ver()),
        "simd": _simd_targets(),
    }


def _simd_targets() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if features.get(t)]


def _workload_argv() -> list[list[str]]:
    # the four benchmark workloads at bench seed 1, as perfbench builds them
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads

    return [list(workloads.WORKLOADS[name].make(1).argv) for name in sorted(workloads.WORKLOADS)]


# one argv per distinct refusal message, cheapest grid that reaches it
REFUSALS = [
    # flag parsing
    ["mollify", "--f", "x1", "--eps", "abc"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "a"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--res", "x"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "0,0", "--hi", "1,1", "--res", "4,4,4"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--res", "0"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "0", "--hi", "1,1"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "0,0,0,0", "--hi", "1,1,1,1"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "1", "--hi", "0"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "0", "--hi", "inf"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "5000"],
    ["mollify", "--f", "x1", "--eps", "0.1,0.05"],
    ["mollify", "--f", "x1", "--eps", "0.1", "--tol", "-1"],
    ["converge", "--f", "x1", "--p", "0.5"],
    ["converge", "--f", "x1", "--eps", ""],
    ["commute", "--f", "x1", "--u", "1", "--eps", "0.1", "--alpha", "a"],
    ["commute", "--f", "x1", "--u", "1", "--eps", "0.1", "--alpha", "1", "--lo", "0,0", "--hi", "1,1"],
    ["commute", "--f", "x1", "--u", "1", "--eps", "0.1", "--alpha", "1,1"],
    ["commute", "--f", "x1", "--u", "1", "--eps", "0.1", "--alpha", "0"],
    ["weak-verify", "--f", "x1", "--u", "1", "--alpha=-1"],
    ["weak-verify", "--f", "x1", "--u", "1", "--alpha", "3"],
    ["weak-verify", "--f", "x1", "--u", "1", "--count", "0"],
    ["weak-verify", "--res", "20", "--f", "x1", "--u", "1", "--count", "1000000000"],
    ["sobolev", "--f", "x1", "--k", "one"],
    ["sobolev", "--f", "x1", "--deriv", "1"],
    ["sobolev", "--f", "x1", "--deriv", "0=x1", "--deriv", "1=1"],
    ["sobolev", "--f", "x1", "--deriv", "1=5", "--deriv", "1=1"],
    ["sobolev", "--f", "x1", "--k", "0"],
    ["sobolev", "--f", "x1", "--k", "1"],
    ["sobolev", "--res", "4", "--k", "2000", "--f", "x1"],
    ["suite", "--seed", "-1"],
    ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", "/nonexistent.cfg"],
    ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", "{tmp}/noeq.cfg"],
    ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "0", "--config", "{tmp}/badkey.cfg"],
    ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--kernel-out", "{tmp}/missing/kernel.csv"],
    # convolution admission
    ["mollify", "--res", "10", "--eps", "0.001", "--f", "1"],
    ["mollify", "--res", "50", "--eps", "0.6", "--f", "x1"],
    ["mollify", "--res", "11", "--eps", "0.49", "--f", "x1"],
    ["mollify", "--lo", "0,0", "--hi", "1,1", "--res", "10", "--eps", "1e-200", "--f", "x1"],
    ["mollify", "--lo", "0,0", "--hi", "1e200,1e200", "--res", "40", "--eps", "1e199", "--f", "1"],
    ["mollify", "--res", "40", "--eps", "0.075", "--f", "1.79e308"],
    ["converge", "--res", "100", "--f", "x1", "--eps", "0.1,0.2"],
    ["converge", "--res", "100", "--f", "x1", "--eps", "0.2,-0.1"],
    ["compose", "--eps-a", "0.1", "--eps-b", "0.1", "--res", "255"],
    ["compose", "--eps-a", "1e-20", "--eps-b", "1"],
    ["compose", "--dim", "3", "--res", "254", "--eps-a", "0.1", "--eps-b", "0.1"],
    ["compose", "--dim", "1", "--res", "100", "--eps-a", "1e300", "--eps-b", "1e-300"],
    # expressions
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "2+"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "x1 $ 2"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "x2"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "foo(x1)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "min(x1)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "(x1"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "1e999"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "(" * 300 + "x1" + ")" * 300],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "log(x1-2)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "sqrt(x1-2)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "1/(x1-x1)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "exp(1000*x1+1000)"],
    ["mollify", "--res", "20", "--eps", "0.1", "--f", "(x1-2)^0.5"],
    ["newton", "--f", "log(x1)", "--a", "1", "--y", "0", "--x0", "-5"],
    # numerical refusals after sampling
    ["weak-verify", "--lo=0,0", "--hi=1e300,1e300", "--res", "40", "--alpha", "1,0", "--f", "1", "--u", "0"],
    ["weak-verify", "--lo=-1e300", "--hi=0", "--res", "2", "--f", "1e-300*x1", "--u", "x1"],
    ["sobolev", "--lo=-1", "--hi=1e300", "--res", "10", "--k", "1", "--p", "1", "--f", "x1", "--deriv", "1=1"],
    ["newton", "--f", "x1^2", "--a", "0", "--y", "2", "--x0", "1"],
    ["flow", "--k", "1", "--x0", "1", "--s", "0", "--t", "1e306"],
    ["flow", "--k", "inf", "--x0", "1", "--s", "0", "--t", "0"],
]

CONFIG_FILES = {"noeq.cfg": "res 40\n", "badkey.cfg": "eps=0.1\n"}


def cases() -> list[dict]:
    """Every invocation, as ``{"argv": [...], "files": [names the command writes under {tmp}]}``."""
    runs = _workload_argv() + [
        ["suite"],
        ["suite", "--seed", "7"],
        ["suite", "--seed", "12345"],
        ["mollify", "--res", "400", "--eps", "0.05", "--f", "step(x1-0.5)"],
        ["mollify", "--lo", "0,0", "--hi", "1,1", "--res", "100", "--eps", "0.1", "--f", "abs(x1-0.5)*step(x2-0.3)"],
        ["mollify", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "20", "--eps", "0.2", "--f", "max(x1-0.5,0)*x2"],
        ["converge", "--res", "2000", "--f", "abs(x1-0.5)"],
        ["converge", "--res", "200", "--p", "inf", "--f", "sin(2*pi*x1)"],
        ["commute", "--res", "400", "--eps", "0.05", "--f", "abs(x1-0.5)", "--u", "2*step(x1-0.5)-1"],
        ["commute", "--lo", "0,0", "--hi", "1,1", "--res", "40", "--eps", "0.2", "--alpha", "1,1",
         "--f", "x1*x2", "--u", "1"],
        # the 1-d pure second derivative of the bump, with its -2/(u u) term
        ["commute", "--res", "400", "--eps", "0.1", "--alpha", "2", "--f", "x1^3", "--u", "6*x1"],
        ["weak-verify", "--res", "100", "--f", "x1^2", "--u", "2*x1"],
        ["weak-verify", "--res", "100", "--f", "step(x1-0.5)", "--u", "0"],
        ["weak-verify", "--res", "800", "--alpha", "2", "--f", "sin(3*x1)", "--u=-9*sin(3*x1)"],
        ["sobolev", "--lo", "0,0", "--hi", "1,1", "--res", "60", "--k", "2", "--f", "x1*x2",
         "--deriv", "1,0=x2", "--deriv", "0,1=x1", "--deriv", "1,1=1", "--deriv", "2,0=0", "--deriv", "0,2=0"],
        ["sobolev", "--lo", "0,0,0", "--hi", "1,1,1", "--res", "24", "--tol", "1e-2", "--k", "1", "--f", "x1*x2+x3^2",
         "--deriv", "1,0,0=x2", "--deriv", "0,1,0=x1", "--deriv", "0,0,1=2*x3"],
        # (x1-c)|x1-c| has its second-derivative jump at x1 = 0.437, off every node
        ["sobolev", "--lo", "0,0", "--hi", "1,1", "--res", "120", "--tol", "1e-2", "--k", "2",
         "--f", "abs(x1-0.437)*(x1-0.437)+x2^2", "--deriv", "1,0=2*abs(x1-0.437)", "--deriv", "0,1=2*x2",
         "--deriv", "1,1=0", "--deriv", "2,0=4*step(x1-0.437)-2", "--deriv", "0,2=2"],
        ["newton", "--f", "x1^2", "--a", "1.5", "--y", "2", "--x0", "1.5"],
        ["flow", "--k", "1", "--x0", "2", "--s", "0.3", "--t", "0.4"],
    ]
    for dim, res in (("1", "256"), ("2", "64"), ("3", "24")):
        runs.append(["compose", "--dim", dim, "--res", res, "--eps-a", "0.1", "--eps-b", "0.2",
                     "--kernel-out", "{tmp}/kernel.csv"])
    return [{"argv": argv, "files": ["kernel.csv"] if "{tmp}/kernel.csv" in argv else []} for argv in runs + REFUSALS]


def run(case: dict, tmp: Path) -> tuple[int, dict[str, str]]:
    """Exit code and captured text (stdout, stderr, then each written file) of one invocation."""
    for name, text in CONFIG_FILES.items():
        (tmp / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(SEED_ENV_VAR, None)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        if saved is not None:
            os.environ[SEED_ENV_VAR] = saved
    streams = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    for name in case["files"]:
        path = tmp / name
        streams[name] = path.read_text()
        path.unlink()
    return code, {k: v.replace(str(tmp), "{tmp}") for k, v in streams.items()}


def summarize(text: str) -> dict:
    """A stream's digest, line count and stored lines."""
    lines = text.splitlines()
    step = 1 if len(text.encode()) < SMALL_STREAM else ROW_STEP
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": len(lines),
        "step": step,
        "rows": lines[::step],
    }


def numeric_problem(stored: dict, text: str) -> str | None:
    """How ``text`` differs from a stored stream beyond 1e-12 per number; ``None`` when it agrees."""
    lines = text.splitlines()
    if len(lines) != stored["lines"]:
        return f"{len(lines)} lines, stored {stored['lines']}"
    step = stored["step"]
    for k, (want, got) in enumerate(zip(stored["rows"], lines[::step])):
        wants = [float(x) for x in _NUMBER.findall(want)]
        scale = max(map(abs, wants), default=0.0)
        if _NUMBER.split(want) != _NUMBER.split(got) or any(
            abs(float(g) - w) > RTOL * scale for g, w in zip(_NUMBER.findall(got), wants)
        ):
            return f"line {k * step}: {got!r}, stored {want!r}"
    return None


def record() -> dict:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            code, streams = run(case, Path(tmp))
            entries.append({
                **case,
                "exit": code,
                "streams": {name: summarize(text) for name, text in streams.items()},
            })
    return {"platform": platform_key(), "cases": entries}


if __name__ == "__main__":
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"cases": []}
    new = record()
    before = {json.dumps(c["argv"]): c for c in old["cases"]}
    for case in new["cases"]:
        prior = before.get(json.dumps(case["argv"]))
        if prior is None:
            print("new:", " ".join(case["argv"]))
        elif (prior["exit"], prior["streams"]) != (case["exit"], case["streams"]):
            print("moved:", " ".join(case["argv"]))
    CORPUS.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {len(new['cases'])} invocations to {CORPUS}")
