"""Run one sobolevkit CLI invocation in this process, with or without layer spans.

    python3 perfbench/tracer.py [--plain] -- <cli arguments>

Run it from the repository root.  It prints one JSON line (import and
``main`` seconds, exit code and, unless ``--plain``, the spans and work
counts), then the CLI's standard output unchanged.  The spans come from
wrapping each module's public entry points from outside; nothing under
``src/`` is edited.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
sys.path.insert(0, str(Path.cwd() / "src"))
import sobolevkit.cli  # noqa: E402  (timed: this is the import every CLI user pays)

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lattice  # noqa: E402
from layers import COUNTS, CRITERIA, TARGETS  # noqa: E402


class Tracer:
    """Aggregated spans: per name the call count, self seconds and total seconds."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, seconds spent in child spans]
        self.spans: dict[str, list] = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span; ``hook(tracer, bound_args)`` runs first and may return an after-callback."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if hook:
                bound = signature.bind(*args, **kwargs)
                after = hook(self, bound)
                args, kwargs = bound.args, bound.kwargs
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                stats[2] += elapsed
                if after:
                    after()

        return traced


def _hook_convolve(tracer: Tracer, bound):
    args = bound.arguments
    grid = args["f"].grid
    tracer.counts["convolution.window_madds"] += lattice.window_madds(
        grid.node_shape, grid.spacing, args["m"].eps, bool(args.get("zero_extend", False))
    )
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def after():
        rise_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        tracer.counts["convolution.rss_rise_mb"] += rise_kb / 1024.0

    return after


def ast_size(node) -> int:
    """Node count of an expression tree (each node is a dataclass; children are fields)."""
    size, todo = 0, [node]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            todo.extend(item)
        elif dataclasses.is_dataclass(item):
            size += 1
            todo.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return size


def _hook_evaluate_many(tracer: Tracer, bound):
    node, points = bound.arguments["node"], bound.arguments["points"]
    tracer.counts["expr.points_evaluated"] += len(points)
    tracer.counts["expr.node_visits"] += ast_size(node) * len(points)


def _hook_pair(tracer: Tracer, bound):
    # pairs made by verify_weak_derivative are counted there, with its
    # derivative evaluations, so inlining pair would not change the count
    if not tracer.inside("weakdiff.verify_weak_derivative"):
        tracer.counts["weakdiff.test_evals"] += bound.arguments["f"].grid.node_count


def _hook_verify(tracer: Tracer, bound):
    # one value and one derivative evaluation per test function per node
    nodes = bound.arguments["f"].grid.node_count
    tracer.counts["weakdiff.test_evals"] += 2 * len(bound.arguments["tests"]) * nodes


class _CountingWriter:
    def __init__(self, out, tracer: Tracer) -> None:
        self._out, self._tracer = out, tracer

    def write(self, text: str) -> int:
        self._tracer.counts["grid.csv_bytes"] += len(text.encode())
        return self._out.write(text)

    def __getattr__(self, name):
        return getattr(self._out, name)


def _hook_csv(tracer: Tracer, bound):
    bound.arguments["out"] = _CountingWriter(bound.arguments["out"], tracer)


HOOKS = {
    "convolution.convolve": _hook_convolve,
    "expr.evaluate_many": _hook_evaluate_many,
    "weakdiff.pair": _hook_pair,
    "weakdiff.verify_weak_derivative": _hook_verify,
    "grid.write_grid_function_csv": _hook_csv,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sobolevkit" or name.startswith("sobolevkit.")]


def _substitute(modules, orig, wrapped) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)
            elif isinstance(value, tuple) and any(v is orig for v in value):
                setattr(module, attr, tuple(wrapped if v is orig else v for v in value))
            elif isinstance(value, (list, dict)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for key, v in list(items):
                    if v is orig:
                        value[key] = wrapped


def install(tracer: Tracer) -> None:
    """Replace every target, in every sobolevkit namespace that holds it, by its traced wrapper.

    ``cli``, ``weakdiff``, ``sobolev`` and ``acceptance`` import functions
    by name, so patching only the defining module would leave their copies
    untraced, and those spans would go missing without any error.

    ``acceptance.run_all`` tests ``fn in (criterion_flow, criterion_parser)``
    by identity, comparing ``CRITERIA`` entries with the module globals.
    Both must therefore hold the same wrapper object; on a mismatch those
    two criteria are called without their seed and raise ``TypeError``.
    One wrapper per function, substituted everywhere including in
    module-level tuples, lists and dicts, keeps them identical.
    """
    modules = _package_modules()
    targets = [(mod, fn, f"{mod}.{fn}") for mod, fn in TARGETS]
    targets += [("acceptance", fn, f"acceptance.{fn}") for fn in CRITERIA]
    for mod, fn, name in targets:
        module = sys.modules[f"sobolevkit.{mod}"]
        orig = getattr(module, fn)
        _substitute(modules, orig, tracer.wrap(name, orig, HOOKS.get(name)))


def main(argv: list[str]) -> int:
    plain = argv[:1] == ["--plain"]
    if plain:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        print("usage: tracer.py [--plain] -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    if not plain:
        install(tracer)
    cli = sys.modules["sobolevkit.cli"]
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv[1:])
    main_s = time.perf_counter() - start
    report = {"import_s": IMPORT_S, "main_s": main_s, "exit_code": code}
    if not plain:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    out = sys.stdout.buffer
    out.write(json.dumps(report).encode() + b"\n")
    out.write(captured.getvalue().encode())
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
