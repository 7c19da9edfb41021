"""The benchmark's traced run hooks package functions by name; keep those names.

``perfbench/tracer.py`` wraps every ``TARGETS`` entry and every suite
criterion of ``perfbench/layers.py`` by module and name, and its hooks
read some call arguments by name.  A rename in the package would
otherwise only show up as a crash or a missing span in a traced run.
``layers.py`` does not import sobolevkit, so it is loaded here by path.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sobolevkit.mollifier import standard_bump

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

# argument names the tracer's hooks read from each call
HOOKED_ARGUMENTS = {
    ("convolution", "convolve"): ("f", "m", "zero_extend"),
    ("expr", "evaluate_many"): ("node", "points"),
    ("weakdiff", "pair"): ("f",),
    ("weakdiff", "verify_weak_derivative"): ("f", "tests"),
    ("grid", "write_grid_function_csv"): ("out",),
}


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"sobolevkit.{module}"), name, None)


@pytest.mark.parametrize("module,name", layers.TARGETS)
def test_target_resolves(module, name):
    assert callable(_resolve(module, name))


@pytest.mark.parametrize("name", layers.CRITERIA)
def test_criterion_resolves(name):
    assert callable(_resolve("acceptance", name))


@pytest.mark.parametrize("target", sorted(HOOKED_ARGUMENTS))
def test_hooked_arguments(target):
    assert target in layers.TARGETS
    parameters = inspect.signature(_resolve(*target)).parameters
    for argument in HOOKED_ARGUMENTS[target]:
        assert argument in parameters, f"{'.'.join(target)} lost its argument {argument!r}"


def test_kernel_exposes_eps():
    # the convolve hook reads the kernel radius as ``m.eps``
    assert standard_bump(1, 0.1).eps == 0.1


@pytest.mark.parametrize("name", ["Num", "Var", "Neg", "BinOp", "Call"])
def test_ast_nodes_stay_dataclasses(name):
    # tracer.ast_size counts a node per dataclass and walks its children
    # through dataclasses.fields; it walks a tuple as a list of children, so
    # a node turned into a named tuple would drop out of expr.node_visits
    assert dataclasses.is_dataclass(_resolve("expr", name))
