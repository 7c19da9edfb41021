"""The package asks OpenBLAS for one thread, because it makes no BLAS call.

Importing ``sobolevkit`` sets ``OPENBLAS_NUM_THREADS=1`` unless the
variable is already set, so numpy's OpenBLAS starts no idle worker pool.
That default rests on one premise, guarded here: no module calls BLAS or
LAPACK.  A later change that adds such a call fails the guard and has to
revisit the default.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobolevkit

PACKAGE = Path(sobolevkit.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# numpy entry points that reach BLAS or LAPACK
BLAS_ATTRIBUTES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
BLAS_MODULES = {"linalg", "polynomial"}


def blas_uses(tree: ast.AST) -> list[str]:
    """Each ``@``, BLAS-backed attribute and ``linalg``/``polynomial`` reference in ``tree``, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES | BLAS_MODULES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_MODULES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(BLAS_MODULES & set(name.split(".")) for name in names):
                found.append(f"{node.lineno}: import {', '.join(filter(None, names))}")
    return found


def _env(**overrides):
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(overrides)
    return env


def _python(code, **overrides):
    return subprocess.run(
        [sys.executable, "-c", code], env=_env(**overrides), capture_output=True, text=True, timeout=60, check=True
    ).stdout


class TestNoBlasCalls:
    def test_sources_found(self):
        assert {"__init__.py", "convolution.py", "grid.py"} <= {p.name for p in SOURCES}

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_module_makes_no_blas_call(self, path):
        assert blas_uses(ast.parse(path.read_text(), str(path))) == []

    @pytest.mark.parametrize(
        "source",
        [
            "c = a @ b",
            "c @= b",
            "np.dot(a, b)",
            "a.dot(b)",
            "np.einsum('ij,jk', a, b)",
            "np.inner(a, b)",
            "np.linalg.norm(a)",
            "from numpy import linalg",
            "import numpy.polynomial",
            "from numpy.polynomial.legendre import leggauss",
        ],
    )
    def test_guard_sees_each_form(self, source):
        assert len(blas_uses(ast.parse(source))) == 1


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="counts threads in /proc/self/task")
class TestOneThread:
    COUNT = "import os, sobolevkit\nprint(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"

    def test_import_starts_no_worker_threads(self):
        assert _python(self.COUNT).split() == ["1", "1"]

    def test_a_set_value_is_left_alone(self):
        assert _python(self.COUNT, OPENBLAS_NUM_THREADS="2").split()[1] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ["mollify", "--res", "20", "--eps", "0.2", "--f", "sin(3*x1)"],
        ["converge", "--res", "40", "--eps", "0.2,0.1", "--f", "abs(x1-0.5)"],
        ["sobolev", "--res", "20", "--k", "1", "--f", "x1^2", "--deriv", "1=2*x1"],
        ["suite", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_does_not_depend_on_blas_threads(argv):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "sobolevkit.cli", *argv], env=_env(**threads), capture_output=True, timeout=60
        )
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"})
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)
