"""The benchmark's output oracles accept what the program prints on toy-size workloads.

``perfbench/workloads.py`` recomputes each workload's expected output
with numpy alone.  These are the toy cases of ``perfbench/smoke.py``,
run through ``cli.main`` in this process, so a change to the numbers
the program prints fails here and not first in a benchmark run.
``workloads`` imports ``lattice`` as a top-level module, so
``perfbench/`` goes on ``sys.path``.
"""

import sys
from pathlib import Path

import pytest

from sobolevkit.cli import main

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

# toy name -> (workload whose oracle checks it, case); the count-48 pairing
# toy holds the benchmark's repeated catalog entries
TOYS = {
    "smooth-3d": ("smooth-3d", workloads.smooth_case("0.4567", res=16, eps=(0.25, 0.1875))),
    "sample-write-2d": (
        "sample-write-2d",
        workloads.sample_case("0.4321", "1.2345", 7, res=40, eps=0.1, samples=41 * 41),
    ),
    "pairing-2d": ("pairing-2d", workloads.pairing_case("3.1", "0.5", res=100, count=8)),
    "pairing-2d-count48": ("pairing-2d", workloads.pairing_case("3.1", "0.5", res=100, count=48)),
}


@pytest.mark.parametrize("name", sorted(TOYS))
def test_oracle_accepts_toy_run(capsys, name):
    workload, case = TOYS[name]
    code = main(list(case.argv))
    out = capsys.readouterr().out.encode()
    assert workloads.WORKLOADS[workload].check(case, out, code) == []
