"""The README's "Library tour" runs as printed.

The ```` ```python ```` block under that heading is extracted and run in a
child process with warnings as errors, so an API change that breaks the
tour, or makes it warn, fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import sobolevkit

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    section = README.read_text().split("## Library tour", 1)[1]
    match = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert match, "no python block right under the Library tour heading"
    return match.group(1)


def test_library_tour_runs():
    src = str(Path(sobolevkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _library_tour()],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # sign(x - 1/2) verifies as the weak derivative of |x - 1/2|
    assert any(line.startswith("True ") for line in proc.stdout.splitlines()), proc.stdout
