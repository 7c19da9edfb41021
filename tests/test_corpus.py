"""Every invocation of ``tests/golden/corpus.json`` prints what it printed when the corpus was recorded.

On the recording platform the bytes must match; elsewhere the exit codes,
line counts and text must match and the numbers agree to 1e-12 (see
``tests/golden/corpus.py``).  The test id names the mode that ran.  A
change that means to alter the output regenerates the corpus with
``PYTHONPATH=src python tests/golden/corpus.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = str(Path(__file__).resolve().parent / "golden")
if GOLDEN not in sys.path:
    sys.path.insert(0, GOLDEN)

import corpus  # noqa: E402

STORED = json.loads(corpus.CORPUS.read_text())
MODE = "exact" if STORED["platform"] == corpus.platform_key() else "numeric"


def _problems(case: dict, code: int, streams: dict[str, str]) -> list[str]:
    problems = [] if code == case["exit"] else [f"exit code {code}, stored {case['exit']}"]
    if set(streams) != set(case["streams"]):
        return problems + [f"streams {sorted(streams)}, stored {sorted(case['streams'])}"]
    for name, text in streams.items():
        stored = case["streams"][name]
        drift = corpus.numeric_problem(stored, text)
        if MODE == "exact" and hashlib.sha256(text.encode()).hexdigest() != stored["sha256"]:
            problems.append(f"{name}: bytes differ" + (f"; {drift}" if drift else ""))
        elif drift:
            problems.append(f"{name}: {drift}")
    return problems


@pytest.mark.parametrize("mode", [MODE])
def test_corpus_output_is_unchanged(tmp_path, mode):
    print(f"corpus mode: {mode} (recorded on {STORED['platform']}, running on {corpus.platform_key()})")
    failures = []
    for case in STORED["cases"]:
        code, streams = corpus.run(case, tmp_path)
        failures += [f"{' '.join(case['argv'])[:120]}: {p}" for p in _problems(case, code, streams)]
    assert not failures, "\n".join(failures)


def test_corpus_covers_the_generated_cases():
    # the stored invocations are the ones corpus.py builds, in its order
    assert [c["argv"] for c in STORED["cases"]] == [c["argv"] for c in corpus.cases()]


def test_numeric_mode_allows_rounding_and_nothing_else():
    stored = corpus.summarize("eps,error\n0.2,2.5e-3\n")
    assert corpus.numeric_problem(stored, "eps,error\n0.2,2.5000000000001e-3\n") is None
    assert corpus.numeric_problem(stored, "eps,error\n0.2,2.6e-3\n") is not None
    assert corpus.numeric_problem(stored, "eps,err\n0.2,2.5e-3\n") is not None
    assert corpus.numeric_problem(stored, "eps,error\n0.2,2.5e-3\n0.1,1e-3\n") is not None
