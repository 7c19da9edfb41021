"""End-to-end acceptance criteria, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test fails if its criterion misses the pinned tolerance.
"""

import math
import os
import random

import pytest

from sobolevkit import acceptance, convolution
from sobolevkit.dynamics import exponential_flow


def _seed() -> int:
    return int(os.environ.get("SOBOLEVKIT_SEED", acceptance.DEFAULT_SEED))


def _check(fn, *args) -> acceptance.CriterionResult:
    result = fn(*args)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    return result


def test_mollifier_unit_properties():
    _check(acceptance.criterion_mollifier_unit)


def test_approximate_identity():
    _check(acceptance.criterion_approximate_identity)


class TestApproximateIdentityLoop:
    """Criterion 2 reads each function's three tables off one pass over the eps ladder."""

    @pytest.mark.parametrize("sample", [acceptance._sin, acceptance._kink, acceptance._smooth_bump])
    def test_tables_equal_convergence_study(self, sample):
        f = sample(2000)
        ps = (1.0, 2.0, math.inf)
        tables = convolution._convergence_tables(f, ps, acceptance.EPS_LADDER)
        assert len(tables) == len(ps)
        for p, table in zip(ps, tables):
            study = convolution.convergence_study(f, p, acceptance.EPS_LADDER)
            assert table.p == study.p
            assert table.rows == study.rows

    def test_twelve_convolutions(self, monkeypatch):
        calls = 0
        convolve = convolution.convolve

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return convolve(*args, **kwargs)

        monkeypatch.setattr(convolution, "convolve", counting)
        assert acceptance.criterion_approximate_identity().passed
        # three test functions times four rungs, shared by p = 1, 2 and inf
        assert calls == 3 * len(acceptance.EPS_LADDER) == 12


def test_affine_exactness():
    _check(acceptance.criterion_affine_exactness)


def test_commutation_residual():
    _check(acceptance.criterion_commutation)


def test_weak_derivative_verification():
    _check(acceptance.criterion_weak_verification)


def test_sobolev_norm_values():
    _check(acceptance.criterion_sobolev_norm)


def test_kernel_composition():
    _check(acceptance.criterion_compose)


def test_newton_chord():
    _check(acceptance.criterion_newton)


def test_invertibility_after_smoothing():
    _check(acceptance.criterion_invertibility)


def test_exponential_flow_group_law():
    _check(acceptance.criterion_flow, _seed())


@pytest.mark.parametrize("seed", [11, acceptance.DEFAULT_SEED])
def test_flow_sweep_reads_the_full_checks_residuals(seed):
    # the sweep runs only the group law, not the RK4 control; its worst residual
    # is the one the full flow check gives on the same draws
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        k, s, t = (rng.uniform(-1.0, 1.0) for _ in range(3))
        x0 = rng.uniform(-5.0, 5.0)
        worst = max(worst, exponential_flow(k, x0, s, t).residual)
    assert acceptance.criterion_flow(seed).detail.startswith(f"max group-law residual {worst:.3e} (tol 1e-12);")


def test_distributional_shadow():
    _check(acceptance.criterion_shadow)


def test_expression_parser():
    _check(acceptance.criterion_parser, _seed())


def _sources(seed: int, count: int) -> list:
    return [s for chunk in acceptance._fuzz_chunks(random.Random(seed), count) for s in chunk]


class TestFuzzContract:
    """The fuzz inputs: ``count`` seeded strings of 0..23 latin-1 bytes."""

    def test_default_seed_strings(self):
        sources = _sources(acceptance.DEFAULT_SEED, acceptance.FUZZ_COUNT)
        assert len(sources) == acceptance.FUZZ_COUNT
        assert {len(s) for s in sources} == set(range(acceptance.FUZZ_LENGTHS))
        # 100,000 strings hold about 1.15M bytes: every byte value occurs
        chars = set("".join(sources))
        assert len(chars) == 256 and max(chars) == "\xff"

    def test_lengths_exactly_uniform(self):
        # each length is the image of exactly 10 of the 240 byte values kept
        kept = [b for b in range(256) if b not in acceptance._REJECTED_BYTES]
        images = [acceptance._LENGTH_OF_BYTE[b] for b in kept]
        assert all(images.count(n) == 10 for n in range(acceptance.FUZZ_LENGTHS))
        assert len(kept) == 240
        # rejected bytes are redrawn, so a chunk has exactly its count of lengths
        lengths = acceptance._fuzz_lengths(random.Random(5), 10_000)
        assert len(lengths) == 10_000 and set(lengths) == set(range(acceptance.FUZZ_LENGTHS))

    def test_same_seed_same_strings(self):
        assert _sources(7, 10_000) == _sources(7, 10_000)
        assert _sources(7, 10_000) != _sources(8, 10_000)

    @pytest.mark.parametrize("count", [0, 1, 4095, 4097, 3 * 4096 + 17])
    def test_count_not_a_chunk_multiple(self, count):
        sources = _sources(1, count)
        assert len(sources) == count
        assert all(len(s) < acceptance.FUZZ_LENGTHS for s in sources)
        # full chunks, then the remainder
        sizes = [len(chunk) for chunk in acceptance._fuzz_chunks(random.Random(1), count)]
        full, rest = divmod(count, acceptance._FUZZ_CHUNK)
        assert sizes == [acceptance._FUZZ_CHUNK] * full + ([rest] if rest else [])


class TestParserCriterion:
    """Criterion 12 hands every fuzz string to the parser's non-raising core, past its argument checks."""

    def test_core_sees_each_fuzz_string_once_in_order(self, monkeypatch):
        seen = []
        core = acceptance._parse_core

        def counting(source, dim):
            seen.append((source, dim))
            return core(source, dim)

        monkeypatch.setattr(acceptance, "_parse_core", counting)
        result = acceptance.criterion_parser(acceptance.DEFAULT_SEED)
        assert result.passed
        sources = _sources(acceptance.DEFAULT_SEED, acceptance.FUZZ_COUNT)
        assert seen == [(source, 3) for source in sources]

    def test_escaping_exception_is_a_crash(self, monkeypatch):
        calls = 0
        core = acceptance._parse_core

        def crashing_once(source, dim):
            nonlocal calls
            calls += 1
            if calls == 12_345:
                raise RuntimeError("parser crashed")
            return core(source, dim)

        monkeypatch.setattr(acceptance, "_parse_core", crashing_once)
        result = acceptance.criterion_parser(acceptance.DEFAULT_SEED)
        assert not result.passed
        assert result.detail.endswith("fuzz crashes 1/100000")
