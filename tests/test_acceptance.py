"""End-to-end acceptance criteria, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test fails if its criterion misses the pinned tolerance.
"""

import itertools
import os

import numpy as np
import pytest

from sobolevkit import acceptance


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


def test_distributional_shadow():
    _check(acceptance.criterion_shadow)


def test_expression_parser():
    _check(acceptance.criterion_parser, _seed())


def _scalar_sources(seed: int, count: int):
    """The fuzz inputs as drawn one ``Generator.integers`` call at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        length = int(rng.integers(0, acceptance.FUZZ_LENGTHS))
        raw = bytes(rng.integers(0, 256, size=length, dtype=np.uint8).tolist())
        yield raw.decode("latin-1")


def _bulk_sources(seed: int, count: int, chunk_words: int = acceptance._FUZZ_CHUNK_WORDS):
    bitgen = np.random.default_rng(seed).bit_generator
    chunks = (bitgen.random_raw(chunk_words) for _ in itertools.count())
    return acceptance._fuzz_sources(chunks, count)


def _assert_same_strings(got, want, count):
    n = 0
    for n, (a, b) in enumerate(itertools.zip_longest(got, want), start=1):
        assert a == b, f"string {n - 1}: bulk {a!r} != scalar {b!r}"
    assert n == count


class TestFuzzSources:
    """The bulk fuzz inputs equal numpy's scalar ``Generator.integers`` draws."""

    def test_all_strings_of_default_seed(self):
        count = acceptance.FUZZ_COUNT
        seed = acceptance.DEFAULT_SEED
        _assert_same_strings(_bulk_sources(seed, count), _scalar_sources(seed, count), count)

    @pytest.mark.parametrize("seed", [1, 7, 1312006553])
    def test_first_strings_of_other_seeds(self, seed):
        # 20,000 strings take about 43,000 words: ten chunk refills
        count = 20_000
        _assert_same_strings(_bulk_sources(seed, count), _scalar_sources(seed, count), count)

    @pytest.mark.parametrize("chunk_words", [1, 3])
    def test_strings_spanning_chunks(self, chunk_words):
        count = 2_000
        _assert_same_strings(
            _bulk_sources(7, count, chunk_words), _scalar_sources(7, count), count
        )

    def test_rejected_length_draws_are_skipped(self):
        # uint32 draws, low half of each word first.  0 and 178956971 are
        # rejected: 0 * 24 and 178956971 * 24 = 2**32 + 8 leave low halves
        # 0 and 8, below 2**32 % 24 = 16.  894784854 * 24 = 5 * 2**32 + 16
        # is accepted at the threshold: length 5, read from the next two
        # draws as little-endian bytes.  1 * 24 has high half 0: length 0.
        draws = [0, 178956971, 894784854, 0x64636261, 0x65, 1]
        words = np.array(draws[0::2], dtype=np.uint64) | (
            np.array(draws[1::2], dtype=np.uint64) << np.uint64(32)
        )
        padding = itertools.repeat(np.full(4, 1, dtype=np.uint64))
        got = list(acceptance._fuzz_sources(itertools.chain([words], padding), 2))
        assert got == ["abcde", ""]
