"""The buffered type kernel against the allocating one it replaced (reference_types.py).

The blocks of compositions, the MI and Blahut-Arimoto must be the same
bits, compared with ``==``; Hypothesis draws pmfs and weights with exact
zeros, 1-5 outputs, the antenna count and the block width.  One MI call
on the 4-level ADC must also stay within a fixed memory peak.
"""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fishercap as fc
import reference_types as ref
from fishercap import mutual_info
from fishercap.errors import ConvergenceError

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
MAX_TYPES = 20000  # keeps each example to milliseconds
chunks = st.one_of(st.integers(1, 300), st.just(mutual_info._BLOCK_TYPES))


def _prob_vector(size):
    # exact zeros are common, so the _LOG_ZERO paths run
    return st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.3, 1.0]) | st.floats(0.0, 1.0),
                    min_size=size, max_size=size).filter(
        lambda v: sum(v) > 0.1).map(lambda v: np.asarray(v) / sum(v))


@st.composite
def pmf_and_weights(draw):
    m = draw(st.integers(1, 5))
    parts = draw(st.integers(1, 5))
    pmf = np.array([draw(_prob_vector(parts)) for _ in range(m)])
    return pmf, draw(_prob_vector(m))


def _types(n, parts):
    return math.comb(n + parts - 1, parts - 1)


@SETTINGS
@given(n=st.integers(0, 200), parts=st.integers(1, 5), chunk=chunks)
def test_blocks_are_the_gathered_blocks(n, parts, chunk):
    assume(_types(n, parts) <= MAX_TYPES)
    want = ref.composition_chunks(n, parts, chunk)
    for got in mutual_info._composition_chunks(n, parts, chunk):
        expected = next(want)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
    assert next(want, None) is None


@pytest.mark.parametrize("n, parts", [(1000, 2), (150, 3), (100, 4), (40, 5)])
def test_request_sized_blocks_are_the_gathered_blocks(n, parts):
    # parts = 2 gathers every block, parts = 3 its first ones, parts = 4 and 5 copy slices
    blocks = mutual_info._composition_chunks(n, parts, mutual_info._BLOCK_TYPES)
    for got, expected in zip(blocks, ref.composition_chunks(n, parts, mutual_info._BLOCK_TYPES),
                             strict=True):
        assert got.shape == expected.shape and np.array_equal(got, expected)


@SETTINGS
@given(case=pmf_and_weights(), n_r=st.integers(1, 60), chunk=chunks)
def test_mi_is_the_block_formula_bit_for_bit(case, n_r, chunk):
    pmf, w = case
    assume(_types(n_r, pmf.shape[1]) <= MAX_TYPES)
    want = ref.mi_bits(mutual_info._log_pmf_matrix(pmf), w, n_r, chunk)
    with mock.patch.object(mutual_info, "_BLOCK_TYPES", chunk):
        assert fc.mi_from_pmf_matrix(pmf, w, n_r) == want


def test_one_bit_request_is_the_block_formula_bit_for_bit():
    # the benchmark's 1-bit request: 1,001 types in one gathered block
    pmf = fc.quantized_awgn_channel(2.0, [0.0]).output_pmf(np.linspace(-2.0, 2.0, 8))
    w = np.full(8, 1.0 / 8)
    want = ref.mi_bits(mutual_info._log_pmf_matrix(pmf), w, 1000, mutual_info._BLOCK_TYPES)
    assert fc.mi_from_pmf_matrix(pmf, w, 1000) == want


@settings(SETTINGS, max_examples=25)
@given(case=pmf_and_weights(), n_r=st.integers(1, 12), chunk=chunks)
def test_ba_is_the_block_formula_bit_for_bit(case, n_r, chunk):
    pmf, _ = case
    assume(_types(n_r, pmf.shape[1]) <= MAX_TYPES)
    table = SimpleNamespace(kind="table", output_pmf=lambda points: pmf)
    points = np.arange(pmf.shape[0], dtype=float)
    try:
        want = ref.blahut_arimoto(mutual_info._log_pmf_matrix(pmf), n_r, 1e-6, chunk)
    except ConvergenceError:
        want = None
    with mock.patch.object(mutual_info, "_BLOCK_TYPES", chunk), \
            mock.patch.object(mutual_info, "_BA_TOL_BITS", 1e-6):
        if want is None:
            with pytest.raises(ConvergenceError):
                fc.blahut_arimoto(table, points, n_r)
            return
        dist, bits, info = fc.blahut_arimoto(table, points, n_r, full_output=True)
    weights, want_bits, gaps = want
    assert bits == want_bits
    assert dist.probs.tobytes() == weights.tobytes()
    assert info["gaps_bits"] == gaps


def test_mi_memory_peak():
    # two (M x 4096) block buffers; the allocating kernel peaked at 3.6 MB here
    pmf = fc.quantized_awgn_channel(3.0, [-1.0, 0.0, 1.0]).output_pmf(np.linspace(-3.0, 3.0, 16))
    w = np.full(16, 1.0 / 16)
    fc.mi_from_pmf_matrix(pmf, w, 100)  # anything built on first use is built now
    tracemalloc.start()
    try:
        fc.mi_from_pmf_matrix(pmf, w, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
