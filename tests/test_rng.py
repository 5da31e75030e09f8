"""`RngSpec.streams` derives a range of streams in one pass; each stream
must be the one numpy derives on its own for (seed, crc32(purpose), i)."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casebound.errors import ValidationError
from casebound.rng import N_INDICES, RngSpec

EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128 + 1]


def numpy_stream(seed, purpose, index):
    tag = zlib.crc32(purpose.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return np.random.Generator(np.random.PCG64(seq))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(64).tobytes() == want.random(64).tobytes()


@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2 ** 200),
       purpose=st.sampled_from(["", "ar-bootstrap", "é∂ 名前"]) | st.text(max_size=12),
       start=st.integers(0, N_INDICES), length=st.integers(0, 5))
@example(seed=0, purpose="", start=N_INDICES - 1, length=1)
@example(seed=2 ** 128 + 1, purpose="pop-général", start=N_INDICES - 3, length=3)
@example(seed=2 ** 32, purpose="mc-replicate", start=7, length=0)
@settings(max_examples=150, deadline=None)
def test_streams_are_numpys_streams(seed, purpose, start, length):
    stop = min(N_INDICES, start + length)
    got = list(RngSpec(seed).streams(purpose, start, stop))
    assert len(got) == stop - start
    for index, gen in zip(range(start, stop), got):
        assert_same_stream(gen, numpy_stream(seed, purpose, index))


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127,
                                  2 ** 128, 2 ** 200 + 3],
                         ids=["0", "1", "7", "2^32-1", "2^32", "2^64+5", "2^127", "2^128",
                              "2^200+3"])
@pytest.mark.parametrize("purpose", ["", "ar-bootstrap", "é€"],
                         ids=["empty", "ascii", "non-ascii"])
def test_derive_is_a_stream_of_one(seed, purpose):
    for index in (*range(50), 2 ** 31, N_INDICES - 1):
        assert_same_stream(RngSpec(seed).derive(purpose, index),
                           numpy_stream(seed, purpose, index))


def test_a_numpy_integer_seed_derives_its_value():
    want = RngSpec(2 ** 40 + 3).streams("x", 0, 4)
    for got, gen in zip(RngSpec(np.uint64(2 ** 40 + 3)).streams("x", 0, 4), want):
        assert_same_stream(got, gen)


@pytest.mark.parametrize("start, stop", [(-1, 0), (N_INDICES, N_INDICES + 1), (3, 2),
                                         (-5, 3), (0, N_INDICES + 1)])
def test_an_index_outside_32_bits_is_refused_at_the_call(start, stop):
    with pytest.raises(ValidationError, match=r"stream indices must lie in 0\.\.4294967295"):
        RngSpec(0).streams("x", start, stop)


@pytest.mark.parametrize("index", [-1, N_INDICES, 2 ** 64])
def test_derive_refuses_an_index_outside_32_bits(index):
    with pytest.raises(ValidationError, match="stream indices must lie in"):
        RngSpec(0).derive("x", index)


def test_a_stream_seeds_pcg64_only():
    # the seed sequence a stream carries holds PCG64's four words and
    # serves no other request
    seq = RngSpec(3).derive("x").bit_generator.seed_seq
    with pytest.raises(ValueError, match="four uint64 words"):
        seq.generate_state(8)
