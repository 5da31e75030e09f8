"""Deterministic random-stream derivation.

Every stochastic routine in the package takes its randomness from a stream
derived as (master seed, purpose tag, replicate index).  Distinct purposes
and indices give statistically independent streams, and the same triple
always reproduces the same draws, so replicate loops can be reordered or
parallelized without changing results.

The rule: stream (purpose, i) is numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(purpose), i))))``
for a stream index i in 0..2**32-1.  `RngSpec.streams` derives a range of
indices in one pass, and `RngSpec.derive` is its range of one.  The index
is the last word SeedSequence mixes into its pool, so numpy's own
SeedSequence supplies the pool of (seed, crc32(purpose)); the index word's
four mixing steps and the eight-word `generate_state` that seeds PCG64 then
run as uint32 array operations over the range, with numpy's SeedSequence
constants, and each generator is built from its four seed words only when
the iterator reaches it.  The one-word index mixing is why an index must
fit in 32 bits.  Per stream, a range costs about a tenth of numpy's own
derivation and a lone `derive` about five times it (some 90 microseconds
on a 2-core x86 VM), so replicate loops open one `streams` range per run
and `derive` serves single draws.

Normal and categorical draws go through the generator's raw uniforms and
fixed inverse-CDF transforms rather than distribution methods, keeping the
streams pinned to a documented algorithm: the normal quantile is Wichura's
AS241 (`special.ndtri`).
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError
from .special import ndtri

__all__ = ["RngSpec", "standard_normals", "bernoulli", "categorical", "resample_indices"]

_TINY = 2.0 ** -53
N_INDICES = 2 ** 32  # stream indices are 0..N_INDICES-1

# numpy's SeedSequence constants: its hash multipliers and initial
# constants, the mixing multipliers and the pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the (purpose, index) -> stream derivation rule."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    def derive(self, purpose: str, index: int = 0) -> np.random.Generator:
        """The stream (purpose, index): `streams` over the range of one."""
        return next(self.streams(purpose, index, index + 1))

    def streams(self, purpose: str, start: int, stop: int) -> Iterator[np.random.Generator]:
        """The streams (purpose, i) for i = start..stop-1, in order.

        The seed words of the whole range are computed at the call, and an
        index outside 0..2**32-1 is refused then; each generator is built
        when the iterator reaches it.
        """
        start, stop = operator.index(start), operator.index(stop)
        if not 0 <= start <= stop <= N_INDICES:
            raise ValidationError(f"stream indices must lie in 0..{N_INDICES - 1}, "
                                  f"got range({start}, {stop})")
        tag = zlib.crc32(purpose.encode("utf-8"))
        # the pool after every entropy word but the index, which comes last:
        # the seed's 32-bit words padded to the pool size, then the tag
        pool = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,)).pool
        seed_words = max(_POOL_SIZE, -(-int(self.seed).bit_length() // 32))
        # hash steps taken before the index word: one per pool word to fill
        # the pool, one per ordered pair of pool words to mix it, and one
        # per pool word for each further entropy word
        steps = _POOL_SIZE ** 2 + _POOL_SIZE * (seed_words + 1 - _POOL_SIZE)
        const = _INIT_A * pow(_MULT_A, steps, _MASK32 + 1) & _MASK32
        index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
        mixer = []
        for word in pool:
            value, const = _hash(index, const, _MULT_A)
            mixed = (np.uint32(int(word) * _MIX_MULT_L & _MASK32)
                     - value * np.uint32(_MIX_MULT_R))
            mixer.append(mixed ^ (mixed >> np.uint32(16)))
        # generate_state(4, uint64): eight words cycling over the pool, read
        # as little-endian pairs
        state = np.empty((index.size, 2 * _POOL_SIZE), dtype=np.uint32)
        const = _INIT_B
        for i in range(2 * _POOL_SIZE):
            state[:, i], const = _hash(mixer[i % _POOL_SIZE], const, _MULT_B)
        words = state.astype("<u4").view("<u8").astype(np.uint64)
        return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words)


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on an array of words under the constant
    `const`: the hashed words, and the constant of the next step."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


class _SeedWords(ISeedSequence):
    """One stream's four PCG64 seed words, as the seed sequence PCG64 reads."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream's seed sequence holds four uint64 words only")
        return self.words


def standard_normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals by inverse CDF of the generator's uniforms."""
    # the uniforms are multiples of 2**-53, so the floor lifts only zeros
    return ndtri(np.maximum(gen.random(shape), _TINY))


def bernoulli(gen: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    """One Bernoulli draw per entry of prob."""
    return (gen.random(np.shape(prob)) < prob).astype(np.int8)


def categorical(gen: np.random.Generator, pmf: np.ndarray, n: int) -> np.ndarray:
    """n draws from a finite pmf by inverse CDF on uniforms."""
    cdf = np.cumsum(np.asarray(pmf, dtype=float))
    cdf = cdf / cdf[-1]
    return np.searchsorted(cdf, gen.random(n), side="right").astype(np.intp)


def resample_indices(gen: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. uniform indices over 0..n-1."""
    return np.minimum((gen.random(n) * n).astype(np.intp), n - 1)
