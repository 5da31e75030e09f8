"""Deterministic random-stream derivation.

Every stochastic routine in the package takes its randomness from a stream
derived as (master seed, purpose tag, replicate index).  Distinct purposes
and indices give statistically independent streams, and the same triple
always reproduces the same draws, so replicate loops can be reordered or
parallelized without changing results.

Normal and categorical draws go through the generator's raw uniforms and
fixed inverse-CDF transforms rather than distribution methods, keeping the
streams pinned to a documented algorithm: the normal quantile is Wichura's
AS241 (`special.ndtri`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  loaded with the package, not by the first derive

from .errors import ValidationError
from .special import ndtri

__all__ = ["RngSpec", "standard_normals", "bernoulli", "categorical", "resample_indices"]

_TINY = 2.0 ** -53


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the (purpose, index) -> stream derivation rule."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    def derive(self, purpose: str, index: int = 0) -> np.random.Generator:
        tag = zlib.crc32(purpose.encode("utf-8"))
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag, index))
        return np.random.Generator(np.random.PCG64(ss))


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
