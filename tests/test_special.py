"""The numpy ports of expit, ndtr and ndtri against scipy.special."""

import statistics
import warnings

import numpy as np
import scipy.special

from casebound.rng import RngSpec
from casebound.special import expit, ndtr, ndtri


def _uniforms():
    return RngSpec(0).derive("special-uniforms").random(100_000)


def test_ndtri_matches_scipy():
    for u in (_uniforms(), np.array([2.0 ** -53, 1.0 - 2.0 ** -53, 0.5, 1e-300, 5e-324])):
        np.testing.assert_allclose(ndtri(u), scipy.special.ndtri(u), rtol=2e-15, atol=0)
    assert ndtri(0.5) == 0.0
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
    assert np.isnan(ndtri(np.array([-0.1, 1.5, np.nan]))).all()


def test_ndtri_is_as241():
    # the central branch is statistics.NormalDist.inv_cdf's arithmetic
    u = _uniforms()[:2000]
    central = u[abs(u - 0.5) <= 0.425]
    inv_cdf = statistics.NormalDist().inv_cdf
    assert [float(ndtri(v)) for v in central] == [inv_cdf(v) for v in central]


def test_ndtri_keeps_shape_and_returns_scalars_for_scalars():
    u = _uniforms()[:10].reshape(2, 5)
    assert ndtri(u).shape == (2, 5)
    assert np.array_equal(ndtri(u)[1], ndtri(u[1]))
    assert isinstance(ndtri(0.3), np.float64) and isinstance(ndtr(0.3), np.float64)


def test_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(-40.0, 40.0, 100_001),
                        RngSpec(1).derive("special-normals").standard_normal(100_000) * 3])
    np.testing.assert_allclose(ndtr(x), scipy.special.ndtr(x), rtol=0, atol=5e-16)
    assert np.array_equal(ndtr(np.array([-np.inf, np.inf])), [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(ndtr(np.nan))


def test_expit_matches_scipy_without_warnings():
    x = np.concatenate([np.linspace(-700.0, 700.0, 200_001),
                        RngSpec(2).derive("special-logits").standard_normal(100_000) * 5])
    np.testing.assert_allclose(expit(x), scipy.special.expit(x), rtol=1e-15, atol=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = expit(np.array([-1000.0, 1000.0]))
    assert 0.0 < far[0] < 1e-307 and far[1] == 1.0

