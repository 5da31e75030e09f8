"""Invariances of the estimand, tested as properties of the estimators.

(b) Relabelling the treatment, t -> 1 - t, negates beta(y) and leaves its
se unchanged.  (c) Doubling every row leaves beta(y) and the AR point
curve unchanged and divides each se by sqrt(2).  Both hold for the linear,
quadratic and cubic-spline bases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casebound.attributable_risk import ar_curve
from casebound.basis import BasisSpec, CubicSplineTerm, Linear, Polynomial
from casebound.model import Design, ObservedDataset
from casebound.relative_risk import (
    estimate_beta_combined,
    estimate_beta_plugin,
    fit_nuisances,
)
from casebound.rng import RngSpec, bernoulli
from casebound.special import expit

# the tolerance of every property, relative to max(1, |value|).  It sits
# above rounding: permuting the rows alone moves a spline3 se by up to
# 1e-10 of itself (the full cubic B-spline design is ill-conditioned)
REL_TOL = 1e-10

TERMS = {"linear": Linear(), "poly2": Polynomial(2), "spline3": CubicSplineTerm(3)}
ESTIMATORS = (estimate_beta_combined, estimate_beta_plugin)


def case_control_draw(seed: int, n_per_stratum: int, k: int) -> ObservedDataset:
    """k normal covariates shifted by 0.5 among cases, and T logistic in
    their sum and Y with moderate slopes, so no fit comes near separation."""
    gen = RngSpec(seed).derive("invariance")
    y = np.repeat([0, 1], n_per_stratum)
    x = gen.normal(size=(y.shape[0], k)) + 0.5 * y[:, None]
    t = bernoulli(gen, expit(0.3 * x.sum(axis=1) + 0.4 * y - 0.2))
    return ObservedDataset(y=y, t=t, x=x, design=Design.CASE_CONTROL)


def rows_of(data: ObservedDataset, idx: np.ndarray, t=None) -> ObservedDataset:
    return ObservedDataset(y=data.y[idx], t=data.t[idx] if t is None else t[idx],
                           x=data.x[idx], design=data.design)


def doubled(data: ObservedDataset) -> ObservedDataset:
    return rows_of(data, np.repeat(np.arange(data.n), 2))


def spec_for(data: ObservedDataset, term: str) -> BasisSpec:
    return BasisSpec((TERMS[term],) * data.n_covariates)


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want))), (got, want)


# Spline knots are basis._linear_quantiles' (np.quantile's linear
# interpolation) at 1/4, 1/2 and 3/4, which equal those of the doubled rows
# only when n/4 is an integer; the totals drawn here (1000, 1200, 2000) are
# multiples of 4.
SEEDS = st.integers(0, 2 ** 32 - 1)
SAMPLES = st.builds(case_control_draw, SEEDS, st.sampled_from([600, 1000]), st.integers(1, 2))


@settings(max_examples=20, deadline=None)
@given(SAMPLES, st.sampled_from(sorted(TERMS)))
def test_relabelling_the_treatment_negates_beta(data, term):
    spec = spec_for(data, term)
    nuis = fit_nuisances(data, spec)
    relabelled = fit_nuisances(rows_of(data, np.arange(data.n), t=1 - data.t), spec)
    for y in (0, 1):
        for estimate in ESTIMATORS:
            want, got = estimate(nuis, y), estimate(relabelled, y)
            assert_close(-got.value, want.value)
            assert_close(got.se, want.se)


@settings(max_examples=20, deadline=None)
@given(SAMPLES, st.sampled_from(sorted(TERMS)))
def test_doubling_the_rows_keeps_estimates_and_halves_variances(data, term):
    spec = spec_for(data, term)
    nuis, twice = fit_nuisances(data, spec), fit_nuisances(doubled(data), spec)
    for y in (0, 1):
        for estimate in ESTIMATORS:
            want, got = estimate(nuis, y), estimate(twice, y)
            assert_close(got.value, want.value)
            assert_close(got.se * np.sqrt(2.0), want.se)


@settings(max_examples=4, deadline=None)
@given(st.builds(case_control_draw, SEEDS, st.just(500), st.integers(1, 2)),
       st.sampled_from(sorted(TERMS)))
def test_doubling_the_rows_keeps_the_ar_point_curve(data, term):
    # the doubled sample is the same pattern table with doubled counts
    pspec = BasisSpec.linear(data.n_covariates)
    kwargs = dict(pbar=0.6, B=200, seed=1, step=0.1)
    curve, _ = ar_curve(data, pspec, spec_for(data, term), **kwargs)
    twice, _ = ar_curve(doubled(data), pspec, spec_for(data, term), **kwargs)
    assert_close(twice.point, curve.point)
