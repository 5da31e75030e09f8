import dataclasses
import math

import numpy as np
import pytest

import casebound.relative_risk as rr_mod
from casebound.basis import BasisSpec, CubicSplineTerm, Linear
from casebound.errors import NuisanceProbabilityOutOfRange, ValidationError
from casebound.fixtures import count_table, mc_defaults
from casebound.model import Design, ObservedDataset
from casebound.relative_risk import (
    CLIP,
    clip_probabilities,
    estimate_beta_combined,
    estimate_beta_plugin,
    estimate_kappa,
    fit_nuisances,
    p_grid,
    rr_band,
)
from casebound.rng import RngSpec, bernoulli
from casebound.synthetic import MCDesign, draw_mc_sample, parametric_spec, sieve_spec

D1, D2 = Design.CASE_CONTROL, Design.CASE_POPULATION


def test_intercept_only_combined_equals_table_log_odds_ratio():
    table = count_table("top_income_case_control")
    data = table.to_dataset(D1)
    nuis = fit_nuisances(data, BasisSpec.empty())
    est = estimate_beta_combined(nuis, 1)
    exact = math.log(table.n11 * table.n00 / (table.n01 * table.n10))
    assert est.value == pytest.approx(exact, abs=1e-9)
    assert est.value == pytest.approx(0.783, abs=5e-4)
    # identical for both strata when there are no covariates
    est0 = estimate_beta_combined(nuis, 0)
    assert est0.value == pytest.approx(est.value, abs=1e-9)


def test_plugin_matches_combined_parametric_and_sieve(interacted_fit):
    design = mc_defaults()
    rng = RngSpec(101)
    for r in range(5):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        for spec in (parametric_spec(design), sieve_spec(design)):
            for y in (0, 1):
                inter = interacted_fit(data, spec, y)
                nuis = fit_nuisances(data, spec)
                comb = estimate_beta_combined(nuis, y)
                plug = estimate_beta_plugin(nuis, y)
                assert abs(inter.coef[1] - plug.value) < 1e-6
                assert comb.value == plug.value
                assert abs(inter.cov[1, 1] - comb.se ** 2) <= 1e-10
                assert comb.method == "combined" and plug.method == "plugin"


def test_plugin_matches_combined_with_spline_basis(interacted_fit):
    gen = RngSpec(102).derive("spline-data")
    n = 1200
    income = np.exp(0.5 * gen.standard_normal(n))
    flag = bernoulli(gen, np.full(n, 0.6)).astype(float)
    y = bernoulli(gen, np.full(n, 0.35))
    eta = 0.3 * y - 0.2 + 0.4 * np.log(income) + 0.3 * flag
    t = bernoulli(gen, 1 / (1 + np.exp(-eta)))
    data = ObservedDataset(y=y, t=t, x=np.column_stack([income, flag]), design=D1)
    spec = BasisSpec(terms=(CubicSplineTerm(3), Linear()))
    for ystr in (0, 1):
        inter = interacted_fit(data, spec, ystr)
        nuis = fit_nuisances(data, spec)
        comb = estimate_beta_combined(nuis, ystr)
        plug = estimate_beta_plugin(nuis, ystr)
        assert abs(inter.coef[1] - plug.value) < 1e-6
        assert abs(inter.cov[1, 1] - comb.se ** 2) <= 1e-10


def test_one_class_stratum_raises():
    # no treated controls: the interacted fit used to stop at |coef| ~ 19
    # and report beta ~ 19 with se ~ 1000; a stratum fit refuses the data
    gen = RngSpec(111).derive("one-class")
    y = np.repeat([1, 0], 200)
    t = np.concatenate([bernoulli(gen, np.full(200, 0.5)), np.zeros(200, dtype=int)])
    data = ObservedDataset(y=y, t=t, x=gen.standard_normal((400, 1)), design=D1)
    for estimate in (estimate_beta_combined, estimate_beta_plugin):
        for ystr in (0, 1):
            with pytest.raises(ValidationError, match="both response classes"):
                estimate(fit_nuisances(data, BasisSpec.linear(1)), ystr)


def test_estimates_invariant_to_row_order():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(112).derive("mc-replicate", 0))
    perm = RngSpec(112).derive("permutation").permutation(data.n)
    shuffled = ObservedDataset(y=data.y[perm], t=data.t[perm], x=data.x[perm],
                               design=data.design)
    for spec in (parametric_spec(design), sieve_spec(design)):
        nuis, nuis_shuffled = fit_nuisances(data, spec), fit_nuisances(shuffled, spec)
        for y in (0, 1):
            for estimate in (estimate_beta_combined, estimate_beta_plugin):
                a, b = estimate(nuis, y), estimate(nuis_shuffled, y)
                assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
                assert abs(a.se - b.se) <= 1e-12 * max(1.0, a.se)
            a, b = estimate_kappa(nuis, y), estimate_kappa(nuis_shuffled, y)
            assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_null_data_estimates_center_at_zero():
    gen_master = RngSpec(103)
    hits = 0
    for s in range(30):
        gen = gen_master.derive("null", s)
        n = 1200
        y = bernoulli(gen, np.full(n, 0.5))
        x = gen.standard_normal((n, 2))
        t = bernoulli(gen, np.full(n, 0.4))  # independent of (y, x)
        from casebound.model import ObservedDataset
        data = ObservedDataset(y=y, t=t, x=x, design=D1)
        est = estimate_beta_combined(fit_nuisances(data, BasisSpec.linear(2)), 1)
        if abs(est.value) <= 3.0 * est.se:
            hits += 1
    assert hits >= 28


def test_plugin_se_sane():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(105).derive("mc-replicate", 1))
    est = estimate_beta_plugin(fit_nuisances(data, parametric_spec(design)), 1)
    assert 0.05 < est.se < 1.0


def test_plugin_se_without_covariates_is_woolf():
    table = count_table("top_income_case_control")
    woolf = math.sqrt(1 / table.n11 + 1 / table.n10 + 1 / table.n01 + 1 / table.n00)
    for y in (0, 1):
        est = estimate_beta_plugin(fit_nuisances(table.to_dataset(D1), BasisSpec.empty()), y)
        assert est.se == pytest.approx(woolf, rel=1e-9)


def test_plugin_value_and_se_invariant_to_supplied_h0():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(110).derive("mc-replicate", 0))
    spec = parametric_spec(design)
    for y in (0, 1):
        ests = [estimate_beta_plugin(fit_nuisances(
                    ObservedDataset(y=data.y, t=data.t, x=data.x,
                                    design=data.design, h0=h0), spec), y)
                for h0 in (0.3, 0.7)]
        assert abs(ests[0].value - ests[1].value) <= 1e-12
        assert abs(ests[0].se - ests[1].se) <= 1e-12


def test_fit_nuisances_rejects_bad_probabilities(monkeypatch):
    # a stratum-1 fit whose coefficients are NaN gives NaN Pi(1|1,x)
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(106).derive("mc-replicate", 2))
    spec = parametric_spec(design)
    real = rr_mod.fit_logit
    calls = {"n": 0}

    def nan_second_fit(*args, **kwargs):
        fit = real(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 2:
            return dataclasses.replace(fit, coef=np.full_like(fit.coef, np.nan))
        return fit

    monkeypatch.setattr(rr_mod, "fit_logit", nan_second_fit)
    with pytest.raises(NuisanceProbabilityOutOfRange, match="Pi\\(1\\|1,x\\)"):
        fit_nuisances(data, spec, spec)


def test_clip_probabilities_over_replicates_matches_each_row():
    p = np.array([[0.0, 1e-7, 0.5, 1.0], [0.3, np.nan, 1.5, 1.0 - 1e-9]])
    counts = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    clipped, in_range, n_moved = clip_probabilities(p, counts)
    for i in range(2):
        row = clip_probabilities(p[i], counts[i])
        assert np.array_equal(row[0], clipped[i], equal_nan=True)
        assert np.array_equal(row[1], in_range[i]) and row[2] == n_moved[i]
    assert clipped[0].tolist() == [CLIP, CLIP, 0.5, 1.0 - CLIP]
    assert in_range.tolist() == [[True] * 4, [True, False, False, True]]
    assert n_moved.tolist() == [1 + 2 + 4, 6 + 7 + 8]
    assert clip_probabilities(p[0], None)[2] == 3


def homogeneous_or_design() -> MCDesign:
    # same slope vector in both strata: the odds ratio is exp(0.5) everywhere
    return MCDesign(alpha1_case=(1.0, 1.0, 0.0, 0.0, 0.0),
                    alpha1_control=(1.0, 1.0, 0.0, 0.0, 0.0))


def test_kappa_no_covariates_equals_table_odds_ratio():
    table = count_table("university_private_school")
    data = table.to_dataset(D1)
    kappa = estimate_kappa(fit_nuisances(data, BasisSpec.empty()), 1)
    exact = table.n11 * table.n00 / (table.n01 * table.n10)
    assert kappa == pytest.approx(exact, abs=1e-9)


def test_kappa_is_mean_exp_of_linear_predictor_gap():
    # kappa(y) averages exp of the same gap X~'(b1 - b0) whose mean is beta(y),
    # with no round trip through the fitted probabilities
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(20240501).derive("mc-replicate", 0))
    for spec in (parametric_spec(design), sieve_spec(design)):
        nuis = fit_nuisances(data, spec)
        for y in (0, 1):
            lor = rr_mod._read_out(nuis, y)[2]
            kappa = estimate_kappa(nuis, y)
            assert kappa == pytest.approx(float(np.mean(np.exp(lor))), rel=1e-14, abs=0)


def test_kappa_jensen_ordering():
    design = mc_defaults()
    rng = RngSpec(107)
    for r in range(6):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        nuis = fit_nuisances(data, parametric_spec(design))
        for y in (0, 1):
            beta = estimate_beta_plugin(nuis, y)
            kappa = estimate_kappa(nuis, y)
            assert math.log(kappa) >= beta.value - 1e-12


def test_kappa_centered_on_homogeneous_odds_ratio():
    # the exp transform biases the plug-in upward at small n; the centering
    # is a consistency statement, so check the bias shrinks with n and is
    # gone at the larger stratum size
    target = math.exp(0.5)
    means = {}
    for n_per in (1000, 4000):
        design = MCDesign(alpha1_case=(1.0, 1.0, 0.0, 0.0, 0.0),
                          alpha1_control=(1.0, 1.0, 0.0, 0.0, 0.0),
                          n_per_stratum=n_per)
        rng = RngSpec(108)
        vals = [estimate_kappa(fit_nuisances(draw_mc_sample(design,
                                                            rng.derive("mc-replicate", r)),
                                             parametric_spec(design)), 1)
                for r in range(40)]
        means[n_per] = float(np.mean(vals))
    assert abs(means[4000] - target) < abs(means[1000] - target)
    assert abs(means[4000] - target) < 0.08


def _estimate(value, se, y):
    from casebound.relative_risk import BetaEstimate
    return BetaEstimate(y_stratum=y, value=value, se=se, method="combined")


def test_band_halfwidth_standard_normal_quantile():
    band = rr_band(_estimate(0.2, 0.1, 0), _estimate(0.4, 0.05, 1), 0.05, D1)
    assert band.halfwidth == pytest.approx(1.959964 * 0.1, abs=1e-6)


def test_band_constant_when_betas_equal():
    band = rr_band(_estimate(0.3, 0.1, 0), _estimate(0.3, 0.2, 1), 0.05, D1)
    assert np.allclose(band.point, math.exp(0.3), atol=1e-14)
    assert np.allclose(band.upper, band.upper[0], atol=1e-14)


def test_band_monotone_in_alpha():
    b0, b1 = _estimate(0.2, 0.1, 0), _estimate(0.5, 0.12, 1)
    wide = rr_band(b0, b1, 0.01, D1)
    narrow = rr_band(b0, b1, 0.10, D1)
    assert np.all(wide.upper >= narrow.upper)


def test_band_case_population_constant_one_sided():
    band = rr_band(_estimate(0.3, 0.1, 0), None, 0.05, D2)
    assert np.allclose(band.point, math.exp(0.3), atol=1e-14)
    expected = math.exp(0.3 + 1.6448536269514722 * 0.1)
    assert np.allclose(band.upper, expected, rtol=1e-9)
    assert np.all(band.lower == 1.0)


def test_band_truncated_at_one():
    band = rr_band(_estimate(-0.5, 0.01, 0), _estimate(-0.4, 0.01, 1), 0.05, D1)
    assert np.all(band.point == 1.0)
    assert np.all(band.upper >= 1.0)


def test_band_grid_arithmetic():
    band = rr_band(_estimate(0.1, 0.1, 0), _estimate(0.2, 0.1, 1), 0.05, D1,
                   pbar=0.15, step=0.01)
    assert band.p.shape[0] == 16
    assert band.p[0] == 0.0 and band.p[-1] == pytest.approx(0.15, abs=1e-15)
    rows = list(band.rows())
    assert len(rows) == 16 and rows[0][2] == 1.0


def test_p_grid_refuses_too_many_intervals_before_allocating():
    assert p_grid(1.0, 1e-4).shape == (10_001,)
    assert p_grid(0.5, 0.5 / 10_000.5).shape == (10_001,)  # rounds half to even
    for pbar, step in ((1.0, 1.0 / 10_001), (1.0, 1e-12), (1.0, 5e-324), (0.01, 1e-9)):
        with pytest.raises(ValidationError, match="more than 10000 intervals"):
            p_grid(pbar, step)


def test_band_validation():
    with pytest.raises(ValidationError):
        rr_band(_estimate(0.1, 0.1, 0), _estimate(0.2, 0.1, 1), 0.7, D1)
    with pytest.raises(ValidationError):
        rr_band(_estimate(0.1, 0.1, 0), None, 0.05, D1)
    with pytest.raises(ValidationError):  # strata swapped
        rr_band(_estimate(0.2, 0.1, 1), _estimate(0.1, 0.1, 0), 0.05, D1)
    with pytest.raises(ValidationError):
        rr_band(_estimate(0.1, 0.1, 1), None, 0.05, D2)
