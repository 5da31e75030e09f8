import dataclasses

import numpy as np
import pytest

import casebound.attributable_risk as ar_mod
from casebound.attributable_risk import (
    ar_curve,
    bc_level,
    estimate_beta_ar,
    estimate_xi_cp,
    upper_bound_curve_values,
)
from casebound.basis import BasisSpec
from casebound.errors import BootstrapDegenerate, SeparationDetected, ValidationError
from casebound.fixtures import mc_defaults
from casebound.model import Design, ObservedDataset
from casebound.oracle import (
    ObservedLaw,
    beta_ar_aggregate,
    kappa_aggregate,
    upper_bound_ar,
    xi_cp,
)
from casebound.relative_risk import estimate_kappa, fit_nuisances
from casebound.rng import RngSpec
from casebound.synthetic import draw_mc_sample, parametric_spec

D1, D2 = Design.CASE_CONTROL, Design.CASE_POPULATION
LIN = BasisSpec.linear(1)

# exact-expansion counts n[y][t][x] on a binary covariate
COUNTS_D1 = {(0, 0, 0.0): 30, (0, 0, 1.0): 20, (0, 1, 0.0): 10, (0, 1, 1.0): 40,
             (1, 0, 0.0): 15, (1, 0, 1.0): 10, (1, 1, 0.0): 25, (1, 1, 1.0): 50}


def expand(counts, design):
    ys, ts, xs = [], [], []
    for (y, t, x), n in counts.items():
        ys += [y] * n
        ts += [t] * n
        xs += [x] * n
    return ObservedDataset(y=np.array(ys), t=np.array(ts),
                           x=np.array(xs)[:, None], design=design)


def law_from_counts(counts, design):
    cells = sorted({x for (_, _, x) in counts})
    n_y = {y: sum(n for (yy, _, _), n in counts.items() if yy == y) for y in (0, 1)}
    fxy = np.zeros((2, len(cells)))
    pi = np.zeros((2, 2, len(cells)))
    for ci, x in enumerate(cells):
        for y in (0, 1):
            n_yx = sum(n for (yy, _, xx), n in counts.items() if yy == y and xx == x)
            fxy[y, ci] = n_yx / n_y[y]
            n_y1x = counts.get((y, 1, x), 0)
            pi[1, y, ci] = n_y1x / n_yx
            pi[0, y, ci] = 1.0 - pi[1, y, ci]
    h0 = n_y[1] / (n_y[0] + n_y[1])
    return ObservedLaw(design=design, h0=h0, pi=pi, fxy=fxy)


def test_beta_ar_zero_at_endpoints():
    data = expand(COUNTS_D1, D1)
    for y in (0, 1):
        assert estimate_beta_ar(data, LIN, LIN, 0.0, y) == 0.0
        assert estimate_beta_ar(data, LIN, LIN, 1.0, y) == 0.0


def test_beta_ar_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D1)
    law = law_from_counts(COUNTS_D1, D1)
    for p in (0.2, 0.55, 0.9):
        for y in (0, 1):
            est = estimate_beta_ar(data, LIN, LIN, p, y)
            assert est == pytest.approx(beta_ar_aggregate(law, p, y), abs=1e-8)
    grid = np.linspace(0.0, 1.0, 11)
    curve = upper_bound_curve_values(data, LIN, LIN, grid)
    oracle = [upper_bound_ar(law, p) for p in grid]
    np.testing.assert_allclose(curve, oracle, atol=1e-8)


def test_kappa_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D1)
    law = law_from_counts(COUNTS_D1, D1)
    for y in (0, 1):
        est = estimate_kappa(data, LIN, y)
        assert est.value == pytest.approx(kappa_aggregate(law, y), abs=1e-8)


def test_curve_point_invariant_to_row_order():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(12).derive("mc-replicate", 0))
    perm = RngSpec(12).derive("permutation").permutation(data.n)
    shuffled = ObservedDataset(y=data.y[perm], t=data.t[perm], x=data.x[perm],
                               design=data.design)
    spec = parametric_spec(design)
    grid = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(upper_bound_curve_values(shuffled, spec, spec, grid),
                               upper_bound_curve_values(data, spec, spec, grid),
                               rtol=0, atol=1e-12)


def test_xi_cp_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D2)
    law = law_from_counts(COUNTS_D1, D2)
    assert estimate_xi_cp(data, LIN, LIN) == pytest.approx(xi_cp(law), abs=1e-8)


def test_xi_cp_zero_when_strata_probabilities_agree():
    data = expand(COUNTS_D1, D2)
    nuis = fit_nuisances(data, LIN, LIN)
    same = dataclasses.replace(nuis, pi1=nuis.pi0)
    assert estimate_xi_cp(data, LIN, LIN, nuisances=same) == 0.0


def test_design_contracts():
    data1 = expand(COUNTS_D1, D1)
    data2 = expand(COUNTS_D1, D2)
    with pytest.raises(ValidationError):
        estimate_beta_ar(data2, LIN, LIN, 0.5, 0)
    with pytest.raises(ValidationError):
        estimate_xi_cp(data1, LIN, LIN)
    with pytest.raises(ValidationError):
        ar_curve(data1, LIN, LIN, pbar=0.5, B=50)  # B too small


def test_curve_endpoint_zeros_and_grid():
    data = expand(COUNTS_D1, D1)
    curve, diag = ar_curve(data, LIN, LIN, pbar=1.0, B=200, seed=1, step=0.05)
    assert curve.p.shape[0] == 21
    assert curve.point[0] == 0.0
    assert curve.point[-1] == 0.0
    assert np.all(curve.point >= 0.0) and np.all(curve.point <= 1.0)
    assert np.all(curve.upper >= curve.point)
    assert np.all(curve.upper <= 1.0)
    assert curve.mode == "pointwise-bc"
    assert diag.n_kept + diag.n_dropped == 200


def test_curve_grid_has_sixteen_rows_at_pbar_015():
    data = expand(COUNTS_D1, D2)
    curve, _ = ar_curve(data, LIN, LIN, pbar=0.15, B=200, seed=2, step=0.01)
    assert curve.p.shape[0] == 16
    assert curve.point[0] == 0.0
    assert curve.mode == "uniform-bc"


def test_case_population_upper_limit_exactly_linear():
    data = expand(COUNTS_D1, D2)
    curve, diag = ar_curve(data, LIN, LIN, pbar=0.3, B=300, seed=3, step=0.05)
    assert curve.upper[-1] < 1.0  # no truncation in play on this grid
    # the limit is p times a single bootstrap scalar, so cross-ratios agree
    u = curve.upper[-1] / curve.p[-1]
    np.testing.assert_allclose(curve.upper, curve.p * u, rtol=1e-12, atol=0)
    slope = curve.point[-1] / curve.p[-1]
    np.testing.assert_allclose(curve.point, curve.p * slope, rtol=1e-12, atol=0)
    assert np.all(diag.mu_star == diag.mu_star[0])


def test_bc_level_properties():
    assert bc_level(0.5, 0.05, 1000) == pytest.approx(0.95, abs=1e-12)
    assert bc_level(0.5, 0.10, 400) == pytest.approx(0.90, abs=1e-12)
    grid = np.linspace(0.001, 0.999, 101)
    levels = bc_level(grid, 0.05, 1000)
    assert np.all(np.diff(levels) > 0)
    assert np.all((levels > 0) & (levels < 1))
    # clamping keeps the inverse CDF finite at the extremes
    assert np.isfinite(bc_level(0.0, 0.05, 200))
    assert np.isfinite(bc_level(1.0, 0.05, 200))


def test_curve_deterministic_across_runs():
    data = expand(COUNTS_D1, D1)
    c1, d1 = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=9, step=0.1)
    c2, d2 = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=9, step=0.1)
    assert np.array_equal(c1.point, c2.point)
    assert np.array_equal(c1.upper, c2.upper)
    assert np.array_equal(d1.mu_star, d2.mu_star)
    c3, _ = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=10, step=0.1)
    assert not np.array_equal(c1.upper, c3.upper)


def test_stratified_resampling_keeps_stratum_sizes():
    data = expand(COUNTS_D1, D1)
    gen = RngSpec(4).derive("ar-bootstrap", 0)
    boot = ar_mod._resample(data, gen, "stratified")
    assert np.array_equal(boot.y, data.y)
    boot_iid = ar_mod._resample(data, RngSpec(4).derive("ar-bootstrap", 1), "iid")
    assert boot_iid.n == data.n


def test_bootstrap_degenerate_raises(monkeypatch):
    data = expand(COUNTS_D1, D2)
    monkeypatch.setattr(ar_mod, "estimate_xi_cp",
                        lambda *a, **k: 0.25)
    with pytest.raises(BootstrapDegenerate):
        ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=5)


def test_failed_replicates_dropped_and_counted(monkeypatch):
    data = expand(COUNTS_D1, D1)
    real = ar_mod.fit_nuisances
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] in (3, 4, 5):  # three bootstrap refits fail
            raise SeparationDetected("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(ar_mod, "fit_nuisances", flaky)
    curve, diag = ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=6, step=0.1)
    assert diag.n_dropped == 3
    assert diag.n_kept == 197
