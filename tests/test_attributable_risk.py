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
from casebound.basis import BasisSpec, CubicSplineTerm, Linear
from casebound.errors import (
    BootstrapDegenerate,
    CaseboundError,
    DegenerateColumn,
    EmptyStratum,
    SeparationDetected,
    ValidationError,
)
from casebound.fixtures import mc_defaults
from casebound.model import Design, ObservedDataset
from casebound.oracle import (
    ObservedLaw,
    beta_ar_aggregate,
    kappa_aggregate,
    upper_bound_ar,
    xi_cp,
)
from casebound.relative_risk import estimate_kappa, fit_nuisances, p_grid
from casebound.rng import RngSpec, resample_indices
from casebound.synthetic import draw_mc_sample, parametric_spec

D1, D2 = Design.CASE_CONTROL, Design.CASE_POPULATION
LIN = BasisSpec.linear(1)

# exact-expansion counts n[y][t][x] on a binary covariate
COUNTS_D1 = {(0, 0, 0.0): 30, (0, 0, 1.0): 20, (0, 1, 0.0): 10, (0, 1, 1.0): 40,
             (1, 0, 0.0): 15, (1, 0, 1.0): 10, (1, 1, 0.0): 25, (1, 1, 1.0): 50}


def expand(counts, design, h0=None):
    ys, ts, xs = [], [], []
    for (y, t, x), n in counts.items():
        ys += [y] * n
        ts += [t] * n
        xs += [x] * n
    return ObservedDataset(y=np.array(ys), t=np.array(ts),
                           x=np.array(xs)[:, None], design=design, h0=h0)


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
    patterns, inverse = ar_mod._patterns(data)
    assert patterns.shape[0] == len(COUNTS_D1)
    counts = ar_mod._replicate_counts(RngSpec(4).derive("ar-bootstrap", 0), data.y,
                                      inverse, patterns.shape[0], "stratified")
    for s in (0, 1):
        assert counts[patterns[:, 0] == s].sum() == np.sum(data.y == s)
    counts_iid = ar_mod._replicate_counts(RngSpec(4).derive("ar-bootstrap", 1), data.y,
                                          inverse, patterns.shape[0], "iid")
    assert counts_iid.sum() == data.n


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


# --- the weighted replicate engine against the expanded rows -----------------


def expanded_replicate(data, gen, mode, pspec, rspec, grid):
    """One replicate the way resampling the rows computes it: draw indices,
    build the resampled data set, refit it unweighted, and read off xi or
    the curve one p at a time."""
    idx = resample_indices(gen, data.n) if mode == "iid" else np.arange(data.n)
    if mode == "stratified":
        for s in (0, 1):
            rows = np.flatnonzero(data.y == s)
            idx[rows] = rows[resample_indices(gen, rows.size)]
    bdata = ObservedDataset(y=data.y[idx], t=data.t[idx], x=data.x[idx],
                            design=data.design,
                            h0=None if data.h0_estimated else data.h0)
    nuis = fit_nuisances(bdata, rspec, pspec)
    if data.design is D2:
        return np.array([estimate_xi_cp(bdata, pspec, rspec, nuis)]), nuis.n_clipped
    curve = [(1.0 - p) * estimate_beta_ar(bdata, pspec, rspec, p, 0, nuis)
             + p * estimate_beta_ar(bdata, pspec, rspec, p, 1, nuis) for p in grid]
    return np.array(curve), nuis.n_clipped


def assert_replicates_match(data, pspec, rspec, pbar, step, B, seed, mode):
    grid = p_grid(pbar, step)
    patterns, inverse = ar_mod._patterns(data)
    rng = RngSpec(seed)
    kept = dropped = clipped = 0
    for b in range(B):
        counts = ar_mod._replicate_counts(rng.derive("ar-bootstrap", b), data.y,
                                          inverse, patterns.shape[0], mode)
        try:
            want, want_clipped = expanded_replicate(data, rng.derive("ar-bootstrap", b),
                                                    mode, pspec, rspec, grid)
        except CaseboundError as exc:
            with pytest.raises(type(exc)):
                ar_mod._replicate(data, patterns, counts, pspec, rspec, grid)
            dropped += 1
            continue
        got, got_clipped = ar_mod._replicate(data, patterns, counts, pspec, rspec, grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got_clipped == want_clipped
        kept += 1
        clipped += got_clipped
    _, diag = ar_curve(data, pspec, rspec, pbar=pbar, B=B, seed=seed, step=step,
                       resample_mode=mode)
    assert (diag.n_kept, diag.n_dropped, diag.n_clipped_boot) == (kept, dropped, clipped)
    return diag


@pytest.mark.parametrize("mode", ["iid", "stratified"])
@pytest.mark.parametrize("h0", [None, 0.3])
def test_weighted_replicates_equal_expanded_rows_case_control(h0, mode):
    data = expand(COUNTS_D1, D1, h0)
    assert data.h0_estimated is (h0 is None)
    assert_replicates_match(data, LIN, LIN, pbar=0.6, step=0.1, B=200, seed=7, mode=mode)


def test_weighted_replicates_equal_expanded_rows_spline_case_population():
    # the spline draw of the case-population benchmark: every row distinct,
    # knots per replicate, and replicates dropped on separation
    drawn = draw_mc_sample(mc_defaults(), RngSpec(20240501).derive("mc-replicate", 0))
    data = ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D2)
    rspec = BasisSpec((CubicSplineTerm(3),) + (Linear(),) * 4)
    diag = assert_replicates_match(data, BasisSpec.linear(5), rspec, pbar=0.15,
                                   step=0.01, B=200, seed=1, mode="iid")
    assert diag.n_dropped > 0 and diag.n_clipped_boot > 0


@pytest.mark.parametrize("h0", [None, 0.3])
@pytest.mark.parametrize("kept, error", [
    (lambda pat: pat[:, 2] == 0.0, DegenerateColumn),   # covariate level x=1 lost
    (lambda pat: pat[:, 0] == 0.0, EmptyStratum),       # stratum y=1 lost
])
def test_replicate_failures_match_expanded_rows(h0, kept, error):
    data = expand(COUNTS_D1, D1, h0)
    patterns, _ = ar_mod._patterns(data)
    counts = np.array([COUNTS_D1[(int(y), int(t), x)] for y, t, x in patterns])
    counts[~kept(patterns)] = 0
    with pytest.raises(error):
        ar_mod._replicate(data, patterns, counts, LIN, LIN, p_grid(0.6, 0.1))
    rows = np.repeat(patterns, counts, axis=0)
    with pytest.raises(error):
        bdata = ObservedDataset(y=rows[:, 0].astype(int), t=rows[:, 1].astype(int),
                                x=rows[:, 2:], design=D1,
                                h0=None if data.h0_estimated else data.h0)
        fit_nuisances(bdata, LIN, LIN)
