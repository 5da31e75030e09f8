import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

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
    random_population,
    upper_bound_ar,
    xi_cp,
)
from casebound.relative_risk import estimate_kappa, fit_nuisances, p_grid
from casebound.rng import RngSpec, bernoulli, resample_indices
from casebound.synthetic import draw_mc_sample, parametric_spec, sample_from_population

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
    nuis = fit_nuisances(expand(COUNTS_D1, D1), LIN, LIN)
    for y in (0, 1):
        assert estimate_beta_ar(nuis, 0.0, y) == 0.0
        assert estimate_beta_ar(nuis, 1.0, y) == 0.0


def test_beta_ar_matches_oracle_on_exact_expansion():
    nuis = fit_nuisances(expand(COUNTS_D1, D1), LIN, LIN)
    law = law_from_counts(COUNTS_D1, D1)
    for p in (0.2, 0.55, 0.9):
        for y in (0, 1):
            est = estimate_beta_ar(nuis, p, y)
            assert est == pytest.approx(beta_ar_aggregate(law, p, y), abs=1e-8)
    grid = np.linspace(0.0, 1.0, 11)
    curve = upper_bound_curve_values(nuis, grid)
    oracle = [upper_bound_ar(law, p) for p in grid]
    np.testing.assert_allclose(curve, oracle, atol=1e-8)


def test_kappa_matches_oracle_on_exact_expansion():
    nuis = fit_nuisances(expand(COUNTS_D1, D1), LIN)
    law = law_from_counts(COUNTS_D1, D1)
    for y in (0, 1):
        assert estimate_kappa(nuis, y) == pytest.approx(kappa_aggregate(law, y), abs=1e-8)


def test_curve_point_invariant_to_row_order():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(12).derive("mc-replicate", 0))
    perm = RngSpec(12).derive("permutation").permutation(data.n)
    shuffled = ObservedDataset(y=data.y[perm], t=data.t[perm], x=data.x[perm],
                               design=data.design)
    spec = parametric_spec(design)
    grid = np.linspace(0.0, 1.0, 21)
    shuffled_nuis, nuis = fit_nuisances(shuffled, spec, spec), fit_nuisances(data, spec, spec)
    np.testing.assert_allclose(upper_bound_curve_values(shuffled_nuis, grid),
                               upper_bound_curve_values(nuis, grid),
                               rtol=0, atol=1e-12)


def test_xi_cp_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D2)
    law = law_from_counts(COUNTS_D1, D2)
    nuis = fit_nuisances(data, LIN, LIN)
    assert estimate_xi_cp(nuis) == pytest.approx(xi_cp(law), abs=1e-8)


def test_xi_cp_zero_when_strata_probabilities_agree():
    data = expand(COUNTS_D1, D2)
    nuis = fit_nuisances(data, LIN, LIN)
    same = dataclasses.replace(nuis, pi1=nuis.pi0)
    assert estimate_xi_cp(same) == 0.0


def test_read_outs_need_a_prospective_fit():
    # a fit without a prospective basis has no Pr(Y=1|x) to read
    grid = p_grid(0.5, 0.1)
    for design in (D1, D2):
        nuis = fit_nuisances(expand(COUNTS_D1, design), LIN)
        with pytest.raises(ValidationError, match="prospective basis"):
            upper_bound_curve_values(nuis, grid)
    with pytest.raises(ValidationError, match="prospective basis"):
        estimate_beta_ar(fit_nuisances(expand(COUNTS_D1, D1), LIN), 0.5, 0)
    with pytest.raises(ValidationError, match="prospective basis"):
        estimate_xi_cp(fit_nuisances(expand(COUNTS_D1, D2), LIN))


def test_design_contracts():
    data1 = expand(COUNTS_D1, D1)
    data2 = expand(COUNTS_D1, D2)
    with pytest.raises(ValidationError):
        estimate_beta_ar(fit_nuisances(data2, LIN, LIN), 0.5, 0)
    with pytest.raises(ValidationError):
        estimate_xi_cp(fit_nuisances(data1, LIN, LIN))
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


def test_curve_has_no_negative_zero():
    # treatment flipped, so xi < 0: p = 0 times a negative statistic is
    # -0.0, which clipping into [0, 1] keeps
    flipped = {(y, 1 - t, x): n for (y, t, x), n in COUNTS_D1.items()}
    data = expand(flipped, D2)
    assert estimate_xi_cp(fit_nuisances(data, LIN, LIN)) < 0.0
    curve, _ = ar_curve(data, LIN, LIN, pbar=0.3, B=200, seed=4, step=0.05)
    assert not np.signbit(curve.point).any()
    assert not np.signbit(curve.upper).any()


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


@pytest.mark.parametrize("alpha", ["0.01", "0.05", "0.1", "0.2"])
@pytest.mark.parametrize("B", [200, 500, 1000])
def test_bc_order_statistic_at_median_bias_is_exact(alpha, B):
    # at mu* = 1/2 the level is 1 - alpha, and its pick is the exact
    # ceil((1 - alpha) B)-th order statistic whatever its last bit
    want = math.ceil((1 - Fraction(alpha)) * B)
    level = bc_level(np.array([0.5]), float(alpha), B)
    ranks = np.arange(1.0, B + 1.0)[:, None]
    assert ar_mod._order_statistic(ranks, level)[0] == want


@pytest.mark.parametrize("seed", [2, 3, 4, 6, 7])
def test_bc_curve_equals_scipy_normal_functions(seed, monkeypatch):
    # the ar_cc input of perfbench at --alpha 0.1, where nu * B lands on an
    # integer at mu* = 1/2: the curve with scipy's ndtr/ndtri is the same
    pop = random_population(RngSpec(20240501).derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    data = sample_from_population(pop, Design.CASE_CONTROL, 0.5, 2400,
                                  RngSpec(seed).derive("perfbench-ar-cc"))
    ours, _ = ar_curve(data, LIN, LIN, pbar=0.6, alpha=0.1, B=200, seed=seed)
    monkeypatch.setattr(ar_mod, "ndtr", scipy.special.ndtr)
    monkeypatch.setattr(ar_mod, "ndtri", scipy.special.ndtri)
    theirs, _ = ar_curve(data, LIN, LIN, pbar=0.6, alpha=0.1, B=200, seed=seed)
    assert np.array_equal(ours.point, theirs.point)
    assert np.array_equal(ours.upper, theirs.upper)


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
    real = ar_mod._block

    def constant(*args, **kwargs):
        stats, clipped, ok = real(*args, **kwargs)
        return np.full_like(stats, 0.25), clipped, ok

    monkeypatch.setattr(ar_mod, "_block", constant)
    with pytest.raises(BootstrapDegenerate):
        ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=5)


def test_failed_replicates_dropped_and_counted(monkeypatch):
    data = expand(COUNTS_D1, D1)
    real = ar_mod._block

    def flaky_block(*args, **kwargs):
        stats, clipped, ok = real(*args, **kwargs)
        ok = ok.copy()
        ok[[2, 3, 4]] = False  # three replicates leave the common path
        return stats, clipped, ok

    def failing_replicate(*args, **kwargs):
        raise SeparationDetected("synthetic failure")

    monkeypatch.setattr(ar_mod, "_block", flaky_block)
    monkeypatch.setattr(ar_mod, "_replicate", failing_replicate)
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
        return np.array([estimate_xi_cp(nuis)]), nuis.n_clipped
    curve = [(1.0 - p) * estimate_beta_ar(nuis, p, 0)
             + p * estimate_beta_ar(nuis, p, 1) for p in grid]
    return np.array(curve), nuis.n_clipped


def has_spline(*specs):
    return any(isinstance(term, CubicSplineTerm) for spec in specs for term in spec.terms)


def assert_replicates_match(data, pspec, rspec, pbar, step, B, seed, mode):
    """Each replicate three ways: the expanded rows, `_replicate`, and (for
    bases without a spline term) its row of one batched `_block`.  Returns
    the diagnostics, the exception classes of the dropped replicates and
    how many replicates the block settled."""
    grid = p_grid(pbar, step)
    patterns, inverse = ar_mod._patterns(data)
    rng = RngSpec(seed)
    all_counts = np.array([ar_mod._replicate_counts(rng.derive("ar-bootstrap", b), data.y,
                                                    inverse, patterns.shape[0], mode)
                           for b in range(B)])
    ok = np.zeros(B, dtype=bool)
    if not has_spline(rspec, pspec):
        designs = ar_mod._pattern_designs(patterns, rspec, pspec)
        stats, block_clipped, ok = ar_mod._block(data, patterns, all_counts, designs, grid,
                                                 ar_mod.fit_logit_batch)
    kept = dropped = clipped = 0
    failures = Counter()
    for b, counts in enumerate(all_counts):
        try:
            want, want_clipped = expanded_replicate(data, rng.derive("ar-bootstrap", b),
                                                    mode, pspec, rspec, grid)
        except CaseboundError as exc:
            with pytest.raises(CaseboundError) as got:
                ar_mod._replicate(data, patterns, counts, pspec, rspec, grid)
            if type(exc) is EmptyStratum:
                # the support refuses an empty stratum as invalid input too:
                # its fit raises fit_logit's ValidationError, the parent of
                # EmptyStratum, unless the stratum took a covariate level with
                # it and the basis raises DegenerateColumn first
                assert got.type in (ValidationError, DegenerateColumn)
            else:
                assert got.type is type(exc)
            assert not ok[b]
            failures[type(exc).__name__] += 1
            dropped += 1
            continue
        got, got_clipped = ar_mod._replicate(data, patterns, counts, pspec, rspec, grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got_clipped == want_clipped
        if ok[b]:
            np.testing.assert_allclose(stats[b], got, rtol=1e-12, atol=1e-12)
            assert block_clipped[b] == got_clipped
        kept += 1
        clipped += got_clipped
    _, diag = ar_curve(data, pspec, rspec, pbar=pbar, B=B, seed=seed, step=step,
                       resample_mode=mode)
    assert (diag.n_kept, diag.n_dropped, diag.n_clipped_boot) == (kept, dropped, clipped)
    return diag, failures, int(ok.sum())


@pytest.mark.parametrize("mode", ["iid", "stratified"])
@pytest.mark.parametrize("h0", [None, 0.3])
def test_weighted_replicates_equal_expanded_rows_case_control(h0, mode):
    data = expand(COUNTS_D1, D1, h0)
    assert data.h0_estimated is (h0 is None)
    diag, _, n_batched = assert_replicates_match(data, LIN, LIN, pbar=0.6, step=0.1,
                                                 B=200, seed=7, mode=mode)
    assert n_batched == diag.n_kept == 200


def test_weighted_replicates_equal_expanded_rows_case_population_linear():
    data = expand(COUNTS_D1, D2)
    diag, _, n_batched = assert_replicates_match(data, LIN, LIN, pbar=0.3, step=0.05,
                                                 B=200, seed=8, mode="iid")
    assert n_batched == diag.n_kept == 200


def test_weighted_replicates_equal_expanded_rows_ar_cc_input():
    # the input of the ar_cc benchmark workload at seed 1: 2400 rows, 8 patterns
    pop = random_population(RngSpec(20240501).derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    drawn = sample_from_population(pop, D1, 0.5, 2400, RngSpec(1).derive("perfbench-ar-cc"))
    data = ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D1, h0=0.5)
    diag, _, n_batched = assert_replicates_match(data, LIN, LIN, pbar=0.6, step=0.05,
                                                 B=200, seed=1, mode="iid")
    assert n_batched == diag.n_kept == 200


# sixteen rows: three cases, and a single covariate level x=1 among controls
# and among cases, so that replicates lose a stratum, the level, or a
# treatment class within a stratum
FRAGILE = [(1, 0, 0.0), (1, 1, 0.0), (1, 1, 1.0)] + [(0, 0, 0.0)] * 6 \
    + [(0, 1, 0.0)] * 6 + [(0, 0, 1.0)]


def fragile_data(design):
    rows = np.array(FRAGILE)
    return ObservedDataset(y=rows[:, 0].astype(int), t=rows[:, 1].astype(int),
                           x=rows[:, 2:], design=design)


@pytest.mark.parametrize("design", [D1, D2])
def test_real_replicate_failures_leave_the_block(design):
    diag, failures, n_batched = assert_replicates_match(
        fragile_data(design), LIN, LIN, pbar=0.6, step=0.1, B=200, seed=3, mode="iid")
    for name in ("EmptyStratum", "DegenerateColumn", "ValidationError"):
        assert failures[name] > 0, failures
    assert diag.n_dropped == sum(failures.values())
    assert 0 < n_batched <= diag.n_kept


@pytest.mark.parametrize("data", [expand(COUNTS_D1, D1), fragile_data(D2)],
                         ids=["counts_d1", "fragile"])
def test_block_composition_invariance(data, monkeypatch):
    grid = p_grid(0.6, 0.1)
    patterns, inverse = ar_mod._patterns(data)
    counts = np.array([ar_mod._replicate_counts(RngSpec(5).derive("ar-bootstrap", b),
                                                data.y, inverse, patterns.shape[0], "iid")
                       for b in range(60)])
    designs = ar_mod._pattern_designs(patterns, LIN, LIN)
    batch = ar_mod.fit_logit_batch
    stats, clipped, ok = ar_mod._block(data, patterns, counts, designs, grid, batch)
    assert ok.any()
    for b in range(60):
        alone = ar_mod._block(data, patterns, counts[b:b + 1], designs, grid, batch)
        assert alone[2][0] == ok[b]
        if ok[b]:
            assert np.array_equal(alone[0][0], stats[b]) and alone[1][0] == clipped[b]
    # and the engine's output does not depend on its block size
    want = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=5, step=0.1)
    sizes = record_batches(monkeypatch)
    # seven grid points on eight case-control patterns: blocks of 17; the
    # two design columns on six case-population patterns: blocks of 83
    monkeypatch.setattr(ar_mod, "_BLOCK_CELLS", 1000)
    got = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=5, step=0.1)
    assert sizes[0] == (17 if data.design is D1 else 83) and sum(sizes[::3]) == 200
    assert np.array_equal(got[0].upper, want[0].upper)
    assert np.array_equal(got[1].mu_star, want[1].mu_star)
    assert (got[1].n_kept, got[1].n_clipped_boot) == (want[1].n_kept, want[1].n_clipped_boot)


def record_batches(monkeypatch):
    """Patch the batched kernel to record the replicates of every call it
    makes, three per block (stratum 0, stratum 1, the prospective fit)."""
    sizes = []
    real = ar_mod.fit_logit_batch
    monkeypatch.setattr(ar_mod, "fit_logit_batch",
                        lambda t, X, W: sizes.append(W.shape[0]) or real(t, X, W))
    return sizes


def wide_data(n, design=D1):
    # a continuous covariate: every row is its own pattern
    gen = RngSpec(11).derive("wide")
    x = np.linspace(-2.0, 2.0, n)
    y = bernoulli(gen, np.full(n, 0.5))
    t = bernoulli(gen, 1.0 / (1.0 + np.exp(-0.5 * x - 0.8 * y + 0.3)))
    return ObservedDataset(y=y, t=t, x=x[:, None], design=design)


@pytest.mark.parametrize("n, pbar, design, batched", [
    (60, 1.0, D1, True), (90, 1.0, D1, False), (90, 0.6, D1, True), (90, 1.0, D2, True)],
    ids=["60-1.0-True", "90-1.0-False", "90-0.6-True", "case-population-90-1.0-True"])
def test_only_narrow_pattern_tables_are_batched(n, pbar, design, batched, monkeypatch):
    # a case-control replicate of n patterns on a 101- or 61-point grid holds
    # n * 101 or n * 61 cells, so a block of _BLOCK_CELLS holds 21, 14 or 23
    # of them; below _MIN_BLOCK = 16 the batch would be slower than the loop.
    # A case-population replicate has no grid axis: n * 2 cells, 728 a block
    data = wide_data(n, design)
    sizes = record_batches(monkeypatch)
    curve, diag = ar_curve(data, LIN, LIN, pbar=pbar, B=200, seed=2)
    blocks = sizes[::3]
    assert bool(blocks) is batched
    if batched:
        assert all(size >= ar_mod._MIN_BLOCK for size in blocks[:-1]) and sum(blocks) == 200
    monkeypatch.setattr(ar_mod, "_MIN_BLOCK", 10 ** 9)  # every table on the loop
    looped, looped_diag = ar_curve(data, LIN, LIN, pbar=pbar, B=200, seed=2)
    np.testing.assert_allclose(curve.upper, looped.upper, rtol=1e-12, atol=1e-12)
    assert np.array_equal(diag.mu_star, looped_diag.mu_star)
    assert (diag.n_kept, diag.n_clipped_boot) == (looped_diag.n_kept,
                                                  looped_diag.n_clipped_boot)


def test_bc_tie_counts_the_same_on_both_paths(monkeypatch):
    # 27 rows; under stratified resampling one replicate redraws the sample's
    # own pattern counts, so its curve equals the point curve up to rounding,
    # which falls on different sides of it on the two paths
    gen = RngSpec(7).derive("tie")
    y, t, x = (bernoulli(gen, np.full(27, 0.5)) for _ in range(3))
    data = ObservedDataset(y=y, t=t, x=x.astype(float)[:, None], design=D1)
    patterns, inverse = ar_mod._patterns(data)
    sample = np.bincount(inverse, minlength=patterns.shape[0])
    assert any(np.array_equal(ar_mod._replicate_counts(
        RngSpec(7).derive("ar-bootstrap", b), data.y, inverse, patterns.shape[0],
        "stratified"), sample) for b in range(200))
    kwargs = dict(pbar=0.6, B=200, seed=7, step=0.05, resample_mode="stratified")
    batched, batched_diag = ar_curve(data, LIN, LIN, **kwargs)
    real = ar_mod.fit_logit_batch

    def flag_every_row(t, X, W):
        coef, ok = real(t, X, W)
        return coef, np.zeros_like(ok)

    monkeypatch.setattr(ar_mod, "fit_logit_batch", flag_every_row)
    looped, looped_diag = ar_curve(data, LIN, LIN, **kwargs)
    assert np.array_equal(batched_diag.mu_star, looped_diag.mu_star)
    np.testing.assert_allclose(batched.upper, looped.upper, rtol=1e-12, atol=1e-12)
    assert batched_diag.n_kept == looped_diag.n_kept


def test_weighted_replicates_equal_expanded_rows_spline_case_population(monkeypatch):
    # the spline draw of the case-population benchmark: every row distinct,
    # knots per replicate, and replicates dropped on separation
    drawn = draw_mc_sample(mc_defaults(), RngSpec(20240501).derive("mc-replicate", 0))
    data = ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D2)
    rspec = BasisSpec((CubicSplineTerm(3),) + (Linear(),) * 4)
    sizes = record_batches(monkeypatch)
    diag, _, n_batched = assert_replicates_match(data, BasisSpec.linear(5), rspec,
                                                 pbar=0.15, step=0.01, B=200, seed=1,
                                                 mode="iid")
    assert diag.n_dropped > 0 and diag.n_clipped_boot > 0
    # a spline basis keeps every replicate on _replicate
    assert n_batched == 0 and sizes == []


@pytest.mark.parametrize("h0", [None, 0.3])
@pytest.mark.parametrize("kept, error", [
    (lambda pat: pat[:, 2] == 0.0, DegenerateColumn),   # covariate level x=1 lost
    (lambda pat: pat[:, 0] == 0.0, EmptyStratum),       # stratum y=1 lost
])
def test_replicate_failures_match_expanded_rows(h0, kept, error):
    # on the support, the lost stratum's fit fails with fit_logit's
    # ValidationError, the parent class of EmptyStratum
    replicate_error = ValidationError if error is EmptyStratum else error
    data = expand(COUNTS_D1, D1, h0)
    patterns, _ = ar_mod._patterns(data)
    counts = np.array([COUNTS_D1[(int(y), int(t), x)] for y, t, x in patterns])
    counts[~kept(patterns)] = 0
    with pytest.raises(replicate_error) as got:
        ar_mod._replicate(data, patterns, counts, LIN, LIN, p_grid(0.6, 0.1))
    assert got.type is replicate_error and issubclass(error, replicate_error)
    rows = np.repeat(patterns, counts, axis=0)
    with pytest.raises(error):
        bdata = ObservedDataset(y=rows[:, 0].astype(int), t=rows[:, 1].astype(int),
                                x=rows[:, 2:], design=D1,
                                h0=None if data.h0_estimated else data.h0)
        fit_nuisances(bdata, LIN, LIN)
