import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import casebound.attributable_risk as ar_mod
from casebound.attributable_risk import ar_curve, bc_level
from casebound.basis import BasisSpec, CubicSplineTerm, Linear
from casebound.errors import (
    BootstrapDegenerate,
    CaseboundError,
    DegenerateColumn,
    EmptyStratum,
    NuisanceProbabilityOutOfRange,
    SeparationDetected,
    ValidationError,
)
from casebound.fixtures import mc_defaults
from casebound.logit import fit_logit
from casebound.model import Design, ObservedDataset
from casebound.oracle import (
    ObservedLaw,
    ar_term_formula,
    beta_ar_aggregate,
    gamma_ar_formula,
    kappa_aggregate,
    random_population,
    upper_bound_ar,
    xi_cp,
)
from casebound.relative_risk import (
    clip_probabilities,
    design_columns,
    estimate_kappa,
    fit_nuisances,
    p_grid,
)
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


def rowwise_probabilities(data, rspec, pspec):
    """The row-wise reference for the AR engine, independent of
    `_statistic`: the two stratum fits and the prospective fit on every row,
    unweighted, their (pi0, pi1, py) at every row clipped, and how many
    values the clip moved."""
    nuis = fit_nuisances(data, rspec)
    pcols = design_columns(data.x, pspec)
    pfit = fit_logit(data.y, pcols)
    probs, n_clipped = [], 0
    for name, p in (("Pi(1|0,x)", nuis.fit0.predict(nuis.cols)),
                    ("Pi(1|1,x)", nuis.fit1.predict(nuis.cols)),
                    ("Pr(Y=1|x)", pfit.predict(pcols))):
        clipped, in_range, n_moved = clip_probabilities(p, np.ones(data.n))
        if not in_range.all():
            raise NuisanceProbabilityOutOfRange(
                f"fitted {name} probabilities leave [0, 1] or are not finite")
        probs.append(clipped)
        n_clipped += int(n_moved)
    return tuple(probs), n_clipped


def rowwise_beta_ar(data, probs, p, y_stratum):
    """Stratum mean of r(X, p) * G_AR(X, p) at one p."""
    pi0, pi1, py = probs
    terms = ar_term_formula(py, data.h0, p, data.design, pi0, pi1)
    return float(terms[data.stratum(y_stratum)].mean())


def rowwise_statistic(data, rspec, pspec, grid):
    """The untruncated statistic the row-wise way, and its clip count: the
    case-control UB one p of the grid at a time, or the case-population xi,
    (sum Y)^{-1} sum (1 - Y) * py / (1 - py) * G_AR(X, 0), as one value."""
    probs, n_clipped = rowwise_probabilities(data, rspec, pspec)
    if data.design is D2:
        pi0, pi1, py = probs
        y = data.y.astype(float)
        xi = np.sum((1.0 - y) * py / (1.0 - py) * gamma_ar_formula(pi0, pi1, 0.0)) / np.sum(y)
        return np.array([xi]), n_clipped
    return np.array([(1.0 - p) * rowwise_beta_ar(data, probs, p, 0)
                     + p * rowwise_beta_ar(data, probs, p, 1) for p in grid]), n_clipped


def at_own_widths(layout, counts):
    """`layout` packed at the widths of one replicate's support, as
    `_refit_block` packs a replicate wider than the layout."""
    n0 = np.count_nonzero(layout.patterns[:, 0] == 0)
    return dataclasses.replace(layout, widths=(np.count_nonzero(counts[:n0]),
                                               np.count_nonzero(counts[n0:])))


def lone_refit(data, counts, pspec, rspec, grid=None):
    """One replicate's (patterns,) counts refitted alone, a block of one
    packed at its own support's widths: its untruncated statistic and clip
    count, or its verdict raised."""
    patterns, inverse = ar_mod._patterns(data)
    layout = ar_mod._layout(patterns, np.bincount(inverse), (rspec, pspec), "iid")
    stats, clipped, verdict = ar_mod._refit_block(data, at_own_widths(layout, counts),
                                                  counts[None], grid)
    if verdict[0] is not None:
        raise verdict[0]
    return stats[0], int(clipped[0])


def sample_statistic(data, pspec, rspec, grid=None):
    """The engine's untruncated statistic of the sample and its clip count:
    the replicate whose counts are the pattern multiplicities."""
    return lone_refit(data, np.bincount(ar_mod._patterns(data)[1]), pspec, rspec, grid)


def test_beta_ar_zero_at_endpoints():
    data = expand(COUNTS_D1, D1)
    curve, _ = sample_statistic(data, LIN, LIN, np.array([0.0, 1.0]))
    assert curve.tolist() == [0.0, 0.0]
    probs, _ = rowwise_probabilities(data, LIN, LIN)
    for y in (0, 1):
        assert rowwise_beta_ar(data, probs, 0.0, y) == 0.0
        assert rowwise_beta_ar(data, probs, 1.0, y) == 0.0


def test_beta_ar_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D1)
    law = law_from_counts(COUNTS_D1, D1)
    probs, _ = rowwise_probabilities(data, LIN, LIN)
    for p in (0.2, 0.55, 0.9):
        for y in (0, 1):
            est = rowwise_beta_ar(data, probs, p, y)
            assert est == pytest.approx(beta_ar_aggregate(law, p, y), abs=1e-8)
    grid = np.linspace(0.0, 1.0, 11)
    curve, _ = sample_statistic(data, LIN, LIN, grid)
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
    kwargs = dict(pbar=1.0, B=200, seed=1, step=0.05)
    curve, _ = ar_curve(data, spec, spec, **kwargs)
    shuffled_curve, _ = ar_curve(shuffled, spec, spec, **kwargs)
    assert curve.p.shape[0] == 21 and (curve.point > 0.0).sum() > 10
    np.testing.assert_allclose(shuffled_curve.point, curve.point, rtol=0, atol=1e-12)


def test_xi_cp_matches_oracle_on_exact_expansion():
    data = expand(COUNTS_D1, D2)
    law = law_from_counts(COUNTS_D1, D2)
    xi, _ = sample_statistic(data, LIN, LIN)
    assert xi[0] == pytest.approx(xi_cp(law), abs=1e-8)


def test_xi_cp_zero_when_strata_probabilities_agree():
    # both strata hold the same (t, x) counts, so their fits are the same
    # computation and Pi(1|0,x) equals Pi(1|1,x) to the last bit
    same = {(y, t, x): n for (_, t, x), n in COUNTS_D1.items() for y in (0, 1)}
    xi, _ = sample_statistic(expand(same, D2), LIN, LIN)
    assert xi[0] == 0.0


def test_design_contracts():
    with pytest.raises(ValidationError):
        ar_curve(expand(COUNTS_D1, D1), LIN, LIN, pbar=0.5, B=50)  # B too small


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
    assert sample_statistic(data, LIN, LIN)[0][0] < 0.0
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
        stats, *rest = real(*args, **kwargs)
        return np.full_like(stats, 0.25), *rest

    monkeypatch.setattr(ar_mod, "_block", constant)
    with pytest.raises(BootstrapDegenerate):
        ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=5)


def test_failed_replicates_dropped_and_counted(monkeypatch):
    data = expand(COUNTS_D1, D1)
    real = ar_mod._block

    def flaky_block(*args):
        stats, clipped, status, in_range = real(*args)
        if args[3].shape[0] > 1:  # the bootstrap's block, not the sample's block of one
            status = status.copy()
            status[[2, 3, 4], 1] = 1  # three replicates' stratum-1 fits fail
        return stats, clipped, status, in_range

    monkeypatch.setattr(ar_mod, "_block", flaky_block)
    curve, diag = ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=6, step=0.1)
    assert diag.n_dropped == 3
    assert diag.n_kept == 197


def test_sample_with_bad_probabilities_raises_before_any_draw(monkeypatch):
    # NaN coefficients of the sample's stratum-1 fit, the second of its
    # block's three fit_logit_batch calls, give NaN fitted Pi(1|1,x), a
    # typed refusal
    calls = []
    real = ar_mod.fit_logit_batch

    def batch(t, X, W):
        calls.append(1)
        coef, status = real(t, X, W)
        return (np.full_like(coef, np.nan) if len(calls) == 2 else coef), status

    monkeypatch.setattr(ar_mod, "fit_logit_batch", batch)
    draws = []
    monkeypatch.setattr(ar_mod, "_replicate_counts", lambda *a: draws.append(1))
    with pytest.raises(NuisanceProbabilityOutOfRange, match="leave \\[0, 1\\]"):
        ar_curve(expand(COUNTS_D1, D1), LIN, LIN, pbar=0.5, B=200, seed=6, step=0.1)
    assert draws == []


def assert_matches_lone_refits(data, pspec, rspec, monkeypatch, **kwargs):
    """The per-replicate reference: `ar_curve` against the same run with
    every replicate refitted alone, a block of one at its own support's
    widths, and dropped on its verdict.  Returns the replicates of each
    batched kernel call of the first run."""
    sizes = record_batches(monkeypatch)
    curve, diag = ar_curve(data, pspec, rspec, **kwargs)
    engine_sizes = sizes.copy()
    real = ar_mod._refit_block

    def refit_alone(data, layout, counts, grid):
        parts = [real(data, at_own_widths(layout, c), c[None], grid) for c in counts]
        return tuple(np.concatenate(a) for a in zip(*parts))

    monkeypatch.setattr(ar_mod, "_refit_block", refit_alone)
    looped, looped_diag = ar_curve(data, pspec, rspec, **kwargs)
    assert np.array_equal(diag.mu_star, looped_diag.mu_star)
    np.testing.assert_allclose(curve.upper, looped.upper, rtol=1e-12, atol=1e-12)
    assert (diag.n_kept, diag.n_clipped_boot) == (looped_diag.n_kept,
                                                  looped_diag.n_clipped_boot)
    return engine_sizes


def test_replicates_with_bad_probabilities_are_dropped(monkeypatch):
    # NaN coefficients of the batched stratum-1 fit, with status 0, give NaN
    # fitted Pi(1|1,x) in the 3rd, 50th and 200th replicates
    data = expand(COUNTS_D1, D1)
    _, clean = ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=6, step=0.1)
    assert clean.n_dropped == 0
    bad = [2, 49, 199]
    real_batch, real_refit = ar_mod.fit_logit_batch, ar_mod._refit_block
    sizes, verdicts = [], []

    def batch(t, X, W):
        # the sample's block of one, then one block of all 200: stratum 0,
        # stratum 1, the prospective fit
        coef, status = real_batch(t, X, W)
        sizes.append(W.shape[0])
        if len(sizes) == 5:
            coef[bad] = np.nan
        return coef, status

    def refit(*args):
        out = real_refit(*args)
        verdicts.extend(out[2])
        return out

    monkeypatch.setattr(ar_mod, "fit_logit_batch", batch)
    monkeypatch.setattr(ar_mod, "_refit_block", refit)
    _, diag = ar_curve(data, LIN, LIN, pbar=0.5, B=200, seed=6, step=0.1)
    assert sizes == [1] * 3 + [200] * 3 and (diag.n_dropped, diag.n_kept) == (3, 197)
    assert verdicts[0] is None
    assert {b: type(v) for b, v in enumerate(verdicts[1:]) if v is not None} == dict.fromkeys(
        bad, NuisanceProbabilityOutOfRange)


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
    return rowwise_statistic(bdata, rspec, pspec, grid)


def has_spline(*specs):
    return any(isinstance(term, CubicSplineTerm) for spec in specs for term in spec.terms)


# a replicate's statistic from its packed block against the same replicate
# refitted alone, a block of one at its own support's widths, relative to
# max(1, |value|): 1e-12 on linear bases.  The two differ only in the
# padding, whose length moves the BLAS sums.  The block is the only
# verdict, so every replicate it keeps is compared.  A spline design is
# ill-conditioned (covariance condition numbers 1e4-1e8): over the spline
# inputs of these tests (the two of test_block_statistic_equals_the_lone_refit,
# the ar_cp_spline input and that of
# test_spline_replicates_are_refitted_in_blocks) the two agreed to 5.5e-12 at
# worst (on the last), so the bound is that times about 20, the 1e-10 of the
# benchmark's references
LINEAR_TOL, SPLINE_TOL = 1e-12, 1e-10


def block_statistics(data, pspec, rspec, grid, all_counts, mode, size=25):
    """`_refit_block` on the replicates' counts in blocks of `size`, with the
    layout `ar_curve` would use: statistics, clip counts, and the class of
    the verdict that drops each replicate, or None where the block keeps
    it."""
    patterns, inverse = ar_mod._patterns(data)
    layout = ar_mod._layout(patterns, np.bincount(inverse), (rspec, pspec), mode)
    parts = [ar_mod._refit_block(data, layout, all_counts[i:i + size], grid)
             for i in range(0, all_counts.shape[0], size)]
    stats, clipped, verdict = (np.concatenate(a) for a in zip(*parts))
    return stats, clipped, [None if v is None else type(v) for v in verdict]


def assert_replicates_match(data, pspec, rspec, pbar, step, B, seed, mode):
    """Each replicate three ways: the expanded rows, `lone_refit`, and its
    row of a packed block, which keeps it exactly where the expanded rows
    fit and otherwise drops it with their class.  Returns the diagnostics
    and the exception classes of the dropped replicates."""
    grid = p_grid(pbar, step)
    patterns, inverse = ar_mod._patterns(data)
    rng = RngSpec(seed)
    all_counts = np.array([ar_mod._replicate_counts(rng.derive("ar-bootstrap", b), data.y,
                                                    inverse, patterns.shape[0], mode)
                           for b in range(B)])
    stats, block_clipped, reason = block_statistics(data, pspec, rspec, grid, all_counts, mode)
    tol = SPLINE_TOL if has_spline(rspec, pspec) else LINEAR_TOL
    kept = dropped = clipped = 0
    failures = Counter()
    for b, counts in enumerate(all_counts):
        try:
            want, want_clipped = expanded_replicate(data, rng.derive("ar-bootstrap", b),
                                                    mode, pspec, rspec, grid)
        except CaseboundError as exc:
            with pytest.raises(CaseboundError) as got:
                lone_refit(data, counts, pspec, rspec, grid)
            if type(exc) is EmptyStratum:
                # the support refuses an empty stratum as invalid input too:
                # its fit raises fit_logit's ValidationError, the parent of
                # EmptyStratum, unless the stratum took a covariate level with
                # it and the basis raises DegenerateColumn first
                assert got.type in (ValidationError, DegenerateColumn)
            else:
                assert got.type is type(exc)
            assert reason[b] is got.type
            failures[type(exc).__name__] += 1
            dropped += 1
            continue
        got, got_clipped = lone_refit(data, counts, pspec, rspec, grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got_clipped == want_clipped
        assert reason[b] is None
        np.testing.assert_allclose(stats[b], got, rtol=tol, atol=tol)
        assert block_clipped[b] == got_clipped
        kept += 1
        clipped += got_clipped
    _, diag = ar_curve(data, pspec, rspec, pbar=pbar, B=B, seed=seed, step=step,
                       resample_mode=mode)
    assert (diag.n_kept, diag.n_dropped, diag.n_clipped_boot) == (kept, dropped, clipped)
    return diag, failures


@pytest.mark.parametrize("mode", ["iid", "stratified"])
@pytest.mark.parametrize("h0", [None, 0.3])
def test_weighted_replicates_equal_expanded_rows_case_control(h0, mode):
    data = expand(COUNTS_D1, D1, h0)
    assert data.h0_estimated is (h0 is None)
    diag, _ = assert_replicates_match(data, LIN, LIN, pbar=0.6, step=0.1, B=200, seed=7,
                                      mode=mode)
    assert diag.n_kept == 200


def test_weighted_replicates_equal_expanded_rows_case_population_linear():
    data = expand(COUNTS_D1, D2)
    diag, _ = assert_replicates_match(data, LIN, LIN, pbar=0.3, step=0.05, B=200, seed=8,
                                      mode="iid")
    assert diag.n_kept == 200


def test_weighted_replicates_equal_expanded_rows_ar_cc_input():
    # the input of the ar_cc benchmark workload at seed 1: 2400 rows, 8 patterns
    pop = random_population(RngSpec(20240501).derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    drawn = sample_from_population(pop, D1, 0.5, 2400, RngSpec(1).derive("perfbench-ar-cc"))
    data = ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D1, h0=0.5)
    diag, _ = assert_replicates_match(data, LIN, LIN, pbar=0.6, step=0.05, B=200, seed=1,
                                      mode="iid")
    assert diag.n_kept == 200


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
    diag, failures = assert_replicates_match(
        fragile_data(design), LIN, LIN, pbar=0.6, step=0.1, B=200, seed=3, mode="iid")
    for name in ("EmptyStratum", "DegenerateColumn", "ValidationError"):
        assert failures[name] > 0, failures
    assert diag.n_dropped == sum(failures.values()) and diag.n_kept > 0


def wide_data(n, design=D1, spline=False):
    # a continuous covariate: every row is its own pattern; a second one,
    # for a spline term beside the linear one
    gen = RngSpec(11).derive("wide")
    x = np.linspace(-2.0, 2.0, n)
    y = bernoulli(gen, np.full(n, 0.5))
    z = RngSpec(11).derive("wide-z").normal(size=n)
    t = bernoulli(gen, 1.0 / (1.0 + np.exp(-0.5 * x - 0.8 * y + 0.3 - 0.4 * spline * z)))
    return ObservedDataset(y=y, t=t, x=np.column_stack([z, x] if spline else [x]),
                           design=design)


SPLINE_LIN = BasisSpec((CubicSplineTerm(3), Linear()))


def record_batches(monkeypatch):
    """Patch the batched kernel to record the replicates of every call it
    makes, three per block (stratum 0, stratum 1, the prospective fit)."""
    sizes = []
    real = ar_mod.fit_logit_batch
    monkeypatch.setattr(ar_mod, "fit_logit_batch",
                        lambda t, X, W: sizes.append(W.shape[0]) or real(t, X, W))
    return sizes


@pytest.mark.parametrize("data, rspec, sizes, sample_blocks", [
    (expand(COUNTS_D1, D1), LIN, 17, 1), (fragile_data(D2), LIN, 41, 1),
    (wide_data(300, D2, spline=True), SPLINE_LIN, 1, 2), (wide_data(300), LIN, 1, 2)],
    ids=["counts_d1", "fragile", "spline", "wide"])
def test_block_composition_invariance(data, rspec, sizes, sample_blocks, monkeypatch):
    # a replicate's packed rows do not depend on its block, so neither do
    # the bits of its statistic
    pspec = BasisSpec.linear(data.n_covariates)
    grid = p_grid(0.6, 0.1)
    patterns, inverse = ar_mod._patterns(data)
    counts = np.array([ar_mod._replicate_counts(RngSpec(5).derive("ar-bootstrap", b),
                                                data.y, inverse, patterns.shape[0], "iid")
                       for b in range(60)])
    layout = ar_mod._layout(patterns, np.bincount(inverse), (rspec, pspec), "iid")
    stats, clipped, verdict = ar_mod._refit_block(data, layout, counts, grid)
    ok = np.equal(verdict, None)
    assert ok.any()
    for b in range(60):
        alone = ar_mod._refit_block(data, layout, counts[b:b + 1], grid)
        assert type(alone[2][0]) is type(verdict[b]) and str(alone[2][0]) == str(verdict[b])
        if ok[b]:
            assert np.array_equal(alone[0][0], stats[b]) and alone[1][0] == clipped[b]
    # and the engine's output does not depend on its block size
    want = ar_curve(data, pspec, rspec, pbar=0.6, B=200, seed=5, step=0.1)
    recorded = record_batches(monkeypatch)
    # seven grid points on eight case-control patterns: blocks of 17; four
    # design columns on six case-population patterns: blocks of 41; the
    # wide tables pack about 250 rows, so every block holds one replicate.
    # The sample comes first, a block of one; on a wide table it is wider
    # than the layout, so its layout's block, which fits nothing, is
    # followed by its own
    monkeypatch.setattr(ar_mod, "_BLOCK_CELLS", 1000)
    got = ar_curve(data, pspec, rspec, pbar=0.6, B=200, seed=5, step=0.1)
    sample, boot = recorded[:3 * sample_blocks], recorded[3 * sample_blocks:]
    assert sample == [1] * len(sample) and boot[0] == sizes and sum(boot[::3]) == 200
    assert np.array_equal(got[0].upper, want[0].upper)
    assert np.array_equal(got[1].mu_star, want[1].mu_star)
    assert (got[1].n_kept, got[1].n_clipped_boot) == (want[1].n_kept, want[1].n_clipped_boot)


@pytest.mark.parametrize("n, pbar, design", [
    (60, 1.0, D1), (90, 1.0, D1), (90, 0.6, D1), (90, 1.0, D2)],
    ids=["60-1.0", "90-1.0", "90-0.6", "case-population-90-1.0"])
def test_pattern_tables_of_any_width_are_batched(n, pbar, design, monkeypatch):
    # every row its own pattern: each replicate is packed on its support,
    # and the engine equals the per-replicate reference
    data = wide_data(n, design)
    sizes = assert_matches_lone_refits(data, LIN, LIN, monkeypatch, pbar=pbar, B=200, seed=2)
    # at most 90 rows the layout holds a whole stratum: the sample is a
    # block of one, and no replicate is refitted alone
    assert sizes[:3] == [1] * 3 and sum(sizes[3::3]) == 200


@pytest.mark.parametrize("design", [D1, D2])
@pytest.mark.parametrize("rspec", [SPLINE_LIN, BasisSpec.linear(2)], ids=["spline3", "linear"])
def test_block_statistic_equals_the_lone_refit(rspec, design):
    # each replicate kept in a packed block has the statistic of its lone
    # refit, and one the block drops raises the same class alone
    data = wide_data(400, design, spline=True)
    pspec = BasisSpec.linear(2)
    grid = p_grid(0.6, 0.1)
    patterns, inverse = ar_mod._patterns(data)
    counts = np.array([ar_mod._replicate_counts(RngSpec(9).derive("ar-bootstrap", b),
                                                data.y, inverse, patterns.shape[0], "iid")
                       for b in range(100)])
    stats, clipped, reason = block_statistics(data, pspec, rspec, grid, counts, "iid")
    assert reason.count(None) > 90
    tol = SPLINE_TOL if has_spline(rspec) else LINEAR_TOL
    for b in range(100):
        if reason[b] is not None:
            with pytest.raises(reason[b]) as got:
                lone_refit(data, counts[b], pspec, rspec, grid)
            assert got.type is reason[b]
            continue
        got, got_clipped = lone_refit(data, counts[b], pspec, rspec, grid)
        np.testing.assert_allclose(stats[b], got, rtol=tol, atol=tol)
        assert clipped[b] == got_clipped


def test_a_replicate_wider_than_the_layout_is_refitted_alone(monkeypatch):
    # with no margin over the expected number of distinct patterns, about
    # half the draws take more in a stratum than the packed width holds
    data = wide_data(300)
    want = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=3)
    monkeypatch.setattr(ar_mod, "_WIDTH_SDS", 0.0)
    patterns, inverse = ar_mod._patterns(data)
    layout = ar_mod._layout(patterns, np.bincount(inverse), (LIN, LIN), "iid")
    counts = np.array([ar_mod._replicate_counts(RngSpec(3).derive("ar-bootstrap", b),
                                                data.y, inverse, patterns.shape[0], "iid")
                       for b in range(200)])
    wide = ar_mod._pack(counts, np.count_nonzero(patterns[:, 0] == 0), layout.widths)[1]
    assert 20 < wide.sum() < 180
    alone = []
    real = ar_mod._refit_block

    def refit(data, run_layout, counts, grid):
        if run_layout.widths != layout.widths:
            alone.append(counts[0])
        return real(data, run_layout, counts, grid)

    monkeypatch.setattr(ar_mod, "_refit_block", refit)
    got = ar_curve(data, LIN, LIN, pbar=0.6, B=200, seed=3)
    # the sample, then every wide replicate in draw order
    assert np.array_equal(alone[0], np.bincount(inverse))
    assert np.array_equal(np.array(alone[1:]), counts[wide])
    np.testing.assert_allclose(got[0].upper, want[0].upper, rtol=1e-12, atol=1e-12)
    assert np.array_equal(got[1].mu_star, want[1].mu_star)
    assert (got[1].n_kept, got[1].n_clipped_boot) == (want[1].n_kept, want[1].n_clipped_boot)


def test_spline_replicates_are_refitted_in_blocks(monkeypatch):
    # a spline basis: ar_curve refits alone only the sample, wider than the
    # layout, its blocks hold all B, a replicate a fit status fails is
    # dropped there, and no fit goes through fit_logit; on the ar_cp_spline
    # input some replicates separate
    real_batch, real_fit = ar_mod.fit_logit_batch, ar_mod.fit_logit
    for data, pspec, rspec, pbar, separated in [
            (wide_data(600, D2, spline=True), BasisSpec.linear(2), SPLINE_LIN, 0.6, False),
            (spline_draw(20240501), BasisSpec.linear(5), SPLINE5, 0.15, True)]:
        blocks, lone_fits = [], []

        def batch(t, X, W):
            coef, status = real_batch(t, X, W)
            blocks.append(status)
            return coef, status

        monkeypatch.setattr(ar_mod, "fit_logit_batch", batch)
        monkeypatch.setattr(ar_mod, "fit_logit", lambda *a: lone_fits.append(1) or real_fit(*a))
        _, diag = ar_curve(data, pspec, rspec, pbar=pbar, B=200, seed=1)
        # the sample: its layout's block of one, which fits nothing, and its own
        sample, boot = blocks[:6], blocks[6:]
        assert [status.size for status in sample] == [1] * 6
        assert sum(status.size for status in boot[::3]) == 200
        failed = sum(np.count_nonzero(s0 | s1 | p) for s0, s1, p in zip(*[iter(boot)] * 3))
        assert lone_fits == []
        assert diag.n_dropped == failed and bool(failed) == separated


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
    assert_matches_lone_refits(data, LIN, LIN, monkeypatch, pbar=0.6, B=200, seed=7, step=0.05,
                               resample_mode="stratified")


def test_weighted_replicates_equal_expanded_rows_spline_case_population():
    # the spline draw of the case-population benchmark: every row distinct,
    # knots per replicate, and replicates dropped on separation
    drawn = draw_mc_sample(mc_defaults(), RngSpec(20240501).derive("mc-replicate", 0))
    data = ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D2)
    rspec = BasisSpec((CubicSplineTerm(3),) + (Linear(),) * 4)
    diag, failures = assert_replicates_match(data, BasisSpec.linear(5), rspec, pbar=0.15,
                                             step=0.01, B=200, seed=1, mode="iid")
    assert diag.n_dropped > 0 and diag.n_clipped_boot > 0
    assert failures == {"SeparationDetected": diag.n_dropped}


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
        lone_refit(data, counts, LIN, LIN, p_grid(0.6, 0.1))
    assert got.type is replicate_error and issubclass(error, replicate_error)
    rows = np.repeat(patterns, counts, axis=0)
    with pytest.raises(error):
        bdata = ObservedDataset(y=rows[:, 0].astype(int), t=rows[:, 1].astype(int),
                                x=rows[:, 2:], design=D1,
                                h0=None if data.h0_estimated else data.h0)
        rowwise_statistic(bdata, LIN, LIN, p_grid(0.6, 0.1))


# --- the sample as the replicate whose counts are its multiplicities ---------


def ar_cc_input():
    # the input of the ar_cc benchmark workload at seed 1: 2400 rows, 8 patterns
    pop = random_population(RngSpec(20240501).derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    drawn = sample_from_population(pop, D1, 0.5, 2400, RngSpec(1).derive("perfbench-ar-cc"))
    return ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D1, h0=0.5)


SPLINE5 = BasisSpec((CubicSplineTerm(3),) + (Linear(),) * 4)


def spline_draw(seed):
    # an n = 2000 draw of the MC design read as case-population data; seed
    # 20240501 is the ar_cp_spline benchmark input
    drawn = draw_mc_sample(mc_defaults(), RngSpec(seed).derive("mc-replicate", 0))
    return ObservedDataset(y=drawn.y, t=drawn.t, x=drawn.x, design=D2)


@pytest.mark.parametrize("make, pspec, rspec, pbar", [
    (lambda: expand(COUNTS_D1, D1), LIN, LIN, 0.6),
    (lambda: expand(COUNTS_D1, D1, 0.3), LIN, LIN, 0.6),
    (lambda: expand(COUNTS_D1, D2), LIN, LIN, 0.3),
    (lambda: expand(COUNTS_D1, D2, 0.3), LIN, LIN, 0.3),
    (ar_cc_input, LIN, LIN, 0.6),
    (lambda: spline_draw(20240501), BasisSpec.linear(5), SPLINE5, 0.15),
], ids=["d1", "d1-h0", "d2", "d2-h0", "ar_cc", "ar_cp_spline"])
def test_point_equals_the_row_wise_read_out(make, pspec, rspec, pbar):
    data = make()
    curve, diag = ar_curve(data, pspec, rspec, pbar=pbar, B=200, seed=4)
    want, n_clipped = rowwise_statistic(data, rspec, pspec, curve.p)
    if data.design is D2:
        want = curve.p * want[0]
    np.testing.assert_allclose(curve.point, np.clip(want, 0.0, 1.0), rtol=1e-12, atol=1e-12)
    assert diag.n_clipped_point == n_clipped


def test_sample_fit_fails_as_the_rows_fail(monkeypatch):
    # forty spline draws: the sample's refit on its pattern table raises
    # exactly where the row-wise reference does, and the same class
    grid = p_grid(0.15, 0.01)
    pspec = BasisSpec.linear(5)
    separated = []
    for s in range(40):
        data = spline_draw(s)
        try:
            rowwise_statistic(data, SPLINE5, pspec, grid)
        except CaseboundError as exc:
            with pytest.raises(CaseboundError) as got:
                sample_statistic(data, pspec, SPLINE5, grid)
            assert got.type is type(exc)
            separated.append((s, type(exc)))
            continue
        sample_statistic(data, pspec, SPLINE5, grid)
    assert separated == [(1, SeparationDetected)]
    draws = []
    monkeypatch.setattr(ar_mod, "_replicate_counts", lambda *a: draws.append(1))
    with pytest.raises(SeparationDetected):
        ar_curve(spline_draw(1), pspec, SPLINE5, pbar=0.15, B=200, seed=0)
    assert draws == []


def assert_patterns_are_unique_rows(data):
    rows = np.column_stack([data.y, data.t, data.x])
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    patterns, inverse = ar_mod._patterns(data)
    assert np.array_equal(patterns, want) and np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(patterns[inverse], rows)


@pytest.mark.parametrize("make", [ar_cc_input, lambda: spline_draw(20240501),
                                  lambda: fragile_data(D1)],
                         ids=["ar_cc", "ar_cp_spline", "fragile"])
def test_patterns_equal_unique_rows(make):
    assert_patterns_are_unique_rows(make())


@st.composite
def repeated_rows(draw):
    k = draw(st.integers(0, 2))
    row = st.tuples(st.integers(0, 1), st.integers(0, 1),
                    st.tuples(*[st.sampled_from([-1.5, 0.0, 0.25, 2.0])] * k))
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = [(0, 0, (0.0,) * k), (1, 1, (0.0,) * k)] + draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return rows, k


@settings(max_examples=60, deadline=None)
@given(repeated_rows())
def test_patterns_equal_unique_rows_on_repeated_rows(table):
    rows, k = table
    data = ObservedDataset(y=np.array([r[0] for r in rows]), t=np.array([r[1] for r in rows]),
                           x=np.array([r[2] for r in rows], dtype=float).reshape(len(rows), k),
                           design=D1)
    assert_patterns_are_unique_rows(data)


def test_patterns_merge_signed_zeros():
    # -0.0 == 0.0, so both signs are one pattern, as in np.unique; which sign
    # stands for it is not specified, so the rows are compared by value
    data = ObservedDataset(y=np.array([0, 1, 0, 1]), t=np.array([1, 0, 1, 0]),
                           x=np.array([[-0.0], [0.0], [0.0], [-0.0]]), design=D1)
    patterns, inverse = ar_mod._patterns(data)
    want, want_inverse = np.unique(np.column_stack([data.y, data.t, data.x]), axis=0,
                                   return_inverse=True)
    assert patterns.shape == (2, 3) and (patterns == want).all()
    assert np.array_equal(inverse, want_inverse.ravel()) and list(inverse) == [0, 1, 0, 1]
