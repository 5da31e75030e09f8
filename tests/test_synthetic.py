import hashlib
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import casebound.relative_risk as relative_risk
import casebound.synthetic as synthetic
from casebound.errors import CaseboundError, DegenerateColumn, OverlapViolation, ValidationError
from casebound.fixtures import mc_defaults, top_income_population
from casebound.model import Design
from casebound.oracle import population_from_margins, project, random_population
from casebound.relative_risk import estimate_beta_combined, fit_nuisances
from casebound.rng import RngSpec, standard_normals
from casebound.special import ndtri
from casebound.synthetic import (
    MCDesign,
    _median,
    draw_mc_sample,
    parametric_spec,
    run_mc_study,
    sample_from_population,
    sieve_spec,
)


def test_design_defaults_and_truth():
    design = mc_defaults()
    assert design.dx == 5 and design.n_per_stratum == 1000
    assert design.true_beta(0) == pytest.approx(0.5, abs=1e-15)
    assert design.true_beta(1) == pytest.approx(0.5, abs=1e-15)
    sigma = design.sigma()
    assert sigma[0, 0] == 1.0 and sigma[0, 1] == 0.5 and sigma[0, 4] == 0.5 ** 4
    assert np.all(np.linalg.eigvalsh(sigma) > 0)
    assert sieve_spec(design).n_columns == 20


def test_design_validation():
    with pytest.raises(ValidationError):
        MCDesign(rho=1.0)
    with pytest.raises(ValidationError):
        MCDesign(mu1=(1.0, 1.0))


def test_draw_stratum_means_and_h0():
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(1).derive("mc-replicate", 0))
    assert data.n == 2000
    assert data.h0 == 0.5 and data.h0_estimated
    tol = 3.0 / np.sqrt(design.n_per_stratum)
    case_mean = data.x[data.stratum(1)].mean(axis=0)
    ctrl_mean = data.x[data.stratum(0)].mean(axis=0)
    assert np.all(np.abs(case_mean - 1.0) < tol)
    assert np.all(np.abs(ctrl_mean - 0.0) < tol)


def test_draw_zero_correlation():
    design = MCDesign(rho=0.0)
    data = draw_mc_sample(design, RngSpec(2).derive("mc-replicate", 0))
    x = data.x[data.stratum(1)]
    corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(design.n_per_stratum)


def test_draws_are_byte_identical_for_equal_seeds():
    design = mc_defaults()
    d1 = draw_mc_sample(design, RngSpec(3).derive("mc-replicate", 5))
    d2 = draw_mc_sample(design, RngSpec(3).derive("mc-replicate", 5))
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.t, d2.t)
    d3 = draw_mc_sample(design, RngSpec(3).derive("mc-replicate", 6))
    assert not np.array_equal(d1.x, d3.x)


def test_marginals_pass_kolmogorov_smirnov():
    design = mc_defaults()
    rng = RngSpec(4)
    n_pass = n_total = 0
    for r in range(12):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        for y, mu in ((1, design.mu1), (0, design.mu0)):
            rows = data.stratum(y)
            for j in range(design.dx):
                p = stats.kstest(data.x[rows, j], "norm", args=(mu[j], 1.0)).pvalue
                n_pass += p > 0.01
                n_total += 1
    assert n_pass / n_total >= 0.95


def test_sample_from_population_design1_proportions():
    pop = top_income_population()
    gen = RngSpec(5).derive("pop-sample", 0)
    n = 40000
    data = sample_from_population(pop, Design.CASE_CONTROL, 0.5, n, gen)
    mask = data.stratum(1)
    p_hat = data.t[mask].mean()
    target = 524.0 / 921.0
    se = np.sqrt(target * (1 - target) / mask.sum())
    assert abs(p_hat - target) < 3 * se


def test_sample_from_population_design2_proportions():
    pop = top_income_population()
    gen = RngSpec(6).derive("pop-sample", 1)
    n = 40000
    data = sample_from_population(pop, Design.CASE_POPULATION, 0.5, n, gen)
    mask = data.stratum(0)
    p_hat = data.t[mask].mean()
    target = 6886.0 / 17816.0
    se = np.sqrt(target * (1 - target) / mask.sum())
    assert abs(p_hat - target) < 3 * se


@pytest.mark.parametrize("design", [Design.CASE_CONTROL, Design.CASE_POPULATION])
def test_sample_from_population_follows_the_projected_stratum_law(design):
    # (cell, t) frequencies of each stratum against law.fxy[s] * law.pi[:, s]
    pop = random_population(RngSpec(11).derive("pop-sample-law"), n_cells=3)
    law = project(pop, design, 0.5)
    n = 40000
    data = sample_from_population(pop, design, 0.5, n, RngSpec(12).derive("pop-sample", 3))
    cells = data.x[:, 0].astype(int)
    for s in (0, 1):
        rows = data.stratum(s)
        counts = np.zeros((2, pop.n_cells))
        np.add.at(counts, (data.t[rows], cells[rows]), 1)
        target = law.fxy[s] * law.pi[:, s]
        se = np.sqrt(target * (1 - target) / rows.sum())
        assert np.all(np.abs(counts / rows.sum() - target) < 4 * se)


def test_sample_from_population_refuses_a_population_without_overlap():
    pop = population_from_margins(pt=[0.0], q1=[0.4], q0=[0.2])
    with pytest.raises(OverlapViolation):
        sample_from_population(pop, Design.CASE_CONTROL, 0.5, 50,
                               RngSpec(7).derive("pop-sample", 2))


@pytest.mark.parametrize("h0", [0.0, 1.0, 1.5])
def test_sample_refuses_h0_outside_unit_interval_before_drawing(h0):
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"generator used: {name}")

    with pytest.raises(ValidationError):
        sample_from_population(top_income_population(), Design.CASE_CONTROL, h0, 50,
                               NoDraws())


def test_ar_cc_benchmark_input_stream_is_pinned():
    # y, t, x bytes of the case-control draws the ar_cc benchmark reads,
    # for its first four input seeds; any change to the sampler's stream
    # changes this digest
    pop = random_population(RngSpec(20240501).derive("accept-ar-pop"),
                            n_cells=2, mtr=True, mts=True)
    digest = hashlib.sha256()
    for seed in range(4):
        data = sample_from_population(pop, Design.CASE_CONTROL, 0.5, 2400,
                                      RngSpec(seed).derive("perfbench-ar-cc"))
        for arr, dtype in ((data.y, np.int8), (data.t, np.int8), (data.x, np.float64)):
            digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert digest.hexdigest() == (
        "89e14d9d0a814d732cf8662c696beec8d5c5c121fc4130b90ad330de9a739a2a")


_MEDIAN_ENTRIES = st.floats() | st.sampled_from([0.0, -0.0, float("nan"), -float("nan")])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: arrays(np.float64, n, elements=_MEDIAN_ENTRIES)))
def test_median_is_np_median_byte_for_byte(v):
    # signed zeros, infinities, NaN payloads and the empty-slice warnings
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        got = _median(v)
    with warnings.catch_warnings(record=True) as numpy_s:
        warnings.simplefilter("always")
        want = np.median(v)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert ([(w.category, str(w.message)) for w in ours]
            == [(w.category, str(w.message)) for w in numpy_s])


def test_run_mc_study_deterministic_and_sane():
    design = mc_defaults()
    r1 = run_mc_study(design, ("parametric",), replications=100, rng=RngSpec(8))
    r2 = run_mc_study(design, ("parametric",), replications=100, rng=RngSpec(8))
    assert r1.cells == r2.cells
    for y in (0, 1):
        cell = r1.cell("parametric", y)
        assert cell.n_replicates == 100
        assert abs(cell.mean_bias) < 0.08
        assert 0.85 <= cell.coverage <= 1.0
        assert cell.median_abs_dev <= cell.mean_abs_dev + 1e-12
        assert cell.mean_abs_dev <= cell.rmse + 1e-12
    with pytest.raises(ValidationError):
        run_mc_study(design, ("parametric",), replications=10, rng=RngSpec(8))
    with pytest.raises(ValidationError):
        run_mc_study(design, ("oracle",), replications=100, rng=RngSpec(8))


def test_a_repeated_estimator_is_refused_before_any_draw(monkeypatch):
    # named twice, an estimator's replicates would be fitted and counted twice
    draws = []
    monkeypatch.setattr(synthetic, "draw_mc_sample", lambda *args: draws.append(args))
    with pytest.raises(ValidationError, match=r"named more than once: \['sieve'\]"):
        run_mc_study(mc_defaults(), ("sieve", "parametric", "sieve"), replications=100,
                     rng=RngSpec(8))
    assert draws == []


def _looped_study(design, replications, rng):
    """run_mc_study's kept values and ses per (estimator, stratum) and its
    drops per estimator by class, from `fit_nuisances` on one replicate at
    a time."""
    specs = {"parametric": parametric_spec(design), "sieve": sieve_spec(design)}
    estimates = {(name, y): ([], []) for name in specs for y in (0, 1)}
    failures = {name: Counter() for name in specs}
    for r in range(replications):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        for name, spec in specs.items():
            try:
                nuis = fit_nuisances(data, spec)
                fits = [estimate_beta_combined(nuis, y) for y in (0, 1)]
            except CaseboundError as exc:
                failures[name][type(exc).__name__] += 1
                continue
            for est in fits:
                estimates[(name, est.y_stratum)][0].append(est.value)
                estimates[(name, est.y_stratum)][1].append(est.se)
    return estimates, {name: dict(c) for name, c in failures.items()}


def _assert_study_is_the_loop(design, replications, rng):
    got = run_mc_study(design, replications=replications, rng=rng)
    estimates, failures = _looped_study(design, replications, rng)
    assert got.failures == failures
    for (name, y), (values, ses) in estimates.items():
        v, s = got.estimates[(name, y)]
        assert v.tobytes() == np.asarray(values).tobytes()
        assert s.tobytes() == np.asarray(ses).tobytes()
        assert got.cell(name, y).n_failed == sum(failures[name].values())
    return got


@pytest.mark.parametrize("n", [12, 30, 60, None], ids=["n12", "n30", "n60", "defaults"])
def test_blocked_study_is_the_per_replicate_loop(n, monkeypatch):
    # bit for bit, drops included; 101 replicates leave the last block
    # partial, and every block is one kernel call per estimator holding both
    # strata of each of its replicates
    design = mc_defaults() if n is None else MCDesign(n_per_stratum=n)
    stacks = []
    real = synthetic.fit_logits
    monkeypatch.setattr(synthetic, "fit_logits",
                        lambda t, X, W: stacks.append(X.shape) or real(t, X, W))
    # at n = 12 every sieve replicate is dropped
    got = _assert_study_is_the_loop(design, 101, RngSpec(5))
    n_rows = design.n_per_stratum
    size = max(1, synthetic.BLOCK_CELLS // (2 * n_rows * 21))
    blocks = [min(size, 101 - start) for start in range(0, 101, size)]
    assert stacks == [(2 * b, n_rows, k) for b in blocks for k in (6, 21)]
    if n is None:
        assert size == 3 and len(blocks) == 34
    if n == 12:
        assert got.cell("sieve", 0).n_replicates == 0


def test_mc_drops_are_counted_by_class_and_estimator():
    result = run_mc_study(MCDesign(n_per_stratum=30), replications=101, rng=RngSpec(5))
    assert result.failures == {
        "parametric": {"SeparationDetected": 6, "ValidationError": 1},
        "sieve": {"SeparationDetected": 8, "ValidationError": 1}}
    assert [c.n_failed for c in result.cells] == [7, 7, 9, 9]


def test_an_estimator_with_no_kept_replicate_has_nan_statistics_and_no_warning():
    # at n = 12 all 101 sieve replicates fail with "need total weight > J";
    # the parametric cells are those of a study of the parametric fits alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_mc_study(MCDesign(n_per_stratum=12), replications=101, rng=RngSpec(5))
        alone = run_mc_study(MCDesign(n_per_stratum=12), ("parametric",), replications=101,
                             rng=RngSpec(5))
    assert result.failures["sieve"] == {"ValidationError": 101}
    for y in (0, 1):
        cell = result.cell("sieve", y)
        assert (cell.n_replicates, cell.n_failed) == (0, 101)
        statistics = list(vars(cell).values())[5:]
        assert len(statistics) == 8 and np.isnan(statistics).all()
        assert result.cell("parametric", y) == alone.cell("parametric", y)
        assert result.cell("parametric", y).n_replicates == 82


def test_a_basis_refusal_drops_a_replicate_before_its_fits(monkeypatch):
    # a refused basis is the replicate's verdict, ahead of any fit's, as in
    # fit_nuisances; the other replicates of its block keep their fits
    real = relative_risk.build_basis

    def refusing(x, spec, counts=None):
        if x[0, 0] > 1.0:
            raise DegenerateColumn("refused for the test")
        return real(x, spec, counts)

    monkeypatch.setattr(relative_risk, "build_basis", refusing)
    got = _assert_study_is_the_loop(MCDesign(n_per_stratum=30), 101, RngSpec(5))
    assert got.failures["parametric"]["DegenerateColumn"] > 20
    assert got.failures["sieve"]["DegenerateColumn"] > 20


def test_rng_streams_distinct_and_reproducible():
    spec = RngSpec(123)
    a = spec.derive("draws", 0).random(10000)
    b = spec.derive("draws", 0).random(10000)
    c = spec.derive("draws", 1).random(10000)
    d = spec.derive("other", 0).random(10000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_standard_normals_floor_a_zero_uniform():
    # a uniform of exactly 0 maps to ndtri(2**-53), not to -inf
    class Zeros:
        def random(self, shape):
            return np.zeros(shape)

    z = standard_normals(Zeros(), (3, 2))
    assert z.shape == (3, 2) and np.isfinite(z).all()
    assert np.array_equal(z, np.full((3, 2), ndtri(2.0 ** -53)))
    assert z[0, 0] == pytest.approx(-8.2095, abs=1e-4)
