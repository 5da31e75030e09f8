"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line per criterion (visible with -s;
also collected into acceptance_report.txt next to this package's root).
The heavy replication studies run once per session and are shared.

Criterion 2's error windows are taken from the benchmark summary they
cite, whose mean-absolute-deviation row (0.191 / 0.145) this
implementation reproduces.  That summary labels the windows' row "RMSE",
but RMSE >= mean AD always holds (Jensen), so windows of at most 0.08
cannot be RMSE windows.  Under normality MSE = (pi/2) * AD^2, which the
recorded ADs put at 0.0573 and 0.0330, the windows' centres: the row is
MSE, and the windows are checked against the MSE with their bounds as
recorded.
"""

import math
import pathlib
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import norm

from casebound.attributable_risk import ar_curve, bc_level
from casebound.basis import BasisSpec
from casebound.checks import run_identity_suite
from casebound.cli import main as cli_main
from casebound.fixtures import benchmark_estimates, count_table, mc_defaults, \
    top_income_population
from casebound.model import ColumnSchema, Design, export_csv
from casebound.oracle import gamma, project, random_population, upper_bound_ar
from casebound.relative_risk import estimate_beta_combined, estimate_beta_plugin, fit_nuisances
from casebound.rng import RngSpec
from casebound.synthetic import draw_mc_sample, parametric_spec, run_mc_study, \
    sample_from_population

SEED = 20240501
_REPORT_LINES = []
_REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "acceptance_report.txt"


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}"
    print(line)
    _REPORT_LINES.append(line)
    _REPORT_PATH.write_text("\n".join(_REPORT_LINES) + "\n")


# --------------------------------------------------------------------------
# criterion 1: bundled-table exactness and demo runtime
# --------------------------------------------------------------------------


def test_criterion_1_demo_tables():
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["demo", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    import json
    doc = json.loads(result.output)

    exact = {
        "population cross-tab (prospective)": (524 * 10533) / (6362 * 397),
        "case-control reweighting (rounded counts)": (524 * 527) / (318 * 397),
        "case-population reweighting (rounded counts)": (524 * 547) / (345 * 397),
        "university entry by private school": (155 * 151) / (332 * 51),
    }
    for label, target in exact.items():
        assert abs(doc["odds_ratios"][label] - target) < 0.005

    headline = {
        "population cross-tab (prospective)": 2.19,
        "case-control reweighting (rounded counts)": 2.19,
        "university entry by private school": 1.38,
    }
    for label, target in headline.items():
        assert abs(doc["odds_ratios"][label] - target) < 0.005
    # the 2.10 headline corresponds to the exact reweighting, not the
    # rounded counts (which recompute to 2.0927)
    assert abs(doc["projections"]["case-population projection (exact)"] - 2.10) < 0.005
    assert abs(doc["projections"]["case-control projection (exact)"] - 2.19) < 0.005

    ok = elapsed < 1.0
    report("1 (table exactness)", ok,
           f"four odds ratios within 5e-3 of exact recomputation, demo in {elapsed:.3f}s")
    assert ok


# --------------------------------------------------------------------------
# criterion 2: replication study, R=1000, fixed seed
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def mc_study():
    start = time.perf_counter()
    result = run_mc_study(mc_defaults(), ("parametric", "sieve"),
                          replications=1000, rng=RngSpec(SEED),
                          keep_estimates=True)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_2_bias_coverage_runtime(mc_study):
    result, elapsed = mc_study
    par0 = result.cell("parametric", 0)
    par1 = result.cell("parametric", 1)
    sv0 = result.cell("sieve", 0)
    sv1 = result.cell("sieve", 1)
    checks = {
        "parametric |bias| beta(1) <= 0.03": abs(par1.mean_bias) <= 0.03,
        "parametric |bias| beta(0) <= 0.03": abs(par0.mean_bias) <= 0.03,
        "parametric coverage beta(1) in [0.92, 0.97]": 0.92 <= par1.coverage <= 0.97,
        "parametric coverage beta(0) in [0.92, 0.97]": 0.92 <= par0.coverage <= 0.97,
        "sieve bias beta(1) in [0.02, 0.12]": 0.02 <= sv1.mean_bias <= 0.12,
        "sieve bias beta(0) in [0.01, 0.09]": 0.01 <= sv0.mean_bias <= 0.09,
        "sieve coverage beta(1) in [0.93, 0.99]": 0.93 <= sv1.coverage <= 0.99,
        "sieve coverage beta(0) in [0.93, 0.99]": 0.93 <= sv0.coverage <= 0.99,
        "runtime <= 15 min": elapsed <= 900.0,
    }
    ok = all(checks.values())
    report("2 (replication bias/coverage)", ok,
           f"bias ({par1.mean_bias:+.3f}, {par0.mean_bias:+.3f}) par / "
           f"({sv1.mean_bias:+.3f}, {sv0.mean_bias:+.3f}) sieve, coverage "
           f"({par1.coverage:.3f}, {par0.coverage:.3f}) par / "
           f"({sv1.coverage:.3f}, {sv0.coverage:.3f}) sieve, {elapsed:.0f}s"
           + ("" if ok else " | failed: "
              + "; ".join(k for k, v in checks.items() if not v)))
    assert ok


def test_criterion_2_rmse_windows(mc_study):
    # windows from the recorded benchmark summary.  Its row is labelled
    # RMSE, but RMSE >= mean AD (Jensen) rules that out next to its mean-AD
    # row (0.191 / 0.145); normal theory gives MSE = (pi/2) * AD^2 = 0.0573
    # / 0.0330, the windows' centres, so the row is MSE
    result, _ = mc_study
    design = mc_defaults()
    mse = {}
    for y in (0, 1):
        values, _ = result.estimates[("parametric", y)]
        mse[y] = float(np.mean((values - design.true_beta(y)) ** 2))
        assert abs(mse[y] - result.cell("parametric", y).rmse ** 2) <= 1e-12
    ad1 = result.cell("parametric", 1).mean_abs_dev
    ad0 = result.cell("parametric", 0).mean_abs_dev
    ok = 0.04 <= mse[1] <= 0.08 and 0.02 <= mse[0] <= 0.05
    report("2 (replication MSE windows)", ok,
           f"observed MSE ({mse[1]:.4f}, {mse[0]:.4f}) against recorded windows "
           f"[0.04, 0.08] / [0.02, 0.05]; mean AD ({ad1:.3f}, {ad0:.3f}) against "
           f"the recorded (0.191 / 0.145)")
    assert ok


# --------------------------------------------------------------------------
# criterion 3: oracle identity suite, >= 200 populations per check
# --------------------------------------------------------------------------


def test_criterion_3_identity_suite():
    results = run_identity_suite(seed=SEED, n_populations=200)
    failures = {r.name: r.n_failures for r in results if r.n_failures}
    exact_names = ("case-probability identity", "prospective relative risk",
                   "odds-ratio invariance", "Gamma(x, p0) <= Gamma(x, 0)",
                   "relative risk lies in", "attributable risk lies in")
    exact = [r for r in results
             if any(n in r.name for n in exact_names)]
    assert len(exact) >= 6
    ok = not failures and all(r.n_cases >= 200 for r in exact)
    report("3 (oracle identities)", ok,
           f"{len(results)} checks, worst exact-identity error "
           f"{max(r.worst_error for r in exact):.2e}, failures: {failures or 'none'}")
    assert ok


# --------------------------------------------------------------------------
# criterion 4: estimator equivalence on 50 draws
# --------------------------------------------------------------------------


def test_criterion_4_estimator_equivalence(interacted_fit):
    # the stratum-fit read-out against a separately fitted interacted logit
    design = mc_defaults()
    spec = parametric_spec(design)
    rng = RngSpec(SEED)
    worst = 0.0
    for r in range(50):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        nuis = fit_nuisances(data, spec)
        for y in (0, 1):
            inter = interacted_fit(data, spec, y)
            comb = estimate_beta_combined(nuis, y)
            plug = estimate_beta_plugin(nuis, y)
            assert comb.value == plug.value
            assert abs(inter.cov[1, 1] - comb.se ** 2) <= 1e-10
            worst = max(worst, abs(inter.coef[1] - plug.value))
    ok = worst <= 1e-6
    report("4 (combined vs plug-in)", ok,
           f"max |difference| over 50 draws x 2 strata = {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 5: the plug-in's influence-function standard error calibration
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def eif_replications():
    design = mc_defaults()
    spec = parametric_spec(design)
    rng = RngSpec(SEED)
    values = {0: [], 1: []}
    ses = {0: [], 1: []}
    for r in range(1000):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        nuis = fit_nuisances(data, spec)
        for y in (0, 1):
            est = estimate_beta_plugin(nuis, y)
            values[y].append(est.value)
            ses[y].append(est.se)
    return values, ses


def test_criterion_5_eif_se_matches_mc_sd(eif_replications):
    values, ses = eif_replications
    ratios = {}
    for y in (0, 1):
        sd = float(np.std(values[y]))
        se = float(np.mean(ses[y]))
        ratios[y] = se / sd
    ok = all(abs(r - 1.0) <= 0.15 for r in ratios.values())
    report("5 (plug-in IF se calibration)", ok,
           f"mean plug-in IF se / MC sd = {ratios[1]:.3f} (cases), "
           f"{ratios[0]:.3f} (controls)")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: uniform band coverage over 500 replications
# --------------------------------------------------------------------------


def test_criterion_6_uniform_band_coverage(mc_study):
    result, _ = mc_study
    vals1, ses1 = result.estimates[("parametric", 1)]
    vals0, ses0 = result.estimates[("parametric", 0)]
    z = norm.ppf(0.975)
    covered = 0
    n_rep = 500
    for r in range(n_rep):
        u = z * max(ses1[r], ses0[r])
        covered += min(vals1[r], vals0[r]) + u >= 0.5
    rate = covered / n_rep
    ok = rate >= 0.93
    report("6 (uniform band coverage)", ok,
           f"simultaneous coverage of the constant truth over the p-grid: {rate:.3f}")
    assert ok


# --------------------------------------------------------------------------
# criterion 7: attributable-risk structure and BC interval coverage
# --------------------------------------------------------------------------


def test_criterion_7_structure():
    # exact endpoint zeros under both designs, exact linearity under
    # case-population sampling, and the bias-correction fixed point
    rng = RngSpec(SEED)
    pop = random_population(rng.derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    lin = BasisSpec.linear(1)
    d1 = sample_from_population(pop, Design.CASE_CONTROL, 0.5, 1500,
                                rng.derive("accept-structure", 0))
    c1, _ = ar_curve(d1, lin, lin, pbar=1.0, B=200, seed=RngSpec(SEED), step=0.25)
    d2 = sample_from_population(pop, Design.CASE_POPULATION, 0.5, 1500,
                                rng.derive("accept-structure", 1))
    c2, _ = ar_curve(d2, lin, lin, pbar=0.3, B=200, seed=RngSpec(SEED), step=0.05)
    slope = c2.point[-1] / c2.p[-1]
    u = c2.upper[-1] / c2.p[-1]
    checks = {
        "case-control point(0) == 0": c1.point[0] == 0.0,
        "case-control point(1) == 0": c1.point[-1] == 0.0,
        "case-population point(0) == 0": c2.point[0] == 0.0,
        "case-population point linear": np.allclose(c2.point, c2.p * slope,
                                                    rtol=1e-12, atol=0),
        "case-population upper linear": np.allclose(c2.upper, c2.p * u,
                                                    rtol=1e-12, atol=0),
        "nu*(mu*=0.5) == 1 - alpha": abs(bc_level(0.5, 0.05, 1000) - 0.95) < 1e-12,
    }
    ok = all(checks.values())
    report("7 (attributable-risk structure)", ok,
           "exact zeros at p=0/p=1, linear case-population limits, "
           "BC fixed point at mu*=0.5"
           + ("" if ok else " | failed: "
              + "; ".join(k for k, v in checks.items() if not v)))
    assert ok


def test_criterion_7_bc_coverage():
    rng = RngSpec(SEED)
    pop = random_population(rng.derive("accept-ar-pop"), n_cells=2,
                            mtr=True, mts=True)
    law = project(pop, Design.CASE_CONTROL, 0.5)
    grid = np.linspace(0.0, 0.6, 5)
    oracle = np.array([upper_bound_ar(law, p) for p in grid])
    lin = BasisSpec.linear(1)
    n_rep, n_boot, n = 300, 320, 2400
    cover = np.zeros(grid.shape[0])
    for r in range(n_rep):
        data = sample_from_population(pop, Design.CASE_CONTROL, 0.5, n,
                                      rng.derive("accept-ar-data", r))
        curve, _ = ar_curve(data, lin, lin, pbar=0.6, alpha=0.05, B=n_boot,
                            seed=RngSpec(SEED + 1000 + r), step=0.15)
        cover += oracle <= curve.upper + 1e-12
    rates = cover / n_rep
    ok = bool(np.all(rates >= 0.93))
    report("7 (BC interval coverage)", ok,
           "pointwise coverage of the oracle bound over the grid: "
           + ", ".join(f"{r:.3f}" for r in rates))
    assert ok


# --------------------------------------------------------------------------
# criterion 8: benchmark numbers are documentation; fixture pipelines run
# --------------------------------------------------------------------------


def test_criterion_8_benchmarks_are_documentation(tmp_path):
    bench = benchmark_estimates()
    uni = bench["university_case_control"]
    gang = bench["gang_case_population"]
    assert uni["beta"] == {"case": 0.07, "control": 0.19}
    assert uni["exp_beta"] == {"case": 1.07, "control": 1.21}
    assert uni["attributable_risk"]["bootstrap_B"] == 10000
    assert gang["beta"] == {"case": 2.90, "control": 2.71}
    assert gang["exp_beta"] == {"case": 18.10, "control": 15.01}
    assert gang["attributable_risk"]["pbar"] == 0.15

    # the reproducible path: fixture tables drive the full rr pipeline
    table = count_table("university_private_school")
    data = table.to_dataset(Design.CASE_CONTROL)
    path = tmp_path / "univ.csv"
    export_csv(data, path, ColumnSchema(y="vsu", t="private"))
    result = CliRunner().invoke(cli_main, [
        "rr", "--input", str(path), "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private"])
    assert result.exit_code == 0
    assert f"{(155 * 151) / (332 * 51):.4f}"[:6] in result.output
    exact_or = gamma(project(top_income_population(), Design.CASE_POPULATION, 0.05),
                     0, 0.0)
    ok = abs(exact_or - 2.10) < 0.005
    report("8 (headline numbers documented)", ok,
           "benchmark estimates embedded as documentation; fixture-driven "
           "pipelines reproduce the computable quantities")
    assert ok
