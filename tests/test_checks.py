import math

import pytest

from casebound import checks
from casebound.checks import _Tally, check_population, render_report, run_identity_suite
from casebound.errors import ValidationError
from casebound.fixtures import top_income_population
from casebound.oracle import random_population
from casebound.rng import RngSpec


def test_identity_suite_passes_on_small_run():
    results = run_identity_suite(seed=1, n_populations=12)
    assert len(results) == 14
    failures = [r for r in results if not r.passed]
    assert failures == []
    exact = [r for r in results if "identity" in r.name or "invariance" in r.name]
    assert exact and all(r.worst_error < 1e-10 for r in exact)


def test_negative_control_present():
    results = run_identity_suite(seed=2, n_populations=8)
    names = [r.name for r in results]
    assert any("negative control" in n for n in names)


def test_render_report_format():
    results = run_identity_suite(seed=3, n_populations=5)
    text = render_report(results)
    assert text.count("[PASS]") == len(results)
    assert "worst error" in text


def test_check_population_on_bundled_table():
    results = check_population(top_income_population())
    assert all(r.passed for r in results)
    # the single-cell completion satisfies both monotonicity assumptions
    names = " ".join(r.name for r in results)
    assert "odds-ratio invariance" in names
    assert "monotone" in names


def test_nan_error_fails_with_counterexample():
    pop = top_income_population()
    tally = _Tally("nan")
    tally.record(1e-13, pop, 0, 1e-10)
    tally.record(float("nan"), pop, 0, 1e-10)
    tally.record(2e-13, pop, 0, 1e-10)
    res = tally.result()
    assert res.n_cases == 3 and res.n_failures == 1 and not res.passed
    assert res.worst_error == math.inf
    assert res.counterexample.startswith("cell=0 err=nan")


def test_empty_suite_is_rejected():
    for n in (0, -3):
        with pytest.raises(ValidationError):
            run_identity_suite(seed=1, n_populations=n)


def test_suite_projects_each_population_once_per_design(monkeypatch):
    projected = []   # holding the populations keeps their ids distinct
    real = checks.project

    def counting(pop, design, h0):
        projected.append((pop, design))
        return real(pop, design, h0)

    monkeypatch.setattr(checks, "project", counting)
    n = 5
    results = run_identity_suite(seed=4, n_populations=n)
    keys = [(id(pop), design) for pop, design in projected]
    assert len(set(keys)) == len(keys)
    # 3 two-design families, 1 case-control family, 3 rare-disease scales, 1 MTS control
    assert len(keys) == n * (3 * 2 + 1 + 3 + 1)
    assert all(r.passed for r in results)


def test_check_population_runs_every_exact_check_that_applies():
    def names(results):
        return " | ".join(r.name for r in results)

    table = check_population(top_income_population())
    assert all(r.passed for r in table)
    assert "case-population AR bound is p times its slope" in names(table)
    assert "Gamma decreasing in p" not in names(table)  # not unconfounded
    pop = random_population(RngSpec(5).derive("pop-unconf-mtr", 0), n_cells=2,
                            unconfounded=True, mtr=True, mts=True)
    results = check_population(pop)
    assert all(r.passed for r in results)
    assert "Gamma decreasing in p" in names(results)
    # the finite-difference slope check is not exact on an arbitrary population
    assert "finite difference" not in names(results) + names(table)
