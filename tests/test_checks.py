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


def test_cp_bound_check_catches_a_wrong_slope(monkeypatch):
    # a slope without the (1 - h0)/h0 factor: the bound built cell by cell
    # keeps the factor, so the check must fail
    from casebound import oracle

    def slope_without_factor(law):
        q = law.pyx
        diff = oracle.gamma_ar_formula(law.pi[1, 0], law.pi[1, 1], 0.0)
        return float(law.fxy[0] @ (q / (1.0 - q) * diff))

    monkeypatch.setattr(oracle, "xi_cp", slope_without_factor)
    monkeypatch.setattr(checks, "xi_cp", slope_without_factor, raising=False)
    pops = [random_population(RngSpec(5).derive("cp-slope", i)) for i in range(3)]
    result = checks._check_cp_bound_linear(checks._cases(pops))
    assert result.n_cases == 12
    assert not result.passed


# the checks the suite runs on each family of random populations, by name,
# with the keyword arguments that draw the family
FAMILIES = {
    "pop-general": ({}, ["case-probability identity", "prospective relative risk",
                         "odds-ratio invariance", "aggregation", "AR bound is p times",
                         "finite difference"]),
    "pop-monotone": ({"mtr": True, "mts": True},
                     ["monotone populations", "relative risk lies in",
                      "attributable risk lies in"]),
    "pop-unconf": ({"unconfounded": True},
                   ["Gamma pins down the relative risk", "pins down the attributable risk"]),
    "pop-unconf-mtr": ({"unconfounded": True, "mtr": True, "mts": True},
                       ["Gamma decreasing in p"]),
}


@pytest.mark.parametrize("purpose", list(FAMILIES))
def test_check_population_runs_the_suites_checks_of_each_family(purpose):
    # a population drawn as the suite draws a family gets every check the
    # suite runs on that family but the finite-difference one, in the
    # suite's order; general checks apply to every family
    kind, family = FAMILIES[purpose]
    expected = [needle for needle in FAMILIES["pop-general"][1] + family
                if needle != "finite difference"]
    suite = [r.name for r in run_identity_suite(seed=6, n_populations=1)]
    for i in range(3):
        pop = random_population(RngSpec(6).derive(purpose, i), n_cells=2, **kind)
        results = check_population(pop)
        names = [r.name for r in results]
        assert all(r.passed for r in results)
        assert all(any(needle in name for name in names) for needle in expected), names
        assert not any("finite difference" in name for name in names)
        assert names == [name for name in suite if name in names]
