import math

import numpy as np
import pytest

from casebound import checks
from casebound.checks import _result, check_population, render_report, run_identity_suite
from casebound.errors import ValidationError
from casebound.fixtures import top_income_population
from casebound.model import Design
from casebound.oracle import (
    AssumptionSet,
    DiscretePopulation,
    beta_aggregate,
    bounds_ar,
    bounds_rr,
    gamma,
    gamma_ar,
    gamma_ar_formula,
    population_from_margins,
    project,
    r_case_prob,
    r_formula,
    random_population,
    random_populations,
    rare_disease_slope,
    upper_bound_ar,
)
from casebound.rng import RngSpec


def _stack(pops):
    """Populations on one support as one stack."""
    return DiscretePopulation(support_x=pops[0].support_x,
                              pmf=np.stack([pop.pmf for pop in pops]))


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
    pops, _ = checks._cases(_stack([top_income_population()]))
    res = _result("nan", [[1e-13, float("nan"), 2e-13]], pops, 0, 1e-10)
    assert res.n_cases == 3 and res.n_failures == 1 and not res.passed
    assert res.worst_error == math.inf
    assert res.counterexample.startswith("cell=0 err=nan")


def test_empty_suite_is_rejected():
    for n in (0, -3):
        with pytest.raises(ValidationError):
            run_identity_suite(seed=1, n_populations=n)


def test_suite_projects_each_population_once_per_design(monkeypatch):
    # every member of every projected stack, by its pmf bytes
    projected, calls = [], []
    real = checks.project

    def counting(pop, design, h0):
        calls.append(design)
        members = pop.pmf.reshape(-1, *pop.pmf.shape[-4:])
        projected.extend((member.tobytes(), design) for member in members)
        return real(pop, design, h0)

    monkeypatch.setattr(checks, "project", counting)
    n = 5
    results = run_identity_suite(seed=4, n_populations=n)
    assert len(set(projected)) == len(projected)
    # 3 two-design families, 1 case-control family, 3 rare-disease scales, 1 MTS control,
    # each projected as one stack per design
    assert len(projected) == n * (3 * 2 + 1 + 3 + 1)
    assert len(calls) == 3 * 2 + 1 + 3 + 1
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
        # per member of the stack the check projects
        q = law.pyx
        diff = oracle.gamma_ar_formula(law.pi[..., 1, 0, :], law.pi[..., 1, 1, :], 0.0)
        return (law.fxy[..., 0, :] * (q / (1.0 - q) * diff)).sum(axis=-1)

    monkeypatch.setattr(oracle, "xi_cp", slope_without_factor)
    monkeypatch.setattr(checks, "xi_cp", slope_without_factor, raising=False)
    pops = random_populations(RngSpec(5).streams("cp-slope", 0, 3))
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


# --- the suite as a loop over populations and cells -------------------------------
#
# The suite before it checked stacks: each population projected on its own
# and every error recorded one at a time, with the per-cell oracle calls on
# one population.  The stacked suite must give every CheckResult field of it
# exactly, worst errors and counterexamples included.


class _LoopTally:
    def __init__(self, name):
        self.name, self.n, self.fail, self.worst, self.example = name, 0, 0, 0.0, None

    def record(self, err, pop, cell, tol=checks.EXACT_TOL):
        self.n += 1
        finite = math.isfinite(err)
        self.worst = max(self.worst, err if finite else math.inf)
        if err > tol or not finite:
            self.fail += 1
            if self.example is None:
                self.example = (f"cell={cell} err={err:.3e}\n"
                                f"pmf={np.array2string(pop.pmf, precision=6)}")

    def result(self):
        return checks.CheckResult(name=self.name, n_cases=self.n, n_failures=self.fail,
                                  worst_error=self.worst, counterexample=self.example)


def _loop_per_cell(name, *parts):
    def check(cases):
        t = _LoopTally(name)
        for pop, laws in cases:
            for designs, error in parts:
                for design in designs:
                    law = laws[design]
                    p = pop.p0 if design is Design.CASE_CONTROL else 0.0
                    for c in range(pop.n_cells):
                        t.record(error(pop, law, p, c), pop, c)
        return t.result()
    return check


def _loop_outside(bounds, value):
    lo, hi = bounds
    return max(lo - value, value - hi, 0.0)


_BOTH, _CC = checks._BOTH, checks._CC
_CP = (Design.CASE_POPULATION,)
_MONOTONE, _IGNORABILITY = AssumptionSet.MONOTONE, AssumptionSet.IGNORABILITY


def _loop_aggregation(cases):
    t = _LoopTally("aggregation: population mean of log OR matches the stratum mix")
    for pop, laws in cases:
        for design, law in laws.items():
            target = float(pop.cell_mass @ np.log([gamma(law, c, 0.0)
                                                   for c in range(pop.n_cells)]))
            if design is Design.CASE_CONTROL:
                mix = (1.0 - pop.p0) * beta_aggregate(law, 0) + pop.p0 * beta_aggregate(law, 1)
            else:
                mix = beta_aggregate(law, 0)
            t.record(abs(mix - target), pop, 0)
    return t.result()


def _loop_cp_bound(cases):
    t = _LoopTally("case-population AR bound is p times its slope")
    for pop, laws in cases:
        law = laws[Design.CASE_POPULATION]
        diff = gamma_ar_formula(law.pi[1, 0], law.pi[1, 1], 0.0)
        for p in (0.0, 0.25, 0.5, 1.0):
            cellwise = law.fxy[0] @ (r_formula(law.pyx, law.h0, p, law.design) * diff)
            t.record(abs(upper_bound_ar(law, p) - cellwise), pop, 0)
    return t.result()


def _loop_slope(cases):
    t = _LoopTally("odds-ratio slope at p=0 matches a finite difference (1e-4 relative)")
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            slope = rare_disease_slope(law, c)
            fd = (gamma(law, c, 1e-6) - gamma(law, c, 0.0)) / 1e-6
            t.record(abs(slope - fd) / max(abs(slope), 1e-8), pop, c, 1e-4)
            sign_ok = (slope == 0.0 or math.copysign(1.0, slope)
                       == math.copysign(1.0, law.pi[1, 0, c] - law.pi[1, 1, c]))
            t.record(0.0 if sign_ok else 1.0, pop, c, 0.5)
    return t.result()


def _loop_gamma_monotone(cases):
    t = _LoopTally("monotone + unconfounded: Gamma decreasing in p, sandwiching theta")
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            vals = [gamma(law, c, p) for p in np.linspace(0.0, 1.0, 21)]
            t.record(max(max(b - a for a, b in zip(vals, vals[1:])), 0.0), pop, c)
            theta = pop.theta(c)
            pbar = min(1.0, pop.p0 + 0.5 * (1.0 - pop.p0))
            t.record(max(gamma(law, c, pbar) - theta, theta - gamma(law, c, 0.0), 0.0), pop, c)
    return t.result()


_LOOP_CHECKS = (
    (_loop_per_cell("case-probability identity r(x, p0) = Pr(Y*=1|x)",
                    (_BOTH, lambda pop, law, p, c: abs(r_case_prob(law, c, pop.p0)
                                                       - pop.py_given_x()[c]))),
     checks._NONE, True),
    (_loop_per_cell("Gamma at the true case share equals the prospective relative risk",
                    (_BOTH, lambda pop, law, p, c: abs(gamma(law, c, p)
                                                       - pop.prospective_rr(c)))),
     checks._NONE, True),
    (_loop_per_cell("odds-ratio invariance: Gamma(x, 0) equals the prospective odds ratio",
                    (_CC, lambda pop, law, p, c: abs(gamma(law, c, 0.0)
                                                     - pop.prospective_or(c)))),
     checks._NONE, True),
    (_loop_per_cell("monotone populations: Gamma(x, p0) <= Gamma(x, 0)",
                    (_CC, lambda pop, law, p, c: max(gamma(law, c, p)
                                                     - gamma(law, c, 0.0), 0.0))),
     checks._MTR_MTS, True),
    (_loop_per_cell("relative risk lies in [1, Gamma(x, 0)] under monotonicity",
                    (_BOTH, lambda pop, law, p, c: _loop_outside(
                        bounds_rr(law, c, 1.0, _MONOTONE), pop.theta(c)))),
     checks._MTR_MTS, True),
    (_loop_per_cell("attributable risk lies in [0, envelope bound] under monotonicity",
                    (_BOTH, lambda pop, law, p, c: _loop_outside(
                        bounds_ar(law, c, 1.0, _MONOTONE), pop.theta_ar(c)))),
     checks._MTR_MTS, True),
    (_loop_per_cell("ignorability: Gamma pins down the relative risk exactly",
                    (_BOTH, lambda pop, law, p, c: abs(gamma(law, c, p) - pop.theta(c))),
                    (_CP, lambda pop, law, p, c: max(
                        abs(bound - pop.theta(c))
                        for bound in bounds_rr(law, c, 1.0, _IGNORABILITY)))),
     checks._UNCONF, True),
    (_loop_per_cell("ignorability: r * Gamma_AR pins down the attributable risk exactly",
                    (_BOTH, lambda pop, law, p, c: abs(r_case_prob(law, c, pop.p0)
                                                       * gamma_ar(law, c, p)
                                                       - pop.theta_ar(c)))),
     checks._UNCONF, True),
    (_loop_aggregation, checks._NONE, True),
    (_loop_cp_bound, checks._NONE, True),
    (_loop_slope, checks._NONE, False),
    (_loop_gamma_monotone, checks._ALL, True),
)


def _loop_cases(pops, designs=_BOTH):
    return [(pop, {design: project(pop, design, checks._H0) for design in designs})
            for pop in pops]


def _loop_rare_disease_limit(rng, n):
    t = _LoopTally("odds ratio converges to the relative risk as the case share vanishes")
    for i in range(n):
        gen = rng.derive("pop-limit", i)
        base1 = 0.3 + 0.5 * gen.random()
        base0 = base1 * (0.2 + 0.7 * gen.random())
        pt = 0.2 + 0.6 * gen.random()
        gaps = []
        for scale in (0.25, 0.025, 0.0025):
            pop = population_from_margins(np.array([pt]), np.array([base1 * scale]),
                                          np.array([base0 * scale]))
            law = project(pop, Design.CASE_CONTROL, checks._H0)
            gaps.append(abs(pop.theta(0) / gamma(law, 0, 0.0) - 1.0))
        ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.05
        t.record(0.0 if ok else 1.0, pop, 0, 0.5)
    return t.result()


def _loop_mts_violation_detected(rng, n):
    t = _LoopTally("negative control: selection violations break the odds-ratio bound")
    for i in range(n):
        gen = rng.derive("pop-anti-mts", i)
        pt = 0.25 + 0.5 * gen.random()
        hi = 0.7 + 0.25 * gen.random()
        lo = 0.05 + 0.25 * gen.random()
        pmf = np.zeros((1, 2, 2, 2))
        pmf[0, 1, 1, 1] = pt * lo
        pmf[0, 1, 0, 0] = pt * (1.0 - lo)
        pmf[0, 0, 1, 1] = (1.0 - pt) * hi
        pmf[0, 0, 0, 0] = (1.0 - pt) * (1.0 - hi)
        pop = DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)
        report = pop.check_assumptions()
        law = project(pop, Design.CASE_CONTROL, checks._H0)
        ok = not report.mts and pop.theta(0) > gamma(law, 0, 0.0) + checks.EXACT_TOL
        t.record(0.0 if ok else 1.0, pop, 0, 0.5)
    return t.result()


def _suite_as_it_was(seed, n_populations):
    rng = RngSpec(seed)
    results = {}
    for needs, (purpose, designs) in checks._FAMILIES.items():
        kind = dict.fromkeys(needs, True)
        cases = _loop_cases([random_population(rng.derive(purpose, i), n_cells=2, **kind)
                             for i in range(n_populations)], designs)
        results.update((check, check(cases)) for check, meets, _ in _LOOP_CHECKS
                       if meets == needs)
    return [*(results[check] for check, _, _ in _LOOP_CHECKS),
            _loop_rare_disease_limit(rng, n_populations),
            _loop_mts_violation_detected(rng, n_populations)]


def _check_population_as_it_was(pop):
    report = pop.check_assumptions()
    met = {name for name in checks._ALL if getattr(report, name)}
    cases = _loop_cases([pop])
    return [check(cases) for check, needs, exact in _LOOP_CHECKS if exact and needs <= met]


def _assert_same_results(got, want):
    assert [r.name for r in got] == [r.name for r in want]
    for new, old in zip(got, want):
        assert new.n_cases == old.n_cases, new.name
        assert new.n_failures == old.n_failures, new.name
        assert new.worst_error == old.worst_error, new.name
        assert new.counterexample == old.counterexample, new.name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 7, 100])
def test_stacked_suite_equals_the_loop_over_populations(seed, n):
    _assert_same_results(run_identity_suite(seed=seed, n_populations=n),
                         _suite_as_it_was(seed, n))


def _family_draws(count=20):
    for needs, (purpose, _) in checks._FAMILIES.items():
        for i in range(count):
            yield random_population(RngSpec(8).derive(purpose, i), n_cells=2,
                                    **dict.fromkeys(needs, True))


def test_check_population_equals_the_loop_over_cells():
    for pop in (top_income_population(), *_family_draws()):
        _assert_same_results(check_population(pop), _check_population_as_it_was(pop))


def test_stacked_suite_equals_the_loop_where_the_kernel_fails(monkeypatch):
    # Gamma nudged by 1e-6 where Pi(1|1,x) > 0.5 and NaN where it exceeds
    # 0.75: failures, counterexamples and NaN orderings must all match
    from casebound import oracle

    real = oracle.gamma_formula

    def failing(pi0, pi1, r):
        return real(pi0, pi1, r) * np.where(pi1 > 0.75, np.nan,
                                            np.where(pi1 > 0.5, 1.0 + 1e-6, 1.0))

    monkeypatch.setattr(oracle, "gamma_formula", failing)
    got = run_identity_suite(seed=2, n_populations=30)
    want = _suite_as_it_was(2, 30)
    _assert_same_results(got, want)
    assert sum(r.n_failures for r in got) > 0 and any(r.passed for r in got)
    assert any(r.worst_error == math.inf for r in got)
    assert any(0 < r.n_failures < r.n_cases for r in got)
    for pop in (top_income_population(), *_family_draws(5)):
        _assert_same_results(check_population(pop), _check_population_as_it_was(pop))


def test_tally_records_an_error_array_in_flat_order():
    # the first failure in flat order names its member's pmf and its cell
    members = list(_family_draws(1))[:3]
    pops, _ = checks._cases(_stack(members))
    err = np.array([[1e-13, 0.0], [1e-11, 2e-10], [float("nan"), 0.3]])
    res = _result("array", err, pops, np.array([0, 1]))
    assert (res.n_cases, res.n_failures, res.worst_error) == (6, 3, math.inf)
    assert res.counterexample == ("cell=1 err=2.000e-10\n"
                                  f"pmf={np.array2string(members[1].pmf, precision=6)}")
