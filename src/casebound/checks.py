"""Machine-checkable identity suite over random finite populations.

Every identification claim the package relies on is an exact statement
about finite populations, so each one is verified here by enumeration:
seeded random populations are drawn, pushed through both sampling designs,
and the claimed identities, orderings and containments are evaluated cell
by cell.  Exact identities must hold to 1e-10; a failure carries a
counterexample dump.

The suite also runs a negative control: populations built to violate
monotone selection, for which the odds-ratio upper bound must fail.

Each population is projected at most once per design: the suite pairs it
with its laws when it is drawn and hands the pair to every check that reads
it.  Populations are drawn one family at a time (general, monotone,
unconfounded, unconfounded and monotone), and a family's pairs are dropped
once its checks have run, so nothing outlives the suite and only one
family's laws are held at once.  Populations and laws are immutable and
cache their derived arrays on the instance (see `casebound.oracle`), so
sharing them between checks cannot change a result.

A non-finite error counts as a failure, and as an infinite worst error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Design
from .oracle import (
    AssumptionSet,
    DiscretePopulation,
    ObservedLaw,
    bounds_ar,
    bounds_rr,
    beta_aggregate,
    gamma,
    gamma_ar,
    population_from_margins,
    project,
    r_case_prob,
    random_population,
    rare_disease_slope,
    upper_bound_ar,
    xi_cp,
)
from .rng import RngSpec

__all__ = ["CheckResult", "run_identity_suite", "render_report", "check_population"]

EXACT_TOL = 1e-10
_H0 = 0.35  # arbitrary sampling rate; the identities must hold for any h0
_BOTH = (Design.CASE_CONTROL, Design.CASE_POPULATION)


@dataclass(frozen=True)
class CheckResult:
    name: str
    n_cases: int
    n_failures: int
    worst_error: float
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self.fail = 0
        self.worst = 0.0
        self.example = None

    def record(self, err: float, pop: DiscretePopulation, cell: int,
               tol: float = EXACT_TOL):
        self.n += 1
        # a non-finite error fails and is the worst possible: NaN would
        # otherwise pass both `err > tol` and `max`
        finite = math.isfinite(err)
        self.worst = max(self.worst, err if finite else math.inf)
        if err > tol or not finite:
            self.fail += 1
            if self.example is None:
                self.example = (f"cell={cell} err={err:.3e}\n"
                                f"pmf={np.array2string(pop.pmf, precision=6)}")

    def result(self) -> CheckResult:
        return CheckResult(name=self.name, n_cases=self.n, n_failures=self.fail,
                           worst_error=self.worst, counterexample=self.example)


def _cases(pops, designs=_BOTH) -> list[tuple[DiscretePopulation, dict[Design, ObservedLaw]]]:
    """Pair each population with its observed laws, projected once per design."""
    return [(pop, {design: project(pop, design, _H0) for design in designs}) for pop in pops]


def run_identity_suite(seed: int = 0, n_populations: int = 200) -> list[CheckResult]:
    """Run every identity check on `n_populations` seeded populations each.

    Each family of populations is drawn, projected, checked and released
    before the next is drawn, so one family's laws are alive at a time.
    """
    if n_populations < 1:
        raise ValidationError(f"the suite needs at least one population, got {n_populations}")
    rng = RngSpec(seed)

    def family(purpose: str, checks, designs=_BOTH, **kind) -> list[CheckResult]:
        cases = _cases([random_population(rng.derive(purpose, i), n_cells=2, **kind)
                        for i in range(n_populations)], designs)
        return [check(cases) for check in checks]

    general = family("pop-general", (
        _check_case_prob_identity, _check_gamma_prospective_rr, _check_bayes_or_invariance,
        _check_aggregation_identity, _check_cp_bound_linear, _check_slope_finite_difference))
    monotone = family("pop-monotone", (
        _check_gamma_ordering, _check_rr_containment, _check_ar_containment),
        mtr=True, mts=True)
    unconf = family("pop-unconf", (_check_rr_point_id, _check_ar_point_id),
                    unconfounded=True)
    unconf_mtr = family("pop-unconf-mtr", (_check_gamma_monotone,), (Design.CASE_CONTROL,),
                        unconfounded=True, mtr=True, mts=True)
    return [*general[:3], *monotone, *unconf, *general[3:], *unconf_mtr,
            _check_rare_disease_limit(rng, n_populations),
            _check_mts_violation_detected(rng, n_populations)]


def check_population(pop: DiscretePopulation) -> list[CheckResult]:
    """Run the applicable identity checks on a single supplied population."""
    # no finite-difference slope check: a one-sided difference is not exact,
    # and its 1e-4 tolerance is tuned to the suite's random populations
    cases = _cases([pop])
    results = [
        _check_case_prob_identity(cases),
        _check_gamma_prospective_rr(cases),
        _check_bayes_or_invariance(cases),
        _check_aggregation_identity(cases),
        _check_cp_bound_linear(cases),
    ]
    report = pop.check_assumptions()
    if report.mtr and report.mts:
        results.append(_check_gamma_ordering(cases))
        results.append(_check_rr_containment(cases))
        results.append(_check_ar_containment(cases))
    if report.unconfounded:
        results.append(_check_rr_point_id(cases))
        results.append(_check_ar_point_id(cases))
        if report.mtr and report.mts:
            results.append(_check_gamma_monotone(cases))
    return results


def _check_case_prob_identity(cases) -> CheckResult:
    t = _Tally("case-probability identity r(x, p0) = Pr(Y*=1|x)")
    for pop, laws in cases:
        truth = pop.py_given_x()
        for law in laws.values():
            for c in range(pop.n_cells):
                t.record(abs(r_case_prob(law, c, pop.p0) - truth[c]), pop, c)
    return t.result()


def _check_gamma_prospective_rr(cases) -> CheckResult:
    t = _Tally("Gamma at the true case share equals the prospective relative risk")
    for pop, laws in cases:
        for design, law in laws.items():
            p = pop.p0 if design is Design.CASE_CONTROL else 0.0
            for c in range(pop.n_cells):
                t.record(abs(gamma(law, c, p) - pop.prospective_rr(c)), pop, c)
    return t.result()


def _check_bayes_or_invariance(cases) -> CheckResult:
    t = _Tally("odds-ratio invariance: Gamma(x, 0) equals the prospective odds ratio")
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            t.record(abs(gamma(law, c, 0.0) - pop.prospective_or(c)), pop, c)
    return t.result()


def _check_gamma_ordering(cases) -> CheckResult:
    t = _Tally("monotone populations: Gamma(x, p0) <= Gamma(x, 0)")
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            gap = gamma(law, c, pop.p0) - gamma(law, c, 0.0)
            t.record(max(gap, 0.0), pop, c)
    return t.result()


def _check_rr_containment(cases) -> CheckResult:
    t = _Tally("relative risk lies in [1, Gamma(x, 0)] under monotonicity")
    for pop, laws in cases:
        for law in laws.values():
            for c in range(pop.n_cells):
                lo, hi = bounds_rr(law, c, 1.0, AssumptionSet.MONOTONE)
                theta = pop.theta(c)
                err = max(lo - theta, theta - hi, 0.0)
                t.record(err, pop, c)
    return t.result()


def _check_ar_containment(cases) -> CheckResult:
    t = _Tally("attributable risk lies in [0, envelope bound] under monotonicity")
    for pop, laws in cases:
        for law in laws.values():
            for c in range(pop.n_cells):
                lo, hi = bounds_ar(law, c, 1.0, AssumptionSet.MONOTONE)
                ar = pop.theta_ar(c)
                t.record(max(lo - ar, ar - hi, 0.0), pop, c)
    return t.result()


def _check_rr_point_id(cases) -> CheckResult:
    t = _Tally("ignorability: Gamma pins down the relative risk exactly")
    for pop, laws in cases:
        for design, law in laws.items():
            p = pop.p0 if design is Design.CASE_CONTROL else 0.0
            for c in range(pop.n_cells):
                t.record(abs(gamma(law, c, p) - pop.theta(c)), pop, c)
        law2 = laws[Design.CASE_POPULATION]
        for c in range(pop.n_cells):
            lo, hi = bounds_rr(law2, c, 1.0, AssumptionSet.IGNORABILITY)
            t.record(max(abs(lo - pop.theta(c)), abs(hi - pop.theta(c))), pop, c)
    return t.result()


def _check_ar_point_id(cases) -> CheckResult:
    t = _Tally("ignorability: r * Gamma_AR pins down the attributable risk exactly")
    for pop, laws in cases:
        for design, law in laws.items():
            p = pop.p0 if design is Design.CASE_CONTROL else 0.0
            for c in range(pop.n_cells):
                val = r_case_prob(law, c, pop.p0) * gamma_ar(law, c, p)
                t.record(abs(val - pop.theta_ar(c)), pop, c)
    return t.result()


def _check_aggregation_identity(cases) -> CheckResult:
    t = _Tally("aggregation: population mean of log OR matches the stratum mix")
    for pop, laws in cases:
        mass = pop.cell_mass
        for design, law in laws.items():
            target = float(mass @ np.log([gamma(law, c, 0.0)
                                          for c in range(pop.n_cells)]))
            if design is Design.CASE_CONTROL:
                mix = ((1.0 - pop.p0) * beta_aggregate(law, 0)
                       + pop.p0 * beta_aggregate(law, 1))
            else:
                mix = beta_aggregate(law, 0)
            t.record(abs(mix - target), pop, 0)
    return t.result()


def _check_cp_bound_linear(cases) -> CheckResult:
    t = _Tally("case-population AR bound is p times its slope")
    for pop, laws in cases:
        law = laws[Design.CASE_POPULATION]
        slope = xi_cp(law)
        for p in (0.0, 0.25, 0.5, 1.0):
            t.record(abs(upper_bound_ar(law, p) - p * slope), pop, 0)
    return t.result()


def _check_slope_finite_difference(cases) -> CheckResult:
    # derivative formula vs central-quality one-sided difference at p ~ 0; a
    # finite difference is not exact, so EXACT_TOL gives way to a fixed 1e-4
    t = _Tally("odds-ratio slope at p=0 matches a finite difference (1e-4 relative)")
    eps = 1e-6
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            slope = rare_disease_slope(law, c)
            fd = (gamma(law, c, eps) - gamma(law, c, 0.0)) / eps
            scale = max(abs(slope), 1e-8)
            t.record(abs(slope - fd) / scale, pop, c, 1e-4)
            sign_ok = (slope == 0.0 or
                       math.copysign(1.0, slope)
                       == math.copysign(1.0, law.pi[1, 0, c] - law.pi[1, 1, c]))
            t.record(0.0 if sign_ok else 1.0, pop, c, 0.5)
    return t.result()


def _check_gamma_monotone(cases) -> CheckResult:
    t = _Tally("monotone + unconfounded: Gamma decreasing in p, sandwiching theta")
    grid = np.linspace(0.0, 1.0, 21)
    for pop, laws in cases:
        law = laws[Design.CASE_CONTROL]
        for c in range(pop.n_cells):
            vals = [gamma(law, c, p) for p in grid]
            worst_up = max(max(b - a for a, b in zip(vals, vals[1:])), 0.0)
            t.record(worst_up, pop, c)
            theta = pop.theta(c)
            pbar = min(1.0, pop.p0 + 0.5 * (1.0 - pop.p0))
            sandwich = max(gamma(law, c, pbar) - theta, theta - gamma(law, c, 0.0), 0.0)
            t.record(sandwich, pop, c)
    return t.result()


def _check_rare_disease_limit(rng: RngSpec, n: int) -> CheckResult:
    # theta / Gamma(x,0) must approach 1 from below as the case share shrinks
    t = _Tally("odds ratio converges to the relative risk as the case share vanishes")
    for i in range(n):
        gen = rng.derive("pop-limit", i)
        base1 = 0.3 + 0.5 * gen.random()
        base0 = base1 * (0.2 + 0.7 * gen.random())
        pt = 0.2 + 0.6 * gen.random()
        gaps = []
        for scale in (0.25, 0.025, 0.0025):
            pop = population_from_margins(np.array([pt]), np.array([base1 * scale]),
                                          np.array([base0 * scale]))
            law = project(pop, Design.CASE_CONTROL, _H0)
            gaps.append(abs(pop.theta(0) / gamma(law, 0, 0.0) - 1.0))
        monotone = gaps[0] > gaps[1] > gaps[2]
        t.record(0.0 if monotone and gaps[2] < 0.05 else 1.0,
                 pop, 0, 0.5)
    return t.result()


def _check_mts_violation_detected(rng: RngSpec, n: int) -> CheckResult:
    # negative control: anti-selection populations must break the upper bound
    t = _Tally("negative control: selection violations break the odds-ratio bound")
    for i in range(n):
        gen = rng.derive("pop-anti-mts", i)
        pt = 0.25 + 0.5 * gen.random()
        hi = 0.7 + 0.25 * gen.random()
        lo = 0.05 + 0.25 * gen.random()
        pmf = np.zeros((1, 2, 2, 2))
        # treated units have the low success rate, untreated the high one
        pmf[0, 1, 1, 1] = pt * lo
        pmf[0, 1, 0, 0] = pt * (1.0 - lo)
        pmf[0, 0, 1, 1] = (1.0 - pt) * hi
        pmf[0, 0, 0, 0] = (1.0 - pt) * (1.0 - hi)
        pop = DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)
        report = pop.check_assumptions()
        law = project(pop, Design.CASE_CONTROL, _H0)
        violated = pop.theta(0) > gamma(law, 0, 0.0) + EXACT_TOL
        ok = (not report.mts) and violated
        t.record(0.0 if ok else 1.0, pop, 0, 0.5)
    return t.result()


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name}: {res.n_cases} cases, "
                     f"{res.n_failures} failures, worst error {res.worst_error:.3e}")
        if res.counterexample:
            lines.append("  counterexample: " + res.counterexample.replace("\n", "\n  "))
    return "\n".join(lines)
