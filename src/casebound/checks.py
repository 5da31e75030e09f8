"""Machine-checkable identity suite over random finite populations.

Every identification claim the package relies on is an exact statement
about finite populations, so each one is verified here by enumeration:
seeded random populations are drawn, pushed through both sampling designs,
and the claimed identities, orderings and containments are evaluated cell
by cell.  Exact identities must hold to 1e-10; a failure carries a
counterexample dump.

One table, `_CHECKS`, lists the checks in report order with the
assumptions their populations must meet and whether each is exact.  The
suite draws one family of populations per assumption set (`_FAMILIES`)
and runs that family's checks; `check_population` runs the exact checks
whose assumptions a supplied population meets.  Most checks are one error
per cell, `_per_cell`.  Two checks draw their own populations: the
rare-disease limit, and a negative control that violates monotone
selection, for which the odds-ratio upper bound must fail.

Each family is drawn from one `RngSpec.streams` range as one stack, a
population with a leading stack axis (`casebound.oracle.random_populations`),
and projected once per design; `check_population` checks a stack of one.
A check calls the oracle's per-cell functions on the whole stack at once,
cell by cell, and gives its one array of errors, in the order population,
part, design, cell, to `_result`, so the check's counts, worst error and
first counterexample are those of a loop over the populations, bit for
bit.  A family's laws are released once its checks have run, so one
family's laws are held at a time.  Populations and laws are immutable and cache their derived arrays,
so sharing them between checks cannot change a result.  A non-finite
error counts as a failure, and as an infinite worst error.
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
    gamma_ar_formula,
    population_from_margins,
    project,
    r_case_prob,
    r_formula,
    random_populations,
    rare_disease_slope,
    upper_bound_ar,
)
from .rng import RngSpec

__all__ = ["CheckResult", "run_identity_suite", "render_report", "check_population"]

EXACT_TOL = 1e-10
MAX_POPULATIONS = 100_000  # the suite refuses more populations per family before any draw
_H0 = 0.35  # arbitrary sampling rate; the identities must hold for any h0
_CC = (Design.CASE_CONTROL,)
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


def _result(name: str, err, pops: DiscretePopulation, cell, tol=EXACT_TOL) -> CheckResult:
    """The check `name` on the errors `err` of the stack `pops`, taken in
    the order of their flat index: the first axis of `err` runs over the
    members, and `cell` and `tol` broadcast against `err`, naming each
    error's cell and bounding it."""
    err = np.asarray(err, dtype=float)
    # a non-finite error fails and is the worst possible: NaN would
    # otherwise pass both `err > tol` and `max`
    finite = np.isfinite(err)
    failed = (err > tol) | ~finite
    example = None
    if failed.any():
        at = np.unravel_index(int(failed.argmax()), failed.shape)
        example = (f"cell={int(np.broadcast_to(cell, err.shape)[at])} err={err[at]:.3e}\n"
                   f"pmf={np.array2string(pops.pmf[at[0]], precision=6)}")
    return CheckResult(name=name, n_cases=err.size, n_failures=int(np.count_nonzero(failed)),
                       worst_error=max(0.0, float(np.where(finite, err, math.inf).max())),
                       counterexample=example)


def _cases(stack: DiscretePopulation,
           designs=_BOTH) -> tuple[DiscretePopulation, dict[Design, ObservedLaw]]:
    """A stack of populations, and its projection once per design."""
    return stack, {design: project(stack, design, _H0) for design in designs}


def _members(pops: DiscretePopulation, values) -> np.ndarray:
    """Per-member values stacked on a last axis; a value that does not vary
    over the stack, such as a plain float, is spread over it."""
    return np.stack([np.broadcast_to(v, pops.pmf.shape[:-4]) for v in values], axis=-1)


def _per_cell(name: str, *parts):
    """The check `name`: for each (designs, error) part in turn, it records
    error(pops, law, p, c) at every cell c of the law of each design, where
    p is the case share at which Gamma reads the truth: p0 under
    case-control, 0 under case-population."""
    def check(cases) -> CheckResult:
        pops, laws = cases
        cells = range(pops.n_cells)
        errors = _members(pops, [
            error(pops, laws[design], pops.p0 if design is Design.CASE_CONTROL else 0.0, c)
            for designs, error in parts for design in designs for c in cells])
        # the cells repeat once per (part, design)
        return _result(name, errors, pops, np.resize(cells, errors.shape[-1]))
    return check


def _first_max(*values):
    """max(*values) as Python takes it, per element: the first of the
    largest, so a NaN counts only where it comes first."""
    out = values[0]
    for value in values[1:]:
        out = np.where(value > out, value, out)
    return out


def _dot(a, b):
    """a @ b per member of a stack: a BLAS dot over the last axis, whose
    rounding an elementwise sum would not share."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _outside(bounds, value):
    """How far value lies outside the interval `bounds`; 0 inside."""
    lo, hi = bounds
    return _first_max(lo - value, value - hi, 0.0)


_check_case_prob_identity = _per_cell(
    "case-probability identity r(x, p0) = Pr(Y*=1|x)",
    (_BOTH, lambda pop, law, p, c: abs(r_case_prob(law, c, pop.p0)
                                       - pop.py_given_x()[..., c])))
_check_gamma_prospective_rr = _per_cell(
    "Gamma at the true case share equals the prospective relative risk",
    (_BOTH, lambda pop, law, p, c: abs(gamma(law, c, p) - pop.prospective_rr(c))))
_check_bayes_or_invariance = _per_cell(
    "odds-ratio invariance: Gamma(x, 0) equals the prospective odds ratio",
    (_CC, lambda pop, law, p, c: abs(gamma(law, c, 0.0) - pop.prospective_or(c))))
_check_gamma_ordering = _per_cell(
    "monotone populations: Gamma(x, p0) <= Gamma(x, 0)",
    (_CC, lambda pop, law, p, c: _first_max(gamma(law, c, p) - gamma(law, c, 0.0), 0.0)))
_check_rr_containment = _per_cell(
    "relative risk lies in [1, Gamma(x, 0)] under monotonicity",
    (_BOTH, lambda pop, law, p, c: _outside(bounds_rr(law, c, 1.0, AssumptionSet.MONOTONE),
                                            pop.theta(c))))
_check_ar_containment = _per_cell(
    "attributable risk lies in [0, envelope bound] under monotonicity",
    (_BOTH, lambda pop, law, p, c: _outside(bounds_ar(law, c, 1.0, AssumptionSet.MONOTONE),
                                            pop.theta_ar(c))))
_check_rr_point_id = _per_cell(
    "ignorability: Gamma pins down the relative risk exactly",
    (_BOTH, lambda pop, law, p, c: abs(gamma(law, c, p) - pop.theta(c))),
    ((Design.CASE_POPULATION,), lambda pop, law, p, c: _first_max(
        *(abs(bound - pop.theta(c))
          for bound in bounds_rr(law, c, 1.0, AssumptionSet.IGNORABILITY)))))
_check_ar_point_id = _per_cell(
    "ignorability: r * Gamma_AR pins down the attributable risk exactly",
    (_BOTH, lambda pop, law, p, c: abs(r_case_prob(law, c, pop.p0) * gamma_ar(law, c, p)
                                       - pop.theta_ar(c))))


def _check_aggregation_identity(cases) -> CheckResult:
    pops, laws = cases
    errors = []
    for design, law in laws.items():
        log_or = np.log(_members(pops, [gamma(law, c, 0.0) for c in range(pops.n_cells)]))
        target = _dot(pops.cell_mass, log_or)
        if design is Design.CASE_CONTROL:
            mix = ((1.0 - pops.p0) * beta_aggregate(law, 0)
                   + pops.p0 * beta_aggregate(law, 1))
        else:
            mix = beta_aggregate(law, 0)
        errors.append(abs(mix - target))
    return _result("aggregation: population mean of log OR matches the stratum mix",
                   _members(pops, errors), pops, 0)


def _check_cp_bound_linear(cases) -> CheckResult:
    # upper_bound_ar is p * xi_cp for these laws, so it is checked against
    # the bound summed cell by cell, r(x, p) * Gamma_AR(x, 0), not its slope
    pops, laws = cases
    law = laws[Design.CASE_POPULATION]
    diff = gamma_ar_formula(law.pi[..., 1, 0, :], law.pi[..., 1, 1, :], 0.0)
    errors = [abs(upper_bound_ar(law, p)
                  - _dot(law.fxy[..., 0, :], r_formula(law.pyx, law.h0, p, law.design) * diff))
              for p in (0.0, 0.25, 0.5, 1.0)]
    return _result("case-population AR bound is p times its slope",
                   _members(pops, errors), pops, 0)


def _check_slope_finite_difference(cases) -> CheckResult:
    # derivative formula vs central-quality one-sided difference at p ~ 0; a
    # finite difference is not exact, so EXACT_TOL gives way to a fixed 1e-4
    eps = 1e-6
    pops, laws = cases
    law = laws[Design.CASE_CONTROL]
    errors = []
    for c in range(pops.n_cells):
        slope = rare_disease_slope(law, c)
        fd = (gamma(law, c, eps) - gamma(law, c, 0.0)) / eps
        scale = _first_max(abs(slope), 1e-8)
        sign_ok = ((slope == 0.0)
                   | (np.copysign(1.0, slope)
                      == np.copysign(1.0, law.pi[..., 1, 0, c] - law.pi[..., 1, 1, c])))
        errors += [abs(slope - fd) / scale, np.where(sign_ok, 0.0, 1.0)]
    # two errors per cell: the slope's, within 1e-4, and its sign's
    return _result("odds-ratio slope at p=0 matches a finite difference (1e-4 relative)",
                   _members(pops, errors), pops, np.repeat(range(pops.n_cells), 2),
                   np.resize([1e-4, 0.5], len(errors)))


def _check_gamma_monotone(cases) -> CheckResult:
    grid = np.linspace(0.0, 1.0, 21)
    pops, laws = cases
    law = laws[Design.CASE_CONTROL]
    pbar = np.minimum(1.0, pops.p0 + 0.5 * (1.0 - pops.p0))
    errors = []
    for c in range(pops.n_cells):
        vals = [gamma(law, c, p) for p in grid]
        worst_up = _first_max(_first_max(*(b - a for a, b in zip(vals, vals[1:]))), 0.0)
        theta = pops.theta(c)
        sandwich = _first_max(gamma(law, c, pbar) - theta, theta - gamma(law, c, 0.0), 0.0)
        errors += [worst_up, sandwich]
    return _result("monotone + unconfounded: Gamma decreasing in p, sandwiching theta",
                   _members(pops, errors), pops, np.repeat(range(pops.n_cells), 2))


# assumption sets, by the names of the AssumptionReport fields that hold them
_NONE = frozenset()
_MTR_MTS = frozenset({"mtr", "mts"})
_UNCONF = frozenset({"unconfounded"})
_ALL = _MTR_MTS | _UNCONF

# the suite's families, drawn in this order: assumptions -> (purpose, designs)
_FAMILIES = {
    _NONE: ("pop-general", _BOTH),
    _MTR_MTS: ("pop-monotone", _BOTH),
    _UNCONF: ("pop-unconf", _BOTH),
    _ALL: ("pop-unconf-mtr", _CC),
}

# every family check, in report order: (check, the assumptions its
# populations must meet, exact).  A one-sided finite difference is not
# exact, and its 1e-4 tolerance is tuned to the suite's random populations
_CHECKS = (
    (_check_case_prob_identity, _NONE, True),
    (_check_gamma_prospective_rr, _NONE, True),
    (_check_bayes_or_invariance, _NONE, True),
    (_check_gamma_ordering, _MTR_MTS, True),
    (_check_rr_containment, _MTR_MTS, True),
    (_check_ar_containment, _MTR_MTS, True),
    (_check_rr_point_id, _UNCONF, True),
    (_check_ar_point_id, _UNCONF, True),
    (_check_aggregation_identity, _NONE, True),
    (_check_cp_bound_linear, _NONE, True),
    (_check_slope_finite_difference, _NONE, False),
    (_check_gamma_monotone, _ALL, True),
)


def run_identity_suite(seed: int = 0, n_populations: int = 200) -> list[CheckResult]:
    """Run every identity check on `n_populations` seeded populations each.

    Each family of populations is drawn, stacked, projected once per
    design, checked and released before the next is drawn, so one family's
    laws are alive at a time.  At most MAX_POPULATIONS, refused before any
    draw.
    """
    if n_populations < 1:
        raise ValidationError(f"the suite needs at least one population, got {n_populations}")
    if n_populations > MAX_POPULATIONS:
        raise ValidationError(f"the suite takes at most {MAX_POPULATIONS} populations, "
                              f"got {n_populations}")
    rng = RngSpec(seed)
    results = {}
    for needs, (purpose, designs) in _FAMILIES.items():
        kind = dict.fromkeys(needs, True)
        cases = _cases(random_populations(rng.streams(purpose, 0, n_populations),
                                          n_cells=2, **kind), designs)
        results.update((check, check(cases)) for check, meets, _ in _CHECKS if meets == needs)
        del cases  # released before the next family is drawn
    return [*(results[check] for check, _, _ in _CHECKS),
            _check_rare_disease_limit(rng, n_populations),
            _check_mts_violation_detected(rng, n_populations)]


def check_population(pop: DiscretePopulation) -> list[CheckResult]:
    """Run, in the suite's order, every exact check whose assumptions a
    single supplied population meets, on a stack of one."""
    report = pop.check_assumptions()
    met = {name for name in _ALL if getattr(report, name)}
    cases = _cases(DiscretePopulation(support_x=pop.support_x, pmf=pop.pmf[None]))
    return [check(cases) for check, needs, exact in _CHECKS if exact and needs <= met]


def _uniforms(rng: RngSpec, purpose: str, n: int) -> np.ndarray:
    """Three uniforms per population i < n, from the generator of (purpose, i)."""
    return np.array([gen.random(3) for gen in rng.streams(purpose, 0, n)])


def _check_rare_disease_limit(rng: RngSpec, n: int) -> CheckResult:
    # theta / Gamma(x,0) must approach 1 from below as the case share shrinks;
    # one single-cell stack per scale, the counterexample from the last
    u = _uniforms(rng, "pop-limit", n)
    base1 = 0.3 + 0.5 * u[:, :1]
    base0 = base1 * (0.2 + 0.7 * u[:, 1:2])
    pt = 0.2 + 0.6 * u[:, 2:]
    gaps = []
    for scale in (0.25, 0.025, 0.0025):
        pops = population_from_margins(pt, base1 * scale, base0 * scale)
        law = project(pops, Design.CASE_CONTROL, _H0)
        gaps.append(abs(pops.theta(0) / gamma(law, 0, 0.0) - 1.0))
    ok = (gaps[0] > gaps[1]) & (gaps[1] > gaps[2]) & (gaps[2] < 0.05)
    return _result("odds ratio converges to the relative risk as the case share vanishes",
                   _members(pops, [np.where(ok, 0.0, 1.0)]), pops, 0, 0.5)


def _check_mts_violation_detected(rng: RngSpec, n: int) -> CheckResult:
    # negative control: anti-selection populations must break the upper bound
    u = _uniforms(rng, "pop-anti-mts", n)
    pt = 0.25 + 0.5 * u[:, 0]
    hi = 0.7 + 0.25 * u[:, 1]
    lo = 0.05 + 0.25 * u[:, 2]
    pmf = np.zeros((n, 1, 2, 2, 2))
    # treated units have the low success rate, untreated the high one
    pmf[:, 0, 1, 1, 1] = pt * lo
    pmf[:, 0, 1, 0, 0] = pt * (1.0 - lo)
    pmf[:, 0, 0, 1, 1] = (1.0 - pt) * hi
    pmf[:, 0, 0, 0, 0] = (1.0 - pt) * (1.0 - hi)
    pops = DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)
    report = pops.check_assumptions()
    law = project(pops, Design.CASE_CONTROL, _H0)
    violated = pops.theta(0) > gamma(law, 0, 0.0) + EXACT_TOL
    ok = ~report.mts & violated
    return _result("negative control: selection violations break the odds-ratio bound",
                   _members(pops, [np.where(ok, 0.0, 1.0)]), pops, 0, 0.5)


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name}: {res.n_cases} cases, "
                     f"{res.n_failures} failures, worst error {res.worst_error:.3e}")
        if res.counterexample:
            lines.append("  counterexample: " + res.counterexample.replace("\n", "\n  "))
    return "\n".join(lines)
