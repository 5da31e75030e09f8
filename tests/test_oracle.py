import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from casebound import checks
from casebound.errors import (
    OverlapViolation,
    ValidationError,
    ZeroDenominator,
    ZeroRetroProb,
)
from casebound.fixtures import top_income_population
from casebound.model import Design
from casebound.oracle import (
    AssumptionReport,
    AssumptionSet,
    DiscretePopulation,
    ObservedLaw,
    beta_aggregate,
    beta_ar_aggregate,
    bounds_ar,
    bounds_rr,
    gamma,
    gamma_ar,
    gamma_ar_formula,
    gamma_formula,
    load_population,
    population_from_margins,
    project,
    r_case_prob,
    r_formula,
    random_population,
    random_populations,
    rare_disease_slope,
    save_population,
    upper_bound_ar,
    xi_cp,
)
from casebound.rng import RngSpec

D1, D2 = Design.CASE_CONTROL, Design.CASE_POPULATION


def single_cell_law(pi_t1_y1: float, pi_t1_y0: float, h0: float = 0.5,
                    design: Design = D1) -> ObservedLaw:
    pi = np.array([[[1.0 - pi_t1_y0], [1.0 - pi_t1_y1]],
                   [[pi_t1_y0], [pi_t1_y1]]])
    fxy = np.ones((2, 1))
    return ObservedLaw(design=design, h0=h0, pi=pi, fxy=fxy)


# --- populations and causal estimands -------------------------------------------


def test_theta_null_population(null_population):
    for c in range(null_population.n_cells):
        assert null_population.theta(c) == pytest.approx(1.0, abs=1e-14)
        assert null_population.theta_ar(c) == pytest.approx(0.0, abs=1e-14)


def test_theta_direct_ratio():
    pop = population_from_margins(pt=np.array([0.5]), q1=np.array([0.2]),
                                  q0=np.array([0.1]))
    assert pop.theta(0) == pytest.approx(2.0, abs=1e-14)
    assert pop.theta_ar(0) == pytest.approx(0.1, abs=1e-14)


def test_theta_zero_denominator():
    pop = population_from_margins(pt=np.array([0.5]), q1=np.array([0.2]),
                                  q0=np.array([0.0]))
    with pytest.raises(ZeroDenominator):
        pop.theta(0)


def test_mtr_population_theta_within_odds_ratio_bound():
    rng = RngSpec(42)
    for i in range(40):
        pop = random_population(rng.derive("mtr-pop", i), n_cells=2,
                                mtr=True, mts=True)
        law = project(pop, D1, 0.4)
        for c in range(pop.n_cells):
            assert 1.0 - 1e-12 <= pop.theta(c) <= gamma(law, c, 0.0) + 1e-12
            assert 0.0 <= pop.theta_ar(c) <= 1.0


def _mts_draw_building_every_population(rng, n_cells, mtr):
    # the draw as it was: build each candidate population, then ask it
    support = np.arange(n_cells, dtype=float)[:, None]
    for tries in range(1, 2001):
        raw = rng.dirichlet(np.full(n_cells * 8, 1.5)).reshape(n_cells, 2, 2, 2)
        pmf = (raw + 0.02) / (raw + 0.02).sum()
        if mtr:
            pmf = pmf.copy()
            pmf[:, :, 1, 0] = 0.0
            pmf /= pmf.sum()
        pop = DiscretePopulation(support_x=support, pmf=pmf)
        if pop.check_assumptions().mts:
            return pop, tries
    raise AssertionError("no admissible population")


@pytest.mark.parametrize("n_cells, mtr", [(2, False), (2, True), (3, True)])
def test_mts_draw_is_judged_on_its_array(monkeypatch, n_cells, mtr):
    import casebound.oracle as oracle

    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return DiscretePopulation(*args, **kwargs)

    monkeypatch.setattr(oracle, "DiscretePopulation", counting)
    tries = 0
    for seed in range(50):
        old, n = _mts_draw_building_every_population(
            RngSpec(seed).derive("mts-draw"), n_cells, mtr)
        tries += n
        new = random_population(RngSpec(seed).derive("mts-draw"), n_cells,
                                mtr=mtr, mts=True)
        assert new.pmf.tobytes() == old.pmf.tobytes()
        assert new.check_assumptions().mts
    assert tries > 50  # draws were rejected, and built no population
    assert len(built) == 50


@pytest.mark.parametrize("mtr", [False, True])
def test_mts_draw_gives_up_after_max_tries_candidates(monkeypatch, mtr):
    # a bound the batch does not divide: the last batch is cut short
    import casebound.oracle as oracle

    monkeypatch.setattr(oracle, "_MAX_TRIES", 37)
    assert 37 % oracle._BATCH
    monkeypatch.setattr(oracle, "_selection",
                        lambda pmf: (np.zeros(pmf.shape[:-4], bool),) * 2)

    class Counting:
        # the generator, counting the Dirichlet rows it is asked for
        def __init__(self, gen):
            self.gen, self.rows = gen, 0

        def dirichlet(self, alpha, size=None):
            out = self.gen.dirichlet(alpha, size=size)
            self.rows += out.size // len(alpha)
            return out

    rng = Counting(RngSpec(0).derive("mts-edge"))
    with pytest.raises(ValidationError, match="no admissible population found in 37 draws"):
        random_population(rng, 2, mtr=mtr, mts=True)
    assert rng.rows == 37


def _unconfounded_pmf_as_it_was(rng, n_cells):
    # random_population(unconfounded=True) without MTR or MTS, as it built
    # its pmf before the product construction: cell by cell, each cell's
    # joint of (y0, y1) drawn by a Dirichlet call of its own
    def floored(shape, floor):
        raw = rng.dirichlet(np.full(math.prod(shape), 1.5), size=1)
        out = raw.reshape(1, *shape) + floor
        return (out / out.sum(axis=tuple(range(1, out.ndim)), keepdims=True))[0]

    pt = 0.12 + (0.88 - 0.12) * rng.random(n_cells)
    mass = floored((n_cells,), 0.1)
    pmf = np.zeros((n_cells, 2, 2, 2))
    for c in range(n_cells):
        joint = floored((2, 2), 0.08)
        pmf[c, 0] = mass[c] * (1.0 - pt[c]) * joint
        pmf[c, 1] = mass[c] * pt[c] * joint
    return pmf


@pytest.mark.parametrize("n_cells", [1, 2, 3, 5])
def test_unconfounded_draw_is_the_cell_loop_as_one_product(n_cells):
    for seed in range(300):
        pop = random_population(RngSpec(seed).derive("unconf-draw"), n_cells,
                                unconfounded=True)
        want = _unconfounded_pmf_as_it_was(RngSpec(seed).derive("unconf-draw"), n_cells)
        assert pop.pmf.tobytes() == want.tobytes()


_KINDS = [{}, {"mtr": True}, {"mts": True}, {"mtr": True, "mts": True},
          {"unconfounded": True}, {"unconfounded": True, "mtr": True, "mts": True}]


@given(seed=st.integers(0, 2 ** 70), kind=st.sampled_from(_KINDS), n_cells=st.integers(1, 3),
       n=st.integers(1, 6), purpose=st.sampled_from(["pop-general", "", "é"]))
@settings(max_examples=120, deadline=None)
def test_random_populations_is_the_stack_of_its_members(seed, kind, n_cells, n, purpose):
    stacked_gens = list(RngSpec(seed).streams(purpose, 0, n))
    member_gens = list(RngSpec(seed).streams(purpose, 0, n))
    stack = random_populations(stacked_gens, n_cells, **kind)
    members = [random_population(gen, n_cells, **kind) for gen in member_gens]
    assert stack.pmf.shape == (n, n_cells, 2, 2, 2)
    assert stack.pmf.tobytes() == np.stack([pop.pmf for pop in members]).tobytes()
    assert stack.support_x.tobytes() == members[0].support_x.tobytes()
    report = stack.check_assumptions()
    for name in ("overlap", "unconfounded", "mtr", "mts"):
        assert getattr(report, name).tolist() == [getattr(pop.check_assumptions(), name)
                                                   for pop in members]
    # each generator is left where random_population leaves it
    assert [gen.random() for gen in stacked_gens] == [gen.random() for gen in member_gens]


def test_random_populations_builds_one_population(monkeypatch):
    import casebound.oracle as oracle

    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return DiscretePopulation(*args, **kwargs)

    monkeypatch.setattr(oracle, "DiscretePopulation", counting)
    for kind in _KINDS:
        stack = random_populations(RngSpec(4).streams("one-build", 0, 20), 2, **kind)
        assert stack.pmf.shape[0] == 20
    assert len(built) == len(_KINDS)
    with pytest.raises(ValidationError, match="at least one generator"):
        random_populations([], 2)


def _report_as_it_was(pop):
    # the assumption report before project read only the overlap verdict
    pt = pop.p_treat_given_x
    overlap = bool(((pt > 0) & (pt < 1)).all())
    if overlap:
        q = np.stack([pop.potential_prob(0), pop.potential_prob(1)])
        overlap = bool(((q > 0) & (q < 1)).all())
    pmf = pop.pmf
    mtr = bool(pmf[:, :, 1, 0].sum() <= 1e-12)
    denom = pmf.sum(axis=(2, 3))
    if (denom <= 0).any():
        unconf = mts = False
    else:
        num = np.stack([pmf[:, :, 1, :].sum(axis=2), pmf[:, :, :, 1].sum(axis=2)], axis=2)
        by_arm = num / denom[:, :, None]
        by1, by0 = by_arm[:, 1], by_arm[:, 0]
        unconf = bool((np.abs(by1 - by0) <= 1e-12).all())
        mts = bool((by1 >= by0 - 1e-12).all())
    return AssumptionReport(overlap=overlap, unconfounded=unconf, mtr=mtr, mts=mts)


def _empty_arm_population():
    # cell 1 has no untreated unit, so its by-arm probabilities are
    # undefined (read as 0, that arm would pass monotone selection)
    pmf = np.full((2, 2, 2, 2), 1.0 / 12)
    pmf[1, 0] = 0.0
    return DiscretePopulation(support_x=np.arange(2.0)[:, None], pmf=pmf)


def test_project_reads_only_the_overlap_verdict():
    pop = random_population(RngSpec(6).derive("lazy-pop"), n_cells=3)
    for design in (D1, D2):
        project(pop, design, 0.4)
    assert "_assumption_report" not in vars(pop)
    assert pop.check_assumptions() == _report_as_it_was(pop)
    # overlap failing on treatment, and on a potential-outcome margin alone
    for pop in (_empty_arm_population(),
                population_from_margins(pt=np.array([0.5]), q1=np.array([0.4]),
                                        q0=np.array([0.0]))):
        with pytest.raises(OverlapViolation):
            project(pop, D1, 0.5)
        assert "_assumption_report" not in vars(pop)
        assert not pop.check_assumptions().overlap


def test_check_assumptions_unchanged_on_suite_families():
    pops = [top_income_population(), _empty_arm_population()]
    for needs, (purpose, _) in checks._FAMILIES.items():
        pops += [random_population(RngSpec(0).derive(purpose, i), n_cells=2,
                                   **dict.fromkeys(needs, True)) for i in range(20)]
    for pop in pops:
        report = pop.check_assumptions()
        assert report == _report_as_it_was(pop)
        assert all(type(v) is bool for v in vars(report).values())
    assert _empty_arm_population().check_assumptions() == AssumptionReport(
        overlap=False, unconfounded=False, mtr=False, mts=False)


def test_selection_judges_each_pmf_of_a_stack():
    import casebound.oracle as oracle

    pops = [_empty_arm_population(),
            *(random_population(RngSpec(3).derive("stack", i), n_cells=2,
                                unconfounded=i < 3) for i in range(30))]
    unconf, mts = oracle._selection(np.stack([pop.pmf for pop in pops]))
    assert unconf.shape == mts.shape == (len(pops),)
    want = [_report_as_it_was(pop) for pop in pops]
    assert unconf.tolist() == [r.unconfounded for r in want]
    assert mts.tolist() == [r.mts for r in want]
    assert 0 < sum(unconf.tolist()) < sum(mts.tolist()) < len(pops) - 1


def test_check_assumptions_flags():
    pmf = np.zeros((1, 2, 2, 2))
    pmf[0, 0, 1, 0] = 0.5  # mass on a harmed unit: y0=1, y1=0
    pmf[0, 1, 0, 1] = 0.5
    pop = DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)
    assert not pop.check_assumptions().mtr

    rng = RngSpec(5)
    prod = random_population(rng.derive("unconf"), n_cells=2, unconfounded=True)
    rep = prod.check_assumptions()
    assert rep.unconfounded and rep.mts and rep.overlap


@pytest.mark.parametrize("cell", [-1, 2])
def test_population_cell_index_outside_support_is_typed(cell):
    pop = random_population(RngSpec(8).derive("index-pop"), n_cells=2)
    for method in (pop.theta, pop.theta_ar, pop.prospective_rr, pop.prospective_or):
        with pytest.raises(ValidationError, match="outside support"):
            method(cell)


@pytest.mark.parametrize("cell", [-1, 2])
def test_law_cell_index_outside_support_is_typed(cell):
    pop = random_population(RngSpec(8).derive("index-pop"), n_cells=2)
    law = project(pop, D1, 0.4)
    calls = [
        lambda: r_case_prob(law, cell, 0.3),
        lambda: gamma(law, cell, 0.3),
        lambda: gamma_ar(law, cell, 0.3),
        lambda: rare_disease_slope(law, cell),
        lambda: bounds_rr(law, cell, 0.5, AssumptionSet.IGNORABILITY),
        lambda: bounds_rr(project(pop, D2, 0.5), cell, 0.5, AssumptionSet.MONOTONE),
        lambda: bounds_ar(law, cell, 0.5, AssumptionSet.IGNORABILITY),
        lambda: bounds_ar(project(pop, D2, 0.5), cell, 0.5, AssumptionSet.MONOTONE),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="outside support"):
            call()


@pytest.mark.parametrize("y", [-1, 2])
def test_aggregate_stratum_outside_zero_one_is_typed(y):
    # a negative y would index a stratum from the end
    law = project(random_population(RngSpec(8).derive("index-pop"), n_cells=2), D1, 0.4)
    for call in (lambda: beta_aggregate(law, y), lambda: beta_ar_aggregate(law, 0.3, y)):
        with pytest.raises(ValidationError, match="stratum y must be 0 or 1"):
            call()


@pytest.mark.parametrize("design", [D1, D2])
@pytest.mark.parametrize("p", [-1.0, 1.5, math.nan])
def test_upper_bound_ar_refuses_a_case_share_outside_the_unit_interval(design, p):
    # under case-population sampling p * xi reads any p, so the bound checks it
    law = project(top_income_population(), design, 0.4)
    with pytest.raises(ValidationError, match=re.escape("p must lie in [0, 1]")):
        upper_bound_ar(law, p)


def test_check_assumptions_matches_hand_scan():
    # independent re-implementation of the inequality scan
    rng = RngSpec(99)
    for i in range(25):
        pop = random_population(rng.derive("scan", i), n_cells=2,
                                mtr=(i % 2 == 0), mts=False)
        rep = pop.check_assumptions()
        mtr_hand = True
        mts_hand = True
        for c in range(pop.n_cells):
            for arm in (0, 1):
                for y0 in (0, 1):
                    for y1 in (0, 1):
                        if y0 > y1 and pop.pmf[c, arm, y0, y1] > 0:
                            mtr_hand = False
            for t in (0, 1):
                # Pr{Y*(t)=1 | T*=arm, X*=x}, summed entry by entry
                by_arm = []
                for arm in (0, 1):
                    mass = success = 0.0
                    for y0 in (0, 1):
                        for y1 in (0, 1):
                            mass += pop.pmf[c, arm, y0, y1]
                            if (y1 if t == 1 else y0) == 1:
                                success += pop.pmf[c, arm, y0, y1]
                    by_arm.append(success / mass)
                if by_arm[1] < by_arm[0] - 1e-12:
                    mts_hand = False
        assert rep.mtr == mtr_hand
        assert rep.mts == mts_hand


# --- projection --------------------------------------------------------------------


def test_project_top_income_case_control():
    pop = top_income_population()
    law = project(pop, D1, h0=921.0 / 1766.0)
    assert law.pi[1, 1, 0] == pytest.approx(524.0 / 921.0, abs=1e-14)
    assert law.pi[1, 0, 0] == pytest.approx(6362.0 / 16895.0, abs=1e-14)
    # rounded reweighted counts sit within rounding error of the projection
    assert law.pi[1, 1, 0] == pytest.approx(524.0 / 921.0, abs=2e-3)
    assert law.pi[1, 0, 0] == pytest.approx(318.0 / 845.0, abs=2e-3)


def test_project_top_income_case_population():
    law = project(top_income_population(), D2, h0=0.05)
    assert law.pi[1, 0, 0] == pytest.approx(6886.0 / 17816.0, abs=1e-14)
    assert gamma(law, 0, 0.0) == pytest.approx(2.10, abs=0.005)


def test_project_requires_overlap():
    pop = population_from_margins(pt=np.array([0.0]), q1=np.array([0.4]),
                                  q0=np.array([0.2]))
    with pytest.raises(OverlapViolation):
        project(pop, D1, 0.5)


def test_law_rejects_zero_retrospective_cell():
    with pytest.raises(ZeroRetroProb):
        single_cell_law(0.0, 0.5)


# --- r, gamma, gamma_ar -----------------------------------------------------------


def test_r_zero_at_p_zero_both_designs():
    rng = RngSpec(7)
    pop = random_population(rng.derive("rp"), n_cells=2)
    for design in (D1, D2):
        law = project(pop, design, 0.3)
        for c in range(2):
            assert r_case_prob(law, c, 0.0) == 0.0


def test_r_is_identity_without_covariates_case_control():
    # single-cell law: r(p) = p for every h0
    for h0 in np.linspace(0.05, 0.95, 19):
        law = single_cell_law(0.6, 0.3, h0=h0)
        for p in np.linspace(0.0, 1.0, 21):
            assert r_case_prob(law, 0, p) == pytest.approx(p, abs=1e-12)


def test_r_matches_population_case_probability():
    rng = RngSpec(8)
    for i in range(60):
        pop = random_population(rng.derive("lemma-r", i), n_cells=2)
        truth = pop.py_given_x()
        for design in (D1, D2):
            law = project(pop, design, 0.35)
            for c in range(2):
                assert r_case_prob(law, c, pop.p0) == pytest.approx(
                    truth[c], abs=1e-12)


def test_gamma_footnote_values():
    law = single_cell_law(pi_t1_y1=0.7, pi_t1_y0=0.1)
    assert gamma(law, 0, 0.0) == pytest.approx(21.0, abs=1e-12)
    # independent arithmetic: (0.7/0.3) * (0.9 - 0.01*0.6)/(0.1 + 0.01*0.6)
    expected = (0.7 / 0.3) * ((0.9 - 0.01 * 0.6) / (0.1 + 0.01 * 0.6))
    assert gamma(law, 0, 0.01) == pytest.approx(expected, rel=1e-12)
    assert gamma(law, 0, 0.01) == pytest.approx(19.68, abs=0.005)
    gap = gamma(law, 0, 0.0) - gamma(law, 0, 0.01)
    assert gap == pytest.approx(1.32, abs=0.005)  # linearization reports ~1.4


def test_gamma_is_one_when_strata_agree():
    law = single_cell_law(0.45, 0.45)
    for p in np.linspace(0, 1, 11):
        assert gamma(law, 0, p) == pytest.approx(1.0, abs=1e-14)
        assert gamma_ar(law, 0, p) == pytest.approx(0.0, abs=1e-14)


def test_gamma_ar_exact_zero_at_r_one():
    law = single_cell_law(0.7, 0.1)
    # p=1 forces r=1 under case-control sampling: both ratios collapse to 1
    assert gamma_ar(law, 0, 1.0) == 0.0


def test_gamma_ar_at_p_zero_is_ratio_difference():
    rng = RngSpec(9)
    for i in range(20):
        pop = random_population(rng.derive("gar", i), n_cells=2)
        law = project(pop, D1, 0.5)
        for c in range(2):
            pi = law.pi
            expected = (pi[1, 1, c] / pi[1, 0, c]) - (pi[0, 1, c] / pi[0, 0, c])
            assert gamma_ar(law, c, 0.0) == pytest.approx(expected, abs=1e-13)


def test_lemma_gamma_matches_prospective_relative_risk():
    rng = RngSpec(10)
    for i in range(60):
        pop = random_population(rng.derive("lemma-rr", i), n_cells=2)
        law1 = project(pop, D1, 0.25)
        law2 = project(pop, D2, 0.25)
        for c in range(2):
            rr = pop.prospective_rr(c)
            assert gamma(law1, c, pop.p0) == pytest.approx(rr, abs=1e-11)
            assert gamma(law2, c, 0.0) == pytest.approx(rr, abs=1e-11)


def test_bayes_invariance_of_odds_ratio():
    rng = RngSpec(11)
    for i in range(60):
        pop = random_population(rng.derive("bayes", i), n_cells=2)
        law = project(pop, D1, 0.65)
        for c in range(2):
            assert gamma(law, c, 0.0) == pytest.approx(
                pop.prospective_or(c), abs=1e-11)


def test_gamma_ordering_under_monotonicity():
    rng = RngSpec(12)
    for i in range(60):
        pop = random_population(rng.derive("order", i), n_cells=2,
                                mtr=True, mts=True)
        law = project(pop, D1, 0.5)
        for c in range(2):
            assert gamma(law, c, pop.p0) <= gamma(law, c, 0.0) + 1e-12


# --- rare-disease slope ----------------------------------------------------------


def test_slope_footnote_law():
    law = single_cell_law(0.7, 0.1)
    slope = rare_disease_slope(law, 0)
    assert slope == pytest.approx(0.7 * (0.1 - 0.7) / (0.3 * 0.01), rel=1e-12)
    assert slope < 0
    fd = (gamma(law, 0, 1e-6) - gamma(law, 0, 0.0)) / 1e-6
    assert slope == pytest.approx(fd, rel=1e-4)


def test_slope_sign_property():
    rng = RngSpec(13)
    for i in range(40):
        pop = random_population(rng.derive("slope", i), n_cells=2)
        law = project(pop, D1, 0.4)
        for c in range(2):
            slope = rare_disease_slope(law, c)
            sign = np.sign(law.pi[1, 0, c] - law.pi[1, 1, c])
            assert np.sign(slope) == sign or slope == 0.0


def test_slope_requires_case_control():
    law = single_cell_law(0.7, 0.1, design=D2)
    with pytest.raises(ValidationError):
        rare_disease_slope(law, 0)


# --- bounds ------------------------------------------------------------------------


def test_bounds_rr_point_identification_case_population():
    rng = RngSpec(14)
    for i in range(40):
        pop = random_population(rng.derive("point", i), n_cells=2,
                                unconfounded=True)
        law = project(pop, D2, 0.5)
        for c in range(2):
            lo, hi = bounds_rr(law, c, 1.0, AssumptionSet.IGNORABILITY)
            assert lo == hi
            assert lo == pytest.approx(pop.theta(c), abs=1e-11)


def test_bounds_rr_monotone_containment():
    rng = RngSpec(15)
    for i in range(50):
        pop = random_population(rng.derive("contain", i), n_cells=2,
                                mtr=True, mts=True)
        for design in (D1, D2):
            law = project(pop, design, 0.5)
            for c in range(2):
                lo, hi = bounds_rr(law, c, 1.0, AssumptionSet.MONOTONE)
                assert lo == 1.0
                assert lo - 1e-12 <= pop.theta(c) <= hi + 1e-12


def test_bounds_rr_no_effect_population(null_population):
    law = project(null_population, D1, 0.5)
    for c in range(2):
        lo, hi = bounds_rr(law, c, 1.0, AssumptionSet.MONOTONE)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)


def test_bounds_rr_ignorability_case_control_endpoints():
    law = single_cell_law(0.7, 0.1)
    lo, hi = bounds_rr(law, 0, 0.3, AssumptionSet.IGNORABILITY)
    g0, gbar = gamma(law, 0, 0.0), gamma(law, 0, 0.3)
    assert (lo, hi) == (min(g0, gbar), max(g0, gbar))
    # on a population projected to its case-control law
    law2 = project(top_income_population(), D1, 0.5)
    lo2, hi2 = bounds_rr(law2, 0, 0.3, AssumptionSet.MONOTONE)
    assert lo2 == 1.0 and hi2 == pytest.approx(2.1852, abs=5e-4)


def test_bounds_ar_degenerate_cases(null_population):
    law = project(null_population, D1, 0.5)
    for c in range(2):
        assert bounds_ar(law, c, 0.0, AssumptionSet.MONOTONE) == (0.0, 0.0)
        lo, hi = bounds_ar(law, c, 1.0, AssumptionSet.MONOTONE)
        assert hi == pytest.approx(0.0, abs=1e-12)


def test_bounds_ar_containment_random_monotone():
    rng = RngSpec(16)
    for i in range(50):
        pop = random_population(rng.derive("ar-contain", i), n_cells=2,
                                mtr=True, mts=True)
        for design in (D1, D2):
            law = project(pop, design, 0.5)
            for c in range(2):
                lo, hi = bounds_ar(law, c, 1.0, AssumptionSet.MONOTONE)
                assert lo == 0.0
                assert -1e-12 <= pop.theta_ar(c) <= hi + 1e-10


def test_upper_bound_ar_aggregates():
    rng = RngSpec(17)
    pop = random_population(rng.derive("agg"), n_cells=2)
    law1 = project(pop, D1, 0.5)
    assert upper_bound_ar(law1, 0.0) == 0.0
    p = 0.3
    expected = 0.7 * beta_ar_aggregate(law1, p, 0) + 0.3 * beta_ar_aggregate(law1, p, 1)
    assert upper_bound_ar(law1, p) == pytest.approx(expected, rel=1e-12)
    law2 = project(pop, D2, 0.5)
    assert upper_bound_ar(law2, 0.25) == pytest.approx(0.25 * xi_cp(law2), rel=1e-12)


def test_aggregation_identity_exact():
    rng = RngSpec(18)
    for i in range(40):
        pop = random_population(rng.derive("mix", i), n_cells=3)
        mass = pop.cell_mass
        law1 = project(pop, D1, 0.45)
        target = float(mass @ np.log([gamma(law1, c, 0.0) for c in range(3)]))
        mix = (1 - pop.p0) * beta_aggregate(law1, 0) + pop.p0 * beta_aggregate(law1, 1)
        assert mix == pytest.approx(target, abs=1e-12)
        law2 = project(pop, D2, 0.45)
        target2 = float(mass @ np.log([gamma(law2, c, 0.0) for c in range(3)]))
        assert beta_aggregate(law2, 0) == pytest.approx(target2, abs=1e-12)


def _per_point_scan(f, pbar, step, extra, sign):
    # a dense grid, refined around its best point by scipy's bounded Brent
    # search; returns (best grid value, refined value)
    grid = np.arange(0.0, pbar, step)
    grid = np.concatenate([grid, [pbar], np.asarray(extra, dtype=float)])
    grid = np.unique(np.clip(grid, 0.0, pbar))
    vals = np.array([sign * f(p) for p in grid])
    k = int(np.argmax(vals))
    best = vals[k]
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    refined = best
    if hi > lo:
        res = minimize_scalar(lambda p: -sign * f(p), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10})
        refined = max(best, sign * f(float(res.x)))
    return sign * best, sign * refined


def _per_point_bounds_ar(law, cell, pbar, assumptions, step, extra_p):
    # ((grid lo, grid hi), (refined lo, refined hi))
    if law.design is D1:
        f = lambda p: r_case_prob(law, cell, p) * gamma_ar(law, cell, p)
    else:
        g0 = gamma_ar(law, cell, 0.0)
        f = lambda p: r_case_prob(law, cell, p) * g0
    hi = _per_point_scan(f, pbar, step, extra_p, +1.0)
    lo = (0.0, 0.0) if assumptions is AssumptionSet.MONOTONE else \
        _per_point_scan(f, pbar, step, extra_p, -1.0)
    return (lo[0], hi[0]), (lo[1], hi[1])


def _peak_p(law, cell):
    # the case share at which r(x, p) reaches the stationary r of r * Gamma_AR
    pi0, pi1 = law.pi[1, 0, cell], law.pi[1, 1, cell]
    rs = minimize_scalar(lambda r: -abs(r * gamma_ar_formula(pi0, pi1, r)),
                         bounds=(0.0, 1.0), method="bounded",
                         options={"xatol": 1e-12}).x
    a = (1.0 - law.h0) * law.pyx[cell]
    b = law.h0 * (1.0 - law.pyx[cell])
    return rs * b / (a * (1.0 - rs) + rs * b)


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 3),
       h0=st.floats(0.05, 0.95), design=st.sampled_from([D1, D2]),
       assumptions=st.sampled_from([AssumptionSet.MONOTONE, AssumptionSet.IGNORABILITY]),
       where=st.sampled_from(["zero", "one", "below-peak", "above-peak"]),
       frac=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_bounds_ar_closed_form_equals_dense_scan(seed, n_cells, h0, design, assumptions,
                                                 where, frac):
    pop = random_population(RngSpec(seed).derive("scan-pop"), n_cells=n_cells,
                            mtr=seed % 2 == 0, mts=seed % 2 == 0)
    law = project(pop, design, h0)
    for c in range(n_cells):
        # pbar at 0, at 1, or on either side of the case-control peak
        peak = _peak_p(project(pop, D1, h0), c)
        pbar = {"zero": 0.0, "one": 1.0, "below-peak": frac * peak,
                "above-peak": peak + frac * (1.0 - peak)}[where]
        got = bounds_ar(law, c, pbar, assumptions)
        grid, refined = _per_point_bounds_ar(law, c, pbar, assumptions, 0.001, (pop.p0,))
        np.testing.assert_allclose(got, refined, rtol=0, atol=1e-12)
        assert got[1] >= grid[1] - 1e-15 and got[0] <= grid[0] + 1e-15


@pytest.mark.parametrize("design", [D1, D2])
@pytest.mark.parametrize("pbar", [0.0, 0.3, 1.0])
def test_bounds_ar_negative_lower_end_when_pi1_below_pi0(design, pbar):
    # pi1 < pi0 makes r * Gamma_AR negative: the lower end carries the extreme
    law = single_cell_law(0.2, 0.6, h0=0.4, design=design)
    _, refined = _per_point_bounds_ar(law, 0, pbar, AssumptionSet.IGNORABILITY, 0.001, ())
    lo, hi = bounds_ar(law, 0, pbar, AssumptionSet.IGNORABILITY)
    assert hi == 0.0 and (lo < 0.0) == (pbar > 0.0)
    np.testing.assert_allclose((lo, hi), refined, rtol=0, atol=1e-12)
    assert bounds_ar(law, 0, pbar, AssumptionSet.MONOTONE) == (0.0, 0.0)


# --- persistence --------------------------------------------------------------------


# --- the formula kernel ---------------------------------------------------------


def test_pyx_computed_once_per_law():
    law = project(random_population(RngSpec(5).derive("kernel-pop"), n_cells=4), D1, 0.4)
    num = law.h0 * law.fxy[1]
    assert np.array_equal(law.pyx, num / (num + (1.0 - law.h0) * law.fxy[0]))
    assert law.pyx is law.pyx
    assert not law.pyx.flags.writeable


def test_population_quantities_computed_once_and_read_only():
    pop = random_population(RngSpec(6).derive("cache-pop"), n_cells=3)
    pmf = pop.pmf
    fresh = {
        "cell_mass": pmf.sum(axis=(1, 2, 3)),
        "p_treat_given_x": pmf[:, 1].sum(axis=(1, 2)) / pmf.sum(axis=(1, 2, 3)),
        "joint_xty": np.stack([np.stack([pmf[:, 0, 0, :].sum(axis=1),
                                         pmf[:, 0, 1, :].sum(axis=1)], axis=1),
                               np.stack([pmf[:, 1, :, 0].sum(axis=1),
                                         pmf[:, 1, :, 1].sum(axis=1)], axis=1)], axis=1),
    }
    for name, want in fresh.items():
        got = getattr(pop, name)
        assert np.array_equal(got, want), name
        assert getattr(pop, name) is got, name
        assert not got.flags.writeable, name
        with pytest.raises(ValueError):
            got[0] = 0.5
    margins = (pmf[:, :, 1, :].sum(axis=(1, 2)) / fresh["cell_mass"],   # Y*(0)
               pmf[:, :, :, 1].sum(axis=(1, 2)) / fresh["cell_mass"])   # Y*(1)
    for t in (0, 1):
        margin = pop.potential_prob(t)
        assert np.array_equal(margin, margins[t])
        # both margins are views of one array computed once
        assert margin.base is pop.potential_prob(1 - t).base is not None
        assert not margin.flags.writeable
        with pytest.raises(ValueError):
            margin[0] = 0.5
    assert pop.p0 == float(fresh["joint_xty"][:, :, 1].sum())
    assert pop.check_assumptions() is pop.check_assumptions()


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 6),
       p=st.floats(0.0, 1.0), h0=st.floats(0.05, 0.95), design=st.sampled_from([D1, D2]))
@settings(max_examples=100, deadline=None)
def test_kernel_over_cells_equals_scalar_calls(seed, n_cells, p, h0, design):
    law = project(random_population(RngSpec(seed).derive("kernel-pop"), n_cells=n_cells),
                  design, h0)
    pi0, pi1 = law.pi[1, 0], law.pi[1, 1]
    r = r_formula(law.pyx, law.h0, p, design)
    g = gamma_formula(pi0, pi1, r)
    g_ar = gamma_ar_formula(pi0, pi1, r)
    cells = range(n_cells)
    for c in cells:
        assert r[c] == r_case_prob(law, c, p)
        assert g[c] == gamma(law, c, p)
        assert g_ar[c] == gamma_ar(law, c, p)
    odds_ratios = [gamma(law, c, 0.0) for c in cells]
    for y in (0, 1):
        assert beta_aggregate(law, y) == float(law.fxy[y] @ np.log(odds_ratios))
        per_cell = [r_case_prob(law, c, p) * gamma_ar(law, c, p) for c in cells]
        assert beta_ar_aggregate(law, p, y) == float(law.fxy[y] @ np.array(per_cell))


unit = st.floats(1e-6, 1.0 - 1e-6)


@given(q=unit, h0=unit, pi0=unit, pi1=unit)
@settings(max_examples=200, deadline=None)
def test_kernel_endpoints_and_odds_ratio(q, h0, pi0, pi1):
    for design in (D1, D2):
        assert r_formula(q, h0, 0.0, design) == 0.0
    assert r_formula(q, h0, 1.0, D1) == 1.0
    odds_ratio = pi1 * (1.0 - pi0) / ((1.0 - pi1) * pi0)
    assert math.isclose(gamma_formula(pi0, pi1, 0.0), odds_ratio, rel_tol=1e-14)


def test_population_roundtrip(tmp_path):
    pop = random_population(RngSpec(19).derive("io"), n_cells=3, mtr=True)
    path = tmp_path / "pop.csv"
    save_population(pop, path)
    again = load_population(path)
    assert np.allclose(again.pmf, pop.pmf, atol=0)
    assert np.allclose(again.support_x, pop.support_x, atol=0)


def test_pmf_validation():
    with pytest.raises(ValidationError):
        DiscretePopulation(support_x=np.zeros((1, 1)), pmf=np.full((1, 2, 2, 2), 0.2))
    bad = np.zeros((1, 2, 2, 2))
    bad[0, 0, 0, 0] = 1.5
    bad[0, 1, 1, 1] = -0.5
    with pytest.raises(ValidationError):
        DiscretePopulation(support_x=np.zeros((1, 1)), pmf=bad)


def test_non_finite_probabilities_are_rejected(tmp_path):
    pmf = np.full((1, 2, 2, 2), 1.0 / 8)
    pmf[0, 0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)
    with pytest.raises(ValidationError):
        DiscretePopulation(support_x=np.array([[np.inf]]), pmf=np.full((1, 2, 2, 2), 1.0 / 8))
    law = single_cell_law(0.4, 0.3)
    pi = np.array(law.pi)
    pi[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        ObservedLaw(design=D1, h0=0.5, pi=pi, fxy=law.fxy)
    fxy = np.array(law.fxy)
    fxy[1, 0] = np.nan
    with pytest.raises(ValidationError):
        ObservedLaw(design=D1, h0=0.5, pi=law.pi, fxy=fxy)
    path = tmp_path / "pop.csv"
    save_population(random_population(RngSpec(23).derive("io"), n_cells=2), path)
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[4] = "nan"
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError):
        load_population(path)


def _edit_population_file(tmp_path, edit):
    """A saved two-cell population file with its data rows passed through `edit`."""
    path = tmp_path / "pop.csv"
    save_population(random_population(RngSpec(23).derive("io"), n_cells=2), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    return path


def _edit_population_columns(tmp_path, edit):
    """A saved two-cell population file with the fields of every line, its
    header included, passed through `edit`."""
    path = tmp_path / "pop.csv"
    save_population(random_population(RngSpec(23).derive("io"), n_cells=2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(",".join(edit(line.split(","))) for line in lines) + "\n")
    return path


def test_load_population_refuses_swapped_columns(tmp_path):
    # t and y1 swapped, header included: the file used to load, its pmf off
    # by up to 0.049
    path = _edit_population_columns(tmp_path, lambda f: [f[0], f[3], f[2], f[1], *f[4:]])
    with pytest.raises(ValidationError, match=re.escape(f"{path}: the header must be")):
        load_population(path)


def test_load_population_refuses_an_extra_column(tmp_path):
    # a weight column after mass used to be read as x1
    path = _edit_population_columns(
        tmp_path, lambda f: [*f[:5], "weight" if f[0] == "cell" else "9", *f[5:]])
    with pytest.raises(ValidationError, match=re.escape(f"{path}: the header must be")):
        load_population(path)
    # the control: the file as saved loads
    assert load_population(_edit_population_columns(tmp_path, list)).n_cells == 2


def test_load_population_refuses_an_entry_written_twice(tmp_path):
    # the file used to load, the later copy of the entry winning
    path = _edit_population_file(tmp_path, lambda rows: rows + [rows[3]])
    twice = re.escape(f"{path}: ") + r".*\(0, 0, 1, 1\) is written twice"
    with pytest.raises(ValidationError, match=twice):
        load_population(path)


def test_load_population_refuses_a_cell_with_two_covariate_values(tmp_path):
    # one of cell 0's eight rows says x1 = 7.0; the cell used to take the
    # value of its last row
    def edit(rows):
        fields = rows[2].split(",")
        fields[5] = "7.0"
        return [*rows[:2], ",".join(fields), *rows[3:]]

    path = _edit_population_file(tmp_path, edit)
    two_values = re.escape(f"{path}: ") + ".*cell 0 is given covariates"
    with pytest.raises(ValidationError, match=two_values):
        load_population(path)
    # the control: the file as saved loads
    assert load_population(_edit_population_file(tmp_path, list)).n_cells == 2


# --- stacks -----------------------------------------------------------------------


def _stack(pops):
    return DiscretePopulation(support_x=pops[0].support_x,
                              pmf=np.stack([pop.pmf for pop in pops]))


def _same(stacked, alone):
    """A stacked value equals its members' values to the last bit, and a
    population or law without a stack axis still gives a plain float."""
    assert all(type(v) is float for v in alone)
    assert not stacked.flags.writeable
    assert stacked.tolist() == alone


@given(seed=st.integers(0, 2 ** 32 - 1), n_pops=st.integers(1, 5), n_cells=st.integers(1, 4),
       h0=st.floats(0.05, 0.95), p=st.floats(0.0, 1.0), design=st.sampled_from([D1, D2]),
       assumptions=st.sampled_from(list(AssumptionSet)))
@settings(max_examples=40, deadline=None)
def test_stack_gives_each_members_values(seed, n_pops, n_cells, h0, p, design, assumptions):
    pops = [random_population(RngSpec(seed).derive("stack-pop", i), n_cells=n_cells,
                              mtr=i % 2 == 1, mts=i % 2 == 1) for i in range(n_pops)]
    stack = _stack(pops)
    laws = [project(pop, design, h0) for pop in pops]
    law = project(stack, design, h0)
    for name in ("pi", "fxy", "pyx"):
        assert np.array_equal(getattr(law, name), np.stack([getattr(m, name) for m in laws]))
    for name in ("cell_mass", "p_treat_given_x", "joint_xty", "_potential_probs"):
        # the potential-outcome margins are [t, ..., cell]
        want = np.stack([getattr(pop, name) for pop in pops],
                        axis=1 if name == "_potential_probs" else 0)
        assert np.array_equal(getattr(stack, name), want), name
    _same(stack.p0, [pop.p0 for pop in pops])
    report = stack.check_assumptions()
    for name, value in vars(report).items():
        assert value.tolist() == [getattr(pop.check_assumptions(), name) for pop in pops]
    shares = np.array([pop.p0 for pop in pops])
    for c in range(n_cells):
        for method in ("theta", "theta_ar", "prospective_rr", "prospective_or"):
            _same(getattr(stack, method)(c), [getattr(pop, method)(c) for pop in pops])
        for fn in (r_case_prob, gamma, gamma_ar):
            _same(fn(law, c, p), [fn(m, c, p) for m in laws])
            _same(fn(law, c, shares), [fn(m, c, pop.p0) for m, pop in zip(laws, pops)])
        for bounds in (bounds_rr, bounds_ar):
            ends = bounds(law, c, p, assumptions)
            alone = [bounds(m, c, p, assumptions) for m in laws]
            for end, want in zip(ends, zip(*alone)):
                assert np.broadcast_to(end, n_pops).tolist() == list(want)
        if design is D1:
            _same(rare_disease_slope(law, c), [rare_disease_slope(m, c) for m in laws])
    for y in (0, 1):
        _same(beta_aggregate(law, y), [beta_aggregate(m, y) for m in laws])
        _same(beta_ar_aggregate(law, p, y), [beta_ar_aggregate(m, p, y) for m in laws])
    _same(upper_bound_ar(law, p), [upper_bound_ar(m, p) for m in laws])
    if design is D2:
        _same(xi_cp(law), [xi_cp(m) for m in laws])


def _zero_untreated_outcome(cell):
    # no unit of `cell` has Y*(0) = 1
    pmf = np.full((2, 2, 2, 2), 1.0 / 16)
    pmf[cell, :, 1, :] = 0.0
    return DiscretePopulation(support_x=np.arange(2.0)[:, None], pmf=pmf / pmf.sum())


def test_stack_member_with_zero_denominator_refuses_before_dividing():
    import warnings

    good = random_population(RngSpec(2).derive("zero-den"), n_cells=2)
    stack = _stack([good, _zero_untreated_outcome(1), good])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pop in (stack, _zero_untreated_outcome(1)):
            with pytest.raises(ZeroDenominator, match=re.escape("Pr{Y*(0)=1 | cell 1} is zero")):
                pop.theta(1)
        assert stack.theta(0).shape == (3,)


def test_stack_with_one_member_without_overlap_is_not_projected():
    good = random_population(RngSpec(2).derive("stack-overlap"), n_cells=2)
    stack = _stack([good, _empty_arm_population(), good])
    assert stack._overlap.tolist() == [True, False, True]
    for design in (D1, D2):
        with pytest.raises(OverlapViolation,
                           match="population violates overlap on some support cell"):
            project(stack, design, 0.4)
    assert project(_stack([good, good]), D1, 0.4).pi.shape == (2, 2, 2, 2)


def test_stack_validation_names_the_member_that_fails():
    good = random_population(RngSpec(2).derive("stack-sum"), n_cells=2)
    with pytest.raises(ValidationError, match=re.escape("pmf sums to np.float64(0.5), not 1")):
        DiscretePopulation(support_x=good.support_x, pmf=np.stack([good.pmf, good.pmf / 2]))
    with pytest.raises(ValidationError, match="pmf must have shape"):
        DiscretePopulation(support_x=np.zeros((3, 1)), pmf=np.stack([good.pmf, good.pmf]))
    law = project(good, D1, 0.4)
    with pytest.raises(ValidationError, match="pi must be"):
        ObservedLaw(design=D1, h0=0.4, pi=np.stack([law.pi] * 2), fxy=law.fxy)
    with pytest.raises(ValidationError, match="writes one population, not a stack"):
        save_population(_stack([good, good]), "unused.csv")


def test_rare_disease_slope_squares_as_a_float_does():
    # x ** 2 on a float is C pow, which rounds some squares otherwise than
    # x * x, numpy's square of an array; the slope keeps the float's square
    # for one law and for every member of a stack
    def slope(pi10, square):
        return 0.4 * (pi10 - 0.4) / (0.6 * square) * 1.0 / 1.0

    rng = np.random.default_rng(3)
    pi10 = next(x for x in rng.uniform(0.05, 0.95, 100_000).tolist()
                if slope(x, x ** 2) != slope(x, x * x))
    pi = np.array([[[1.0 - pi10], [0.6]], [[pi10], [0.4]]])
    law = ObservedLaw(design=D1, h0=0.3, pi=pi, fxy=np.ones((2, 1)))
    want = slope(pi10, pi10 ** 2)
    assert rare_disease_slope(law, 0) == want
    stack = ObservedLaw(design=D1, h0=0.3, pi=np.stack([pi, pi]), fxy=np.ones((2, 2, 1)))
    assert rare_disease_slope(stack, 0).tolist() == [want, want]
