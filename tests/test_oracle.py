import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from casebound.errors import (
    OverlapViolation,
    ValidationError,
    ZeroDenominator,
    ZeroRetroProb,
)
from casebound.fixtures import top_income_population
from casebound.model import Design
from casebound.oracle import (
    AssumptionSet,
    DiscretePopulation,
    ObservedLaw,
    _bounded_min,
    beta_aggregate,
    beta_ar_aggregate,
    bounds_ar,
    bounds_rr,
    gamma,
    gamma_ar,
    gamma_ar_formula,
    gamma_formula,
    kappa_aggregate,
    load_population,
    population_from_margins,
    project,
    r_case_prob,
    r_formula,
    random_population,
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
        lambda: bounds_ar(law, cell, 0.5, AssumptionSet.IGNORABILITY, step=0.1),
        lambda: bounds_ar(project(pop, D2, 0.5), cell, 0.5, AssumptionSet.MONOTONE,
                          step=0.1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="outside support"):
            call()


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
                a1 = pop.potential_prob_by_arm(t, 1)[c]
                a0 = pop.potential_prob_by_arm(t, 0)[c]
                if a1 < a0 - 1e-12:
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
                lo, hi = bounds_ar(law, c, 1.0, AssumptionSet.MONOTONE,
                                   step=0.01, extra_p=(pop.p0,))
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
    # the grid scan as it was before the grid became one array call
    grid = np.arange(0.0, pbar, step)
    grid = np.concatenate([grid, [pbar], np.asarray(extra, dtype=float)])
    grid = np.unique(np.clip(grid, 0.0, pbar))
    vals = np.array([sign * f(p) for p in grid])
    k = int(np.argmax(vals))
    best = vals[k]
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    if hi > lo:
        res = minimize_scalar(lambda p: -sign * f(p), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10})
        best = max(best, sign * f(float(res.x)))
    return sign * best


def _per_point_bounds_ar(law, cell, pbar, assumptions, step, extra_p):
    if law.design is D1:
        f = lambda p: r_case_prob(law, cell, p) * gamma_ar(law, cell, p)
    else:
        g0 = gamma_ar(law, cell, 0.0)
        f = lambda p: r_case_prob(law, cell, p) * g0
    hi = _per_point_scan(f, pbar, step, extra_p, +1.0)
    if assumptions is AssumptionSet.MONOTONE:
        return (0.0, hi)
    return (_per_point_scan(f, pbar, step, extra_p, -1.0), hi)


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 3),
       h0=st.floats(0.05, 0.95), pbar=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       design=st.sampled_from([D1, D2]),
       assumptions=st.sampled_from([AssumptionSet.MONOTONE, AssumptionSet.IGNORABILITY]),
       step=st.sampled_from([0.25, 0.01, 0.001]), with_p0=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bounds_ar_scan_equals_per_point_scan_bit_for_bit(seed, n_cells, h0, pbar, design,
                                                           assumptions, step, with_p0):
    pop = random_population(RngSpec(seed).derive("scan-pop"), n_cells=n_cells,
                            mtr=seed % 2 == 0, mts=seed % 2 == 0)
    law = project(pop, design, h0)
    extra_p = (pop.p0,) if with_p0 else ()
    for c in range(n_cells):
        got = bounds_ar(law, c, pbar, assumptions, step=step, extra_p=extra_p)
        want = _per_point_bounds_ar(law, c, pbar, assumptions, step, extra_p)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def _assert_same_as_scipy(f, lo, hi, xatol):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, fx, evaluations = _bounded_min(f, lo, hi, xatol)
    assert x.hex() == float(res.x).hex()
    assert fx.hex() == float(res.fun).hex()
    assert evaluations == res.nfev


@pytest.mark.parametrize("xatol", [1e-10, 1e-5])
@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0),      # interior optimum
    (lambda x: math.cos(3.0 * x), -0.5, 2.0),  # interior, not a parabola
    (lambda x: x, 0.2, 0.9),                   # optimum on the lower bound
    (lambda x: -x, 0.2, 0.9),                  # optimum on the upper bound
    (lambda x: 2.0, 0.0, 1.0),                 # constant
], ids=["parabola", "cosine", "lower-bound", "upper-bound", "constant"])
def test_bounded_min_equals_scipy_bit_for_bit(f, lo, hi, xatol):
    _assert_same_as_scipy(f, lo, hi, xatol)


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 3),
       h0=st.floats(0.05, 0.95), design=st.sampled_from([D1, D2]),
       sign=st.sampled_from([1.0, -1.0]), lo=st.floats(0.0, 0.9),
       width=st.floats(1e-6, 1.0), xatol=st.sampled_from([1e-10, 1e-5]))
@settings(max_examples=80, deadline=None)
def test_bounded_min_equals_scipy_on_ar_envelopes(seed, n_cells, h0, design, sign, lo,
                                                   width, xatol):
    # the functions _scan_max refines: sign * r * Gamma_AR of random laws
    pop = random_population(RngSpec(seed).derive("brent-pop"), n_cells=n_cells,
                            mtr=seed % 2 == 0, mts=seed % 2 == 0)
    law = project(pop, design, h0)
    hi = min(lo + width, 1.0)
    for c in range(n_cells):
        g0 = gamma_ar(law, c, 0.0)
        if design is D1:
            f = lambda p: -sign * r_case_prob(law, c, p) * gamma_ar(law, c, p)
        else:
            f = lambda p: -sign * r_case_prob(law, c, p) * g0
        _assert_same_as_scipy(f, lo, hi, xatol)


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
        assert kappa_aggregate(law, y) == float(law.fxy[y] @ np.array(odds_ratios))
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
