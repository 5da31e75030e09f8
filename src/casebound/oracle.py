"""Exact computation on finite populations.

A DiscretePopulation stores the full joint distribution of
(X*, T*, Y*(0), Y*(1)) on a finite covariate support.  Everything of
interest — causal relative risk, causal attributable risk, the observed
law induced by case-control or case-population sampling, the functions
r(x, p), Gamma(x, p), Gamma_AR(x, p), odds ratios, and all the bound
formulas — can then be evaluated by plain enumeration, with no estimation
error.  This module is the reference against which the estimators and the
identification formulas are verified.

Caching
-------
A DiscretePopulation and an ObservedLaw are frozen and their arrays are
read-only, so what they determine is computed on first use and kept on the
instance with functools.cached_property: a population's cell mass,
treatment propensity, potential-outcome margins, factual joint, p0 and its
assumption report, and a law's Pr(Y=1|x).  Cached arrays are read-only
too, so no caller can change them under another.  A cache lives and dies
with its instance; nothing is memoised at module level, where a population
(unhashable, since it holds arrays) would be kept alive for good.

`bounds_ar` takes the attributable-risk envelope over p in closed form,
at the stationary point of r * Gamma_AR in r; nothing is scanned.

Index conventions
-----------------
pmf has shape (n_cells, 2, 2, 2) indexed [cell, t, y0, y1].
ObservedLaw.pi has shape (2, 2, n_cells) indexed [t, y, cell]; fxy has
shape (2, n_cells) indexed [y, cell].
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# np.median (synthetic.run_mc_study) and np.quantile (basis._quantile_knots)
# import numpy.ma on first use: load it with the package, not mid-call
import numpy.ma  # noqa: F401

from .errors import (
    OverlapViolation,
    ValidationError,
    ZeroDenominator,
    ZeroRetroProb,
)
from .model import Design

__all__ = [
    "DiscretePopulation",
    "ObservedLaw",
    "AssumptionReport",
    "AssumptionSet",
    "project",
    "r_formula",
    "gamma_formula",
    "gamma_ar_formula",
    "ar_term_formula",
    "r_case_prob",
    "gamma",
    "gamma_ar",
    "rare_disease_slope",
    "bounds_rr",
    "bounds_ar",
    "beta_aggregate",
    "kappa_aggregate",
    "beta_ar_aggregate",
    "xi_cp",
    "upper_bound_ar",
    "random_population",
    "population_from_margins",
    "save_population",
    "load_population",
]

_PMF_TOL = 1e-12
_ASSUMPTION_TOL = 1e-12


class AssumptionSet(enum.Enum):
    """Identifying assumptions under which bounds are reported."""

    IGNORABILITY = "ignorability"   # overlap + unconfoundedness
    MONOTONE = "monotone"           # monotone response + monotone selection


@dataclass(frozen=True)
class AssumptionReport:
    overlap: bool
    unconfounded: bool
    mtr: bool
    mts: bool


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite joint distribution of (X*, T*, Y*(0), Y*(1))."""

    support_x: np.ndarray  # (n_cells, K)
    pmf: np.ndarray        # (n_cells, 2, 2, 2) indexed [cell, t, y0, y1]

    def __post_init__(self):
        support = np.asarray(self.support_x, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (support.shape[0], 2, 2, 2):
            raise ValidationError(f"pmf must have shape (n_cells, 2, 2, 2), got {pmf.shape}")
        if not (np.isfinite(pmf).all() and np.isfinite(support).all()):
            raise ValidationError("pmf and support_x must be finite")
        if np.any(pmf < 0):
            raise ValidationError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > _PMF_TOL:
            raise ValidationError(f"pmf sums to {pmf.sum()!r}, not 1")
        object.__setattr__(self, "support_x", support)
        object.__setattr__(self, "pmf", pmf)
        self.support_x.setflags(write=False)
        self.pmf.setflags(write=False)

    # --- marginal building blocks -----------------------------------------
    #
    # The population is immutable, so everything below that depends only on
    # pmf is computed on first use and cached on the instance as a read-only
    # array (functools.cached_property writes the instance __dict__, which a
    # frozen dataclass allows).

    @property
    def n_cells(self) -> int:
        return self.support_x.shape[0]

    @cached_property
    def cell_mass(self) -> np.ndarray:
        """f_{X*}(x), per cell."""
        return _frozen(self.pmf.sum(axis=(1, 2, 3)))

    @cached_property
    def p_treat_given_x(self) -> np.ndarray:
        """Pr(T*=1 | X*=x), per cell."""
        return _frozen(self.pmf[:, 1].sum(axis=(1, 2)) / self.cell_mass)

    @cached_property
    def _potential_probs(self) -> np.ndarray:
        # [t, cell] -> Pr{Y*(t)=1 | X*=x}
        num = np.stack([self.pmf[:, :, 1, :].sum(axis=(1, 2)),
                        self.pmf[:, :, :, 1].sum(axis=(1, 2))])
        return _frozen(num / self.cell_mass)

    def potential_prob(self, t: int) -> np.ndarray:
        """Pr{Y*(t)=1 | X*=x}, per cell."""
        return self._potential_probs[1 if t == 1 else 0]

    def potential_prob_by_arm(self, t: int, arm: int) -> np.ndarray:
        """Pr{Y*(t)=1 | T*=arm, X*=x}, per cell."""
        slab = self.pmf[:, arm]  # (n_cells, y0, y1)
        denom = slab.sum(axis=(1, 2))
        num = slab[:, :, 1].sum(axis=1) if t == 1 else slab[:, 1, :].sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), np.nan)

    @cached_property
    def joint_xty(self) -> np.ndarray:
        """Pr(X*=x, T*=t, Y*=y) with Y* = T*Y*(1) + (1-T*)Y*(0); shape (n_cells, 2, 2)."""
        out = np.empty((self.n_cells, 2, 2))
        out[:, 0, 0] = self.pmf[:, 0, 0, :].sum(axis=1)   # t=0, y0=0
        out[:, 0, 1] = self.pmf[:, 0, 1, :].sum(axis=1)   # t=0, y0=1
        out[:, 1, 0] = self.pmf[:, 1, :, 0].sum(axis=1)   # t=1, y1=0
        out[:, 1, 1] = self.pmf[:, 1, :, 1].sum(axis=1)   # t=1, y1=1
        return _frozen(out)

    @cached_property
    def p0(self) -> float:
        """True case probability Pr(Y*=1)."""
        j = self.joint_xty
        return float(j[:, :, 1].sum())

    def py_given_x(self) -> np.ndarray:
        """Pr(Y*=1 | X*=x), per cell."""
        return self.joint_xty[:, :, 1].sum(axis=1) / self.cell_mass

    # --- causal estimands ---------------------------------------------------

    def theta(self, cell: int) -> float:
        """Causal relative risk Pr{Y*(1)=1|x} / Pr{Y*(0)=1|x}."""
        _check_cell(self, cell)
        p1 = self.potential_prob(1)[cell]
        p0 = self.potential_prob(0)[cell]
        if p0 <= 0:
            raise ZeroDenominator(f"Pr{{Y*(0)=1 | cell {cell}}} is zero")
        return float(p1 / p0)

    def theta_ar(self, cell: int) -> float:
        """Causal attributable risk Pr{Y*(1)=1|x} - Pr{Y*(0)=1|x}."""
        _check_cell(self, cell)
        return float(self.potential_prob(1)[cell] - self.potential_prob(0)[cell])

    def prospective_rr(self, cell: int) -> float:
        """Pr(Y*=1|T*=1,x) / Pr(Y*=1|T*=0,x) from the factual joint."""
        _check_cell(self, cell)
        j = self.joint_xty[cell]
        p1 = j[1, 1] / j[1].sum()
        p0 = j[0, 1] / j[0].sum()
        if p0 <= 0:
            raise ZeroDenominator("Pr(Y*=1|T*=0,x) is zero")
        return float(p1 / p0)

    def prospective_or(self, cell: int) -> float:
        """Odds ratio of (Y*, T*) given X*=x."""
        _check_cell(self, cell)
        j = self.joint_xty[cell]
        if (j <= 0).any():
            raise ZeroDenominator("a factual (t, y) cell has zero mass")
        return float((j[1, 1] * j[0, 0]) / (j[0, 1] * j[1, 0]))

    # --- assumption checks ----------------------------------------------------

    def check_assumptions(self) -> AssumptionReport:
        """Exact enumeration of overlap, unconfoundedness, MTR and MTS,
        computed once per population."""
        return self._assumption_report

    @cached_property
    def _assumption_report(self) -> AssumptionReport:
        # Every cell and both arms at once.  Overlap needs Pr(T*=1|x) and both
        # potential-outcome margins inside (0, 1); the margins are only
        # computed when treatment overlap holds.
        pt = self.p_treat_given_x
        overlap = bool(((pt > 0) & (pt < 1)).all())
        if overlap:
            q = self._potential_probs
            overlap = bool(((q > 0) & (q < 1)).all())
        mtr = bool(self.pmf[:, :, 1, 0].sum() <= _ASSUMPTION_TOL)
        # by_arm[c, arm, t] = Pr{Y*(t)=1 | T*=arm, X*=x}; an empty arm leaves
        # it undefined, and then neither assumption can be verified
        denom = self.pmf.sum(axis=(2, 3))
        if (denom <= 0).any():
            return AssumptionReport(overlap=overlap, unconfounded=False, mtr=mtr, mts=False)
        num = np.stack([self.pmf[:, :, 1, :].sum(axis=2),
                        self.pmf[:, :, :, 1].sum(axis=2)], axis=2)
        by_arm = num / denom[:, :, None]
        by1, by0 = by_arm[:, 1], by_arm[:, 0]
        unconf = bool((np.abs(by1 - by0) <= _ASSUMPTION_TOL).all())
        mts = bool((by1 >= by0 - _ASSUMPTION_TOL).all())
        return AssumptionReport(overlap=overlap, unconfounded=unconf, mtr=mtr, mts=mts)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_cell(source, cell: int) -> None:
    """Reject a cell index outside 0..n_cells-1 (negative indices included)."""
    if not 0 <= cell < source.n_cells:
        raise ValidationError(f"cell {cell} outside support 0..{source.n_cells - 1}")


@dataclass(frozen=True)
class ObservedLaw:
    """The distribution of (Y, T, X) induced by a sampling design.

    pi[t, y, cell] is the retrospective probability Pi(t|y, x); fxy[y, cell]
    is the covariate pmf within stratum y.  Laws with a zero retrospective
    cell are rejected outright: every downstream formula divides by them.
    """

    design: Design
    h0: float
    pi: np.ndarray
    fxy: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        fxy = np.asarray(self.fxy, dtype=float)
        if pi.ndim != 3 or pi.shape[:2] != (2, 2) or fxy.shape != (2, pi.shape[2]):
            raise ValidationError("pi must be (2, 2, n_cells) and fxy (2, n_cells)")
        if not 0.0 < self.h0 < 1.0:
            raise ValidationError("h0 must lie in (0, 1)")
        if not (np.isfinite(pi).all() and np.isfinite(fxy).all()):
            raise ValidationError("pi and fxy must be finite")
        if np.any(np.abs(pi.sum(axis=0) - 1.0) > 1e-9):
            raise ValidationError("Pi(0|y,x) + Pi(1|y,x) must equal 1")
        if np.any(np.abs(fxy.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("each f_{X|Y}(.|y) must sum to 1")
        if np.any(pi <= 0):
            raise ZeroRetroProb("Pi(t|y,x) hits zero on a support cell")
        if np.any(fxy < 0):
            raise ValidationError("fxy entries must be nonnegative")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "fxy", fxy)
        self.pi.setflags(write=False)
        self.fxy.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.pi.shape[2]

    @cached_property
    def pyx(self) -> np.ndarray:
        """Pr(Y=1 | X=x) by the Bayes rule from fxy and h0, computed once."""
        num = self.h0 * self.fxy[1]
        den = num + (1.0 - self.h0) * self.fxy[0]
        return _frozen(num / den)


def project(pop: DiscretePopulation, design: Design, h0: float) -> ObservedLaw:
    """Push a population through a sampling design.

    Case-control: both strata are the conditional laws of (T*, X*) given
    Y*=y.  Case-population: the y=0 stratum is the unconditional law of
    (T*, X*).  Requires an overlap-valid population.
    """
    if not pop.check_assumptions().overlap:
        raise OverlapViolation("population violates overlap on some support cell")
    j = pop.joint_xty  # (cell, t, ystar)
    p_y1 = j[:, :, 1].sum()
    p_y0 = j[:, :, 0].sum()
    pi = np.empty((2, 2, pop.n_cells))
    fxy = np.empty((2, pop.n_cells))
    # case stratum: (T*, X*) | Y*=1 under both designs
    fxy[1] = j[:, :, 1].sum(axis=1) / p_y1
    pi[1, 1] = j[:, 1, 1] / j[:, :, 1].sum(axis=1)
    pi[0, 1] = 1.0 - pi[1, 1]
    if design is Design.CASE_CONTROL:
        fxy[0] = j[:, :, 0].sum(axis=1) / p_y0
        pi[1, 0] = j[:, 1, 0] / j[:, :, 0].sum(axis=1)
    else:
        fxy[0] = pop.cell_mass
        pi[1, 0] = pop.p_treat_given_x
    pi[0, 0] = 1.0 - pi[1, 0]
    return ObservedLaw(design=design, h0=h0, pi=pi, fxy=fxy)


# --- the formula kernel -----------------------------------------------------------
#
# r, Gamma, Gamma_AR and the attributable-risk term r * Gamma_AR as plain
# arithmetic on floats or arrays.  The per-cell oracle functions below call
# them on one cell, the aggregates on every cell at once, and the estimators
# on every observation.  Denominators are convex combinations, so the
# endpoints p=0 and (case-control) p=1 come out exact.


def r_formula(q, h0, p, design: Design):
    """The case-probability map r from q = Pr(Y=1|x), the stratum share h0
    and the true case share p."""
    if design is Design.CASE_CONTROL:
        num = p * (1.0 - h0) * q
        den = num + h0 * (1.0 - p) * (1.0 - q)
        return num / den
    return p * (1.0 - h0) / h0 * q / (1.0 - q)


def _check_denominators(what: str, *dens) -> None:
    for den in dens:
        zero = den == 0.0
        if zero.any() if isinstance(zero, np.ndarray) else zero:
            raise ZeroDenominator(f"{what} denominator vanished")


def gamma_formula(pi0, pi1, r):
    """Gamma from pi_y = Pi(1|y,x) and r; at r=0 it is the odds ratio."""
    num = (1.0 - r) * (1.0 - pi0) + r * (1.0 - pi1)
    den = (1.0 - r) * pi0 + r * pi1
    _check_denominators("Gamma", den)
    return pi1 / (1.0 - pi1) * (num / den)


def gamma_ar_formula(pi0, pi1, r):
    """Gamma_AR from pi_y = Pi(1|y,x) and r: a difference of probability ratios."""
    den1 = (1.0 - r) * pi0 + r * pi1
    den0 = (1.0 - r) * (1.0 - pi0) + r * (1.0 - pi1)
    _check_denominators("Gamma_AR", den1, den0)
    return pi1 / den1 - (1.0 - pi1) / den0


def ar_term_formula(q, h0, p, design: Design, pi0, pi1):
    """The attributable-risk term r * Gamma_AR from q = Pr(Y=1|x), the
    stratum share h0, the true case share p and pi_y = Pi(1|y,x)."""
    r = r_formula(q, h0, p, design)
    return r * gamma_ar_formula(pi0, pi1, r)


def r_case_prob(law: ObservedLaw, cell: int, p: float) -> float:
    """The case-probability map r(x, p).

    Evaluated at the (unidentified) true case share p0 it returns
    Pr(Y*=1 | X*=x) under both designs; at p=0 it returns 0.
    """
    _check_cell(law, cell)
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    return float(r_formula(law.pyx[cell], law.h0, p, law.design))


def gamma(law: ObservedLaw, cell: int, p: float) -> float:
    """The identified bound function Gamma(x, p); Gamma(x, 0) is the odds ratio."""
    _check_cell(law, cell)
    return float(gamma_formula(law.pi[1, 0, cell], law.pi[1, 1, cell],
                               r_case_prob(law, cell, p)))


def gamma_ar(law: ObservedLaw, cell: int, p: float) -> float:
    """The attributable-risk analogue of Gamma: a difference of probability ratios."""
    _check_cell(law, cell)
    return float(gamma_ar_formula(law.pi[1, 0, cell], law.pi[1, 1, cell],
                                  r_case_prob(law, cell, p)))


def rare_disease_slope(law: ObservedLaw, cell: int) -> float:
    """Right-side slope of Gamma(x, p) at p=0 under case-control sampling.

    Its sign equals the sign of Pi(1|0,x) - Pi(1|1,x): shrinking the case
    share restricts neither the sign nor the size of the approximation error
    of the odds ratio.
    """
    if law.design is not Design.CASE_CONTROL:
        raise ValidationError("the p=0 slope formula applies to case-control laws")
    _check_cell(law, cell)
    pi = law.pi
    lead = pi[1, 1, cell] * (pi[1, 0, cell] - pi[1, 1, cell]) / (
        pi[0, 1, cell] * pi[1, 0, cell] ** 2)
    return float(lead * law.fxy[1, cell] / law.fxy[0, cell])


def bounds_rr(law: ObservedLaw, cell: int, pbar: float,
              assumptions: AssumptionSet) -> tuple[float, float]:
    """Identified interval for the causal relative risk at one cell of an
    observed law (`project` a population to its law first).

    Under monotone response + selection the interval is [1, Gamma(x, 0)]
    for both designs.  Under ignorability it is the segment between
    Gamma(x, 0) and Gamma(x, pbar) for case-control sampling, and the
    single point Gamma(x, 0) for case-population sampling.
    """
    if not 0.0 <= pbar <= 1.0:
        raise ValidationError("pbar must lie in [0, 1]")
    _check_cell(law, cell)
    g0 = gamma(law, cell, 0.0)
    if assumptions is AssumptionSet.MONOTONE:
        return (1.0, g0)
    if law.design is Design.CASE_POPULATION:
        return (g0, g0)
    gbar = gamma(law, cell, pbar)
    return (min(g0, gbar), max(g0, gbar))


def _peak_r(pi0, pi1) -> float:
    """The r in [0, 1] at which r * Gamma_AR is stationary; 1/2 when pi1 = pi0."""
    s = math.sqrt(pi0 * pi1)
    u = math.sqrt((1.0 - pi0) * (1.0 - pi1))
    return pi0 * (1.0 - pi0) / (((1.0 - pi0) * s + pi0 * u) * (s + u))


def bounds_ar(law: ObservedLaw, cell: int, pbar: float,
              assumptions: AssumptionSet) -> tuple[float, float]:
    """Identified interval for the causal attributable risk at one cell of
    an observed law (`project` a population to its law first).

    The interval spans 0 and the extreme of the envelope over p in
    [0, pbar]: of r(x, p) * Gamma_AR(x, p) (case-control) or of
    r(x, p) * Gamma_AR(x, 0) (case-population).  Under monotonicity only
    its upper end is kept, so the interval is [0, max(ext, 0)].

    The extreme is exact.  r rises from 0 with p, and as a function of r
    with A = (1-r) pi0 + r pi1, B = 1 - A, the case-control term
    g(r) = r pi1 / A - r (1 - pi1) / B is 0 at r = 0 and r = 1, with
    g'' = -2 (pi1 - pi0) [pi0 pi1 / A^3 + (1-pi0)(1-pi1) / B^3] of one
    sign.  So |g| rises to its stationary point
    r* = pi0 (1-pi0) / {[(1-pi0) s + pi0 u] (s + u)}, s = sqrt(pi0 pi1),
    u = sqrt((1-pi0)(1-pi1)), a form that does not cancel as pi1 -> pi0,
    and ext = g(min(r*, r(x, pbar))).  Under case-population sampling r
    is linear in p, so ext = r(x, pbar) * Gamma_AR(x, 0).
    """
    if not 0.0 <= pbar <= 1.0:
        raise ValidationError("pbar must lie in [0, 1]")
    _check_cell(law, cell)
    pi0, pi1 = law.pi[1, 0, cell], law.pi[1, 1, cell]
    r = r_formula(law.pyx[cell], law.h0, pbar, law.design)
    if law.design is Design.CASE_CONTROL:
        r = min(r, _peak_r(pi0, pi1))
        ext = float(r * gamma_ar_formula(pi0, pi1, r))
    else:
        ext = float(r * gamma_ar_formula(pi0, pi1, 0.0))
    if assumptions is AssumptionSet.MONOTONE:
        return (0.0, max(0.0, ext))
    return (min(0.0, ext), max(0.0, ext))


# --- aggregated identification objects ------------------------------------------


def _odds_ratios(law: ObservedLaw) -> np.ndarray:
    # Gamma(x, 0) over every cell
    return gamma_formula(law.pi[1, 0], law.pi[1, 1],
                         r_formula(law.pyx, law.h0, 0.0, law.design))


def beta_aggregate(law: ObservedLaw, y: int) -> float:
    """beta(y): stratum-weighted mean of the log odds ratio."""
    return float(law.fxy[y] @ np.log(_odds_ratios(law)))


def kappa_aggregate(law: ObservedLaw, y: int) -> float:
    """kappa(y): stratum-weighted mean of the odds ratio itself."""
    return float(law.fxy[y] @ _odds_ratios(law))


def beta_ar_aggregate(law: ObservedLaw, p: float, y: int) -> float:
    """Stratum-weighted mean of r(X, p) * Gamma_AR(X, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    return float(law.fxy[y] @ ar_term_formula(law.pyx, law.h0, p, law.design,
                                              law.pi[1, 0], law.pi[1, 1]))


def xi_cp(law: ObservedLaw) -> float:
    """Slope of the case-population attributable-risk upper bound in p."""
    if law.design is not Design.CASE_POPULATION:
        raise ValidationError("xi_cp applies to case-population laws")
    q = law.pyx
    ratio = q / (1.0 - q)
    diff = gamma_ar_formula(law.pi[1, 0], law.pi[1, 1], 0.0)
    return float((1.0 - law.h0) / law.h0 * (law.fxy[0] @ (ratio * diff)))


def upper_bound_ar(law: ObservedLaw, p: float) -> float:
    """Aggregated attributable-risk upper bound at case share p."""
    if law.design is Design.CASE_CONTROL:
        return (1.0 - p) * beta_ar_aggregate(law, p, 0) + p * beta_ar_aggregate(law, p, 1)
    return p * xi_cp(law)


# --- random populations for property tests ----------------------------------------


def _floored_dirichlet(rng: np.random.Generator, shape: tuple[int, ...],
                       floor: float) -> np.ndarray:
    raw = rng.dirichlet(np.full(int(np.prod(shape)), 1.5)).reshape(shape)
    out = raw + floor
    return out / out.sum()


def population_from_margins(pt: np.ndarray, q1: np.ndarray, q0: np.ndarray,
                            mass: np.ndarray | None = None) -> DiscretePopulation:
    """Unconfounded population with given per-cell treatment and outcome margins.

    pt[c] = Pr(T*=1|x), q1[c] = Pr{Y*(1)=1|x}, q0[c] = Pr{Y*(0)=1|x} with
    q1 >= q0; the potential outcomes are coupled comonotonically, so the
    population satisfies monotone response by construction and monotone
    selection with equality.
    """
    pt = np.asarray(pt, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    n_cells = pt.shape[0]
    if np.any(q1 < q0):
        raise ValidationError("comonotone coupling needs q1 >= q0 at every cell")
    if mass is None:
        mass = np.full(n_cells, 1.0 / n_cells)
    mass = np.asarray(mass, dtype=float)
    pmf = np.zeros((n_cells, 2, 2, 2))
    # joint of (y0, y1): (1,1) -> q0, (0,1) -> q1 - q0, (0,0) -> 1 - q1
    for c in range(n_cells):
        joint = np.array([[1.0 - q1[c], q1[c] - q0[c]], [0.0, q0[c]]])
        pmf[c, 0] = mass[c] * (1.0 - pt[c]) * joint
        pmf[c, 1] = mass[c] * pt[c] * joint
    return DiscretePopulation(support_x=np.arange(n_cells, dtype=float)[:, None], pmf=pmf)


_MAX_TRIES = 2000  # rejection draws before monotone selection is given up


def random_population(rng: np.random.Generator, n_cells: int = 2, *,
                      mtr: bool = False, mts: bool = False,
                      unconfounded: bool = False) -> DiscretePopulation:
    """Draw a population with probabilities bounded away from 0 and 1.

    Monotone response is enforced by construction (no mass on y0 > y1),
    unconfoundedness by a product construction, and monotone selection by
    rejection when it does not already hold by construction.
    """
    support = np.arange(n_cells, dtype=float)[:, None]
    if unconfounded:
        lo, hi = 0.12, 0.88
        pt = lo + (hi - lo) * rng.random(n_cells)
        if mtr or mts:
            q1 = lo + (hi - lo) * rng.random(n_cells)
            q0 = lo + (q1 - lo) * rng.random(n_cells)
            mass = _floored_dirichlet(rng, (n_cells,), floor=0.1)
            return population_from_margins(pt, q1, q0, mass=mass)
        mass = _floored_dirichlet(rng, (n_cells,), floor=0.1)
        pmf = np.zeros((n_cells, 2, 2, 2))
        for c in range(n_cells):
            joint = _floored_dirichlet(rng, (2, 2), floor=0.08)
            pmf[c, 0] = mass[c] * (1.0 - pt[c]) * joint
            pmf[c, 1] = mass[c] * pt[c] * joint
        return DiscretePopulation(support_x=support, pmf=pmf)

    for _ in range(_MAX_TRIES):
        pmf = _floored_dirichlet(rng, (n_cells, 2, 2, 2), floor=0.02)
        if mtr:
            pmf = pmf.copy()
            pmf[:, :, 1, 0] = 0.0
            pmf /= pmf.sum()
        pop = DiscretePopulation(support_x=support, pmf=pmf)
        if mts and not pop.check_assumptions().mts:
            continue
        return pop
    raise ValidationError(f"no admissible population found in {_MAX_TRIES} draws")


# --- fixture files -------------------------------------------------------------------


def save_population(pop: DiscretePopulation, path) -> None:
    """Write the population in the tabular cell format (one row per pmf entry)."""
    k = pop.support_x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "t", "y0", "y1", "mass",
                         *(f"x{i + 1}" for i in range(k))])
        for c in range(pop.n_cells):
            coords = [repr(float(v)) for v in pop.support_x[c]]
            for t in (0, 1):
                for y0 in (0, 1):
                    for y1 in (0, 1):
                        writer.writerow([c, t, y0, y1,
                                         repr(float(pop.pmf[c, t, y0, y1])), *coords])


def load_population(path) -> DiscretePopulation:
    """Read a population written by save_population; a file that is not
    one raises ValidationError naming it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValidationError(f"{path}: no population rows")
    xcols = [name for name in rows[0] if name.startswith("x")]
    try:
        cells = sorted({int(r[0]) for r in rows[1:]})
        if cells != list(range(len(cells))):
            raise ValidationError("cell ids must be 0..n_cells-1")
        pmf = np.zeros((len(cells), 2, 2, 2))
        support = np.zeros((len(cells), len(xcols)))
        for r in rows[1:]:
            c, t, y0, y1 = (int(v) for v in r[:4])
            if not {t, y0, y1} <= {0, 1}:
                raise ValidationError(f"t, y0 and y1 must be 0 or 1, got {r[1:4]}")
            pmf[c, t, y0, y1] = float(r[4])
            support[c] = [float(v) for v in r[5:5 + len(xcols)]]
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: not a population file: {exc}") from None
    return DiscretePopulation(support_x=support, pmf=pmf)
