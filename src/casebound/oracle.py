"""Exact computation on finite populations.

A DiscretePopulation stores the full joint distribution of
(X*, T*, Y*(0), Y*(1)) on a finite covariate support.  Everything of
interest — causal relative risk, causal attributable risk, the observed
law induced by case-control or case-population sampling, the functions
r(x, p), Gamma(x, p), Gamma_AR(x, p), odds ratios, and all the bound
formulas — can then be evaluated by plain enumeration, with no estimation
error.  This module is the reference against which the estimators and the
identification formulas are verified.

Stacks
------
A DiscretePopulation or an ObservedLaw may hold a stack of populations or
laws on one support: leading axes before the per-population ones, with h0
and the support shared.  `project` pushes a whole stack through a design
at once, and every per-cell function, estimand, aggregate and bound then
gives an array over the stack where it gives a float for one population
or law; a case share p may be an array over the stack too.  Each value is
the one a call on that member alone gives, to the last bit: the
arithmetic is element by element, sums reduce the same axes in the same
order, per-member dot products stay BLAS dot products, and the square in
`rare_disease_slope` is C pow, as a numpy scalar takes it.  A check that
refuses one member refuses the stack, before any division.  The identity
suite in `casebound.checks` projects and checks each family of random
populations as one stack.

Caching
-------
A DiscretePopulation and an ObservedLaw are frozen and their arrays are
read-only, so what they determine is computed on first use and kept on the
instance with functools.cached_property: a population's cell mass,
treatment propensity, potential-outcome margins, factual joint, p0, its
overlap verdict (all that `project` reads) and its assumption report (which
reuses that verdict), and a law's Pr(Y=1|x); for a stack, each per member.
Cached arrays are read-only too, so no caller can change them under
another.  A cache lives and dies with its instance; nothing is memoised at
module level, where a population (unhashable, since it holds arrays) would
be kept alive for good.  `random_population(mts=True)` draws and judges its
rejection candidates a batch at a time, and returns what a one-at-a-time
loop would (see there).

`bounds_ar` takes the attributable-risk envelope over p in closed form,
at the stationary point of r * Gamma_AR in r; nothing is scanned.

Index conventions
-----------------
pmf has shape (..., n_cells, 2, 2, 2) indexed [..., cell, t, y0, y1].
ObservedLaw.pi has shape (..., 2, 2, n_cells) indexed [..., t, y, cell];
fxy has shape (..., 2, n_cells) indexed [..., y, cell].  The leading "..."
are the stack axes, none for a single population or law.
"""

from __future__ import annotations

import csv
import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    OverlapViolation,
    ValidationError,
    ZeroDenominator,
    ZeroRetroProb,
)
from .model import Design, open_csv

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
    "beta_ar_aggregate",
    "xi_cp",
    "upper_bound_ar",
    "random_population",
    "random_populations",
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
    """Which assumptions hold: a bool each, or a bool array over a stack."""

    overlap: bool
    unconfounded: bool
    mtr: bool
    mts: bool


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite joint distribution of (X*, T*, Y*(0), Y*(1)), or a stack of
    them on one support."""

    support_x: np.ndarray  # (n_cells, K)
    pmf: np.ndarray        # (..., n_cells, 2, 2, 2) indexed [..., cell, t, y0, y1]

    def __post_init__(self):
        support = np.asarray(self.support_x, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape[-4:] != (support.shape[0], 2, 2, 2):
            raise ValidationError(f"pmf must have shape (n_cells, 2, 2, 2), got {pmf.shape}")
        if not (np.isfinite(pmf).all() and np.isfinite(support).all()):
            raise ValidationError("pmf and support_x must be finite")
        if np.any(pmf < 0):
            raise ValidationError("pmf entries must be nonnegative")
        total = pmf.sum(axis=(-4, -3, -2, -1))
        off = np.abs(total - 1.0) > _PMF_TOL
        if off.any():
            raise ValidationError(f"pmf sums to {np.extract(off, total)[0]!r}, not 1")
        object.__setattr__(self, "support_x", support)
        object.__setattr__(self, "pmf", pmf)
        self.support_x.setflags(write=False)
        self.pmf.setflags(write=False)

    # --- marginal building blocks -----------------------------------------
    #
    # The population is immutable, so everything below that depends only on
    # pmf is computed on first use and cached on the instance as a read-only
    # array (functools.cached_property writes the instance __dict__, which a
    # frozen dataclass allows).  Per-cell arrays are (..., n_cells).

    @property
    def n_cells(self) -> int:
        return self.support_x.shape[0]

    @cached_property
    def cell_mass(self) -> np.ndarray:
        """f_{X*}(x), per cell."""
        return _frozen(self.pmf.sum(axis=(-3, -2, -1)))

    @cached_property
    def p_treat_given_x(self) -> np.ndarray:
        """Pr(T*=1 | X*=x), per cell."""
        return _frozen(self.pmf[..., 1, :, :].sum(axis=(-2, -1)) / self.cell_mass)

    @cached_property
    def _potential_probs(self) -> np.ndarray:
        # [t, ..., cell] -> Pr{Y*(t)=1 | X*=x}
        num = np.stack([self.pmf[..., 1, :].sum(axis=(-2, -1)),
                        self.pmf[..., :, 1].sum(axis=(-2, -1))])
        return _frozen(num / self.cell_mass)

    def potential_prob(self, t: int) -> np.ndarray:
        """Pr{Y*(t)=1 | X*=x}, per cell."""
        return self._potential_probs[1 if t == 1 else 0]

    @cached_property
    def joint_xty(self) -> np.ndarray:
        """Pr(X*=x, T*=t, Y*=y) with Y* = T*Y*(1) + (1-T*)Y*(0); shape (..., n_cells, 2, 2)."""
        out = np.empty((*self.pmf.shape[:-3], 2, 2))
        out[..., 0, 0] = self.pmf[..., 0, 0, :].sum(axis=-1)   # t=0, y0=0
        out[..., 0, 1] = self.pmf[..., 0, 1, :].sum(axis=-1)   # t=0, y0=1
        out[..., 1, 0] = self.pmf[..., 1, :, 0].sum(axis=-1)   # t=1, y1=0
        out[..., 1, 1] = self.pmf[..., 1, :, 1].sum(axis=-1)   # t=1, y1=1
        return _frozen(out)

    @cached_property
    def p0(self) -> float:
        """True case probability Pr(Y*=1)."""
        return _out(self.joint_xty[..., 1].sum(axis=(-2, -1)))

    def py_given_x(self) -> np.ndarray:
        """Pr(Y*=1 | X*=x), per cell."""
        return self.joint_xty[..., 1].sum(axis=-1) / self.cell_mass

    # --- causal estimands ---------------------------------------------------

    def theta(self, cell: int) -> float:
        """Causal relative risk Pr{Y*(1)=1|x} / Pr{Y*(0)=1|x}."""
        _check_cell(self, cell)
        p1 = self.potential_prob(1)[..., cell]
        p0 = self.potential_prob(0)[..., cell]
        if np.any(p0 <= 0):
            raise ZeroDenominator(f"Pr{{Y*(0)=1 | cell {cell}}} is zero")
        return _out(p1 / p0)

    def theta_ar(self, cell: int) -> float:
        """Causal attributable risk Pr{Y*(1)=1|x} - Pr{Y*(0)=1|x}."""
        _check_cell(self, cell)
        return _out(self.potential_prob(1)[..., cell] - self.potential_prob(0)[..., cell])

    def prospective_rr(self, cell: int) -> float:
        """Pr(Y*=1|T*=1,x) / Pr(Y*=1|T*=0,x) from the factual joint."""
        _check_cell(self, cell)
        j = self.joint_xty[..., cell, :, :]
        p1 = j[..., 1, 1] / j[..., 1, :].sum(axis=-1)
        p0 = j[..., 0, 1] / j[..., 0, :].sum(axis=-1)
        if np.any(p0 <= 0):
            raise ZeroDenominator("Pr(Y*=1|T*=0,x) is zero")
        return _out(p1 / p0)

    def prospective_or(self, cell: int) -> float:
        """Odds ratio of (Y*, T*) given X*=x."""
        _check_cell(self, cell)
        j = self.joint_xty[..., cell, :, :]
        if (j <= 0).any():
            raise ZeroDenominator("a factual (t, y) cell has zero mass")
        return _out((j[..., 1, 1] * j[..., 0, 0]) / (j[..., 0, 1] * j[..., 1, 0]))

    # --- assumption checks ----------------------------------------------------

    def check_assumptions(self) -> AssumptionReport:
        """Exact enumeration of overlap, unconfoundedness, MTR and MTS,
        computed once per population (per member of a stack)."""
        return self._assumption_report

    @cached_property
    def _overlap(self) -> bool:
        # Every cell and both arms at once: Pr(T*=1|x) and both
        # potential-outcome margins inside (0, 1); the margins are only
        # computed when treatment overlap holds for some member.
        pt = self.p_treat_given_x
        overlap = ((pt > 0) & (pt < 1)).all(axis=-1)
        if overlap.any():
            q = self._potential_probs
            overlap &= ((q > 0) & (q < 1)).all(axis=(0, -1))
        return _out(overlap, bool)

    @cached_property
    def _assumption_report(self) -> AssumptionReport:
        mtr = self.pmf[..., 1, 0].sum(axis=(-2, -1)) <= _ASSUMPTION_TOL
        unconf, mts = _selection(self.pmf)
        return AssumptionReport(overlap=self._overlap, unconfounded=_out(unconf, bool),
                                mtr=_out(mtr, bool), mts=_out(mts, bool))


def _selection(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unconfoundedness and monotone selection, by enumeration, of each pmf
    of a stack (..., n_cells, 2, 2, 2): two boolean arrays of shape (...)."""
    # by_arm[..., c, arm, t] = Pr{Y*(t)=1 | T*=arm, X*=x}; an empty arm
    # leaves it undefined, and then neither assumption can be verified
    denom = pmf.sum(axis=(-2, -1))
    filled = denom > 0
    num = np.stack([pmf[..., 1, :].sum(axis=-1), pmf[..., :, 1].sum(axis=-1)], axis=-1)
    by_arm = num / np.where(filled, denom, 1.0)[..., None]
    by1, by0 = by_arm[..., 1, :], by_arm[..., 0, :]
    defined = filled.all(axis=(-2, -1))
    return (defined & (np.abs(by1 - by0) <= _ASSUMPTION_TOL).all(axis=(-2, -1)),
            defined & (by1 >= by0 - _ASSUMPTION_TOL).all(axis=(-2, -1)))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _out(value, kind=float):
    """A value per member: a plain `kind` without stack axes, else a
    read-only array over the stack."""
    return kind(value) if np.ndim(value) == 0 else _frozen(value)


def _check_unit(name: str, value) -> None:
    """Refuse a case share (or any of an array of them) outside [0, 1]."""
    if not np.all((0.0 <= value) & (value <= 1.0)):
        raise ValidationError(f"{name} must lie in [0, 1]")


def _first_min(a, b):
    """min(a, b) as Python takes it, per element: a unless b < a."""
    return _out(np.where(b < a, b, a))


def _first_max(a, b):
    """max(a, b) as Python takes it, per element: a unless b > a."""
    return _out(np.where(b > a, b, a))


def _dot(a, b):
    """The dot product over the last axis, per member of a stack: a BLAS dot,
    as a @ b is for one pair of vectors, never an elementwise sum."""
    return _out((a[..., None, :] @ b[..., :, None])[..., 0, 0])


# C pow per element, as numpy takes x ** 2 for one float64 scalar; for an
# array numpy computes x * x, which rounds a few squares otherwise
_scalar_pow = np.vectorize(math.pow, otypes=[float])


def _check_cell(source, cell: int) -> None:
    """Reject a cell index outside 0..n_cells-1 (negative indices included)."""
    if not 0 <= cell < source.n_cells:
        raise ValidationError(f"cell {cell} outside support 0..{source.n_cells - 1}")


@dataclass(frozen=True)
class ObservedLaw:
    """The distribution of (Y, T, X) induced by a sampling design, or a
    stack of them with one h0.

    pi[..., t, y, cell] is the retrospective probability Pi(t|y, x);
    fxy[..., y, cell] is the covariate pmf within stratum y.  Laws with a
    zero retrospective cell are rejected outright: every downstream formula
    divides by them.
    """

    design: Design
    h0: float
    pi: np.ndarray
    fxy: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        fxy = np.asarray(self.fxy, dtype=float)
        if pi.shape[-3:-1] != (2, 2) or fxy.shape != (*pi.shape[:-3], 2, pi.shape[-1]):
            raise ValidationError("pi must be (2, 2, n_cells) and fxy (2, n_cells)")
        if not 0.0 < self.h0 < 1.0:
            raise ValidationError("h0 must lie in (0, 1)")
        if not (np.isfinite(pi).all() and np.isfinite(fxy).all()):
            raise ValidationError("pi and fxy must be finite")
        if np.any(np.abs(pi.sum(axis=-3) - 1.0) > 1e-9):
            raise ValidationError("Pi(0|y,x) + Pi(1|y,x) must equal 1")
        if np.any(np.abs(fxy.sum(axis=-1) - 1.0) > 1e-9):
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
        return self.pi.shape[-1]

    @cached_property
    def pyx(self) -> np.ndarray:
        """Pr(Y=1 | X=x) by the Bayes rule from fxy and h0, computed once."""
        num = self.h0 * self.fxy[..., 1, :]
        den = num + (1.0 - self.h0) * self.fxy[..., 0, :]
        return _frozen(num / den)


def project(pop: DiscretePopulation, design: Design, h0: float) -> ObservedLaw:
    """Push a population, or each member of a stack, through a sampling design.

    Case-control: both strata are the conditional laws of (T*, X*) given
    Y*=y.  Case-population: the y=0 stratum is the unconditional law of
    (T*, X*).  Requires an overlap-valid population (every member of a
    stack).
    """
    if not np.all(pop._overlap):
        raise OverlapViolation("population violates overlap on some support cell")
    j = pop.joint_xty  # (..., cell, t, ystar)
    stack = j.shape[:-3]
    pi = np.empty((*stack, 2, 2, pop.n_cells))
    fxy = np.empty((*stack, 2, pop.n_cells))
    # case stratum: (T*, X*) | Y*=1 under both designs; a stratum's share
    # sums its (cell, t) entries in one pass, as Pr(Y*=1) does
    case = j[..., 1].sum(axis=-1)
    fxy[..., 1, :] = case / j[..., 1].sum(axis=(-2, -1))[..., None]
    pi[..., 1, 1, :] = j[..., 1, 1] / case
    pi[..., 0, 1, :] = 1.0 - pi[..., 1, 1, :]
    if design is Design.CASE_CONTROL:
        control = j[..., 0].sum(axis=-1)
        fxy[..., 0, :] = control / j[..., 0].sum(axis=(-2, -1))[..., None]
        pi[..., 1, 0, :] = j[..., 1, 0] / control
    else:
        fxy[..., 0, :] = pop.cell_mass
        pi[..., 1, 0, :] = pop.p_treat_given_x
    pi[..., 0, 0, :] = 1.0 - pi[..., 1, 0, :]
    return ObservedLaw(design=design, h0=h0, pi=pi, fxy=fxy)


# --- the formula kernel -----------------------------------------------------------
#
# r, Gamma, Gamma_AR and the attributable-risk term r * Gamma_AR as plain
# arithmetic on floats or arrays.  The per-cell oracle functions below call
# them on one cell (of every member of a stack), the aggregates on every
# cell at once, and the estimators on every observation.  Denominators are
# convex combinations, so the endpoints p=0 and (case-control) p=1 come out
# exact.


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
    _check_unit("p", p)
    return _out(r_formula(law.pyx[..., cell], law.h0, p, law.design))


def gamma(law: ObservedLaw, cell: int, p: float) -> float:
    """The identified bound function Gamma(x, p); Gamma(x, 0) is the odds ratio."""
    _check_cell(law, cell)
    return _out(gamma_formula(law.pi[..., 1, 0, cell], law.pi[..., 1, 1, cell],
                              r_case_prob(law, cell, p)))


def gamma_ar(law: ObservedLaw, cell: int, p: float) -> float:
    """The attributable-risk analogue of Gamma: a difference of probability ratios."""
    _check_cell(law, cell)
    return _out(gamma_ar_formula(law.pi[..., 1, 0, cell], law.pi[..., 1, 1, cell],
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
    pi = law.pi[..., cell]
    lead = pi[..., 1, 1] * (pi[..., 1, 0] - pi[..., 1, 1]) / (
        pi[..., 0, 1] * _scalar_pow(pi[..., 1, 0], 2))
    return _out(lead * law.fxy[..., 1, cell] / law.fxy[..., 0, cell])


def bounds_rr(law: ObservedLaw, cell: int, pbar: float,
              assumptions: AssumptionSet) -> tuple[float, float]:
    """Identified interval for the causal relative risk at one cell of an
    observed law (`project` a population to its law first).

    Under monotone response + selection the interval is [1, Gamma(x, 0)]
    for both designs.  Under ignorability it is the segment between
    Gamma(x, 0) and Gamma(x, pbar) for case-control sampling, and the
    single point Gamma(x, 0) for case-population sampling.  On a stack
    each end is an array over it, or the constant 1.
    """
    _check_unit("pbar", pbar)
    _check_cell(law, cell)
    g0 = gamma(law, cell, 0.0)
    if assumptions is AssumptionSet.MONOTONE:
        return (1.0, g0)
    if law.design is Design.CASE_POPULATION:
        return (g0, g0)
    gbar = gamma(law, cell, pbar)
    return (_first_min(g0, gbar), _first_max(g0, gbar))


def _peak_r(pi0, pi1):
    """The r in [0, 1] at which r * Gamma_AR is stationary; 1/2 when pi1 = pi0."""
    s = np.sqrt(pi0 * pi1)
    u = np.sqrt((1.0 - pi0) * (1.0 - pi1))
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
    is linear in p, so ext = r(x, pbar) * Gamma_AR(x, 0).  On a stack
    each end is an array over it, or the constant 0.
    """
    _check_unit("pbar", pbar)
    _check_cell(law, cell)
    pi0, pi1 = law.pi[..., 1, 0, cell], law.pi[..., 1, 1, cell]
    r = r_formula(law.pyx[..., cell], law.h0, pbar, law.design)
    if law.design is Design.CASE_CONTROL:
        r = _first_min(r, _peak_r(pi0, pi1))
        ext = _out(r * gamma_ar_formula(pi0, pi1, r))
    else:
        ext = _out(r * gamma_ar_formula(pi0, pi1, 0.0))
    if assumptions is AssumptionSet.MONOTONE:
        return (0.0, _first_max(0.0, ext))
    return (_first_min(0.0, ext), _first_max(0.0, ext))


# --- aggregated identification objects ------------------------------------------


#
# Each is a float for one law and an array over a stack, where the case
# share p is one float.


def _odds_ratios(law: ObservedLaw) -> np.ndarray:
    # Gamma(x, 0) over every cell
    return gamma_formula(law.pi[..., 1, 0, :], law.pi[..., 1, 1, :],
                         r_formula(law.pyx, law.h0, 0.0, law.design))


def _stratum_mass(law: ObservedLaw, y: int) -> np.ndarray:
    """f(x | Y=y) over the cells; y must be a stratum, 0 or 1."""
    if y not in (0, 1):
        raise ValidationError(f"stratum y must be 0 or 1, got {y}")
    return law.fxy[..., y, :]


def beta_aggregate(law: ObservedLaw, y: int) -> float:
    """beta(y): stratum-weighted mean of the log odds ratio."""
    return _dot(_stratum_mass(law, y), np.log(_odds_ratios(law)))


def beta_ar_aggregate(law: ObservedLaw, p: float, y: int) -> float:
    """Stratum-weighted mean of r(X, p) * Gamma_AR(X, p)."""
    _check_unit("p", p)
    return _dot(_stratum_mass(law, y), ar_term_formula(law.pyx, law.h0, p, law.design,
                                                       law.pi[..., 1, 0, :], law.pi[..., 1, 1, :]))


def xi_cp(law: ObservedLaw) -> float:
    """Slope of the case-population attributable-risk upper bound in p."""
    if law.design is not Design.CASE_POPULATION:
        raise ValidationError("xi_cp applies to case-population laws")
    q = law.pyx
    ratio = q / (1.0 - q)
    diff = gamma_ar_formula(law.pi[..., 1, 0, :], law.pi[..., 1, 1, :], 0.0)
    return _out((1.0 - law.h0) / law.h0 * _dot(law.fxy[..., 0, :], ratio * diff))


def upper_bound_ar(law: ObservedLaw, p: float) -> float:
    """Aggregated attributable-risk upper bound at case share p."""
    _check_unit("p", p)
    if law.design is Design.CASE_CONTROL:
        return _out((1.0 - p) * beta_ar_aggregate(law, p, 0) + p * beta_ar_aggregate(law, p, 1))
    return _out(p * xi_cp(law))


# --- random populations for property tests ----------------------------------------


def _floored_dirichlet(rng: np.random.Generator, shape: tuple[int, ...],
                       floor: float, draws: int = 1) -> np.ndarray:
    """`draws` Dirichlet(1.5) pmfs of `shape`, each floored and renormalised,
    stacked on a leading axis.  One call of `draws` rows draws what as many
    calls of one row would, and each row is normalised by its own sum."""
    raw = rng.dirichlet(np.full(math.prod(shape), 1.5), size=draws)
    out = raw.reshape(draws, *shape) + floor
    return out / out.sum(axis=tuple(range(1, out.ndim)), keepdims=True)


def population_from_margins(pt: np.ndarray, q1: np.ndarray, q0: np.ndarray,
                            mass: np.ndarray | None = None) -> DiscretePopulation:
    """Unconfounded population with given per-cell treatment and outcome margins.

    pt[..., c] = Pr(T*=1|x), q1[..., c] = Pr{Y*(1)=1|x}, q0[..., c] =
    Pr{Y*(0)=1|x} with q1 >= q0, and leading axes, if any, for a stack; the
    potential outcomes are coupled comonotonically, so the population
    satisfies monotone response by construction and monotone selection
    with equality.
    """
    pt = np.asarray(pt, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    n_cells = pt.shape[-1]
    if np.any(q1 < q0):
        raise ValidationError("comonotone coupling needs q1 >= q0 at every cell")
    if mass is None:
        mass = np.full(n_cells, 1.0 / n_cells)
    return _population(_margins_pmf(pt, q1, q0, mass))


def _margins_pmf(pt: np.ndarray, q1: np.ndarray, q0: np.ndarray,
                 mass: np.ndarray) -> np.ndarray:
    """The pmf of `population_from_margins`, unchecked."""
    # joint of (y0, y1): (1,1) -> q0, (0,1) -> q1 - q0, (0,0) -> 1 - q1
    joint = np.zeros((*q1.shape, 2, 2))
    joint[..., 0, 0] = 1.0 - q1
    joint[..., 0, 1] = q1 - q0
    joint[..., 1, 1] = q0
    return _product_pmf(pt, joint, mass)


def _product_pmf(pt: np.ndarray, joint: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The pmf of the unconfounded population whose cell c has mass[..., c],
    Pr(T*=1|x) = pt[..., c] and potential-outcome joint joint[..., c, y0,
    y1] in both arms: pmf[..., c, t, y0, y1] = mass * Pr(T*=t|x) * joint."""
    mass = np.asarray(mass, dtype=float)
    arms = np.stack([mass * (1.0 - pt), mass * pt], axis=-1)   # [..., cell, t]
    return arms[..., None, None] * joint[..., None, :, :]


def _population(pmf: np.ndarray) -> DiscretePopulation:
    """The population, or stack, of `pmf` on the support 0..n_cells-1."""
    return DiscretePopulation(support_x=np.arange(pmf.shape[-4], dtype=float)[:, None],
                              pmf=pmf)


_MAX_TRIES = 2000  # rejection draws before monotone selection is given up
_BATCH = 16  # rejection candidates per Dirichlet call; about 1 in 7 is admissible


def _candidates(rng: np.random.Generator, n_cells: int, mtr: bool,
                draws: int) -> np.ndarray:
    """A stack of `draws` candidate pmfs, with no mass on y0 > y1 under `mtr`."""
    pmf = _floored_dirichlet(rng, (n_cells, 2, 2, 2), floor=0.02, draws=draws)
    if mtr:
        pmf[..., 1, 0] = 0.0
        pmf /= pmf.sum(axis=(1, 2, 3, 4), keepdims=True)
    return pmf


def random_population(rng: np.random.Generator, n_cells: int = 2, *,
                      mtr: bool = False, mts: bool = False,
                      unconfounded: bool = False) -> DiscretePopulation:
    """Draw a population with probabilities bounded away from 0 and 1.

    Monotone response is enforced by construction (no mass on y0 > y1),
    unconfoundedness by a product construction, and monotone selection by
    rejection when it does not already hold by construction.

    The rejection draw takes `_BATCH` candidates from one Dirichlet call,
    judges them with one `_selection` call and returns the first admissible
    one, after at most `_MAX_TRIES` candidates.  `Generator.dirichlet` with
    `size=K` gives the rows of K successive calls, and each row is floored,
    normalised and judged on its own, so the population is the one a loop
    drawing one candidate at a time returns; only the generator has also
    drawn the rest of the batch.

    The population is the one member of `random_populations([rng], ...)`.
    """
    return _population(_random_pmf(rng, n_cells, mtr, mts, unconfounded))


def random_populations(gens: Iterable[np.random.Generator], n_cells: int = 2, *,
                       mtr: bool = False, mts: bool = False,
                       unconfounded: bool = False) -> DiscretePopulation:
    """The stack whose member i is `random_population(gens[i], n_cells, ...)`.

    Each generator draws its member's pmf as `random_population` would,
    and consumes the same draws; the pmfs are stacked and the stack is
    validated once, so no population is built per draw.  At least one
    generator.
    """
    pmfs = [_random_pmf(gen, n_cells, mtr, mts, unconfounded) for gen in gens]
    if not pmfs:
        raise ValidationError("random_populations needs at least one generator")
    return _population(np.stack(pmfs))


def _random_pmf(rng: np.random.Generator, n_cells: int, mtr: bool, mts: bool,
                unconfounded: bool) -> np.ndarray:
    """The pmf of `random_population`, unchecked (see there)."""
    if unconfounded:
        lo, hi = 0.12, 0.88
        pt = lo + (hi - lo) * rng.random(n_cells)
        if mtr or mts:
            q1 = lo + (hi - lo) * rng.random(n_cells)
            q0 = lo + (q1 - lo) * rng.random(n_cells)
            return _margins_pmf(pt, q1, q0, _floored_dirichlet(rng, (n_cells,), floor=0.1)[0])
        mass = _floored_dirichlet(rng, (n_cells,), floor=0.1)[0]
        return _product_pmf(pt, _floored_dirichlet(rng, (2, 2), floor=0.08, draws=n_cells),
                            mass)

    if not mts:
        return _candidates(rng, n_cells, mtr, 1)[0]
    for drawn in range(0, _MAX_TRIES, _BATCH):
        batch = _candidates(rng, n_cells, mtr, min(_BATCH, _MAX_TRIES - drawn))
        admissible = np.flatnonzero(_selection(batch)[1])
        if admissible.size:
            # a copy, so the population does not keep the batch alive
            return batch[admissible[0]].copy()
    raise ValidationError(f"no admissible population found in {_MAX_TRIES} draws")


# --- fixture files -------------------------------------------------------------------


def save_population(pop: DiscretePopulation, path) -> None:
    """Write the population in the tabular cell format (one row per pmf entry)."""
    if pop.pmf.ndim != 4:
        raise ValidationError("save_population writes one population, not a stack")
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
    one, such as one with another header, or one that writes an entry
    twice or gives a cell two covariate values, raises ValidationError
    naming it."""
    with open_csv(path) as reader:
        rows = list(reader)
    if len(rows) < 2:
        raise ValidationError(f"{path}: no population rows")
    xcols = rows[0][5:]
    if rows[0] != ["cell", "t", "y0", "y1", "mass", *(f"x{i + 1}" for i in range(len(xcols)))]:
        raise ValidationError(f"{path}: the header must be cell,t,y0,y1,mass,x1,...,xk, "
                              f"as save_population writes it, not {','.join(rows[0])}")
    try:
        cells = sorted({int(r[0]) for r in rows[1:]})
        if cells != list(range(len(cells))):
            raise ValidationError("cell ids must be 0..n_cells-1")
        pmf = np.zeros((len(cells), 2, 2, 2))
        entries, coords = set(), {}
        for r in rows[1:]:
            c, t, y0, y1 = entry = tuple(int(v) for v in r[:4])
            if not {t, y0, y1} <= {0, 1}:
                raise ValidationError(f"t, y0 and y1 must be 0 or 1, got {r[1:4]}")
            if entry in entries:
                raise ValidationError(f"entry (cell, t, y0, y1) = {entry} is written twice")
            entries.add(entry)
            pmf[entry] = float(r[4])
            x = [float(v) for v in r[5:5 + len(xcols)]]
            if not np.array_equal(coords.setdefault(c, x), x, equal_nan=True):
                raise ValidationError(f"cell {c} is given covariates {coords[c]} and {x}")
        support = np.array([coords[c] for c in cells]).reshape(len(cells), len(xcols))
        return DiscretePopulation(support_x=support, pmf=pmf)
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: not a population file: {exc}") from None
