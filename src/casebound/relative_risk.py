"""Aggregated log-odds-ratio estimation and relative-risk bands.

One nuisance fit per data set and basis, `fit_nuisances`, holds the two
stratum logistic fits of T on the basis.  Every estimate is read off it:

* beta(y) is the intercept gap plus the stratum-y basis means times the
  slope gaps, c'(b1 - b0) with c the stratum-y mean of [1, basis].  It is
  the coefficient on Y in the fully interacted logistic fit of T on Y, the
  basis demeaned by its stratum-y means and their products with Y: that
  likelihood separates by stratum, so it needs no fit of its own.
* Two standard errors are read off the same stratum-fit pair.  "combined"
  reports the interacted fit's se, sqrt(c'V1c + c'V0c), from the two
  stratum fits' covariances; "plugin" adds the sampling variance of the
  stratum-y mean, which makes it the plug-in's own influence-function se.
* kappa(y) is the stratum mean of the fitted odds ratio exp{X~'(b1 - b0)}.

The nonparametric efficient influence function (`eif_record`,
`eif_variance`) is kept as a diagnostic of the efficiency bound.  It is
not the variance of a finite-sieve plug-in (Newey 1994; Ackerberg, Chen,
Hahn & Liao 2014), and overstates it on the parametric benchmark design.
`estimate_kappa` still reports the efficiency-bound se on the level scale.
It and the attributable-risk estimators also need the prospective fit of
Y and the clipped fitted probabilities, which `fit_nuisances` adds when a
prospective basis is given.

The relative-risk band is indexed by the unknown true case probability p:
exp{p*b1 + (1-p)*b0} plus a conservative uniform critical value under
case-control sampling, or a constant one-sided interval on exp{b0} under
case-population sampling.  Lower limits sit at 1, the monotonicity lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .basis import BasisSpec, build_basis
from .errors import NuisanceProbabilityOutOfRange, ValidationError
from .logit import LogitFit, fit_logit
from .model import Design, ObservedDataset

__all__ = [
    "BetaEstimate",
    "EIFRecord",
    "NuisanceFit",
    "RRBand",
    "estimate_beta_combined",
    "estimate_beta_plugin",
    "estimate_kappa",
    "fit_nuisances",
    "eif_record",
    "eif_variance",
    "p_grid",
    "rr_band",
]

CLIP = 1e-6


@dataclass(frozen=True)
class BetaEstimate:
    """A stratum aggregate with its standard error.

    scale "log" is the aggregated log odds ratio beta(y); scale "level"
    is the aggregated odds ratio kappa(y).
    """

    y_stratum: int
    value: float
    se: float
    method: str  # "combined" | "plugin"
    scale: str   # "log" | "level"

    def __post_init__(self):
        if self.y_stratum not in (0, 1):
            raise ValidationError("y_stratum must be 0 or 1")
        if not (np.isfinite(self.value) and np.isfinite(self.se) and self.se >= 0):
            raise ValidationError("estimate and se must be finite, se nonnegative")


@dataclass(frozen=True)
class NuisanceFit:
    """The nuisance fit of one data set.

    cols: the intercept-safe retrospective basis at every row; fit0, fit1:
    the logistic fits of T on cols within strata 0 and 1.  Fitted with a
    prospective basis, it also holds pi0, pi1 (Pr(T=1|Y=y, x) for y=0, 1)
    and py (Pr(Y=1|x)) at every row, clipped into [CLIP, 1 - CLIP], and the
    number of values the clipping touched; otherwise those are None and 0.
    counts: the rows' integer frequency weights, or None for one each.  The
    attributable-risk read-outs take counts-weighted stratum means; the
    beta(y) and kappa(y) read-outs need an unweighted fit.
    """

    cols: np.ndarray
    fit0: LogitFit
    fit1: LogitFit
    pi0: np.ndarray | None = None
    pi1: np.ndarray | None = None
    py: np.ndarray | None = None
    n_clipped: int = 0
    counts: np.ndarray | None = None


@dataclass(frozen=True)
class EIFRecord:
    """Evaluated influence function: values and the three additive terms.

    components columns: centered aggregate term, the (minus) Delta_0
    adjustment, the Delta_1 adjustment.  The first column has exact sample
    mean zero by construction of the stratum mean.
    """

    values: np.ndarray
    components: np.ndarray
    scale: str
    n_clipped: int

    @property
    def variance_of_mean(self) -> float:
        """Plug-in variance of the estimator: mean(F^2)/n."""
        n = self.values.shape[0]
        return float(np.mean(self.values ** 2) / n)


def design_columns(x: np.ndarray, spec: BasisSpec,
                   counts: np.ndarray | None = None) -> np.ndarray:
    """The basis columns of covariate rows x that enter a fit beside the
    intercept."""
    if spec.n_covariates != x.shape[1]:
        raise ValidationError("basis spec does not match the dataset's covariates")
    cols = build_basis(x, spec, counts)
    mask = spec.intercept_safe_mask()
    return cols[:, mask]


def _clipped(name: str, p: np.ndarray,
             counts: np.ndarray | None) -> tuple[np.ndarray, int]:
    if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
        raise NuisanceProbabilityOutOfRange(
            f"fitted {name} probabilities leave [0, 1] or are not finite")
    clipped = np.clip(p, CLIP, 1.0 - CLIP)
    touched = clipped != p
    return clipped, int(touched.sum() if counts is None else counts[touched].sum())


def fit_nuisances(data: ObservedDataset, spec: BasisSpec,
                  prospective_spec: BasisSpec | None = None,
                  counts: np.ndarray | None = None) -> NuisanceFit:
    """Fit T on the `spec` basis within each stratum and, given a
    prospective basis, Y on it, with every fitted probability evaluated at
    every row and clipped.

    `counts`, if given, are integer frequency weights: each row stands for
    that many copies of itself, in the fits, the spline knots and the clip
    count alike.
    """
    cols = design_columns(data.x, spec, counts)
    mask0 = data.stratum(0)
    mask1 = data.stratum(1)
    w0 = None if counts is None else counts[mask0]
    w1 = None if counts is None else counts[mask1]
    fit0 = fit_logit(data.t[mask0], cols[mask0], w0)
    fit1 = fit_logit(data.t[mask1], cols[mask1], w1)
    if prospective_spec is None:
        return NuisanceFit(cols=cols, fit0=fit0, fit1=fit1, counts=counts)
    pcols = design_columns(data.x, prospective_spec, counts)
    pfit = fit_logit(data.y, pcols, counts)
    pi1, c1 = _clipped("Pi(1|1,x)", fit1.predict(cols), counts)
    pi0, c0 = _clipped("Pi(1|0,x)", fit0.predict(cols), counts)
    py, c2 = _clipped("Pr(Y=1|x)", pfit.predict(pcols), counts)
    return NuisanceFit(cols=cols, fit0=fit0, fit1=fit1, pi0=pi0, pi1=pi1, py=py,
                       n_clipped=c1 + c0 + c2, counts=counts)


def _read_out(data: ObservedDataset, nuis: NuisanceFit, y_stratum: int):
    """beta(y) = c'(b1 - b0), the stratum fits' variance c'V1c + c'V0c, and
    the fitted log odds ratio at every stratum-y row."""
    if nuis.counts is not None:
        raise ValidationError("beta(y) and kappa(y) are read off an unweighted fit")
    phi = nuis.cols[data.stratum(y_stratum)]
    gap = nuis.fit1.coef - nuis.fit0.coef
    c = np.concatenate([[1.0], phi.mean(axis=0)])
    value = float(gap[0] + c[1:] @ gap[1:])
    var_fits = c @ nuis.fit1.cov @ c + c @ nuis.fit0.cov @ c
    return value, var_fits, gap[0] + phi @ gap[1:]


def estimate_beta_combined(data: ObservedDataset, spec: BasisSpec, y_stratum: int,
                           nuisances: NuisanceFit | None = None) -> BetaEstimate:
    """beta(y) with the interacted fit's standard error, sqrt(c'V1c + c'V0c),
    read off the stratum fits (fitted here unless `nuisances` is given)."""
    if y_stratum not in (0, 1):
        raise ValidationError("y_stratum must be 0 or 1")
    nuis = fit_nuisances(data, spec) if nuisances is None else nuisances
    value, var_fits, _ = _read_out(data, nuis, y_stratum)
    return BetaEstimate(y_stratum=y_stratum, value=value, se=float(np.sqrt(var_fits)),
                        method="combined", scale="log")


def estimate_beta_plugin(data: ObservedDataset, spec: BasisSpec,
                         y_stratum: int) -> BetaEstimate:
    """Plug-in sieve estimator of beta(y) with its own influence-function se.

    With X~_i = [1, phi(x_i)] (the intercept-safe basis columns), stratum
    fits b0, b1 with covariances V0, V1, and c the stratum-y mean of X~, the
    estimate is c'(b1 - b0) and

        se^2 = c'V1c + c'V0c + s_y^2 / n_y,

    where s_y^2 is the stratum-y mean of (X~_i'(b1 - b0) - estimate)^2 and
    n_y the stratum's row count.  The first two terms are the sampling
    variance of the two stratum fits, the last that of the stratum mean.
    Nothing depends on the supplied h0.  Without covariates this is Woolf's
    variance of the 2x2 log odds ratio.
    """
    if y_stratum not in (0, 1):
        raise ValidationError("y_stratum must be 0 or 1")
    value, var_fits, lor = _read_out(data, fit_nuisances(data, spec), y_stratum)
    var = var_fits + np.mean((lor - value) ** 2) / lor.shape[0]
    return BetaEstimate(y_stratum=y_stratum, value=value, se=float(np.sqrt(var)),
                        method="plugin", scale="log")


def _log_odds_ratio(pi0: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    return np.log(pi1 / (1.0 - pi1)) - np.log(pi0 / (1.0 - pi0))


def estimate_kappa(data: ObservedDataset, spec: BasisSpec, y_stratum: int,
                   prospective_spec: BasisSpec | None = None) -> BetaEstimate:
    """Level-scale aggregate kappa(y): stratum mean of the fitted odds ratio
    exp{X~'(b1 - b0)}, the exact linear-predictor gap that beta(y) averages.

    Its se is still the efficient-influence-function (efficiency-bound) se,
    with the prospective model on `spec` unless `prospective_spec` is given.
    On the level scale neither that nor the plug-in's own influence-function
    se is calibrated at n=1000 per stratum on the benchmark design, so the
    bound is kept here.
    """
    if y_stratum not in (0, 1):
        raise ValidationError("y_stratum must be 0 or 1")
    nuis = fit_nuisances(data, spec, spec if prospective_spec is None else prospective_spec)
    value = float(np.mean(np.exp(_read_out(data, nuis, y_stratum)[2])))
    var = eif_variance(data, nuis, y_stratum, scale="level")
    return BetaEstimate(y_stratum=y_stratum, value=value, se=float(np.sqrt(var)),
                        method="plugin", scale="level")


def eif_record(data: ObservedDataset, nuisances: NuisanceFit,
               y_stratum: int, scale: str = "log") -> EIFRecord:
    """Evaluate the influence function of beta(y) (log) or kappa(y) (level).

    `nuisances` must come from `fit_nuisances` with a prospective basis:
    its clipped probabilities enter the adjustment-term ratios, and its
    clip count is reported.
    """
    if scale not in ("log", "level"):
        raise ValidationError("scale must be 'log' or 'level'")
    if nuisances.py is None:
        raise ValidationError("the influence function needs a prospective fit")
    pi1, pi0, py = nuisances.pi1, nuisances.pi0, nuisances.py
    h0 = data.h0
    y = data.y.astype(float)
    t = data.t.astype(float)

    lor = _log_odds_ratio(pi0, pi1)
    w = h0 / (1.0 - h0) * (1.0 - py) / py
    ind = y if y_stratum == 1 else 1.0 - y
    denom_h = h0 if y_stratum == 1 else 1.0 - h0
    delta0 = (1.0 - y) * (t - pi0) / (pi0 * (1.0 - pi0))
    delta1 = y * (t - pi1) / (pi1 * (1.0 - pi1))
    w_pow_y = w if y_stratum == 1 else 1.0
    w_pow_1my = 1.0 if y_stratum == 1 else w

    if scale == "log":
        center = float(lor[data.stratum(y_stratum)].mean())
        term1 = ind / denom_h * (lor - center)
        term2 = -delta0 / ((1.0 - h0) * w_pow_y)
        term3 = w_pow_1my * delta1 / h0
    else:
        orx = np.exp(lor)
        center = float(orx[data.stratum(y_stratum)].mean())
        term1 = ind / denom_h * (orx - center)
        term2 = -orx * delta0 / ((1.0 - h0) * w_pow_y)
        term3 = orx * w_pow_1my * delta1 / h0

    components = np.column_stack([term1, term2, term3])
    return EIFRecord(values=components.sum(axis=1), components=components,
                     scale=scale, n_clipped=nuisances.n_clipped)


def eif_variance(data: ObservedDataset, nuisances: NuisanceFit,
                 y_stratum: int, scale: str = "log") -> float:
    """Influence-function variance of the stratum aggregate estimator."""
    return eif_record(data, nuisances, y_stratum, scale).variance_of_mean


@dataclass(frozen=True)
class RRBand:
    """Relative-risk upper-bound curve indexed by the true case probability."""

    p: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    design: Design
    halfwidth: float  # log-scale critical value actually used

    def rows(self):
        """(p, point, lower, upper) tuples for tabular output."""
        for i in range(self.p.shape[0]):
            yield (float(self.p[i]), float(self.point[i]),
                   float(self.lower[i]), float(self.upper[i]))


def p_grid(pbar: float, step: float) -> np.ndarray:
    """Evenly spaced case shares from 0 to pbar, about `step` apart."""
    if not 0.0 < pbar <= 1.0:
        raise ValidationError("pbar must lie in (0, 1]")
    m = max(int(round(pbar / step)), 1)
    return np.linspace(0.0, pbar, m + 1)


def rr_band(beta0: BetaEstimate, beta1: BetaEstimate | None, alpha: float,
            design: Design, pbar: float = 1.0, step: float = 0.01) -> RRBand:
    """One-sided confidence band for the relative-risk upper bound.

    Case-control: exp{p*b1 + (1-p)*b0 + u} with the conservative uniform
    critical value u = z(1-alpha/2) * max(se1, se0).  Case-population:
    the constant interval [1, exp{b0 + z(1-alpha)*se0}].  Points and upper
    limits are truncated below at 1.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValidationError("alpha must lie in (0, 0.5]")
    if beta0.scale != "log" or beta0.y_stratum != 0:
        raise ValidationError("beta0 must be a log-scale stratum-0 estimate")
    grid = p_grid(pbar, step)
    if design is Design.CASE_CONTROL:
        if beta1 is None or beta1.scale != "log" or beta1.y_stratum != 1:
            raise ValidationError("case-control bands need a log-scale stratum-1 estimate")
        u = float(ndtri(1.0 - alpha / 2.0) * max(beta1.se, beta0.se))
        log_point = grid * beta1.value + (1.0 - grid) * beta0.value
    else:
        u = float(ndtri(1.0 - alpha) * beta0.se)
        log_point = np.full_like(grid, beta0.value)
    point = np.maximum(np.exp(log_point), 1.0)
    upper = np.maximum(np.exp(log_point + u), 1.0)
    return RRBand(p=grid, point=point, lower=np.ones_like(grid), upper=upper,
                  alpha=alpha, design=design, halfwidth=u)
