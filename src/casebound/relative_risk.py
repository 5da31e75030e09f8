"""Aggregated log-odds-ratio estimation and relative-risk bands.

One nuisance fit per data set and basis, `fit_nuisances`, holds the data
and the two stratum logistic fits of T on the basis.  Every estimate is
read off it, and a read-out takes only the fit and its own index:

* beta(y) is the intercept gap plus the stratum-y basis means times the
  slope gaps, c'(b1 - b0) with c the stratum-y mean of [1, basis].  It is
  the coefficient on Y in the fully interacted logistic fit of T on Y, the
  basis demeaned by its stratum-y means and their products with Y: that
  likelihood separates by stratum, so it needs no fit of its own.
* Two standard errors are read off the same stratum-fit pair.  "combined"
  reports the interacted fit's se, sqrt(c'V1c + c'V0c), from the two
  stratum fits' covariances; "plugin" adds the sampling variance of the
  stratum-y mean, which makes it the plug-in's own influence-function se.
* kappa(y) is the stratum mean of the fitted odds ratio exp{X~'(b1 - b0)},
  a point estimate with no se: on the benchmark design at n=1000 per
  stratum, its level-scale influence-function se ran at 1.64-2.27 times
  the MC sd.

The attributable-risk estimators also need the prospective fit of Y and
the fitted probabilities clipped into [CLIP, 1 - CLIP], which
`fit_nuisances` adds when a prospective basis is given;
`NuisanceFit.prospective` hands them out.  The clip and its count are
`clip_probabilities`, which the batched AR bootstrap applies to a whole
block of replicates at once.

The relative-risk band is indexed by the unknown true case probability p:
exp{p*b1 + (1-p)*b0} plus a conservative uniform critical value under
case-control sampling, or a constant one-sided interval on exp{b0} under
case-population sampling.  Lower limits sit at 1, the monotonicity lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, build_basis
from .errors import NuisanceProbabilityOutOfRange, ValidationError
from .logit import LogitFit, fit_logit
from .model import Design, ObservedDataset
from .special import ndtri

__all__ = [
    "BetaEstimate",
    "NuisanceFit",
    "RRBand",
    "clip_probabilities",
    "design_columns",
    "estimate_beta_combined",
    "estimate_beta_plugin",
    "estimate_kappa",
    "fit_nuisances",
    "p_grid",
    "rr_band",
]

CLIP = 1e-6
MAX_GRID_INTERVALS = 10_000  # p_grid refuses a finer grid before allocating it


@dataclass(frozen=True)
class BetaEstimate:
    """The aggregated log odds ratio beta(y) with its standard error."""

    y_stratum: int
    value: float
    se: float
    method: str  # "combined" | "plugin"

    def __post_init__(self):
        if self.y_stratum not in (0, 1):
            raise ValidationError("y_stratum must be 0 or 1")
        if not (np.isfinite(self.value) and np.isfinite(self.se) and self.se >= 0):
            raise ValidationError("estimate and se must be finite, se nonnegative")


@dataclass(frozen=True)
class NuisanceFit:
    """The nuisance fit of one data set.

    data: the data set it was fitted to; cols: the intercept-safe
    retrospective basis at every row; fit0, fit1: the logistic fits of T on
    cols within strata 0 and 1.  Fitted with a prospective basis, it also
    holds pi0, pi1 (Pr(T=1|Y=y, x) for y=0, 1) and py (Pr(Y=1|x)) at every
    row, clipped into [CLIP, 1 - CLIP], and the number of values the
    clipping touched; otherwise those are None and 0.
    """

    data: ObservedDataset
    cols: np.ndarray
    fit0: LogitFit
    fit1: LogitFit
    pi0: np.ndarray | None = None
    pi1: np.ndarray | None = None
    py: np.ndarray | None = None
    n_clipped: int = 0

    def prospective(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The clipped (pi0, pi1, py) at every row."""
        if self.py is None:
            raise ValidationError("this read-out needs a fit with a prospective basis")
        return self.pi0, self.pi1, self.py

    def stratum(self, y_stratum: int) -> np.ndarray:
        """The stratum-y rows, for a read-out indexed by y."""
        if y_stratum not in (0, 1):
            raise ValidationError("y_stratum must be 0 or 1")
        return self.data.stratum(y_stratum)


def design_columns(x: np.ndarray, spec: BasisSpec,
                   counts: np.ndarray | None = None) -> np.ndarray:
    """The basis columns of covariate rows x that enter a fit beside the
    intercept."""
    if spec.n_covariates != x.shape[1]:
        raise ValidationError("basis spec does not match the dataset's covariates")
    cols = build_basis(x, spec, counts)
    mask = spec.intercept_safe_mask()
    return cols[:, mask]


def clip_probabilities(p: np.ndarray, counts: np.ndarray | None):
    """Fitted probabilities at the rows (last axis; any leading axes are
    replicates) clipped into [CLIP, 1 - CLIP].

    Returns the clipped values, whether each value was finite and in
    [0, 1], and per leading index the number of values the clip moved,
    each row weighted by its count if `counts` is given.
    """
    in_range = np.isfinite(p) & (p >= 0.0) & (p <= 1.0)
    clipped = np.clip(p, CLIP, 1.0 - CLIP)
    moved = clipped != p
    return clipped, in_range, (moved if counts is None else counts * moved).sum(axis=-1)


def fit_nuisances(data: ObservedDataset, spec: BasisSpec,
                  prospective_spec: BasisSpec | None = None) -> NuisanceFit:
    """Fit T on the `spec` basis within each stratum and, given a
    prospective basis, Y on it, with every fitted probability evaluated at
    every row and clipped."""
    cols = design_columns(data.x, spec)
    mask0 = data.stratum(0)
    mask1 = data.stratum(1)
    fit0 = fit_logit(data.t[mask0], cols[mask0])
    fit1 = fit_logit(data.t[mask1], cols[mask1])
    if prospective_spec is None:
        return NuisanceFit(data=data, cols=cols, fit0=fit0, fit1=fit1)
    pcols = design_columns(data.x, prospective_spec)
    pfit = fit_logit(data.y, pcols)
    probs = []
    n_clipped = 0
    for name, p in (("Pi(1|1,x)", fit1.predict(cols)), ("Pi(1|0,x)", fit0.predict(cols)),
                    ("Pr(Y=1|x)", pfit.predict(pcols))):
        clipped, in_range, n_moved = clip_probabilities(p, None)
        if not in_range.all():
            raise NuisanceProbabilityOutOfRange(
                f"fitted {name} probabilities leave [0, 1] or are not finite")
        probs.append(clipped)
        n_clipped += int(n_moved)
    pi1, pi0, py = probs
    return NuisanceFit(data=data, cols=cols, fit0=fit0, fit1=fit1, pi0=pi0, pi1=pi1,
                       py=py, n_clipped=n_clipped)


def _read_out(nuis: NuisanceFit, y_stratum: int):
    """beta(y) = c'(b1 - b0), the stratum fits' variance c'V1c + c'V0c, and
    the fitted log odds ratio at every stratum-y row."""
    phi = nuis.cols[nuis.stratum(y_stratum)]
    gap = nuis.fit1.coef - nuis.fit0.coef
    c = np.concatenate([[1.0], phi.mean(axis=0)])
    value = float(gap[0] + c[1:] @ gap[1:])
    var_fits = c @ nuis.fit1.cov @ c + c @ nuis.fit0.cov @ c
    return value, var_fits, gap[0] + phi @ gap[1:]


def estimate_beta_combined(nuis: NuisanceFit, y_stratum: int) -> BetaEstimate:
    """beta(y) with the interacted fit's standard error, sqrt(c'V1c + c'V0c),
    read off the stratum fits."""
    value, var_fits, _ = _read_out(nuis, y_stratum)
    return BetaEstimate(y_stratum=y_stratum, value=value, se=float(np.sqrt(var_fits)),
                        method="combined")


def estimate_beta_plugin(nuis: NuisanceFit, y_stratum: int) -> BetaEstimate:
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
    value, var_fits, lor = _read_out(nuis, y_stratum)
    var = var_fits + np.mean((lor - value) ** 2) / lor.shape[0]
    return BetaEstimate(y_stratum=y_stratum, value=value, se=float(np.sqrt(var)),
                        method="plugin")


def estimate_kappa(nuis: NuisanceFit, y_stratum: int) -> float:
    """Level-scale aggregate kappa(y): stratum mean of the fitted odds ratio
    exp{X~'(b1 - b0)}, the exact linear-predictor gap that beta(y) averages."""
    return float(np.mean(np.exp(_read_out(nuis, y_stratum)[2])))


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
    if not 0.0 < step < np.inf:
        raise ValidationError(f"grid step must be positive and finite, got {step}")
    # the same test as round(pbar / step) > MAX_GRID_INTERVALS, taken before
    # rounding so that a ratio that overflows to inf is refused too
    if pbar / step > MAX_GRID_INTERVALS + 0.5:
        raise ValidationError(f"grid step {step:g} makes more than {MAX_GRID_INTERVALS} intervals")
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
    if beta0.y_stratum != 0:
        raise ValidationError("beta0 must be a stratum-0 estimate")
    grid = p_grid(pbar, step)
    if design is Design.CASE_CONTROL:
        if beta1 is None or beta1.y_stratum != 1:
            raise ValidationError("case-control bands need a stratum-1 estimate")
        u = float(ndtri(1.0 - alpha / 2.0) * max(beta1.se, beta0.se))
        log_point = grid * beta1.value + (1.0 - grid) * beta0.value
    else:
        u = float(ndtri(1.0 - alpha) * beta0.se)
        log_point = np.full_like(grid, beta0.value)
    point = np.maximum(np.exp(log_point), 1.0)
    upper = np.maximum(np.exp(log_point + u), 1.0)
    return RRBand(p=grid, point=point, lower=np.ones_like(grid), upper=upper,
                  alpha=alpha, design=design, halfwidth=u)
