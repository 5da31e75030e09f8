"""Attributable-risk upper-bound curves with bias-corrected bootstrap limits.

The estimand is the aggregated upper bound on the causal attributable risk
as a function of the unknown true case probability p.  Under case-control
sampling the point estimate at p is

    UB(p) = (1-p) * mean_{Y=0}[ r(X,p) * G_AR(X,p) ]
          +    p  * mean_{Y=1}[ r(X,p) * G_AR(X,p) ],

built from fitted retrospective probabilities Pi(t|y,x) and a fitted
prospective model Pr(Y=1|x).  Under case-population sampling the bound is
exactly linear, p * xi_cp.  Confidence limits come from Efron's one-sided
bias-corrected percentile bootstrap: pointwise per p in the case-control
design, and a single corrected limit scaled by p (hence uniform) in the
case-population design.

Every estimate is a read-out of one nuisance fit per data set,
`relative_risk.fit_nuisances` with both bases: the clipped fitted
probabilities enter r(x, p) and G_AR(x, p) through the formula kernel in
`oracle`, the same functions the finite-population reference evaluates per
cell.  Their convex-combination denominators make UB(0) = 0 and
(case-control) UB(1) = 0 hold exactly in floating point, matching the
estimand, which vanishes at both ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .basis import BasisSpec
from .errors import BootstrapDegenerate, CaseboundError, ValidationError
from .logit import fit_logit  # noqa: F401  (perfbench's tracing tests wrap this binding)
from .model import Design, ObservedDataset
from .oracle import gamma_ar_formula, r_formula
from .relative_risk import NuisanceFit, fit_nuisances, p_grid
from .rng import RngSpec, resample_indices

__all__ = [
    "ARCurve",
    "BootstrapDiagnostics",
    "estimate_beta_ar",
    "estimate_xi_cp",
    "upper_bound_curve_values",
    "ar_curve",
    "bc_level",
]


def _ar_terms(data: ObservedDataset, nuis: NuisanceFit, p: float) -> np.ndarray:
    # r(X_i, p) * G_AR(X_i, p) at every row
    r = r_formula(nuis.py, data.h0, p, data.design)
    return r * gamma_ar_formula(nuis.pi0, nuis.pi1, r)


def estimate_beta_ar(data: ObservedDataset, prospective_spec: BasisSpec,
                     retrospective_spec: BasisSpec, p: float, y_stratum: int,
                     nuisances: NuisanceFit | None = None) -> float:
    """Stratum mean of r(X, p) * G_AR(X, p) under case-control sampling."""
    if data.design is not Design.CASE_CONTROL:
        raise ValidationError("beta_AR(p, y) is a case-control estimand")
    if y_stratum not in (0, 1):
        raise ValidationError("y_stratum must be 0 or 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    nuis = nuisances or fit_nuisances(data, retrospective_spec, prospective_spec)
    return float(_ar_terms(data, nuis, p)[data.stratum(y_stratum)].mean())


def estimate_xi_cp(data: ObservedDataset, prospective_spec: BasisSpec,
                   retrospective_spec: BasisSpec,
                   nuisances: NuisanceFit | None = None) -> float:
    """Case-population slope estimate.

    (sum Y_i)^{-1} sum (1-Y_i) * [py/(1-py)] * G_AR(X_i, 0), where
    G_AR(x, 0) = pi1/pi0 - (1-pi1)/(1-pi0): the sample analog with the
    stratum share replaced by the mean of Y.
    """
    if data.design is not Design.CASE_POPULATION:
        raise ValidationError("xi_CP is a case-population estimand")
    nuis = nuisances or fit_nuisances(data, retrospective_spec, prospective_spec)
    bracket = nuis.py / (1.0 - nuis.py) * gamma_ar_formula(nuis.pi0, nuis.pi1, 0.0)
    y = data.y.astype(float)
    return float(np.sum((1.0 - y) * bracket) / np.sum(y))


def upper_bound_curve_values(data: ObservedDataset, prospective_spec: BasisSpec,
                             retrospective_spec: BasisSpec, grid: np.ndarray,
                             nuisances: NuisanceFit | None = None) -> np.ndarray:
    """Untruncated UB estimates on a p-grid (case-control: per-p aggregate;
    case-population: p times the slope estimate)."""
    nuis = nuisances or fit_nuisances(data, retrospective_spec, prospective_spec)
    if data.design is Design.CASE_POPULATION:
        return grid * estimate_xi_cp(data, prospective_spec, retrospective_spec, nuis)
    mask1 = data.stratum(1)
    out = np.empty(grid.shape[0])
    for i, p in enumerate(grid):
        vals = _ar_terms(data, nuis, float(p))
        out[i] = (1.0 - p) * vals[~mask1].mean() + p * vals[mask1].mean()
    return out


@dataclass(frozen=True)
class ARCurve:
    """Point estimates and one-sided confidence limits over the p-grid."""

    p: np.ndarray
    point: np.ndarray
    upper: np.ndarray
    mode: str       # "pointwise-bc" (case-control) | "uniform-bc" (case-population)
    B: int
    alpha: float

    def rows(self):
        for i in range(self.p.shape[0]):
            yield (float(self.p[i]), float(self.point[i]), float(self.upper[i]))


@dataclass(frozen=True)
class BootstrapDiagnostics:
    """Bias-correction internals plus bookkeeping for dropped replicates."""

    mu_star: np.ndarray
    nu_star: np.ndarray
    resample_mode: str   # "iid" | "stratified"
    n_requested: int
    n_kept: int
    n_dropped: int
    n_clipped_point: int
    n_clipped_boot: int


def bc_level(mu_star: np.ndarray, alpha: float, n_boot: int) -> np.ndarray:
    """Efron's bias-corrected one-sided quantile level.

    nu = Phi[Phi^{-1}(1-alpha) + 2*Phi^{-1}(mu)], with mu clamped into
    [1/(B+1), B/(B+1)] so the inverse CDF stays finite.
    """
    lo = 1.0 / (n_boot + 1.0)
    mu = np.clip(np.asarray(mu_star, dtype=float), lo, 1.0 - lo)
    return norm.cdf(norm.ppf(1.0 - alpha) + 2.0 * norm.ppf(mu))


def _quantile_higher(sorted_vals: np.ndarray, level: float) -> float:
    # smallest order statistic whose empirical cdf reaches the level
    b = sorted_vals.shape[0]
    k = int(np.ceil(level * b))
    return float(sorted_vals[min(max(k, 1), b) - 1])


def _resample(data: ObservedDataset, gen, mode: str) -> ObservedDataset:
    n = data.n
    if mode == "iid":
        idx = resample_indices(gen, n)
    elif mode == "stratified":
        idx = np.arange(n)
        for s in (0, 1):
            rows = np.flatnonzero(data.y == s)
            idx[rows] = rows[resample_indices(gen, rows.size)]
    else:
        raise ValidationError(f"unknown resample mode {mode!r}")
    return ObservedDataset(y=data.y[idx], t=data.t[idx], x=data.x[idx],
                           design=data.design,
                           h0=None if data.h0_estimated else data.h0)


def ar_curve(data: ObservedDataset, prospective_spec: BasisSpec,
             retrospective_spec: BasisSpec, pbar: float, alpha: float = 0.05,
             B: int = 1000, seed: int | RngSpec = 0, step: float = 0.01,
             resample_mode: str = "iid") -> tuple[ARCurve, BootstrapDiagnostics]:
    """Attributable-risk upper-bound curve with BC bootstrap limits.

    Replicates whose refit fails (separation, an empty stratum, ...) are
    dropped and counted.  Point estimates and limits are truncated into
    [0, 1].  Identical (data, specs, B, seed) give identical output.
    """
    if B < 200:
        raise ValidationError("use at least 200 bootstrap replications")
    grid = p_grid(pbar, step)
    if not 0.0 < alpha <= 0.5:
        raise ValidationError("alpha must lie in (0, 0.5]")
    rng = seed if isinstance(seed, RngSpec) else RngSpec(int(seed))

    nuis = fit_nuisances(data, retrospective_spec, prospective_spec)
    point_raw = upper_bound_curve_values(data, prospective_spec,
                                         retrospective_spec, grid, nuis)

    cp = data.design is Design.CASE_POPULATION
    xi_hat = estimate_xi_cp(data, prospective_spec, retrospective_spec, nuis) if cp else None

    boot_rows = []
    n_dropped = 0
    n_clipped_boot = 0
    for b in range(B):
        gen = rng.derive("ar-bootstrap", b)
        try:
            bdata = _resample(data, gen, resample_mode)
            bnuis = fit_nuisances(bdata, retrospective_spec, prospective_spec)
            if cp:
                boot_rows.append(estimate_xi_cp(bdata, prospective_spec,
                                                retrospective_spec, bnuis))
            else:
                boot_rows.append(upper_bound_curve_values(
                    bdata, prospective_spec, retrospective_spec, grid, bnuis))
            n_clipped_boot += bnuis.n_clipped
        except CaseboundError:
            n_dropped += 1
    n_kept = len(boot_rows)
    if n_kept < 2:
        raise BootstrapDegenerate(f"only {n_kept} of {B} bootstrap replicates survived")

    if cp:
        xis = np.asarray(boot_rows)
        if np.all(xis == xis[0]):
            raise BootstrapDegenerate("all bootstrap estimates are identical")
        mu = float(np.mean(xis <= xi_hat))
        nu = float(bc_level(mu, alpha, n_kept))
        u = _quantile_higher(np.sort(xis), nu)
        upper_raw = grid * u
        mu_star = np.full_like(grid, mu)
        nu_star = np.full_like(grid, nu)
        mode = "uniform-bc"
    else:
        mat = np.asarray(boot_rows)  # (n_kept, n_grid)
        interior = grid > 0.0
        if grid[-1] >= 1.0:
            interior &= grid < 1.0
        if np.all(mat[:, interior] == mat[0, interior]):
            raise BootstrapDegenerate("all bootstrap curves are identical")
        mu_star = (mat <= point_raw[None, :]).mean(axis=0)
        nu_star = bc_level(mu_star, alpha, n_kept)
        srt = np.sort(mat, axis=0)
        upper_raw = np.array([_quantile_higher(srt[:, j], nu_star[j])
                              for j in range(grid.shape[0])])
        mode = "pointwise-bc"

    point = np.clip(point_raw, 0.0, 1.0)
    upper = np.clip(np.maximum(upper_raw, point_raw), 0.0, 1.0)
    curve = ARCurve(p=grid, point=point, upper=upper, mode=mode, B=B, alpha=alpha)
    diag = BootstrapDiagnostics(mu_star=mu_star, nu_star=nu_star,
                                resample_mode=resample_mode, n_requested=B,
                                n_kept=n_kept, n_dropped=n_dropped,
                                n_clipped_point=nuis.n_clipped,
                                n_clipped_boot=n_clipped_boot)
    return curve, diag
