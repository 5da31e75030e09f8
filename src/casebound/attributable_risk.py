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
`relative_risk.fit_nuisances` with both bases, and takes only that fit and
its own index: the clipped fitted probabilities (`NuisanceFit.prospective`)
enter r(x, p) * G_AR(x, p) through `oracle.ar_term_formula`, the same
kernel the finite-population reference evaluates per cell.  Its
convex-combination denominators make UB(0) = 0 and (case-control)
UB(1) = 0 hold exactly in floating point, matching the estimand, which
vanishes at both ends.

One function, `_statistic`, is the only place where the design selects
the bootstrapped statistic: the case-control curve, one (grid x rows)
array of those terms averaged within each stratum, or the case-population
xi.  It works over leading replicate axes, so the sample, a refitted
replicate and a block of replicates all read it.

The bootstrap does not rebuild resampled data sets.  The sample is
collapsed once to a pattern table, its distinct (y, t, x) rows (eight for
a binary covariate).  Each replicate makes the same `resample_indices`
draw as resampling the rows would and turns it into pattern counts with
`np.bincount`; a replicate is a frequency-weighted refit of the patterns
with its counts.  Everything the expanded resample would judge is judged
on the replicate's support, the patterns with a nonzero count: a constant
basis column raises DegenerateColumn and an empty stratum `fit_logit`'s
ValidationError (the expanded rows raise its subclass EmptyStratum); an
estimated h0 is the counts-weighted share of cases; the clip count
(`relative_risk.clip_probabilities`) weighs each row by its count.  A
replicate that raises any CaseboundError is dropped and counted, as it
would be on the expanded rows.

Unless a basis has a spline term, the bases are the same for every
replicate, so they are built once on the pattern table and `_block`
refits a whole block of replicates as three batched Newton fits
(`logit.fit_logit_batch`: stratum 0, stratum 1, the prospective fit), with
the curve or xi of every replicate read off one (replicate x grid x
pattern) array.  A block holds as many replicates as fit in
`_BLOCK_CELLS` cells, so memory does not grow with B.  The batch pays
only while the pattern table is narrow: it does every replicate's
arithmetic on every pattern, zero counts included, so on a wide table
(a continuous covariate makes every row a pattern) it is slower than
refitting each replicate alone.  A table where a block would hold fewer
than `_MIN_BLOCK` replicates therefore stays on the per-replicate path.
A replicate leaves that common path exactly when the kernel flags it: a
fit `fit_logit` would refuse (an empty stratum, a basis column constant on
the support, separation), one too ill-conditioned at the optimum for two
summation orders to agree (`logit.PIVOT_FLOOR`), or a fitted probability
outside [0, 1]; a fit that halves a step stays.  `_replicate` refits each
flagged replicate alone, as `_block` on its support with `fit_logit` for
the batched kernel: a failed fit raises its own class, and no PIVOT_FLOOR
applies.  Spline knots are the quantiles of each drawn multiset, so a
spline basis moves with every replicate; then every replicate takes
`_replicate`, one at a time.  The two paths agree to rounding (1e-12 in
the tests).

The bias correction counts a replicate as at or below the point
estimate within 1e-12 * max(1, |estimate|): a replicate whose counts
reproduce the sample ties with it in exact arithmetic, and its side must
not be decided by the last bit of either path's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, CubicSplineTerm
from .errors import (BootstrapDegenerate, CaseboundError, NuisanceProbabilityOutOfRange,
                     ValidationError)
from .logit import fit_logit, fit_logit_batch
from .model import Design, ObservedDataset
from .oracle import ar_term_formula, gamma_ar_formula
from .relative_risk import NuisanceFit, clip_probabilities, design_columns, fit_nuisances, p_grid
from .rng import RngSpec, resample_indices
from .special import expit, ndtr, ndtri

__all__ = [
    "ARCurve",
    "BootstrapDiagnostics",
    "estimate_beta_ar",
    "estimate_xi_cp",
    "upper_bound_curve_values",
    "ar_curve",
    "bc_level",
]

# the most (replicate x pattern x max(grid, k)) cells one block's arrays
# may hold, and the fewest replicates per block for which the batch beats
# refitting each replicate alone (see the module docstring)
_BLOCK_CELLS = 1 << 17
_MIN_BLOCK = 16


def _statistic(design: Design, h0, case: np.ndarray, pi0, pi1, py, w: np.ndarray,
               grid: np.ndarray | None) -> np.ndarray:
    """The bootstrapped statistic from probabilities and weights at the rows
    (last axis; any leading axes are replicates, h0 a scalar or one per
    replicate): the case-control UB over the grid, with w-weighted stratum
    means, or the case-population xi as one column (the grid unused)."""
    if design is Design.CASE_POPULATION:
        bracket = py / (1.0 - py) * gamma_ar_formula(pi0, pi1, 0.0)
        y = case.astype(float)
        return (np.sum((1.0 - y) * bracket * w, axis=-1) / np.sum(y * w, axis=-1))[..., None]
    vals = ar_term_formula(py[..., None, :], np.asarray(h0)[..., None, None], grid[:, None],
                           design, pi0[..., None, :], pi1[..., None, :])
    # C order keeps each row's sum the pairwise sum of a one-p loop
    mean0, mean1 = ((np.ascontiguousarray(vals[..., m]) * w[..., None, m]).sum(axis=-1)
                    / w[..., m].sum(axis=-1)[..., None] for m in (~case, case))
    return (1.0 - grid) * mean0 + grid * mean1


def _fit_statistic(nuis: NuisanceFit, grid: np.ndarray | None) -> np.ndarray:
    """`_statistic` of one fit, each row weighted once."""
    data = nuis.data
    return _statistic(data.design, data.h0, data.stratum(1), *nuis.prospective(),
                      np.ones(data.n), grid)


def estimate_beta_ar(nuis: NuisanceFit, p: float, y_stratum: int) -> float:
    """Stratum mean of r(X, p) * G_AR(X, p) under case-control sampling."""
    data = nuis.data
    if data.design is not Design.CASE_CONTROL:
        raise ValidationError("beta_AR(p, y) is a case-control estimand")
    rows = nuis.stratum(y_stratum)
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    pi0, pi1, py = nuis.prospective()
    return float(ar_term_formula(py, data.h0, p, data.design, pi0, pi1)[rows].mean())


def estimate_xi_cp(nuis: NuisanceFit) -> float:
    """Case-population slope estimate.

    (sum Y_i)^{-1} sum (1-Y_i) * [py/(1-py)] * G_AR(X_i, 0), where
    G_AR(x, 0) = pi1/pi0 - (1-pi1)/(1-pi0): the sample analog with the
    stratum share replaced by the mean of Y.
    """
    if nuis.data.design is not Design.CASE_POPULATION:
        raise ValidationError("xi_CP is a case-population estimand")
    return float(_fit_statistic(nuis, None)[0])


def upper_bound_curve_values(nuis: NuisanceFit, grid: np.ndarray) -> np.ndarray:
    """Untruncated UB estimates on a p-grid (case-control: per-p aggregate;
    case-population: p times the slope estimate)."""
    stat = _fit_statistic(nuis, grid)
    return grid * stat[0] if nuis.data.design is Design.CASE_POPULATION else stat


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
    return ndtr(ndtri(1.0 - alpha) + 2.0 * ndtri(mu))


def _order_statistic(sorted_vals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # per column, the smallest order statistic whose empirical cdf reaches its
    # level; at mu* = 1/2 the level is 1 - alpha, so level * b is an integer
    # in exact arithmetic, and the slack keeps its last bit from moving k
    b = sorted_vals.shape[0]
    k = np.clip(np.ceil(levels * b - 1e-9).astype(np.intp), 1, b)
    return sorted_vals[k - 1, np.arange(sorted_vals.shape[1])]


def _patterns(data: ObservedDataset) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (y, t, x) rows of the sample, and the pattern of every row."""
    rows = np.column_stack([data.y, data.t, data.x])
    patterns, inverse = np.unique(rows, axis=0, return_inverse=True)
    return patterns, inverse.reshape(-1)


def _replicate_counts(gen, y: np.ndarray, inverse: np.ndarray, n_patterns: int,
                      mode: str) -> np.ndarray:
    """Pattern counts of one bootstrap draw.  The draw is the one that
    resampling the rows would make: n indices i.i.d. over the sample, or
    within stratum 0 and then stratum 1."""
    if mode == "iid":
        idx = resample_indices(gen, y.shape[0])
    else:
        strata = [np.flatnonzero(y == s) for s in (0, 1)]
        idx = np.concatenate([rows[resample_indices(gen, rows.size)] for rows in strata])
    return np.bincount(inverse[idx], minlength=n_patterns)


def _fit_one(t: np.ndarray, X: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, bool]:
    """`fit_logit` in the shape of `fit_logit_batch`, for a block of one
    replicate: a fit that fails raises instead of being flagged."""
    return fit_logit(t, X[:, 1:], W[0]).coef[None], True


def _replicate(data: ObservedDataset, patterns: np.ndarray, counts: np.ndarray,
               prospective_spec: BasisSpec, retrospective_spec: BasisSpec,
               grid: np.ndarray) -> tuple[np.ndarray, int]:
    """One bootstrap replicate refitted alone, as `_block` on the patterns
    with a nonzero count, spline knots from the counts: its statistic and
    clip count, or the CaseboundError that drops it."""
    keep = counts > 0
    rows, c = patterns[keep], counts[keep]
    designs = _pattern_designs(rows, retrospective_spec, prospective_spec, c)
    stat, n_clipped, ok = _block(data, rows, c[None], designs, grid, _fit_one)
    if not ok[0]:
        raise NuisanceProbabilityOutOfRange("fitted probabilities leave [0, 1] or are not finite")
    return stat[0], int(n_clipped[0])


def _pattern_designs(patterns: np.ndarray, retrospective_spec: BasisSpec,
                     prospective_spec: BasisSpec,
                     counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The retrospective and prospective [1, basis] at every pattern, spline
    knots at the quantiles of the patterns repeated `counts` times."""
    ones = np.ones((patterns.shape[0], 1))
    return tuple(np.hstack([ones, design_columns(patterns[:, 2:], spec, counts)])
                 for spec in (retrospective_spec, prospective_spec))


def _block(data: ObservedDataset, patterns: np.ndarray, counts: np.ndarray,
           designs: tuple[np.ndarray, np.ndarray], grid: np.ndarray,
           fit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of replicates refitted together on the pattern table.

    `counts` is (replicates, patterns); `designs` holds the retrospective
    and prospective [1, basis] at every pattern; `fit` is the batched
    kernel, or `_fit_one` for `_replicate`.  Returns each replicate's
    statistic (as `_replicate`), its clip count and whether it stayed on
    the common path (its three fits ok, their probabilities on its support
    in [0, 1]); the statistic and clip count of a replicate that did not
    are meaningless, and `_replicate` settles it.
    """
    rdesign, pdesign = designs
    case = patterns[:, 0] == 1
    t = patterns[:, 1]
    support = counts > 0
    w = counts.astype(float)
    fits = ((fit(t[~case], rdesign[~case], w[:, ~case]), rdesign),
            (fit(t[case], rdesign[case], w[:, case]), rdesign),
            (fit(case, pdesign, w), pdesign))
    probs = []
    ok = np.ones(counts.shape[0], dtype=bool)
    n_clipped = np.zeros(counts.shape[0], dtype=np.int64)
    for (coef, fitted), design in fits:
        clipped, in_range, n_moved = clip_probabilities(
            expit((coef[:, None, :] * design).sum(axis=-1)), counts)
        ok &= fitted & (in_range | ~support).all(axis=1)
        n_clipped += n_moved
        # off the support a value only has to keep the weighted sums finite
        probs.append(np.where(support, clipped, 0.5))
    # the statistic of the replicates still on the common path, an estimated
    # h0 their counts-weighted share of cases; every probability now lies in
    # [CLIP, 1 - CLIP], so no denominator vanishes
    pi0, pi1, py, c = (a[ok] for a in (*probs, counts))
    h0 = c[:, case].sum(axis=1) / c.sum(axis=1) if data.h0_estimated else data.h0
    vals = _statistic(data.design, h0, case, pi0, pi1, py, w[ok], grid)
    stat = np.zeros((counts.shape[0], vals.shape[1]))
    stat[ok] = vals
    return stat, n_clipped, ok


def ar_curve(data: ObservedDataset, prospective_spec: BasisSpec,
             retrospective_spec: BasisSpec, pbar: float, alpha: float = 0.05,
             B: int = 1000, seed: int | RngSpec = 0, step: float = 0.01,
             resample_mode: str = "iid") -> tuple[ARCurve, BootstrapDiagnostics]:
    """Attributable-risk upper-bound curve with BC bootstrap limits.

    The point estimate is read off one fit of the sample.  Replicate b
    draws from the stream ("ar-bootstrap", b) the indices that resampling
    the rows would (i.i.d., or within each stratum) and refits the sample's
    distinct (y, t, x) rows with the drawn counts as frequency weights,
    which is the expanded resample up to rounding; unless a basis has a
    spline term or the pattern table is wide, a block of replicates is
    refitted at once (see the module docstring).  Replicates whose refit
    fails (separation, an empty stratum, a constant basis column, ...) are
    dropped and counted.  Point estimates and limits are truncated into
    [0, 1].  Identical (data, specs, B, seed) give identical output.
    """
    if B < 200:
        raise ValidationError("use at least 200 bootstrap replications")
    grid = p_grid(pbar, step)
    if not 0.0 < alpha <= 0.5:
        raise ValidationError("alpha must lie in (0, 0.5]")
    if resample_mode not in ("iid", "stratified"):
        raise ValidationError(f"unknown resample mode {resample_mode!r}")
    rng = seed if isinstance(seed, RngSpec) else RngSpec(seed)

    nuis = fit_nuisances(data, retrospective_spec, prospective_spec)
    stat_hat = _fit_statistic(nuis, grid)  # the bootstrapped statistic at the sample
    cp = data.design is Design.CASE_POPULATION
    # the columns that can vary: xi, or the curve off its ends, 0 by construction
    varying = np.array([True]) if cp else (grid > 0.0) & (grid < 1.0)

    patterns, inverse = _patterns(data)
    # a spline basis moves with each replicate's draw, so nothing is shared
    designs, size = None, 1
    specs = (retrospective_spec, prospective_spec)
    if not any(isinstance(term, CubicSplineTerm) for spec in specs for term in spec.terms):
        designs = _pattern_designs(patterns, *specs)
        # the statistic spans the grid only under case-control sampling
        width = max(1 if cp else grid.shape[0], *(d.shape[1] for d in designs))
        size = _BLOCK_CELLS // (patterns.shape[0] * width)
        if size < _MIN_BLOCK:  # too wide for the batch to pay
            designs, size = None, 1
    boot = np.empty((B, stat_hat.shape[0]))  # each replicate's statistic
    kept = np.zeros(B, dtype=bool)
    n_clipped_boot = 0
    for start in range(0, B, size):
        stop = min(B, start + size)
        counts = np.array([_replicate_counts(rng.derive("ar-bootstrap", b), data.y, inverse,
                                             patterns.shape[0], resample_mode)
                           for b in range(start, stop)])
        ok = np.zeros(stop - start, dtype=bool)
        if designs is not None:
            stats, clipped, ok = _block(data, patterns, counts, designs, grid, fit_logit_batch)
            boot[start:stop][ok] = stats[ok]
            n_clipped_boot += int(clipped[ok].sum())
        kept[start:stop] = ok
        for i in np.flatnonzero(~ok):
            try:
                stat, n_clipped = _replicate(data, patterns, counts[i], prospective_spec,
                                             retrospective_spec, grid)
            except CaseboundError:
                continue
            boot[start + i] = stat
            kept[start + i] = True
            n_clipped_boot += n_clipped
    boot = boot[kept]  # (n_kept, n_grid), or (n_kept, 1) for xi
    n_kept = boot.shape[0]
    n_dropped = B - n_kept
    if n_kept < 2:
        raise BootstrapDegenerate(f"only {n_kept} of {B} bootstrap replicates survived")

    if np.all(boot[:, varying] == boot[0, varying]):
        raise BootstrapDegenerate("all bootstrap estimates are identical")
    # a replicate that ties with the sample up to rounding counts as below it
    tie = 1e-12 * np.maximum(1.0, np.abs(stat_hat))
    mu = (boot <= stat_hat + tie).mean(axis=0)
    nu = bc_level(mu, alpha, n_kept)
    limit = _order_statistic(np.sort(boot, axis=0), nu)
    if cp:
        point_raw, upper_raw = grid * stat_hat[0], grid * limit[0]
        mu_star, nu_star = np.full_like(grid, mu[0]), np.full_like(grid, nu[0])
        mode = "uniform-bc"
    else:
        point_raw, upper_raw, mu_star, nu_star = stat_hat, limit, mu, nu
        mode = "pointwise-bc"

    # + 0.0 turns the -0.0 that clipping keeps (0 * a negative statistic) into 0.0
    point = np.clip(point_raw, 0.0, 1.0) + 0.0
    upper = np.clip(np.maximum(upper_raw, point_raw), 0.0, 1.0) + 0.0
    curve = ARCurve(p=grid, point=point, upper=upper, mode=mode, B=B, alpha=alpha)
    diag = BootstrapDiagnostics(mu_star=mu_star, nu_star=nu_star,
                                resample_mode=resample_mode, n_requested=B,
                                n_kept=n_kept, n_dropped=n_dropped,
                                n_clipped_point=nuis.n_clipped,
                                n_clipped_boot=n_clipped_boot)
    return curve, diag
