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

The statistic is implemented once.  `_statistic` evaluates the
case-control curve, per stratum one (grid x rows) array of r(x, p) *
G_AR(x, p) averaged over the stratum, or the case-population xi, from fitted
probabilities clipped into [CLIP, 1 - CLIP]; the term is
`oracle.ar_term_formula`, the same kernel the finite-population reference
evaluates per cell.  Its convex-combination denominators make UB(0) = 0
and (case-control) UB(1) = 0 hold exactly in floating point, matching the
estimand, which vanishes at both ends.  One routine, `_refit_block`,
packs a block of replicates, fits those probabilities on each replicate's
patterns, judges each replicate and is the only caller of `fit_logits`
and `_statistic`; the sample and every replicate are rows of its blocks.

The bootstrap does not rebuild resampled data sets.  The sample is
collapsed once to a pattern table, its distinct (y, t, x) rows (eight for
a binary covariate).  Each replicate makes the same `resample_indices`
draw as resampling the rows would and turns it into pattern counts with
`np.bincount`; a replicate is a frequency-weighted refit of the patterns
with its counts.  Everything the expanded resample would judge is judged
on the replicate's support, the patterns with a nonzero count: a constant
basis column gives DegenerateColumn and an empty stratum `fit_logit`'s
ValidationError (the expanded rows raise its subclass EmptyStratum); an
estimated h0 is the counts-weighted share of cases; the clip count
(`relative_risk.clip_probabilities`) weighs each row by its count.  A
replicate judged to fail with any CaseboundError is dropped and counted,
as it would be on the expanded rows.  The sample itself is the replicate
whose counts are the pattern multiplicities: `ar_curve` takes the point
statistic and its clip count from `_refit_block` on a block of that one
replicate, and raises its verdict.  Spline knots from them are the sample
quantiles and the counts-weighted share of cases is the sample's, so this
is the statistic of the rows fitted unweighted, up to rounding (1e-12 in
the tests).

`ar_curve` refits the replicates in blocks, each replicate on its own
support.  Its patterns are packed stratum by stratum in pattern order and
padded, with patterns it did not draw (count zero), to a width per
stratum that is fixed for the whole run (`_Layout`, `_pack`): min(P_s,
E_s + _WIDTH_SDS * sd_s), where P_s is the stratum's number of patterns,
E_s = sum_j [1 - (1 - m_j / n)^n] the expected number of distinct
patterns a draw takes from multiplicities m_j (n the stratum's size under
stratified resampling) and sd_s = sqrt(sum_j q_j (1 - q_j)) for those
chances q_j.  On a narrow table (eight patterns of a binary covariate)
that is the whole table; where every row is a pattern it is about 0.71
of the stratum.  The width is fixed because the BLAS sums of a fit depend
on its length: padding the same replicate to different widths moves the
last bits of its coefficients, so a width per block would make a
replicate's statistic depend on the other replicates of its block.  The
designs are gathered from the pattern table's [1, basis], built once; a
design with a spline term, whose knots are the quantiles of each drawn
multiset, is rebuilt whole per replicate on its support by
`design_columns`, as on the table.  A block is three stacked Newton fits
(`logit.fit_logits`: stratum 0, stratum 1, the prospective fit), and the
curve or xi of every replicate is read off (replicate x grid x packed
row) arrays.  A block holds as many replicates as fit in `BLOCK_CELLS`
cells of both packed designs or of such an array, so memory does not grow
with B.  `_refit_block` gives each replicate one verdict, None or the
CaseboundError that drops it, the first of: `build_basis`'s refusal of a
spline design rebuilt on its support (a constant column included),
DegenerateColumn (a column of a gathered design constant on the support,
`basis.constant_columns`), what `fit_logit` would raise for the first
nonzero status of its three fits (`logit.status_error`), then
NuisanceProbabilityOutOfRange for a fitted probability outside [0, 1]; a
fit that halves a step stays.  A replicate whose support in a stratum is
wider than the packed width, the sample among them when the width is less
than the table's, never enters a block of the others: the same routine
fits it alone, as a block of one packed at its own support's widths.  A
replicate padded in a block and refitted alone differ only by the
padding's effect on the BLAS sums (1e-12 in the tests, 1e-10 with a spline
basis, whose design is ill-conditioned).

The bias correction counts a replicate as at or below the point
estimate within 1e-12 * max(1, |estimate|): a replicate whose counts
reproduce the sample ties with it in exact arithmetic, and its side must
not be decided by the last bit of either path's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .basis import BasisSpec, CubicSplineTerm, constant_columns
from .errors import (BootstrapDegenerate, CaseboundError, DegenerateColumn,
                     NuisanceProbabilityOutOfRange, ValidationError)
# fit_logit is bound here only for the benchmark's tracer, which wraps it
from .logit import BLOCK_CELLS, fit_logit, fit_logits, status_error  # noqa: F401
from .model import Design, ObservedDataset
from .oracle import ar_term_formula, gamma_ar_formula
from .relative_risk import clip_probabilities, design_columns, p_grid
from .rng import RngSpec, resample_indices
from .special import expit, ndtr, ndtri

__all__ = [
    "ARCurve",
    "BootstrapDiagnostics",
    "ar_curve",
    "bc_level",
]

MAX_B = 100_000  # ar_curve refuses more replicates before any fit; ten times the paper's B

# the standard deviations of a draw's distinct patterns that the packed
# width of a stratum adds to their mean (see the module docstring); a block
# holds at most BLOCK_CELLS (replicate x packed row x max(grid, design
# columns)) cells
_WIDTH_SDS = 5.0


def _statistic(design: Design, h0, case: np.ndarray, pi0, pi1, py, w: np.ndarray,
               grid: np.ndarray | None) -> np.ndarray:
    """The bootstrapped statistic from probabilities and weights at the rows
    (last axis; any leading axes are replicates, h0 a scalar or one per
    replicate): the case-control UB over the grid, with w-weighted stratum
    means, or the case-population xi as one column (the grid unused),
    (sum Y)^{-1} sum (1 - Y) * py / (1 - py) * G_AR(X, 0), the sample
    analog with the stratum share replaced by the mean of Y."""
    if design is Design.CASE_POPULATION:
        bracket = py / (1.0 - py) * gamma_ar_formula(pi0, pi1, 0.0)
        y = case.astype(float)
        return (np.sum((1.0 - y) * bracket * w, axis=-1) / np.sum(y * w, axis=-1))[..., None]
    h0 = np.asarray(h0)[..., None, None]
    # one stratum at a time keeps the (grid x rows) arrays small, and each
    # row's sum the pairwise sum of a one-p loop
    mean0, mean1 = ((ar_term_formula(py[..., None, m], h0, grid[:, None], design,
                                     pi0[..., None, m], pi1[..., None, m])
                     * w[..., None, m]).sum(axis=-1) / w[..., m].sum(axis=-1)[..., None]
                    for m in (~case, case))
    return (1.0 - grid) * mean0 + grid * mean1


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
    # np.unique(rows, axis=0) without its structured sort: lexicographic
    # order, y the first key, and a mark where each run of equal rows starts
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


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


@dataclass(frozen=True)
class _Layout:
    """What every block of one `ar_curve` run shares: the pattern table, the
    retrospective and prospective [1, basis] on the table, per design its
    spec when a spline term makes each replicate rebuild it (None
    otherwise), and the fixed width of each stratum (see the module
    docstring)."""

    patterns: np.ndarray
    tables: tuple[np.ndarray, np.ndarray]
    splines: tuple[BasisSpec | None, BasisSpec | None]
    widths: tuple[int, int]


def _widths(multiplicities: np.ndarray, case: np.ndarray, mode: str) -> tuple[int, int]:
    """Per stratum, the packed width of a run: min(P_s, E_s + _WIDTH_SDS *
    sd_s), E_s = sum_j q_j the expected number of distinct patterns a draw
    takes, q_j = 1 - (1 - m_j / n)^n the chance that pattern j is drawn (n
    the stratum's size under stratified resampling), sd_s = sqrt(sum_j q_j
    (1 - q_j))."""
    widths = []
    for m in (multiplicities[~case], multiplicities[case]):
        n = m.sum() if mode == "stratified" else multiplicities.sum()
        q = 1.0 - (1.0 - m / n) ** n
        widths.append(min(m.size, int(np.ceil(q.sum() + _WIDTH_SDS
                                              * np.sqrt(np.sum(q * (1.0 - q)))))))
    return widths[0], widths[1]


def _layout(patterns: np.ndarray, multiplicities: np.ndarray, specs: tuple[BasisSpec, BasisSpec],
            mode: str) -> _Layout:
    """The layout of a run on `patterns` with the sample's `multiplicities`;
    `specs` is (retrospective, prospective), and the basis on the table has
    spline knots at the quantiles of the patterns repeated that often, so
    a constant column or bad knots of the sample raise here."""
    ones = np.ones((patterns.shape[0], 1))
    return _Layout(patterns=patterns,
                   tables=tuple(np.hstack([ones, design_columns(patterns[:, 2:], spec,
                                                                multiplicities)])
                                for spec in specs),
                   splines=tuple(spec if any(isinstance(term, CubicSplineTerm)
                                             for term in spec.terms) else None
                                 for spec in specs),
                   widths=_widths(multiplicities, patterns[:, 0] == 1, mode))


def _pack(counts: np.ndarray, n0: int, widths: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each replicate's support, stratum by stratum in pattern order, padded
    to the fixed widths with patterns it did not draw: the (replicates,
    width) pattern indices, and whether a stratum's support is wider."""
    idx, wide = [], np.zeros(counts.shape[0], dtype=bool)
    for lo, hi, width in ((0, n0, widths[0]), (n0, counts.shape[1], widths[1])):
        absent = counts[:, lo:hi] == 0
        wide |= (hi - lo) - absent.sum(axis=1) > width
        idx.append(lo + np.argsort(absent, axis=1, kind="stable")[:, :width])
    return np.hstack(idx), wide


def _refit_block(data: ObservedDataset, layout: _Layout, counts: np.ndarray,
                 grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of replicates' (replicates, patterns) counts refitted
    together, each replicate packed on its own support.  The designs are
    gathered from the pattern table, and a design with a spline term is
    rebuilt whole on the support by `design_columns`, with knots from its
    counts.  Three stacked `fit_logits` calls (stratum 0, stratum 1, the
    prospective fit) fit every replicate on its packed rows, and their
    probabilities at those rows, clipped and counted by
    `clip_probabilities`, feed `_statistic`.  Returns each replicate's
    statistic and clip count, and its verdict: None, or the CaseboundError
    that drops it, the first of `build_basis`'s refusal of a rebuilt
    design, DegenerateColumn (`constant_columns` on the support of a
    gathered design), the `status_error` of its first failed fit and
    NuisanceProbabilityOutOfRange; a dropped replicate's statistic is zero.
    A replicate refused before its fits gets zero counts, which the kernel
    refuses; one wider than the layout never enters the block and is
    fitted alone, as a block of one at its own widths."""
    patterns = layout.patterns
    n0 = np.count_nonzero(patterns[:, 0] == 0)
    idx, wide = _pack(counts, n0, layout.widths)
    if wide.any():
        # the others as one block, and each wide replicate as its own
        narrow = np.flatnonzero(~wide)
        parts = [(narrow, _refit_block(data, layout, counts[narrow], grid))] if narrow.size else []
        for i in np.flatnonzero(wide):
            own = replace(layout, widths=(int(np.count_nonzero(counts[i, :n0])),
                                          int(np.count_nonzero(counts[i, n0:]))))
            parts.append(([i], _refit_block(data, own, counts[i:i + 1], grid)))
        order = np.argsort(np.concatenate([rows for rows, _ in parts]))
        return tuple(np.concatenate([part[j] for _, part in parts])[order] for j in range(3))
    w = np.take_along_axis(counts, idx, axis=1)
    on, designs = w > 0, tuple(table[idx] for table in layout.tables)
    verdict = np.full(counts.shape[0], None, dtype=object)
    # each design judged once, as `_layout` builds it: a spline design is
    # rebuilt on the support, where build_basis refuses a constant column of
    # the whole basis; a gathered one must have no column constant there
    for design, spec in zip(designs, layout.splines):
        if spec is None:
            verdict[constant_columns(design[..., 1:], on).any(axis=1)
                    & np.equal(verdict, None)] = DegenerateColumn(
                "a basis column is constant on the replicate's support")
            continue
        for i in np.flatnonzero(np.equal(verdict, None)):
            sup = np.flatnonzero(w[i])
            try:
                design[i, sup, 1:] = design_columns(patterns[idx[i, sup], 2:], spec, w[i, sup])
            except CaseboundError as exc:
                verdict[i] = exc
    w[~np.equal(verdict, None)] = 0
    # the packed rows hold stratum 0 first, widths[0] of them
    case = np.arange(w.shape[1]) >= layout.widths[0]
    s0, s1 = slice(None, layout.widths[0]), slice(layout.widths[0], None)
    t, (rdesign, pdesign) = patterns[idx, 1], designs
    fits = ((fit_logits(t[:, s0], rdesign[:, s0], w[:, s0]), rdesign),
            (fit_logits(t[:, s1], rdesign[:, s1], w[:, s1]), rdesign),
            (fit_logits(np.broadcast_to(case, w.shape), pdesign, w), pdesign))
    for fit, _ in fits:
        for i in np.flatnonzero((fit.status != 0) & np.equal(verdict, None)):
            verdict[i] = status_error(fit.status[i])
    probs, n_clipped = [], np.zeros(counts.shape[0], dtype=np.int64)
    for fit, design in fits:
        clipped, valid, n_moved = clip_probabilities(
            expit((design @ fit.coef[:, :, None])[:, :, 0]), w)
        verdict[~(valid | ~on).all(axis=1) & np.equal(verdict, None)] = (
            NuisanceProbabilityOutOfRange("fitted probabilities leave [0, 1] or are not finite"))
        n_clipped += n_moved
        # off the support a value only has to keep the weighted sums finite
        probs.append(np.where(on, clipped, 0.5))
    # the statistic of the replicates that are kept, an estimated h0 their
    # counts-weighted share of cases; every probability now lies in
    # [CLIP, 1 - CLIP], so no denominator vanishes
    ok = np.equal(verdict, None)
    pi0, pi1, py, c = (a[ok] for a in (*probs, w))
    h0 = c[:, case].sum(axis=1) / c.sum(axis=1) if data.h0_estimated else data.h0
    vals = _statistic(data.design, h0, case, pi0, pi1, py, c, grid)
    stats = np.zeros((counts.shape[0], vals.shape[1]))
    stats[ok] = vals
    return stats, n_clipped, verdict


def ar_curve(data: ObservedDataset, prospective_spec: BasisSpec,
             retrospective_spec: BasisSpec, pbar: float, alpha: float = 0.05,
             B: int = 1000, seed: int | RngSpec = 0, step: float = 0.01,
             resample_mode: str = "iid") -> tuple[ARCurve, BootstrapDiagnostics]:
    """Attributable-risk upper-bound curve with BC bootstrap limits.

    The point estimate is the replicate whose counts are the sample's
    pattern multiplicities, a block of one of `_refit_block`, the routine
    every replicate is refitted by; a sample whose fit fails raises its
    verdict before any draw.  Replicate b draws from the stream
    ("ar-bootstrap", b) the indices that resampling the rows would
    (i.i.d., or within each stratum) and refits the sample's distinct (y,
    t, x) rows with the drawn counts as frequency weights, which is the
    expanded resample up to rounding; blocks of replicates are refitted at
    once, each replicate on its own support (see the module docstring).
    Replicates whose refit fails (separation, an empty stratum, a constant
    basis column, ...) are dropped and counted.  Point estimates and limits
    are truncated into [0, 1].  Identical (data, specs, B, seed) give
    identical output.  B must lie in 200..MAX_B, checked before any fit.
    """
    if B < 200:
        raise ValidationError("use at least 200 bootstrap replications")
    if B > MAX_B:
        raise ValidationError(f"use at most {MAX_B} bootstrap replications")
    grid = p_grid(pbar, step)
    if not 0.0 < alpha <= 0.5:
        raise ValidationError("alpha must lie in (0, 0.5]")
    if resample_mode not in ("iid", "stratified"):
        raise ValidationError(f"unknown resample mode {resample_mode!r}")
    rng = seed if isinstance(seed, RngSpec) else RngSpec(seed)

    patterns, inverse = _patterns(data)
    multiplicities = np.bincount(inverse)
    layout = _layout(patterns, multiplicities, (retrospective_spec, prospective_spec),
                     resample_mode)
    # the bootstrapped statistic at the sample, the replicate whose counts
    # are its multiplicities
    stats, clipped, verdict = _refit_block(data, layout, multiplicities[None], grid)
    if verdict[0] is not None:
        raise verdict[0]
    stat_hat, n_clipped_point = stats[0], int(clipped[0])
    cp = data.design is Design.CASE_POPULATION
    # the columns that can vary: xi, or the curve off its ends, 0 by construction
    varying = np.array([True]) if cp else (grid > 0.0) & (grid < 1.0)
    # a block holds both designs at once; the statistic spans the grid only
    # under case-control sampling
    width = max(1 if cp else grid.shape[0], sum(d.shape[1] for d in layout.tables))
    size = max(1, BLOCK_CELLS // (sum(layout.widths) * width))
    boot = np.empty((B, stat_hat.shape[0]))  # each replicate's statistic
    kept = np.zeros(B, dtype=bool)
    n_clipped_boot = 0
    streams = rng.streams("ar-bootstrap", 0, B)
    for start in range(0, B, size):
        stop = min(B, start + size)
        counts = np.array([_replicate_counts(gen, data.y, inverse, patterns.shape[0],
                                             resample_mode)
                           for gen in islice(streams, stop - start)])
        stats, clipped, verdict = _refit_block(data, layout, counts, grid)
        ok = np.equal(verdict, None)
        boot[start:stop][ok] = stats[ok]
        n_clipped_boot += int(clipped[ok].sum())
        kept[start:stop] = ok
    boot = boot[kept]  # (n_kept, n_grid), or (n_kept, 1) for xi
    n_kept = boot.shape[0]
    n_dropped = B - n_kept
    if n_kept < 2:
        raise BootstrapDegenerate(f"only {n_kept} of {B} bootstrap replicates survived")

    if varying.any() and np.all(boot[:, varying] == boot[0, varying]):
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
                                n_clipped_point=n_clipped_point,
                                n_clipped_boot=n_clipped_boot)
    return curve, diag
