"""Seedable data-generating processes and the simulation study harness.

Includes the correlated-normal / logistic-treatment benchmark design used
to calibrate the estimators (strata of equal size, five covariates, both
stratum aggregates equal to 0.5 under the defaults), plus exact sampling
from any finite DiscretePopulation under either design.

The study fits its replicates in blocks.  `mc_nuisance_fits` draws a block
of replicates and, per basis, writes each replicate's [1, basis] into one
(replicates, 2 n_per_stratum, k) array.  A draw holds its cases first and
its controls second, n_per_stratum rows each, so that array is, without a
copy, the (2 replicates, n_per_stratum, k) stack of every replicate's two
stratum designs, and `logit.fit_logits` fits the whole stack in one Newton
call.  A block holds as many replicates as keep the widest basis's array
within `logit.BLOCK_CELLS` cells (three at the defaults, 1 MiB), and each
replicate's fits equal `fit_nuisances`'s bit for bit.

All draws flow through documented inverse-CDF transforms of generator
uniforms (see rng.py): identical seeds give byte-identical datasets and
summary tables across runs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .basis import BasisSpec
from .errors import CaseboundError, ValidationError
from .logit import BLOCK_CELLS, fit_logits
from .model import Design, ObservedDataset
from .oracle import DiscretePopulation, project
from .relative_risk import NuisanceFit, design_columns, estimate_beta_combined
from .rng import RngSpec, bernoulli, categorical, standard_normals
from .special import expit, ndtri

__all__ = [
    "MCDesign",
    "draw_mc_sample",
    "sample_from_population",
    "MCCellSummary",
    "MCStudyResult",
    "mc_nuisance_fits",
    "run_mc_study",
    "parametric_spec",
    "sieve_spec",
]


@dataclass(frozen=True)
class MCDesign:
    """Benchmark case-control DGP: X|Y=y normal, T|X,Y logistic.

    Within stratum y, X ~ N(mu_y, Sigma) with Sigma[j,k] = rho^|j-k| and
    Pr(T=1|X=x, Y=y) = expit(a0_y + x @ a1_y).  The stratum aggregate of
    the log odds ratio is then (a0_1 - a0_0) + E(X|Y=y) @ (a1_1 - a1_0)
    for each y; the defaults make it 0.5 in both strata.
    """

    dx: int = 5
    mu1: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    mu0: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)
    rho: float = 0.5
    alpha0_case: float = 0.5
    alpha1_case: tuple[float, ...] = (1.0, 1.0, 0.0, 0.0, 0.0)
    alpha0_control: float = 0.0
    alpha1_control: tuple[float, ...] = (0.0, 0.0, 1.0, 1.0, 0.0)
    n_per_stratum: int = 1000

    def __post_init__(self):
        for name in ("mu1", "mu0", "alpha1_case", "alpha1_control"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != self.dx:
                raise ValidationError(f"{name} must have length dx={self.dx}")
            object.__setattr__(self, name, vec)
        if not -1.0 < self.rho < 1.0:
            raise ValidationError("rho must lie in (-1, 1)")
        if self.n_per_stratum < 1:
            raise ValidationError("n_per_stratum must be positive")

    def sigma(self) -> np.ndarray:
        idx = np.arange(self.dx)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])

    def true_beta(self, y: int) -> float:
        mu = np.asarray(self.mu1 if y == 1 else self.mu0)
        gap = np.asarray(self.alpha1_case) - np.asarray(self.alpha1_control)
        return float(self.alpha0_case - self.alpha0_control + mu @ gap)


def parametric_spec(design: MCDesign) -> BasisSpec:
    return BasisSpec.linear(design.dx)


def sieve_spec(design: MCDesign) -> BasisSpec:
    """Linear + quadratic + pairwise interactions (20 columns at dx=5)."""
    return BasisSpec.polynomial(design.dx, 2, interactions=True)


def draw_mc_sample(design: MCDesign, gen: np.random.Generator) -> ObservedDataset:
    """One case-control sample from the benchmark design.

    X is drawn as mu + Z L' with L the lower Cholesky factor of Sigma and
    Z inverse-CDF normals; T is a uniform-threshold Bernoulli with logistic
    success probability.  Cases come first, then controls; h0 is left to be
    estimated (equal strata make it exactly n1/n).
    """
    chol = np.linalg.cholesky(design.sigma())
    n = design.n_per_stratum
    xs, ts, ys = [], [], []
    for y in (1, 0):
        mu = np.asarray(design.mu1 if y == 1 else design.mu0)
        a0 = design.alpha0_case if y == 1 else design.alpha0_control
        a1 = np.asarray(design.alpha1_case if y == 1 else design.alpha1_control)
        x = mu + standard_normals(gen, (n, design.dx)) @ chol.T
        t = bernoulli(gen, expit(a0 + x @ a1))
        xs.append(x)
        ts.append(t)
        ys.append(np.full(n, y, dtype=np.int8))
    return ObservedDataset(y=np.concatenate(ys), t=np.concatenate(ts),
                           x=np.vstack(xs), design=Design.CASE_CONTROL, h0=None)


def sample_from_population(pop: DiscretePopulation, design: Design, h0: float,
                           n: int, gen: np.random.Generator) -> ObservedDataset:
    """Bernoulli sampling from a finite population.

    Y ~ Bernoulli(h0) first; given Y=y, (T, X) is drawn from stratum y of
    the observed law `project(pop, design, h0)`, so the sample follows the
    very law the bound formulas are checked against.  project refuses a
    population without overlap and an h0 outside (0, 1) before any draw.
    """
    law = project(pop, design, h0)
    y = bernoulli(gen, np.full(n, h0))
    t = np.zeros(n, dtype=np.int8)
    x = np.zeros((n, pop.support_x.shape[1]))
    for s in (0, 1):
        rows = np.flatnonzero(y == s)
        # the pmf in [cell, t] order, so divmod by 2 reads off (cell, t)
        draws = categorical(gen, (law.fxy[s] * law.pi[:, s]).T.ravel(), rows.size)
        cells, treats = np.divmod(draws, 2)
        t[rows] = treats.astype(np.int8)
        x[rows] = pop.support_x[cells]
    return ObservedDataset(y=y, t=t, x=x, design=design, h0=h0)


@dataclass(frozen=True)
class MCCellSummary:
    """Replication summary for one (estimator, stratum) pair.

    Absolute deviations are reported both around the truth and around the
    replication median.  Coverage refers to the one-sided 95% upper
    interval value + z(0.95)*se containing the true aggregate.
    """

    estimator: str
    y_stratum: int
    truth: float
    n_replicates: int
    n_failed: int
    mean_bias: float
    median_bias: float
    rmse: float
    mean_abs_dev: float
    median_abs_dev: float
    mean_abs_dev_from_median: float
    median_abs_dev_from_median: float
    coverage: float


# a cell with no kept replicate: its statistics, the fields after the
# labels and counts, are all undefined
_NO_STATISTICS = {f.name: float("nan") for f in fields(MCCellSummary)[5:]}


@dataclass(frozen=True)
class MCStudyResult:
    cells: tuple[MCCellSummary, ...]
    estimates: dict  # (estimator, y) -> (values, ses) of the kept replicates
    failures: dict  # estimator -> {exception class name: dropped replicates}

    def cell(self, estimator: str, y_stratum: int) -> MCCellSummary:
        for c in self.cells:
            if c.estimator == estimator and c.y_stratum == y_stratum:
                return c
        raise KeyError((estimator, y_stratum))


_SPEC_BUILDERS = {"parametric": parametric_spec, "sieve": sieve_spec}
MAX_REPLICATIONS = 100_000  # run_mc_study refuses more replicates before any draw


def _median(v: np.ndarray) -> np.floating:
    """np.median of a 1-D float array, bit for bit, NaN and warnings included.

    The same partition, mean of the middle one or two entries and NaN
    check as np.median, whose NaN check imports numpy.ma on first use.
    """
    n = v.size
    mid = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(v, mid + [-1])  # -1 puts a NaN, if any, last
    med = np.mean(part[(n - 1) // 2:n // 2 + 1])
    return part[-1] if n and np.isnan(part[-1]) else med


def _verdict(data: ObservedDataset, cols: np.ndarray, refusal, fit0, fit1):
    """A replicate's `NuisanceFit`, or the first refusal in the order
    `fit_nuisances` meets them: its basis's, then its stratum-0 and its
    stratum-1 fit's."""
    for verdict in (refusal, fit0, fit1):
        if isinstance(verdict, CaseboundError):
            return verdict
    return NuisanceFit(data=data, cols=cols, fit0=fit0, fit1=fit1)


def mc_nuisance_fits(design: MCDesign, specs: tuple[BasisSpec, ...], replications: int,
                     rng: RngSpec) -> Iterator[tuple[NuisanceFit | CaseboundError, ...]]:
    """Per replicate r, drawn from the stream ("mc-replicate", r), one
    entry per basis: the `NuisanceFit` `fit_nuisances` returns on the draw,
    or the exception it raises.

    The replicates are fitted in blocks (see the module docstring): one
    `fit_logits` call per block and basis fits both strata of every
    replicate, whose verdict is then `_verdict`'s.  A fit's `cols` is a
    view of its block.
    """
    n = design.n_per_stratum
    widths = [1 + int(spec.intercept_safe_mask().sum()) for spec in specs]
    size = max(1, BLOCK_CELLS // (2 * n * max(widths)))
    streams = rng.streams("mc-replicate", 0, replications)
    for _ in range(0, replications, size):
        draws = [draw_mc_sample(design, gen) for gen in islice(streams, size)]
        b = len(draws)
        t = np.array([data.t for data in draws], dtype=float).reshape(2 * b, n)
        per_spec = []
        for spec, k in zip(specs, widths):
            X, W = np.empty((b, 2 * n, k)), np.ones((2 * b, n))
            X[:, :, 0] = 1.0
            refused = {}
            for i, data in enumerate(draws):
                try:
                    X[i, :, 1:] = design_columns(data.x, spec)
                except CaseboundError as exc:
                    refused[i] = exc
                    X[i], W[2 * i:2 * i + 2] = 0.0, 0.0
            fits = fit_logits(t, X.reshape(2 * b, n, k), W)
            # row 2i is replicate i's cases (stratum 1), row 2i + 1 its controls
            per_spec.append([_verdict(data, X[i, :, 1:], refused.get(i), fits.row(2 * i + 1),
                                      fits.row(2 * i)) for i, data in enumerate(draws)])
        yield from zip(*per_spec)


def run_mc_study(design: MCDesign, estimators: tuple[str, ...] = ("parametric", "sieve"),
                 replications: int = 1000, rng: RngSpec = RngSpec(0)) -> MCStudyResult:
    """Replicate the benchmark design and summarize estimator performance.

    Per replicate one sample is drawn and, for each named estimator, one
    pair of stratum fits yields both stratum aggregates with the combined
    (interacted-fit) standard errors.  The fits come from
    `mc_nuisance_fits`, one Newton call per block of replicates and
    estimator, so the study holds one block's designs at a time.
    Replicates where a fit or a read-out fails are dropped per estimator
    and counted by exception class; an estimator that keeps none gets NaN
    statistics, without a warning.  Each estimator is named at most once,
    and replications lie in 100..MAX_REPLICATIONS, checked before any draw.
    """
    if replications < 100:
        raise ValidationError("use at least 100 replications")
    if replications > MAX_REPLICATIONS:
        raise ValidationError(f"use at most {MAX_REPLICATIONS} replications")
    if not estimators:
        raise ValidationError("name at least one estimator")
    repeated = sorted(name for name in set(estimators) if estimators.count(name) > 1)
    if repeated:
        raise ValidationError(f"estimators named more than once: {repeated}")
    unknown = set(estimators) - set(_SPEC_BUILDERS)
    if unknown:
        raise ValidationError(f"unknown estimators: {sorted(unknown)}")
    specs = tuple(_SPEC_BUILDERS[name](design) for name in estimators)
    values = {(name, y): [] for name in estimators for y in (0, 1)}
    ses = {(name, y): [] for name in estimators for y in (0, 1)}
    failures = {name: Counter() for name in estimators}
    for replicate in mc_nuisance_fits(design, specs, replications, rng):
        for name, nuis in zip(estimators, replicate):
            try:
                if isinstance(nuis, CaseboundError):
                    raise nuis
                fits = [estimate_beta_combined(nuis, y) for y in (0, 1)]
            except CaseboundError as exc:
                failures[name][type(exc).__name__] += 1
                continue
            for est in fits:
                values[(name, est.y_stratum)].append(est.value)
                ses[(name, est.y_stratum)].append(est.se)
        # held past a block's last replicate, a fit would keep its block
        # alive through the next block's fits
        del replicate, nuis

    estimates = {key: (np.asarray(values[key]), np.asarray(ses[key])) for key in values}
    z = float(ndtri(0.95))
    cells = []
    for name in estimators:
        for y in (0, 1):
            truth = design.true_beta(y)
            v, s = estimates[(name, y)]
            if not v.size:
                # numpy's mean of an empty array would warn
                cells.append(MCCellSummary(name, y, truth, 0, failures[name].total(),
                                           **_NO_STATISTICS))
                continue
            dev = v - truth
            med = float(_median(v))
            cells.append(MCCellSummary(
                estimator=name, y_stratum=y, truth=truth,
                n_replicates=v.size, n_failed=failures[name].total(),
                mean_bias=float(dev.mean()),
                median_bias=float(_median(dev)),
                rmse=float(np.sqrt(np.mean(dev ** 2))),
                mean_abs_dev=float(np.mean(np.abs(dev))),
                median_abs_dev=float(_median(np.abs(dev))),
                mean_abs_dev_from_median=float(np.mean(np.abs(v - med))),
                median_abs_dev_from_median=float(_median(np.abs(v - med))),
                coverage=float(np.mean(truth <= v + z * s)),
            ))
    return MCStudyResult(cells=tuple(cells), estimates=estimates,
                         failures={name: dict(c) for name, c in failures.items()})
