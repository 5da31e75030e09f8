"""Seedable data-generating processes and the simulation study harness.

Includes the correlated-normal / logistic-treatment benchmark design used
to calibrate the estimators (strata of equal size, five covariates, both
stratum aggregates equal to 0.5 under the defaults), plus exact sampling
from any finite DiscretePopulation under either design.

All draws flow through documented inverse-CDF transforms of generator
uniforms (see rng.py): identical seeds give byte-identical datasets and
summary tables across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

from .basis import BasisSpec
from .errors import CaseboundError, OverlapViolation, ValidationError
from .model import Design, ObservedDataset
from .oracle import DiscretePopulation
from .relative_risk import estimate_beta_combined, fit_nuisances
from .rng import RngSpec, bernoulli, categorical, standard_normals

__all__ = [
    "MCDesign",
    "draw_mc_sample",
    "sample_from_population",
    "MCCellSummary",
    "MCStudyResult",
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

    Y ~ Bernoulli(h0) first; given Y=y, (T, X) is drawn from the stratum law
    the design prescribes (the case-population control stratum uses the
    unconditional (T*, X*) law).
    """
    if not pop.check_assumptions().overlap:
        raise OverlapViolation("population violates overlap on some support cell")
    if not 0.0 <= h0 <= 1.0:
        raise ValidationError("h0 must lie in [0, 1]")
    j = pop.joint_xty  # (cell, t, ystar)
    weights = {1: j[:, :, 1] / j[:, :, 1].sum()}
    if design is Design.CASE_CONTROL:
        weights[0] = j[:, :, 0] / j[:, :, 0].sum()
    else:
        weights[0] = j.sum(axis=2)
    y = bernoulli(gen, np.full(n, h0))
    t = np.zeros(n, dtype=np.int8)
    x = np.zeros((n, pop.support_x.shape[1]))
    for s in (0, 1):
        rows = np.flatnonzero(y == s)
        if rows.size == 0:
            continue
        draws = categorical(gen, weights[s].ravel(), rows.size)
        cells, treats = np.divmod(draws, 2)
        t[rows] = treats.astype(np.int8)
        x[rows] = pop.support_x[cells]
    return ObservedDataset(y=y, t=t, x=x, design=design,
                           h0=h0 if 0.0 < h0 < 1.0 else None)


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


@dataclass(frozen=True)
class MCStudyResult:
    cells: tuple[MCCellSummary, ...]
    estimates: dict | None = None  # (estimator, y) -> (values, ses) when kept

    def cell(self, estimator: str, y_stratum: int) -> MCCellSummary:
        for c in self.cells:
            if c.estimator == estimator and c.y_stratum == y_stratum:
                return c
        raise KeyError((estimator, y_stratum))


_SPEC_BUILDERS = {"parametric": parametric_spec, "sieve": sieve_spec}


def run_mc_study(design: MCDesign, estimators: tuple[str, ...] = ("parametric", "sieve"),
                 replications: int = 1000, rng: RngSpec = RngSpec(0),
                 keep_estimates: bool = False) -> MCStudyResult:
    """Replicate the benchmark design and summarize estimator performance.

    Per replicate one sample is drawn and, for each named estimator, one
    pair of stratum fits yields both stratum aggregates with the combined
    (interacted-fit) standard errors.  Replicates where a fit fails are
    dropped per estimator and counted.
    """
    if replications < 100:
        raise ValidationError("use at least 100 replications")
    unknown = set(estimators) - set(_SPEC_BUILDERS)
    if unknown:
        raise ValidationError(f"unknown estimators: {sorted(unknown)}")
    specs = {name: _SPEC_BUILDERS[name](design) for name in estimators}
    values = {(name, y): [] for name in estimators for y in (0, 1)}
    ses = {(name, y): [] for name in estimators for y in (0, 1)}
    failures = {name: 0 for name in estimators}
    for r in range(replications):
        data = draw_mc_sample(design, rng.derive("mc-replicate", r))
        for name in estimators:
            try:
                nuis = fit_nuisances(data, specs[name])
                fits = [estimate_beta_combined(nuis, y) for y in (0, 1)]
            except CaseboundError:
                failures[name] += 1
                continue
            for est in fits:
                values[(name, est.y_stratum)].append(est.value)
                ses[(name, est.y_stratum)].append(est.se)

    z = float(ndtri(0.95))
    cells = []
    for name in estimators:
        for y in (0, 1):
            truth = design.true_beta(y)
            v = np.asarray(values[(name, y)])
            s = np.asarray(ses[(name, y)])
            dev = v - truth
            med = float(np.median(v))
            cells.append(MCCellSummary(
                estimator=name, y_stratum=y, truth=truth,
                n_replicates=v.size, n_failed=failures[name],
                mean_bias=float(dev.mean()),
                median_bias=float(np.median(dev)),
                rmse=float(np.sqrt(np.mean(dev ** 2))),
                mean_abs_dev=float(np.mean(np.abs(dev))),
                median_abs_dev=float(np.median(np.abs(dev))),
                mean_abs_dev_from_median=float(np.mean(np.abs(v - med))),
                median_abs_dev_from_median=float(np.median(np.abs(v - med))),
                coverage=float(np.mean(truth <= v + z * s)),
            ))
    kept = None
    if keep_estimates:
        kept = {key: (np.asarray(values[key]), np.asarray(ses[key])) for key in values}
    return MCStudyResult(cells=tuple(cells), estimates=kept)
