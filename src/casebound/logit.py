"""Binary logistic maximum likelihood by Newton iterations with step-halving.

This is the numerical workhorse behind every retrospective and prospective
fit in the package.  It is deliberately plain: canonical-link Newton (IRLS)
on the Bernoulli log-likelihood, an intercept added internally, coefficient
covariance equal to the inverse observed information at the optimum, and a
hard error on separation instead of silent shrinkage (an opt-in 1e-8 ridge
is available and flagged in the result).

Each Newton step factorises the information matrix with LAPACK's ``dpotrf``
and solves with ``dpotrs``, called directly with the arguments that
``scipy.linalg.cho_factor``/``cho_solve`` pass them, so the factor and every
solve are the same to the last bit; skipping the wrappers' argument handling
is what keeps a fit of a few collapsed rows cheap.  A non-finite gradient or
information matrix (a finite but huge covariate can overflow X'WX) raises
`Singular` rather than an untyped error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .errors import NotConverged, SeparationDetected, Singular, ValidationError

__all__ = ["LogitFit", "fit_logit"]

DEFAULT_TOL_SCALE = 1e-8
DEFAULT_MAX_ITER = 100
DEFAULT_SEPARATION_BOUND = 250.0
RIDGE = 1e-8


@dataclass(frozen=True)
class LogitFit:
    """Fitted logistic model.

    coef[0] is the intercept, coef[1:] the slopes in design-column order.
    cov is the inverse observed information at the optimum.
    """

    coef: np.ndarray
    cov: np.ndarray
    converged: bool
    iterations: int
    loglik: float
    ridge_used: bool = False

    def __post_init__(self):
        self.coef.setflags(write=False)
        self.cov.setflags(write=False)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Fitted success probabilities at new rows (intercept added here)."""
        design = np.atleast_2d(np.asarray(design, dtype=float))
        return expit(self.coef[0] + design @ self.coef[1:])


def _loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray) -> float:
    # sum w * [t*eta - log(1 + exp(eta))], stable at large |eta|
    return float((w * (t * eta - np.logaddexp(0.0, eta))).sum())


def _solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve info @ x = rhs from dpotrf's upper factor."""
    x, status = dpotrs(chol, rhs, lower=False)
    if status != 0:
        raise RuntimeError(f"dpotrs: illegal value in argument {-status}")
    return x


def fit_logit(response: np.ndarray, design: np.ndarray,
              weights: np.ndarray | None = None, *,
              tol_scale: float = DEFAULT_TOL_SCALE,
              max_iter: int = DEFAULT_MAX_ITER,
              separation_bound: float = DEFAULT_SEPARATION_BOUND,
              ridge_on_separation: bool = False) -> LogitFit:
    """Maximize the Bernoulli log-likelihood of response given [1, design].

    Parameters
    ----------
    response : binary array of length n.
    design : (n, J) matrix of slope columns; the intercept is added here.
    weights : optional nonnegative frequency weights.
    tol_scale : convergence when the gradient max-norm is <= tol_scale * n
        (n = total weight).
    separation_bound : SeparationDetected once max|coef| exceeds this,
        unless `ridge_on_separation` restarts the fit with a 1e-8 ridge.

    The result is a deterministic function of the inputs.
    """
    t = np.asarray(response, dtype=float)
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    n = t.shape[0]
    if design.shape[0] != n:
        raise ValidationError("response and design row counts differ")
    if not np.all((t == 0) | (t == 1)):
        raise ValidationError("response must be binary")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != t.shape or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be nonnegative finite, one per row")
    wt_total = float(w.sum())
    pos = float((w * t).sum())
    if pos <= 0 or pos >= wt_total:
        raise ValidationError("both response classes must be present")
    ncol = design.shape[1] + 1
    if wt_total <= ncol - 1:
        raise ValidationError(f"need n > J ({wt_total} rows, J={ncol - 1})")
    X = np.column_stack([np.ones(n), design])
    if not np.all(np.isfinite(X)):
        raise ValidationError("design contains non-finite values")

    def newton(ridge: float, bound: float) -> LogitFit:
        coef = np.zeros(ncol)
        eta = X @ coef
        ll = _loglik(eta, t, w) - 0.5 * ridge * coef @ coef
        tol = tol_scale * wt_total
        polished = False
        for it in range(1, max_iter + 1):
            p = expit(eta)
            grad = X.T @ (w * (t - p)) - ridge * coef
            sw = w * p * (1.0 - p)
            info = (X * sw[:, None]).T @ X
            if ridge > 0:
                info += ridge * np.eye(ncol)
            if not np.isfinite(info).all():
                raise Singular("observed information is not finite")
            if not np.isfinite(grad).all():
                raise Singular("gradient is not finite")
            chol, status = dpotrf(info, lower=False, overwrite_a=False, clean=False)
            if status > 0:
                raise Singular("observed information is not invertible")
            if status < 0:
                raise RuntimeError(f"dpotrf: illegal value in argument {-status}")
            if abs(grad).max() <= tol:
                if abs(coef).max() > bound:
                    raise SeparationDetected(
                        f"coefficients exceeded {bound:g}; data look separated")
                if polished:
                    cov = _solve(chol, np.eye(ncol))
                    cov = 0.5 * (cov + cov.T)
                    return LogitFit(coef=coef, cov=cov, converged=True,
                                    iterations=it - 1, loglik=ll,
                                    ridge_used=ridge > 0)
                # one extra Newton step sharpens the optimum well past tol
                polished = True
            step = _solve(chol, grad)
            if not np.isfinite(step).all():
                raise Singular("Newton step is not finite")
            # step-halving keeps the log-likelihood non-decreasing
            scale = 1.0
            for _ in range(40):
                cand = coef + scale * step
                eta_c = X @ cand
                ll_c = _loglik(eta_c, t, w) - 0.5 * ridge * cand @ cand
                if ll_c >= ll - 1e-12 * max(1.0, abs(ll)):
                    break
                scale *= 0.5
            coef, eta, ll = cand, eta_c, ll_c
            if abs(coef).max() > bound:
                raise SeparationDetected(
                    f"coefficients exceeded {bound:g}; data look separated")
        raise NotConverged(f"no convergence in {max_iter} Newton iterations")

    try:
        return newton(0.0, separation_bound)
    except SeparationDetected:
        if not ridge_on_separation:
            raise
        # the ridge guarantees a finite optimum, so the bound is lifted
        return newton(RIDGE, np.inf)
