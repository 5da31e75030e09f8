"""Binary logistic maximum likelihood by Newton iterations with step-halving.

This is the numerical workhorse behind every retrospective and prospective
fit in the package.  It is deliberately plain: canonical-link Newton (IRLS)
on the Bernoulli log-likelihood, an intercept added internally, coefficient
covariance equal to the inverse observed information at the optimum, and
no ridge and no penalty, so every fit is the unpenalised maximum likelihood
estimate.  Separation is refused only as far as the coefficients show it:
`SeparationDetected` is raised once max|coef| passes
DEFAULT_SEPARATION_BOUND (250), so a separated fit whose coefficients stop
below that comes back converged (ROADMAP item 2).

Each Newton step factorises the information matrix by Cholesky, which
decides whether it is positive definite, and takes the step from an LU
solve; the covariance is the inverse of the information at the optimum.
These are the LAPACK gufuncs behind ``numpy.linalg.cholesky``, ``solve``
and ``inv``, called directly, because the public functions add about 7
microseconds of argument checks and an errstate per call (2-core x86 VM):
the two calls of an iteration on 1,000 rows and six columns would cost a
sixth of it.  A
gufunc that fails returns NaN instead of raising ``LinAlgError``.  So
information that is not positive definite, a singular solve, or a
non-finite gradient, information matrix or step (a finite but huge
covariate can overflow X'WX) raises `Singular`, and nothing else: the
Newton iterations run under ``np.errstate(over="ignore", invalid="ignore")``,
so the typed error is all a caller sees.

`fit_logit_batch` runs the same Newton rule, with the same two gufuncs
called once on the stack of information matrices, for one shared design
under many frequency-weight rows at once (the bootstrap replicates of one
pattern table), at `fit_logit`'s tolerance, iteration limit and
separation bound.  It has no step-halving and no covariance.  A
row that would need any of them, or would raise anything, leaves the
active set with ``ok`` False instead, so a caller can refit exactly that
row with `fit_logit`; the rows that stay are the same fits to rounding.
It is stricter than `fit_logit` in one place: information whose Cholesky
pivot (a squared diagonal entry of the factor) falls below `PIVOT_FLOOR`
of its diagonal also leaves, because a fit that converges on a flat
ridge there is not reproducible to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg as _linalg

from .errors import NotConverged, SeparationDetected, Singular, ValidationError
from .special import expit

__all__ = ["LogitFit", "fit_logit", "fit_logit_batch"]

DEFAULT_TOL_SCALE = 1e-8
DEFAULT_MAX_ITER = 100
DEFAULT_SEPARATION_BOUND = 250.0
# a batched Cholesky pivot below this share of its diagonal leaves the
# batch: near separation or collinearity the optimum sits on a flat ridge
# whose coefficients move with the last bit of 1 - p, so two summation
# orders agree only to about 1e-8 there, against 1e-14 above this floor
PIVOT_FLOOR = 1e-6


@dataclass(frozen=True)
class LogitFit:
    """Fitted logistic model.

    coef[0] is the intercept, coef[1:] the slopes in design-column order.
    cov is the inverse observed information at the optimum.
    """

    coef: np.ndarray
    cov: np.ndarray
    iterations: int
    loglik: float

    def __post_init__(self):
        self.coef.setflags(write=False)
        self.cov.setflags(write=False)

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Fitted success probabilities at new rows (intercept added here)."""
        design = np.atleast_2d(np.asarray(design, dtype=float))
        return expit(self.coef[0] + design @ self.coef[1:])


def _loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray):
    # sum w * [t*eta - log(1 + exp(eta))] along the last axis, stable at
    # large |eta|: a scalar for one fit, one value per weight row for a batch
    return (w * (t * eta - np.logaddexp(0.0, eta))).sum(axis=-1)


def fit_logit(response: np.ndarray, design: np.ndarray,
              weights: np.ndarray | None = None) -> LogitFit:
    """Maximize the Bernoulli log-likelihood of response given [1, design].

    Parameters
    ----------
    response : binary array of length n.
    design : (n, J) matrix of slope columns; the intercept is added here.
    weights : optional nonnegative frequency weights.

    Converged once the gradient max-norm is <= DEFAULT_TOL_SCALE * n
    (n = total weight) and one polish step has run; SeparationDetected once
    max|coef| exceeds DEFAULT_SEPARATION_BOUND, the only separation test
    (a separated fit that converges below it is returned).  The result is
    a deterministic function of the inputs.
    """
    t = np.asarray(response, dtype=float)
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    n = t.shape[0]
    if design.shape[0] != n:
        raise ValidationError("response and design row counts differ")
    if not ((t == 0) | (t == 1)).all():
        raise ValidationError("response must be binary")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != t.shape or (w < 0).any() or not np.isfinite(w).all():
            raise ValidationError("weights must be nonnegative finite, one per row")
    wt_total = float(w.sum())
    pos = float((w * t).sum())
    if pos <= 0 or pos >= wt_total:
        raise ValidationError("both response classes must be present")
    ncol = design.shape[1] + 1
    if wt_total <= ncol - 1:
        raise ValidationError(f"need n > J ({wt_total} rows, J={ncol - 1})")
    X = np.column_stack([np.ones(n), design])
    if not np.isfinite(X).all():
        raise ValidationError("design contains non-finite values")

    bound = DEFAULT_SEPARATION_BOUND
    coef = np.zeros(ncol)
    eta = X @ coef
    ll = _loglik(eta, t, w)
    tol = DEFAULT_TOL_SCALE * wt_total
    polished = False
    # an overflow in X'WX or the step, and a failed factorisation or solve,
    # are reported by the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            p = expit(eta)
            grad = X.T @ (w * (t - p))
            sw = w * p * (1.0 - p)
            info = (X * sw[:, None]).T @ X
            if not np.isfinite(info).all():
                raise Singular("observed information is not finite")
            if not np.isfinite(grad).all():
                raise Singular("gradient is not finite")
            if np.isnan(_linalg.cholesky_lo(info)[-1, -1]):
                raise Singular("observed information is not invertible")
            if abs(grad).max() <= tol:
                if abs(coef).max() > bound:
                    raise SeparationDetected(
                        f"coefficients exceeded {bound:g}; data look separated")
                if polished:
                    cov = _linalg.inv(info)
                    if not np.isfinite(cov).all():
                        raise Singular("observed information is not invertible")
                    cov = 0.5 * (cov + cov.T)
                    return LogitFit(coef=coef, cov=cov, iterations=it - 1,
                                    loglik=float(ll))
                # one extra Newton step sharpens the optimum well past tol
                polished = True
            step = _linalg.solve1(info, grad)
            if not np.isfinite(step).all():
                raise Singular("Newton step is not finite")
            # step-halving keeps the log-likelihood non-decreasing
            scale = 1.0
            for _ in range(40):
                cand = coef + scale * step
                eta_c = X @ cand
                ll_c = _loglik(eta_c, t, w)
                if ll_c >= ll - 1e-12 * max(1.0, abs(ll)):
                    break
                scale *= 0.5
            coef, eta, ll = cand, eta_c, ll_c
            if abs(coef).max() > bound:
                raise SeparationDetected(
                    f"coefficients exceeded {bound:g}; data look separated")
    raise NotConverged(f"no convergence in {DEFAULT_MAX_ITER} Newton iterations")


def _rowwise(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # (m, n) by (c, n) -> (m, c): every output is one contiguous sum of
    # elementwise products, so a row's result does not depend on which
    # other rows share the call
    return (a[:, None, :] * cols).sum(axis=-1)


def fit_logit_batch(response: np.ndarray, X: np.ndarray,
                    W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fit_logit` of one response on one design under every weight row.

    Parameters
    ----------
    response : binary array of length n.
    X : (n, k) design, the intercept column included.
    W : (B, n) nonnegative frequency weights, one row per fit; zeros drop
        a row from that fit.

    Returns the (B, k) coefficients and a (B,) mask `ok`.  A fit is ok
    when it converges by `fit_logit`'s test, polish step included, taking
    every full Newton step (accepted as there, up to 1e-12 of the
    log-likelihood).  It is not ok, and its coefficients are zeros, when
    `fit_logit` would raise (one response class, total weight <= J, a
    non-finite design, information, gradient or step, information that is
    not positive definite, the separation bound, no convergence) or would
    halve a step, and also when a Cholesky pivot of the information falls
    below PIVOT_FLOOR times its diagonal, as it does for a column constant
    on the row's support.  Nothing is raised for a single fit.
    """
    t = np.asarray(response, dtype=float)
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    n, k = X.shape
    if t.shape != (n,) or W.ndim != 2 or W.shape[1] != n:
        raise ValidationError("response, design and weight rows differ in length")
    if not ((t == 0) | (t == 1)).all():
        raise ValidationError("response must be binary")
    if (W < 0).any() or not np.isfinite(W).all():
        raise ValidationError("weights must be nonnegative finite, one per row")
    coef = np.zeros((W.shape[0], k))
    ok = np.zeros(W.shape[0], dtype=bool)
    wt_total = W.sum(axis=1)
    pos = (W * t).sum(axis=1)
    live = (pos > 0) & (pos < wt_total) & (wt_total > k - 1) & np.isfinite(X).all()
    rows = np.flatnonzero(live)
    w = W[rows]
    b = coef[rows]
    eta = np.zeros_like(w)
    ll = _loglik(eta, t, w)
    tol = DEFAULT_TOL_SCALE * wt_total[rows]
    polished = np.zeros(rows.size, dtype=bool)
    Xt = np.ascontiguousarray(X.T)
    with np.errstate(over="ignore", invalid="ignore"):
        outer = (X[:, :, None] * X[:, None, :]).reshape(n, k * k).T.copy()
        for _ in range(DEFAULT_MAX_ITER):
            if rows.size == 0:
                break
            p = expit(eta)
            grad = _rowwise(w * (t - p), Xt)
            info = _rowwise(w * p * (1.0 - p), outer).reshape(-1, k, k)
            # a factor is NaN where the factorisation failed, and fails the floor
            pivots = np.diagonal(_linalg.cholesky_lo(info), axis1=1, axis2=2) ** 2
            fine = ((pivots > PIVOT_FLOOR * np.diagonal(info, axis1=1, axis2=2)).all(axis=1)
                    & np.isfinite(info).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1))
            step = _linalg.solve1(info, grad)
            conv = abs(grad).max(axis=1) <= tol
            fine &= ~conv | (abs(b).max(axis=1) <= DEFAULT_SEPARATION_BOUND)
            done = fine & conv & polished
            coef[rows[done]] = b[done]
            ok[rows[done]] = True
            # one extra Newton step sharpens the optimum well past tol
            polished |= conv
            cand = b + step
            eta_c = _rowwise(cand, X)
            ll_c = _loglik(eta_c, t, w)
            fine &= (np.isfinite(step).all(axis=1)
                     & (ll_c >= ll - 1e-12 * np.maximum(1.0, abs(ll)))
                     & (abs(cand).max(axis=1) <= DEFAULT_SEPARATION_BOUND))
            go = fine & ~done
            rows, w, b, eta, ll = rows[go], w[go], cand[go], eta_c[go], ll_c[go]
            tol, polished = tol[go], polished[go]
    return coef, ok
