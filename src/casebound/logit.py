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

One Newton loop, `_newton`, fits one design under a stack of weight rows.
Each row halves its own steps and leaves with its own status: ok, or the
reason `fit_logit` would raise (`_FAILURES`).  The information (X' * sw) @ X,
the gradient and the linear predictor are stacked products, one BLAS call
per row, so a row's fit does not depend on which rows share the call.
`fit_logit` is the loop on one row, `fit_logit_batch` on many (bootstrap
replicates).  The Cholesky test, the step and the covariance are the LAPACK
gufuncs behind ``numpy.linalg.cholesky``, ``solve`` and ``inv``, called
directly to skip about 7 us of checks per call (2-core x86 VM).  A failed gufunc
returns NaN, and the loop runs under ``np.errstate(over="ignore",
invalid="ignore")``: information that is not positive definite, or a
non-finite gradient, information or step (a huge covariate can overflow
X'WX), fails the row as `Singular`, the only error a caller sees.

`PIVOT_FLOOR` decides only whether a batched row stays on the common path:
it is ok only when every Cholesky pivot of its information at the optimum
clears PIVOT_FLOOR of its diagonal.  Below that the optimum sits on a flat
ridge that is not reproducible to rounding, and the caller refits it alone.
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
# near separation or collinearity the optimum sits on a flat ridge whose
# coefficients move with the last bit of 1 - p: two summation orders agree
# to about 1e-8 there, against 1e-14 above this pivot floor
PIVOT_FLOOR = 1e-6

# a row's status: 0 once converged, else an index into _FAILURES, the
# exception fit_logit raises for that reason
_FAILURES = (None, (Singular, "observed information is not finite"),
             (Singular, "gradient is not finite"),
             (Singular, "observed information is not invertible"),
             (Singular, "Newton step is not finite"),
             (SeparationDetected,
              f"coefficients exceeded {DEFAULT_SEPARATION_BOUND:g}; data look separated"),
             (NotConverged, f"no convergence in {DEFAULT_MAX_ITER} Newton iterations"),
             (ValidationError, "need both response classes and total weight > J"))
_INFO, _GRAD, _NOT_PD, _STEP, _SEPARATED, _NOT_CONVERGED, _INVALID = range(1, 8)
# a row's status before a step, by the first test it fails in order; -1 stays
_LEAVE_CODES = np.array([_INFO, _GRAD, _NOT_PD, 0, _STEP, -1], dtype=np.int8)


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


def _loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    # sum w * [t*eta - log(1 + exp(eta))] per weight row, stable at large |eta|
    return (w * (t * eta - np.logaddexp(0.0, eta))).sum(axis=-1)


def _newton(t: np.ndarray, X: np.ndarray, W: np.ndarray):
    """Fits of the binary t on the (n, k) design X (intercept included) under
    each row of the (m, n) weights W, each with both classes and total weight
    > k - 1: the (m, k) coefficients, (m,) statuses, and the information,
    log-likelihood and Newton steps at the optimum, valid where the status
    is 0.  A fit converges once max|gradient| <= DEFAULT_TOL_SCALE * total
    weight and one polish step has run."""
    m, k = W.shape[0], X.shape[1]
    coef, info_at = np.zeros((m, k)), np.zeros((m, k, k))
    ll_at, steps, status = np.zeros(m), np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.int8)
    t, rows = t[None], np.arange(m)  # t as a row: one fit's products do not broadcast
    w, b, eta = W, np.zeros((m, k)), np.zeros(W.shape)
    ll = _loglik(eta, t, w)
    tol, polished = DEFAULT_TOL_SCALE * W.sum(axis=1), np.zeros(m, dtype=bool)
    Xt = np.ascontiguousarray(X.T)
    # overflows and failed gufuncs are caught by the finiteness test, and
    # count_nonzero is the cheapest test of a mask
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            p = expit(eta)
            grad = ((w * (t - p))[:, None, :] @ X)[:, 0]
            info = (Xt * (w * p * (1.0 - p))[:, None, :]) @ X
            factor = _linalg.cholesky_lo(info)
            step = _linalg.solve1(info, grad)
            conv = abs(grad).max(axis=1) <= tol
            done = conv & polished
            # one extra Newton step sharpens the optimum well past tol
            polished |= conv
            # a failed factor is NaN, a non-finite information or gradient entry
            # leaves one in the factor or the step; the exact tests clear overflows
            bad = ~np.isfinite(factor.sum(axis=(1, 2)) + step.sum(axis=1))
            leave = done | bad
            if np.count_nonzero(leave):
                if np.count_nonzero(bad):
                    code = _LEAVE_CODES[np.array([
                        ~np.isfinite(info).all(axis=(1, 2)), ~np.isfinite(grad).all(axis=1),
                        np.isnan(factor[:, -1, -1]), done, ~np.isfinite(step).all(axis=1),
                        np.ones_like(done)]).argmax(axis=0)]
                    leave = code >= 0
                    status[rows[leave]] = code[leave]
                out = rows[leave]
                coef[out], info_at[out], ll_at[out], steps[out] = (
                    b[leave], info[leave], ll[leave], it - 1)
                if out.size == rows.size:
                    break
                rows, w, tol, b, eta, ll, polished, step = (a[~leave] for a in (
                    rows, w, tol, b, eta, ll, polished, step))
            # step-halving keeps each row's log-likelihood non-decreasing
            cand = b + step
            eta_c = (cand[:, None, :] @ Xt)[:, 0]
            ll_c = _loglik(eta_c, t, w)
            # a step that does not lower the log-likelihood needs no threshold
            short = ~(ll_c >= ll)
            if np.count_nonzero(short):
                least = ll - 1e-12 * np.maximum(1.0, abs(ll))
                short = ~(ll_c >= least)
                for halvings in range(1, 40):
                    if not np.count_nonzero(short):
                        break
                    h = np.flatnonzero(short)
                    cand[h] = b[h] + 0.5 ** halvings * step[h]
                    eta_c[h] = (cand[h, None, :] @ Xt)[:, 0]
                    ll_c[h] = _loglik(eta_c[h], t, w[h])
                    short[h] = ~(ll_c[h] >= least[h])
            b, eta, ll = cand, eta_c, ll_c
            if abs(b).max() > DEFAULT_SEPARATION_BOUND:
                sep = abs(b).max(axis=1) > DEFAULT_SEPARATION_BOUND
                status[rows[sep]] = _SEPARATED
                if sep.all():
                    break
                rows, w, tol, b, eta, ll, polished = (
                    a[~sep] for a in (rows, w, tol, b, eta, ll, polished))
        else:
            status[rows] = _NOT_CONVERGED
    return coef, status, info_at, ll_at, steps


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
    wt_total, pos = float(w.sum()), float((w * t).sum())
    if pos <= 0 or pos >= wt_total:
        raise ValidationError("both response classes must be present")
    if wt_total <= design.shape[1]:
        raise ValidationError(f"need n > J ({wt_total} rows, J={design.shape[1]})")
    X = np.column_stack([np.ones(n), design])
    if not np.isfinite(X).all():
        raise ValidationError("design contains non-finite values")

    coef, status, info, ll, steps = _newton(t, X, w[None])
    if status[0]:
        exc, message = _FAILURES[status[0]]
        raise exc(message)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _linalg.inv(info[0])
    if not np.isfinite(cov).all():
        raise Singular(_FAILURES[_NOT_PD][1])
    return LogitFit(coef=coef[0], cov=0.5 * (cov + cov.T), iterations=int(steps[0]),
                    loglik=float(ll[0]))


def _fit_rows(t: np.ndarray, X: np.ndarray, W: np.ndarray):
    """`fit_logit_batch` on checked arrays, with each row's status (_INVALID
    where fit_logit refuses the input) between the coefficients and ok."""
    m, k = W.shape[0], X.shape[1]
    wt_total, pos = W.sum(axis=1), (W * t).sum(axis=1)
    rows = np.flatnonzero((pos > 0) & (pos < wt_total) & (wt_total > k - 1)
                          & np.isfinite(X).all())
    coef, info = np.zeros((m, k)), np.zeros((m, k, k))
    status = np.full(m, _INVALID, dtype=np.int8)
    if rows.size:
        coef[rows], status[rows], info[rows] = _newton(t, X, W[rows])[:3]
    ok = status == 0
    pivots = np.diagonal(_linalg.cholesky_lo(info[ok]), axis1=1, axis2=2) ** 2
    ok[ok] = (pivots > PIVOT_FLOOR * np.diagonal(info[ok], axis1=1, axis2=2)).all(axis=1)
    coef[~ok] = 0.0
    return coef, status, ok


def fit_logit_batch(response: np.ndarray, X: np.ndarray,
                    W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fit_logit` of one response on the (n, k) design X, intercept column
    included, under every row of the (B, n) nonnegative frequency weights W
    (a zero drops a row from that fit).  Returns the (B, k) coefficients and
    a (B,) mask `ok`: True where `fit_logit` would converge and every
    Cholesky pivot of the information at the optimum clears PIVOT_FLOOR
    times its diagonal, which a column constant on the row's support does
    not.  A row that is not ok has zero coefficients; nothing is raised for
    a single fit."""
    t, X, W = (np.asarray(a, dtype=float) for a in (response, X, W))
    n, _ = X.shape
    if t.shape != (n,) or W.ndim != 2 or W.shape[1] != n:
        raise ValidationError("response, design and weight rows differ in length")
    if not ((t == 0) | (t == 1)).all():
        raise ValidationError("response must be binary")
    if (W < 0).any() or not np.isfinite(W).all():
        raise ValidationError("weights must be nonnegative finite, one per row")
    coef, _, ok = _fit_rows(t, X, W)
    return coef, ok
