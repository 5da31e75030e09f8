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

One check, `_checked`, raises what no weight row can be fitted on: lengths
that differ, a non-binary response, negative or non-finite weights, a
non-finite design.  One Newton loop, `_newton`, fits a stack of weight
rows and gives every other refusal as a row status, the reason `fit_logit`
would raise (`_FAILURES`): one response class or total weight <= J, set
before the loop so that only the other rows iterate, then separation, a
failed factorisation or step, or no convergence.  The response and design
come in one of two layouts: shared by every weight row, (n,) and (n, k),
or stacked, one per row, (m, n) and (m, n, k), so that each bootstrap
replicate is fitted on its own rows.  `_checked` gives both a leading row
axis, of length one when shared, and the loop compacts a per-row array
with the weights as rows leave it (`_by_row`).  The front ends differ
only in raising a status (`fit_logit`, one row) or returning it
(`fit_logit_batch`, bootstrap replicates); `status_error` turns a
returned status into the exception `fit_logit` raises for it.  Each row
halves its own steps; the information (X' * sw) @ X, the gradient and the
linear predictor are stacked products, one BLAS call per row, so a row's
fit does not depend on which rows share the call.  The log-likelihood's
log(1 + exp(eta)) is max(eta, 0) + log1p(exp(-|eta|)), which is
``np.logaddexp(0, eta)`` to an ulp or two without numpy's scalar loop for
it: 0.13 ms against 0.77 ms on a (32, 660) array (2-core x86 VM).
The Cholesky test, the step and the covariance are the LAPACK gufuncs
behind ``numpy.linalg.cholesky``, ``solve`` and ``inv``, called directly
to skip about 7 us of checks per call (2-core x86 VM).  A failed gufunc
returns NaN, and the loop runs under ``np.errstate(over="ignore",
invalid="ignore")``: information that is not positive definite, or a
non-finite gradient, information or step (a huge covariate can overflow
X'WX), fails the row as `Singular`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg as _linalg

from .errors import (CaseboundError, NotConverged, SeparationDetected, Singular,
                     ValidationError)
from .special import expit

__all__ = ["LogitFit", "fit_logit", "fit_logit_batch", "status_error"]

DEFAULT_TOL_SCALE = 1e-8
DEFAULT_MAX_ITER = 100
DEFAULT_SEPARATION_BOUND = 250.0

# a row's status: 0 once converged, else an index into _FAILURES, the
# exception fit_logit raises for that reason
_FAILURES = (None, (SeparationDetected,
                    f"coefficients exceeded {DEFAULT_SEPARATION_BOUND:g}; data look separated"),
             (Singular, "observed information is not finite"),
             (Singular, "gradient is not finite"),
             (Singular, "observed information is not invertible"),
             (Singular, "Newton step is not finite"),
             (NotConverged, f"no convergence in {DEFAULT_MAX_ITER} Newton iterations"),
             (ValidationError, "both response classes must be present"),
             (ValidationError, "need total weight > J"))
_SEPARATED, _INFO, _GRAD, _NOT_PD, _STEP, _NOT_CONVERGED, _ONE_CLASS, _TOO_FEW = range(1, 9)
# a row's status before a step, by the first test it fails in order; -1 stays
_LEAVE_CODES = np.array([_SEPARATED, _INFO, _GRAD, _NOT_PD, 0, _STEP, -1], dtype=np.int8)


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


def _softplus(eta: np.ndarray) -> np.ndarray:
    # log(1 + exp(eta)), stable at large |eta|: np.logaddexp(0, eta) to an ulp
    # or two, without its scalar loop (see the module docstring)
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-abs(eta)))


def _loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    # sum w * [t*eta - log(1 + exp(eta))] per weight row
    return (w * (t * eta - _softplus(eta))).sum(axis=-1)


def _by_row(a: np.ndarray, rows) -> np.ndarray:
    # a per-row array at the given rows; one leading row is shared by all rows
    return a if a.shape[0] == 1 else a[rows]


def _separated(b: np.ndarray) -> np.ndarray:
    # the separation rule, on each row of coefficients
    return abs(b).max(axis=1) > DEFAULT_SEPARATION_BOUND


def _checked(response, X, W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (m, n) weight rows W, and the response and design (intercept
    included) either shared by every row, (n,) and (n, k), or stacked, one
    per row, (m, n) and (m, n, k), as float arrays with a leading row axis
    (one row when shared); or the ValidationError both front ends raise."""
    t, X, W = (np.asarray(a, dtype=float) for a in (response, X, W))
    stacked = X.ndim == 3
    if not stacked:
        t, X = t[None], X[None]
    if (X.ndim != 3 or t.shape != X.shape[:2] or W.ndim != 2 or W.shape[1] != X.shape[1]
            or stacked and W.shape[0] != X.shape[0]):
        raise ValidationError("response, design and weight rows differ in length")
    if not ((t == 0) | (t == 1)).all():
        raise ValidationError("response must be binary")
    if (W < 0).any() or not np.isfinite(W).all():
        raise ValidationError("weights must be nonnegative finite, one per row")
    if not np.isfinite(X).all():
        raise ValidationError("design contains non-finite values")
    return t, X, W


def _newton(t: np.ndarray, X: np.ndarray, W: np.ndarray):
    """Fits of the checked binary t on the design X (intercept included)
    under each row of the (m, n) weights W, t and X as `_checked` returns
    them, one leading row shared by every fit or one per fit: the (m, k)
    coefficients, (m,) statuses, and the information, log-likelihood and
    Newton steps at the optimum, valid where the status is 0.  A fit
    converges once max|gradient| <= DEFAULT_TOL_SCALE * total weight and one
    polish step has run."""
    m, k = W.shape[0], X.shape[2]
    coef, info_at = np.zeros((m, k)), np.zeros((m, k, k))
    ll_at, steps, status = np.zeros(m), np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.int8)
    total, pos = W.sum(axis=1), (W * t).sum(axis=1)
    status[total <= k - 1] = _TOO_FEW
    status[(pos <= 0) | (pos >= total)] = _ONE_CLASS
    rows, w, tol = np.arange(m), W, DEFAULT_TOL_SCALE * total
    if np.count_nonzero(status):  # copy only when some row is refused
        rows = np.flatnonzero(status == 0)
        if not rows.size:
            return coef, status, info_at, ll_at, steps
        w, tol, t, X = W[rows], tol[rows], _by_row(t, rows), _by_row(X, rows)
    b, eta = np.zeros((rows.size, k)), np.zeros(w.shape)
    ll, polished = _loglik(eta, t, w), np.zeros(rows.size, dtype=bool)
    Xt = np.ascontiguousarray(X.transpose(0, 2, 1))
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
            # one scalar max spares the row-wise test while no row is separated
            if abs(b).max() > DEFAULT_SEPARATION_BOUND:
                bad |= _separated(b)
            leave = done | bad
            if np.count_nonzero(leave):
                if np.count_nonzero(bad):
                    code = _LEAVE_CODES[np.array([
                        _separated(b), ~np.isfinite(info).all(axis=(1, 2)),
                        ~np.isfinite(grad).all(axis=1), np.isnan(factor[:, -1, -1]), done,
                        ~np.isfinite(step).all(axis=1), np.ones_like(done)]).argmax(axis=0)]
                    leave = code >= 0
                    status[rows[leave]] = code[leave]
                out = rows[leave]
                coef[out], info_at[out], ll_at[out], steps[out] = (
                    b[leave], info[leave], ll[leave], it - 1)
                if out.size == rows.size:
                    break
                rows, w, tol, b, eta, ll, polished, step = (a[~leave] for a in (
                    rows, w, tol, b, eta, ll, polished, step))
                t, X, Xt = (_by_row(a, ~leave) for a in (t, X, Xt))
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
                    eta_c[h] = (cand[h, None, :] @ _by_row(Xt, h))[:, 0]
                    ll_c[h] = _loglik(eta_c[h], _by_row(t, h), w[h])
                    short[h] = ~(ll_c[h] >= least[h])
            b, eta, ll = cand, eta_c, ll_c
        else:
            # no loop top follows the last step, so its separation is read here
            status[rows] = np.where(_separated(b), _SEPARATED, _NOT_CONVERGED)
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
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    X = np.column_stack([np.ones(design.shape[0]), design])
    W = np.ones((1, X.shape[0])) if weights is None else np.asarray(weights, dtype=float)[None]
    coef, status, info, ll, steps = _newton(*_checked(response, X, W))
    if status[0]:
        raise status_error(status[0])
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _linalg.inv(info[0])
    if not np.isfinite(cov).all():
        raise status_error(_NOT_PD)
    return LogitFit(coef=coef[0], cov=0.5 * (cov + cov.T), iterations=int(steps[0]),
                    loglik=float(ll[0]))


def status_error(code: int) -> CaseboundError:
    """The exception `fit_logit` raises for a nonzero row status of
    `fit_logit_batch`."""
    exc, message = _FAILURES[code]
    return exc(message)


def fit_logit_batch(response: np.ndarray, X: np.ndarray,
                    W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fit_logit` under every row of the (B, n) nonnegative frequency
    weights W (a zero drops a row from that fit), of one response on the
    (n, k) design X, intercept column included, or of a response and a
    design per weight row, (B, n) and (B, n, k).  Returns the (B, k)
    coefficients and the (B,) statuses: 0 where `fit_logit` would return,
    else the code whose `status_error` is what it would raise.  A row with a
    nonzero status has zero coefficients.  Only `_checked`'s input
    refusals, a non-finite design among them, raise."""
    coef, status = _newton(*_checked(response, X, W))[:2]
    coef[status != 0] = 0.0
    return coef, status
