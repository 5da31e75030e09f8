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
failed factorisation or step, or no convergence.  Every weight row has its
own response and design, (m, n) and (m, n, k), so that each bootstrap
replicate and each MC stratum is fitted on its own rows.  The loop holds
that one design array and compacts it with the weights as rows leave.
`fit_logits`, the one front end, returns the stack as arrays (`LogitFits`)
and holds the one covariance read-out: inv(information) at the optimum,
`Singular` where that inverse is not finite, then 0.5 (cov + cov').
`LogitFits.row` gives a row as `fit_logit` (`fit_logits` on a stack of
one) returns or raises it.  Each row halves its own steps; the information
X' @ (X * sw), with X' a transposed view, the gradient and the linear
predictor X @ b are stacked products, one BLAS call per row, so a row's
fit does not depend on which rows share the call.  The
log-likelihood's log(1 + exp(eta)) is max(eta, 0) + log1p(exp(-|eta|)),
which is ``np.logaddexp(0, eta)`` to an ulp or two without numpy's scalar
loop for it: 0.13 ms against 0.77 ms on a (32, 660) array (2-core x86 VM).
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
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg as _linalg

from .errors import (CaseboundError, NotConverged, SeparationDetected, Singular,
                     ValidationError)
from .special import expit

__all__ = ["LogitFit", "LogitFits", "fit_logit", "fit_logits", "status_error"]

DEFAULT_TOL_SCALE = 1e-8
DEFAULT_MAX_ITER = 100
DEFAULT_SEPARATION_BOUND = 250.0
# the most (fit x row x column) cells a caller stacks into one block of
# fits: the bound on a block's design array, 1 MiB of float64
BLOCK_CELLS = 1 << 17

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


class LogitFits(NamedTuple):
    """The arrays of `fit_logits`, one row per fit: a status is 0, or the
    code whose `status_error` `fit_logit` would raise, with zero coef and cov."""

    coef: np.ndarray
    cov: np.ndarray
    status: np.ndarray
    steps: np.ndarray
    loglik: np.ndarray

    def row(self, i: int) -> LogitFit | CaseboundError:
        """Row i as `fit_logit` gives it: its `LogitFit`, or what it raises."""
        if self.status[i]:
            return status_error(self.status[i])
        return LogitFit(coef=self.coef[i], cov=self.cov[i], iterations=int(self.steps[i]),
                        loglik=float(self.loglik[i]))


def _softplus(eta: np.ndarray) -> np.ndarray:
    # log(1 + exp(eta)), stable at large |eta|: np.logaddexp(0, eta) to an ulp
    # or two, without its scalar loop (see the module docstring)
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-abs(eta)))


def _loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    # sum w * [t*eta - log(1 + exp(eta))] per weight row
    return (w * (t * eta - _softplus(eta))).sum(axis=-1)


def _separated(b: np.ndarray) -> np.ndarray:
    # the separation rule, on each row of coefficients
    return abs(b).max(axis=1) > DEFAULT_SEPARATION_BOUND


def _checked(response, X, W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (m, n) response rows, (m, n, k) designs (intercept included) and
    (m, n) weight rows, one of each per fit, as float arrays; or the
    ValidationError that `fit_logits`, and so `fit_logit`, raises."""
    t, X, W = (np.asarray(a, dtype=float) for a in (response, X, W))
    if X.ndim != 3 or not W.shape == t.shape == X.shape[:2]:
        raise ValidationError("response, design and weight rows differ in length")
    if not ((t == 0) | (t == 1)).all():
        raise ValidationError("response must be binary")
    if (W < 0).any() or not np.isfinite(W).all():
        raise ValidationError("weights must be nonnegative finite, one per row")
    if not np.isfinite(X).all():
        raise ValidationError("design contains non-finite values")
    return t, X, W


def _newton(t: np.ndarray, X: np.ndarray, W: np.ndarray):
    """Fits of each row of the checked binary (m, n) t on its row of the
    (m, n, k) designs X (intercept included) under its row of the (m, n)
    weights W, as `_checked` returns them: the (m, k) coefficients, (m,)
    statuses, and the information, log-likelihood and Newton steps at the
    optimum, valid where the status is 0.  A fit converges once
    max|gradient| <= DEFAULT_TOL_SCALE * total weight and one polish step
    has run."""
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
        w, tol, t, X = W[rows], tol[rows], t[rows], X[rows]
    b, eta = np.zeros((rows.size, k)), np.zeros(w.shape)
    ll, polished = _loglik(eta, t, w), np.zeros(rows.size, dtype=bool)
    # overflows and failed gufuncs are caught by the finiteness test, and
    # count_nonzero is the cheapest test of a mask
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            p = expit(eta)
            grad = ((w * (t - p))[:, None, :] @ X)[:, 0]
            info = X.transpose(0, 2, 1) @ (X * (w * p * (1.0 - p))[:, :, None])
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
                rows, t, X, w, tol, b, eta, ll, polished, step = (a[~leave] for a in (
                    rows, t, X, w, tol, b, eta, ll, polished, step))
            # step-halving keeps each row's log-likelihood non-decreasing
            cand = b + step
            eta_c = (X @ cand[:, :, None])[:, :, 0]
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
                    eta_c[h] = (X[h] @ cand[h, :, None])[:, :, 0]
                    ll_c[h] = _loglik(eta_c[h], t[h], w[h])
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
    w = np.ones(X.shape[0]) if weights is None else weights
    # a stack of one fit
    fit = fit_logits(*(np.asarray(a)[None] for a in (response, X, w))).row(0)
    if isinstance(fit, CaseboundError):
        raise fit
    return fit


def fit_logits(response: np.ndarray, X: np.ndarray, W: np.ndarray) -> LogitFits:
    """`fit_logit` on each row of a stack: the (m, n) responses on the
    (m, n, k) designs, intercept column included, under the (m, n)
    nonnegative frequency weights (a zero drops a row from that fit).  Only
    `_checked`'s input refusals raise here; any other is a row status, a
    row whose inv(information) is not finite refused as `Singular`."""
    coef, status, info, ll, steps = _newton(*_checked(response, X, W))
    ok = status == 0
    cov = np.zeros_like(info)
    with np.errstate(over="ignore", invalid="ignore"):
        cov[ok] = _linalg.inv(info[ok])
    status[ok & ~np.isfinite(cov).all(axis=(1, 2))] = _NOT_PD
    coef[status != 0], cov[status != 0] = 0.0, 0.0
    return LogitFits(coef=coef, cov=0.5 * (cov + cov.transpose(0, 2, 1)), status=status,
                     steps=steps, loglik=ll)


def status_error(code: int) -> CaseboundError:
    """The exception `fit_logit` raises for a nonzero row status of
    `fit_logits`."""
    exc, message = _FAILURES[code]
    return exc(message)
