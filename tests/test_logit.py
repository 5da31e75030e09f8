import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from casebound.basis import build_basis
import casebound.logit as logit_mod
from casebound.errors import (
    CaseboundError,
    NotConverged,
    SeparationDetected,
    Singular,
    ValidationError,
)
from casebound.fixtures import count_table, mc_defaults
from casebound.logit import LogitFit, fit_logit, fit_logit_batch
from casebound.model import Design
from casebound.rng import RngSpec, bernoulli
from casebound.special import expit
from casebound.synthetic import draw_mc_sample, parametric_spec, sieve_spec


def _toy(seed=0, n=400, k=3):
    gen = RngSpec(seed).derive("logit")
    x = gen.standard_normal((n, k))
    eta = 0.4 + x @ np.array([1.0, -0.5, 0.25][:k])
    t = bernoulli(gen, 1.0 / (1.0 + np.exp(-eta)))
    return x, t


def test_intercept_only_closed_form():
    t = np.repeat([1, 0], [30, 70])
    fit = fit_logit(t, np.empty((100, 0)))
    assert fit.coef.shape == (1,)
    assert fit.coef[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-10)
    # inverse information of a Bernoulli mean on the logit scale
    assert fit.cov[0, 0] == pytest.approx(1.0 / (100 * 0.3 * 0.7), rel=1e-8)


def test_saturated_two_by_two_reproduces_log_odds_ratio():
    table = count_table("top_income_case_control")
    data = table.to_dataset(Design.CASE_CONTROL)
    fit = fit_logit(data.t, data.y.astype(float)[:, None])
    exact = math.log(table.n11 * table.n00 / (table.n01 * table.n10))
    assert fit.coef[1] == pytest.approx(exact, abs=1e-8)


def test_gradient_norm_at_optimum():
    x, t = _toy()
    fit = fit_logit(t, x)
    design = np.column_stack([np.ones(len(t)), x])
    p = 1.0 / (1.0 + np.exp(-design @ fit.coef))
    grad = design.T @ (t - p)
    assert np.max(np.abs(grad)) <= 1e-8 * len(t)
    assert np.all((fit.predict(x) > 0) & (fit.predict(x) < 1))


def test_loglik_not_worse_than_null():
    x, t = _toy(seed=3)
    fit = fit_logit(t, x)
    pbar = t.mean()
    null_ll = len(t) * (pbar * math.log(pbar) + (1 - pbar) * math.log(1 - pbar))
    assert fit.loglik >= null_ll


def test_covariance_symmetric_nonnegative_diagonal():
    x, t = _toy(seed=5)
    fit = fit_logit(t, x)
    assert np.max(np.abs(fit.cov - fit.cov.T)) < 1e-10
    assert np.all(np.diag(fit.cov) >= 0)


def test_affine_rescaling_invariance():
    x, t = _toy(seed=7)
    fit = fit_logit(t, x)
    scaled = x.copy()
    scaled[:, 1] *= 50.0
    fit2 = fit_logit(t, scaled)
    assert fit2.coef[2] == pytest.approx(fit.coef[2] / 50.0, rel=1e-8, abs=1e-12)
    np.testing.assert_allclose(fit2.predict(scaled), fit.predict(x), atol=1e-8)


def test_stratum_fits_equal_interacted_fit():
    gen = RngSpec(11).derive("strata")
    n = 600
    x = gen.standard_normal((n, 2))
    g = bernoulli(gen, np.full(n, 0.45)).astype(float)
    eta = -0.2 + x @ np.array([0.8, -0.4]) + g * (0.7 + x @ np.array([-1.0, 0.3]))
    t = bernoulli(gen, 1.0 / (1.0 + np.exp(-eta)))
    combined = fit_logit(t, np.column_stack([g, x, x * g[:, None]]))
    fit0 = fit_logit(t[g == 0], x[g == 0])
    fit1 = fit_logit(t[g == 1], x[g == 1])
    pred_combined = combined.predict(np.column_stack([g, x, x * g[:, None]]))
    pred_strata = np.where(g == 1, fit1.predict(x), fit0.predict(x))
    np.testing.assert_allclose(pred_combined, pred_strata, atol=1e-8)


def test_frequency_weights_match_row_expansion():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    t = np.array([0, 1, 0, 1])
    w = np.array([5.0, 3.0, 2.0, 7.0])
    expanded_x = np.repeat(x, w.astype(int), axis=0)
    expanded_t = np.repeat(t, w.astype(int))
    fw = fit_logit(t, x, weights=w)
    fe = fit_logit(expanded_t, expanded_x)
    np.testing.assert_allclose(fw.coef, fe.coef, atol=1e-9)
    np.testing.assert_allclose(fw.cov, fe.cov, atol=1e-9)


def test_separation_detected():
    x = np.linspace(-2, 2, 40)[:, None]
    t = (x[:, 0] > 0).astype(int)
    with pytest.raises(SeparationDetected):
        fit_logit(t, x)


def test_singular_design_rejected():
    x, t = _toy(seed=13, k=2)
    doubled = np.column_stack([x, x[:, 0]])
    with pytest.raises(Singular):
        fit_logit(t, doubled)


def test_input_contracts():
    x, t = _toy(seed=17)
    with pytest.raises(ValidationError):
        fit_logit(np.array([0, 2, 1]), np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        fit_logit(np.ones(5), np.zeros((5, 1)))  # one response class
    with pytest.raises(ValidationError):
        fit_logit(t, x, weights=np.full(len(t), -1.0))
    with pytest.raises(ValidationError):
        fit_logit(np.array([0, 1]), np.zeros((2, 5)))  # n <= J


def test_deterministic():
    x, t = _toy(seed=19)
    f1 = fit_logit(t, x)
    f2 = fit_logit(t, x)
    assert np.array_equal(f1.coef, f2.coef)
    assert np.array_equal(f1.cov, f2.cov)


def test_non_finite_information_is_singular():
    # finite covariates whose squares overflow X'WX
    x = np.array([1e200, -2e200, 3e200, -1e200, 2e200, -3e200, 1e200, -2e200])
    t = np.array([0, 1, 0, 1, 0, 1, 1, 0])
    with pytest.raises(Singular, match="observed information is not finite"):
        with np.errstate(over="ignore"):
            fit_logit(t, x)


# --- the Newton kernel against a reference copy of its loop ---

def _numpy_factor(info):
    """fit_logit's linear algebra through numpy.linalg's public functions,
    which wrap the gufuncs it calls: the Cholesky test, a solve, an inverse."""
    np.linalg.cholesky(info)
    return (lambda rhs: np.linalg.solve(info, rhs)), (lambda: np.linalg.inv(info))


def _scipy_factor(info):
    """The same through scipy.linalg.cho_factor and cho_solve."""
    chol = cho_factor(info)
    return (lambda rhs: cho_solve(chol, rhs)), (lambda: cho_solve(chol, np.eye(len(info))))


def _reference_fit(response, design, weights=None, factor=_numpy_factor):
    """fit_logit's Newton loop written out, with fit_logit's default
    tolerances and `factor` for its linear algebra; validation omitted."""
    t = np.asarray(response, dtype=float)
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    n = t.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    wt_total = float(w.sum())
    X = np.column_stack([np.ones(n), design])

    def loglik(eta):
        return float(np.sum(w * (t * eta - np.logaddexp(0.0, eta))))

    bound = 250.0
    coef = np.zeros(X.shape[1])
    eta = X @ coef
    ll = loglik(eta)
    tol = 1e-8 * wt_total
    polished = False
    for it in range(1, 101):
        p = expit(eta)
        grad = X.T @ (w * (t - p))
        sw = w * p * (1.0 - p)
        info = (X * sw[:, None]).T @ X
        try:
            solve, inverse = factor(info)
            if np.max(np.abs(grad)) <= tol:
                if np.max(np.abs(coef)) > bound:
                    raise SeparationDetected("separated")
                if polished:
                    cov = inverse()
                    cov = 0.5 * (cov + cov.T)
                    return LogitFit(coef=coef, cov=cov, iterations=it - 1, loglik=ll)
                polished = True
            step = solve(grad)
        except np.linalg.LinAlgError:
            raise Singular("observed information is not invertible") from None
        if not np.all(np.isfinite(step)):
            raise Singular("Newton step is not finite")
        scale = 1.0
        for _ in range(40):
            cand = coef + scale * step
            eta_c = X @ cand
            ll_c = loglik(eta_c)
            if ll_c >= ll - 1e-12 * max(1.0, abs(ll)):
                break
            scale *= 0.5
        coef, eta, ll = cand, eta_c, ll_c
        if np.max(np.abs(coef)) > bound:
            raise SeparationDetected("separated")
    raise NotConverged("no convergence")


def _mc_stratum(spec_of, interacted=False):
    """Stratum-0 treatment fit of one mc_defaults() draw on a spec's basis,
    or the interacted fit of both strata."""
    design = mc_defaults()
    data = draw_mc_sample(design, RngSpec(20240501).derive("mc-replicate", 0))
    spec = spec_of(design)
    cols = build_basis(data.x, spec)[:, spec.intercept_safe_mask()]
    if interacted:
        g = data.y.astype(float)[:, None]
        return data.t, np.column_stack([g, cols, cols * g]), None
    keep = data.y == 0
    return data.t[keep], cols[keep], None


def _kernel_case(name):
    if name == "J1_unweighted":
        x, t = _toy(seed=23, k=1)
        return t, x, None
    if name == "J1_weighted":
        x, t = _toy(seed=29, n=60, k=1)
        return t, x, RngSpec(29).derive("w").integers(0, 6, 60).astype(float)
    if name == "J5_unweighted":
        gen = RngSpec(31).derive("j5")
        x = gen.standard_normal((500, 5))
        return bernoulli(gen, expit(0.3 + x @ np.linspace(-0.6, 0.6, 5))), x, None
    if name == "J5_weighted":
        gen = RngSpec(37).derive("j5w")
        x = gen.standard_normal((200, 5))
        t = bernoulli(gen, expit(-0.2 + x @ np.linspace(0.5, -0.5, 5)))
        return t, x, gen.integers(1, 4, 200).astype(float)
    if name == "J5_mc_parametric":
        return _mc_stratum(parametric_spec)
    if name == "J11_mc_parametric_interacted":
        return _mc_stratum(parametric_spec, interacted=True)
    if name == "J20_mc_sieve":
        return _mc_stratum(sieve_spec)
    if name == "J41_mc_sieve_interacted":
        return _mc_stratum(sieve_spec, interacted=True)
    if name == "ar_cc_pattern":
        # one stratum of a case-control bootstrap replicate: four (t, x)
        # patterns weighted by their draw counts
        return (np.array([0, 0, 1, 1]), np.array([0.0, 1.0, 0.0, 1.0]),
                np.array([412.0, 297.0, 188.0, 303.0]))
    raise KeyError(name)


_KERNEL_CASES = ("J1_unweighted", "J1_weighted", "J5_unweighted", "J5_weighted",
                 "J5_mc_parametric", "J11_mc_parametric_interacted", "J20_mc_sieve",
                 "J41_mc_sieve_interacted", "ar_cc_pattern")


def _assert_bit_identical(fit, ref):
    assert np.array_equal(fit.coef, ref.coef)
    assert np.array_equal(fit.cov, ref.cov)
    assert fit.loglik == ref.loglik
    assert fit.iterations == ref.iterations


@pytest.mark.parametrize("name", _KERNEL_CASES)
def test_kernel_bit_identical_to_public_numpy_linalg(name):
    # the reference runs on the public numpy.linalg functions, which wrap
    # the gufuncs fit_logit calls; scipy's Cholesky is compared to rounding
    # below
    t, x, w = _kernel_case(name)
    _assert_bit_identical(fit_logit(t, x, w), _reference_fit(t, x, w))


@pytest.mark.parametrize("name", _KERNEL_CASES)
def test_kernel_matches_scipy_cholesky_to_rounding(name):
    t, x, w = _kernel_case(name)
    fit, ref = fit_logit(t, x, w), _reference_fit(t, x, w, factor=_scipy_factor)
    assert fit.iterations == ref.iterations
    np.testing.assert_allclose(fit.coef, ref.coef, rtol=0, atol=1e-13)
    np.testing.assert_allclose(fit.cov, ref.cov, rtol=0, atol=1e-12)


def test_kernel_failure_classes_match_reference():
    x, t = _toy(seed=13, k=2)
    doubled = np.column_stack([x, x[:, 0]])
    # singular information that the LU solve would still step through
    proportional = np.column_stack([x[:, 0], 3.0 * x[:, 0]])
    separated_x = np.linspace(-2, 2, 40)[:, None]
    separated_t = (separated_x[:, 0] > 0).astype(int)
    for exc, args in ((Singular, (t, doubled)), (Singular, (t, proportional)),
                      (SeparationDetected, (separated_t, separated_x))):
        with pytest.raises(exc):
            _reference_fit(*args)
        with pytest.raises(exc):
            fit_logit(*args)


# --- the batched Newton kernel against fit_logit, one weight row at a time ---

def _loop_fits(t, design, W, monkeypatch):
    """fit_logit on each weight row's support rows: its coefficients, or None
    where it raises or halves a step.  A fit that never halves evaluates the
    log-likelihood once at the start and once per full step."""
    calls = []
    real = logit_mod._loglik
    monkeypatch.setattr(logit_mod, "_loglik", lambda *a: calls.append(1) or real(*a))
    out = []
    for w in W:
        keep = w > 0
        calls.clear()
        try:
            fit = fit_logit(t[keep], design[keep], w[keep])
        except CaseboundError:
            out.append(None)
            continue
        out.append(fit.coef if len(calls) == 1 + fit.iterations else None)
    monkeypatch.undo()
    return out


def _batch_case(name):
    """(response, slope columns, weight rows) with one row per pattern."""
    gen = RngSpec(41).derive(f"batch-{name}")
    if name in ("J1", "duplicated"):
        t = np.array([0, 0, 1, 1])
        x = np.array([[0.0], [1.0], [0.0], [1.0]])
    elif name == "J2_polynomial":
        t = np.repeat([0, 1], 3)
        v = np.tile([0.0, 1.0, 2.0], 2)
        x = np.column_stack([v, v ** 2])
    elif name == "J3_interactions":
        t = np.repeat([0, 1], 4)
        x1, x2 = np.tile([0.0, 0.0, 1.0, 1.0], 2), np.tile([0.0, 1.0, 0.0, 1.0], 2)
        x = np.column_stack([x1, x2, x1 * x2])
    elif name == "separated":
        x = np.linspace(-2, 2, 40)[:, None]
        t = (x[:, 0] > 0).astype(int)
    elif name == "halving":
        # a full Newton step from zero lowers this log-likelihood
        t = np.array([0, 0, 1, 1, 0, 0])
        x = np.array([[0.6], [-1.0], [-0.5], [-0.3], [18.6], [21.4]])
    W = gen.integers(0, 40, (60, t.size)).astype(float)
    W[0] = 0.0
    W[0, :2] = 5.0                   # one response class
    W[1] = 0.0
    W[1, [0, -1]] = 1.0              # total weight <= J for J >= 2
    if name == "J1":
        # one weight row on the x=0 rows alone and one on the x=1 rows
        # alone: the column is constant on each support, so fit_logit
        # raises Singular
        W = np.vstack([W, [[7.0, 0.0, 12.0, 0.0], [0.0, 30.0, 0.0, 4.0]]])
    elif name == "duplicated":
        x = np.column_stack([x, x])
    elif name == "separated":
        W[1:] += 1.0                 # every point on the support
    elif name == "halving":
        W[2] = [6.0, 1.0, 10.0, 108.0, 97.0, 86.0]
    return t, x, W


_BATCH_CASES = ("J1", "J2_polynomial", "J3_interactions", "duplicated", "separated", "halving")


@pytest.mark.parametrize("name, min_ok, min_failed", [
    ("J1", 40, 1), ("J2_polynomial", 40, 2), ("J3_interactions", 40, 2),
    ("duplicated", 0, 60), ("separated", 0, 50), ("halving", 40, 2)])
def test_batch_matches_fit_logit_per_weight_row(name, min_ok, min_failed, monkeypatch):
    # ok is never True where fit_logit raises or halves a step, and where it
    # is True the coefficients are fit_logit's; a fit on a flat ridge (a
    # zero-weight cell separating the rest) may leave the batch even though
    # fit_logit converges there
    t, x, W = _batch_case(name)
    coef, ok = fit_logit_batch(t, np.column_stack([np.ones(t.size), x]), W)
    loop = _loop_fits(t, x, W, monkeypatch)
    for got, fitted, want in zip(coef, ok, loop):
        if want is None:
            assert not fitted
        elif fitted:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert not ok[0]
    assert not ok[1] or x.shape[1] < 2
    assert ok.sum() >= min_ok and sum(want is None for want in loop) >= min_failed
    assert not coef[~ok].any()
    if name == "halving":
        assert loop[2] is None


def test_batch_flags_a_column_constant_on_the_support():
    # the refusal the AR bootstrap's block leaves to the kernel: the column
    # is collinear with the intercept there
    t, x, W = _batch_case("J1")
    _, ok = fit_logit_batch(t, np.column_stack([np.ones(t.size), x]), W)
    assert not ok[-2:].any()
    for w in W[-2:]:
        with pytest.raises(Singular):
            fit_logit(t[w > 0], x[w > 0], w[w > 0])


def test_batch_zero_weight_rows_are_absent_rows():
    t, x, W = _batch_case("J3_interactions")
    X = np.column_stack([np.ones(t.size), x])
    coef, ok = fit_logit_batch(t[:6], X[:6], W[:, :6])
    padded = np.hstack([W[:, :6], np.zeros((60, 2))])
    coef_pad, ok_pad = fit_logit_batch(t, X, padded)
    assert np.array_equal(ok, ok_pad) and ok.sum() >= 40
    np.testing.assert_allclose(coef_pad, coef, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", _BATCH_CASES)
def test_batch_rows_do_not_depend_on_their_neighbours(name):
    t, x, W = _batch_case(name)
    X = np.column_stack([np.ones(t.size), x])
    coef, ok = fit_logit_batch(t, X, W)
    for i in range(W.shape[0]):
        alone, ok_alone = fit_logit_batch(t, X, W[i:i + 1])
        assert ok_alone[0] == ok[i]
        assert np.array_equal(alone[0], coef[i])


def test_batch_overflow_is_a_flag_not_a_warning():
    x = np.array([1e200, -2e200, 3e200, -1e200, 2e200, -3e200, 1e200, -2e200])
    t = np.array([0, 1, 0, 1, 0, 1, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef, ok = fit_logit_batch(t, np.column_stack([np.ones(8), x]), np.ones((3, 8)))
    assert not ok.any() and not coef.any()


def test_batch_input_contracts():
    X = np.column_stack([np.ones(4), [0.0, 1.0, 0.0, 1.0]])
    with pytest.raises(ValidationError):
        fit_logit_batch([0, 1, 2, 1], X, np.ones((2, 4)))
    with pytest.raises(ValidationError):
        fit_logit_batch([0, 1, 0, 1], X, -np.ones((2, 4)))
    with pytest.raises(ValidationError):
        fit_logit_batch([0, 1, 0, 1], X, np.ones((2, 3)))
