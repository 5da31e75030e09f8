import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from casebound.basis import (
    MAX_TERM_SIZE,
    BasisSpec,
    CubicSplineTerm,
    Linear,
    Polynomial,
    _linear_quantiles,
    build_basis,
    constant_columns,
)
from casebound.errors import DegenerateColumn, ValidationError
from casebound.rng import RngSpec


def test_linear_spec_is_identity_passthrough():
    x = RngSpec(1).derive("basis").random((40, 5))
    spec = BasisSpec.linear(5)
    assert spec.n_columns == 5
    assert np.array_equal(build_basis(x, spec), x)
    assert spec.intercept_safe_mask().all()


def test_quadratic_with_interactions_has_twenty_columns():
    x = RngSpec(2).derive("basis").random((30, 5))
    spec = BasisSpec.polynomial(5, 2, interactions=True)
    assert spec.n_columns == 20
    cols = build_basis(x, spec)
    assert cols.shape == (30, 20)
    # ordering: (x1, x1^2), ..., (x5, x5^2), then pairs (1,2), (1,3), ...
    assert np.array_equal(cols[:, 0], x[:, 0])
    assert np.array_equal(cols[:, 1], x[:, 0] ** 2)
    assert np.array_equal(cols[:, 10], x[:, 0] * x[:, 1])
    assert np.array_equal(cols[:, 19], x[:, 3] * x[:, 4])
    names = spec.column_names()
    assert len(names) == 20
    assert names[0] == "x1^1" and names[10] == "x1*x2" and names[19] == "x4*x5"


def test_cubic_spline_dimension_and_partition_of_unity():
    x = RngSpec(3).derive("basis").standard_normal(200)
    spec = BasisSpec(terms=(CubicSplineTerm(3),))
    assert spec.n_columns == 7
    cols = build_basis(x[:, None], spec)
    assert cols.shape == (200, 7)
    assert np.all(cols >= 0)
    np.testing.assert_allclose(cols.sum(axis=1), 1.0, atol=1e-10)
    mask = spec.intercept_safe_mask()
    assert mask.sum() == 6 and not mask[0]


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=10, deadline=None)
def test_partition_of_unity_any_knot_count(m):
    x = RngSpec(4).derive("basis", m).random(150)
    spec = BasisSpec(terms=(CubicSplineTerm(m),))
    cols = build_basis(x[:, None], spec)
    assert cols.shape[1] == m + 4
    np.testing.assert_allclose(cols.sum(axis=1), 1.0, atol=1e-10)


def test_mixed_spec_column_layout():
    x = RngSpec(5).derive("basis").random((60, 3))
    spec = BasisSpec(terms=(Linear(), CubicSplineTerm(2), Polynomial(3)))
    assert spec.n_columns == 1 + 6 + 3
    cols = build_basis(x, spec)
    assert np.array_equal(cols[:, 0], x[:, 0])
    np.testing.assert_allclose(cols[:, 1:7].sum(axis=1), 1.0, atol=1e-10)
    mask = spec.intercept_safe_mask()
    assert mask.tolist() == [True, False] + [True] * 8


def test_degenerate_column_rejected():
    # the message names the constant column, first or second
    for j in (0, 1):
        x = np.column_stack([np.arange(20.0), np.arange(20.0)])
        x[:, j] = 1.0
        with pytest.raises(DegenerateColumn, match=f"'x{j + 1}'"):
            build_basis(x, BasisSpec.linear(2))


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 12),
       j=st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_constant_columns_equal_ptp_on_the_rows_on(seed, m, n, j):
    # columns of three levels tie often, and some are forced constant on
    # the rows on while the rows off keep other values
    gen = RngSpec(seed).derive("constant-columns")
    cols = gen.integers(0, 3, size=(m, n, j)).astype(float)
    on = gen.random((m, n)) < 0.5
    on[np.arange(m), gen.integers(0, n, size=m)] = True
    forced = gen.random((m, j)) < 0.5
    for i in range(m):
        cols[i][np.ix_(on[i], forced[i])] = gen.normal(size=forced[i].sum())
    want = np.array([np.ptp(cols[i][on[i]], axis=0) == 0 for i in range(m)])
    assert np.array_equal(constant_columns(cols, on), want)


def test_spline_on_nearly_constant_covariate_rejected():
    x = np.repeat([1.0, 1.0, 1.0, 2.0], 10)[:, None]
    with pytest.raises(ValidationError):
        build_basis(x, BasisSpec(terms=(CubicSplineTerm(3),)))


def test_spec_validation():
    with pytest.raises(ValidationError):
        Polynomial(0)
    with pytest.raises(ValidationError):
        CubicSplineTerm(0)
    with pytest.raises(ValidationError):
        BasisSpec(terms=(Linear(),), interactions=True)
    with pytest.raises(ValidationError):
        build_basis(np.zeros((5, 2)), BasisSpec.linear(3))


@pytest.mark.parametrize("term", [Polynomial, CubicSplineTerm])
def test_term_size_past_the_cap_is_refused_at_construction(term):
    assert term(MAX_TERM_SIZE)
    for size in (MAX_TERM_SIZE + 1, 10 ** 13):
        with pytest.raises(ValidationError, match=str(MAX_TERM_SIZE)):
            term(size)


def _layout_as_it_was(spec):
    """The column layout as three separate dispatches over the term
    families stated it, before `BasisSpec._columns`: (names, mask, count)."""
    def n_terms(term):
        if isinstance(term, Linear):
            return 1
        if isinstance(term, Polynomial):
            return term.degree
        return term.inner_knots + 4

    k = len(spec.terms)
    n_pairs = k * (k - 1) // 2 if spec.interactions else 0
    count = sum(n_terms(t) for t in spec.terms) + n_pairs
    mask = []
    for term in spec.terms:
        if isinstance(term, CubicSplineTerm):
            mask.extend([False] + [True] * (n_terms(term) - 1))
        else:
            mask.extend([True] * n_terms(term))
    mask.extend([True] * n_pairs)
    names = []
    for i, term in enumerate(spec.terms, start=1):
        if isinstance(term, Linear):
            names.append(f"x{i}")
        elif isinstance(term, Polynomial):
            names.extend(f"x{i}^{d}" for d in range(1, term.degree + 1))
        else:
            names.extend(f"x{i}.bs{j}" for j in range(1, n_terms(term) + 1))
    if spec.interactions:
        names.extend(f"x{i}*x{j}" for i in range(1, k + 1) for j in range(i + 1, k + 1))
    return names, np.asarray(mask, dtype=bool), count


_TERMS = st.one_of(st.just(Linear()), st.integers(1, 4).map(Polynomial),
                   st.integers(1, 4).map(CubicSplineTerm))


@given(terms=st.lists(_TERMS, min_size=1, max_size=4), interactions=st.booleans())
@settings(max_examples=150, deadline=None)
def test_column_layout_equals_the_three_dispatches(terms, interactions):
    spec = BasisSpec(terms=tuple(terms), interactions=interactions and len(terms) > 1)
    names, mask, count = _layout_as_it_was(spec)
    assert spec.column_names() == names
    got = spec.intercept_safe_mask()
    assert got.dtype == mask.dtype and np.array_equal(got, mask)
    assert spec.n_columns == count
    x = RngSpec(7).derive("basis-layout").standard_normal((60, len(terms)))
    assert build_basis(x, spec).shape[1] == spec.n_columns


def test_empty_spec_for_no_covariate_data():
    spec = BasisSpec(terms=())
    assert spec.n_columns == 0
    cols = build_basis(np.empty((7, 0)), spec)
    assert cols.shape == (7, 0)


def _scipy_spline_columns(col, m, counts=None):
    # the knots build_basis uses, evaluated by scipy
    probs = np.arange(1, m + 1) / (m + 1)
    inner = np.quantile(col if counts is None else np.repeat(col, counts), probs)
    lo, hi = col.min(), col.max()
    knots = np.concatenate([[lo] * 4, inner, [hi] * 4])
    return BSpline(knots, np.eye(m + 4), 3, extrapolate=False)(col)


@st.composite
def _weighted_columns(draw):
    """A column of 1 to 60 finite values drawn from a pool, so that values
    tie, and either None or integer counts with zeros, at least one positive."""
    n = draw(st.integers(1, 60))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=n))
    col = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    counts = draw(st.none() | st.lists(st.integers(0, 4), min_size=n, max_size=n)
                  .filter(any).map(np.array))
    return col, counts


@given(_weighted_columns(), st.integers(1, 6))
# one row: numpy's index past the last row sets the sign of a zero knot
@example((np.array([-0.0]), None), 2)
@example((np.array([-0.0, 1.0]), np.array([1, 0])), 1)
@settings(max_examples=400, deadline=None)
def test_knots_from_cumulative_counts_are_np_quantile_of_the_repeated_rows(weighted, m):
    col, counts = weighted
    probs = np.arange(1, m + 1) / (m + 1)
    # a spread past the float range overflows both ways alike
    with np.errstate(over="ignore", invalid="ignore"):
        got = _linear_quantiles(col, counts, probs)
        want = np.quantile(col if counts is None else np.repeat(col, counts), probs)
    assert np.array_equal(got, want, equal_nan=True)
    # ties between 0.0 and -0.0 may sort either way, in np.quantile's
    # partition as in the sort, so only then may a zero knot's sign differ
    zeros = np.signbit(col[col == 0])
    if zeros.all() or not zeros.any():
        assert got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 400), m=st.integers(1, 8),
       shape=st.sampled_from(["normal", "heavy-tailed", "tied"]), weighted=st.booleans())
@settings(max_examples=150, deadline=None)
def test_spline_basis_equals_scipy_bspline_bit_for_bit(seed, n, m, shape, weighted):
    rng = RngSpec(seed).derive("spline-vs-scipy")
    if shape == "normal":
        col = rng.standard_normal(n)
    elif shape == "heavy-tailed":
        col = rng.standard_cauchy(n)
    else:
        col = rng.integers(0, 3 * m + 6, n) / 7.0
    counts = rng.integers(1, 6, n) if weighted else None
    spec = BasisSpec(terms=(CubicSplineTerm(m),))
    try:
        got = build_basis(col, spec, counts)
    except (ValidationError, DegenerateColumn):
        # too few distinct values for m knots: nothing to compare
        return
    want = _scipy_spline_columns(col, m, counts)
    at_hi = col == col.max()
    # scipy's value at the closing knot is the left limit; build_basis clamps
    # that row to the last basis function exactly
    assert np.array_equal(got[~at_hi], want[~at_hi])
    assert np.array_equal(got[at_hi], np.tile(np.eye(m + 4)[-1], (at_hi.sum(), 1)))
    np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spline_on_non_finite_covariate_rejected(bad):
    x = RngSpec(6).derive("basis").standard_normal(40)
    x[5] = bad
    with pytest.raises(ValidationError):
        build_basis(x[:, None], BasisSpec(terms=(CubicSplineTerm(2),)))
