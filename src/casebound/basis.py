"""Sieve basis construction for the logistic fits.

A basis spec assigns each covariate a term family (linear, polynomial, or
cubic B-spline with inner knots at empirical quantiles) and can add all
pairwise products of the raw covariates.  The intercept is never part of
the basis; fitting code adds it separately.

Cubic spline blocks are full B-spline bases (order 4, so #inner knots + 4
functions) and therefore sum to one pointwise.  Alongside an intercept that
makes one column per block redundant, so specs also expose a mask selecting
the columns to use in intercept-carrying fits; dropping the first column of
each spline block is an exact reparameterization (the dropped function is an
affine combination of the intercept and the retained ones), leaving fitted
probabilities and the treatment coefficient unchanged.  The column layout,
with each column's name and whether the intercept makes it redundant, is
stated once, in `BasisSpec._columns`; `build_basis` checks its column count
against it.

A spline term with m inner knots places them at the probabilities
k / (m + 1), k = 1..m, by numpy's default linear quantile (Hyndman & Fan
1996, type 7) of the column, each row repeated as often as its count when
counts are given; the boundary knots are the column's min and max.  The
quantiles are read off the sorted column and its cumulative counts, so no
row is expanded and np.quantile, which imports numpy.ma, is not called.

Spline columns are evaluated here by de Boor's recursion, vectorised over
the rows, in the operation order of scipy's BSpline evaluator: the values
equal BSpline(knots, eye, 3, extrapolate=False) bit for bit, while the
package itself runs on numpy alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, ValidationError

__all__ = ["Linear", "Polynomial", "CubicSplineTerm", "BasisSpec", "build_basis",
           "constant_columns"]

_SPLINE_ORDER = 4  # cubic
MAX_TERM_SIZE = 1_000  # a larger degree or knot count is refused before it is allocated


@dataclass(frozen=True)
class Linear:
    """Use the covariate itself as a single term."""


@dataclass(frozen=True)
class Polynomial:
    """Powers x, x^2, ..., x^degree."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("polynomial degree must be >= 1")
        if self.degree > MAX_TERM_SIZE:
            raise ValidationError(f"polynomial degree must be <= {MAX_TERM_SIZE}")


@dataclass(frozen=True)
class CubicSplineTerm:
    """Full cubic B-spline basis with `inner_knots` knots at empirical quantiles."""

    inner_knots: int

    def __post_init__(self):
        if self.inner_knots < 1:
            raise ValidationError("cubic spline needs at least one inner knot")
        if self.inner_knots > MAX_TERM_SIZE:
            raise ValidationError(f"cubic spline takes at most {MAX_TERM_SIZE} inner knots")

    def n_terms(self) -> int:
        return self.inner_knots + _SPLINE_ORDER


Term = Linear | Polynomial | CubicSplineTerm


@dataclass(frozen=True)
class BasisSpec:
    """Term family per covariate plus an optional pairwise-interaction flag."""

    terms: tuple[Term, ...]
    interactions: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if not isinstance(term, (Linear, Polynomial, CubicSplineTerm)):
                raise ValidationError(f"unknown basis term {term!r}")
        if self.interactions and len(self.terms) < 2:
            raise ValidationError("pairwise interactions need at least two covariates")

    @classmethod
    def linear(cls, k: int) -> "BasisSpec":
        return cls(terms=(Linear(),) * k)

    @classmethod
    def polynomial(cls, k: int, degree: int, interactions: bool = False) -> "BasisSpec":
        return cls(terms=(Polynomial(degree),) * k, interactions=interactions)

    @property
    def n_covariates(self) -> int:
        return len(self.terms)

    def _columns(self) -> Iterator[tuple[str, bool]]:
        """(name, intercept-safe) of every basis column, in `build_basis`'s
        order: x<i>, x<i>^<d> or x<i>.bs<j> per covariate, then the
        interaction pairs x<i>*x<j>.  A spline block sums to one, so its
        first column is the one that is not safe beside an intercept."""
        for i, term in enumerate(self.terms, start=1):
            if isinstance(term, Linear):
                yield f"x{i}", True
            elif isinstance(term, Polynomial):
                yield from ((f"x{i}^{d}", True) for d in range(1, term.degree + 1))
            else:
                yield from ((f"x{i}.bs{j}", j > 1) for j in range(1, term.n_terms() + 1))
        if self.interactions:
            k = len(self.terms)
            yield from ((f"x{i}*x{j}", True)
                        for i in range(1, k + 1) for j in range(i + 1, k + 1))

    @property
    def n_columns(self) -> int:
        return sum(1 for _ in self._columns())

    def intercept_safe_mask(self) -> np.ndarray:
        """Columns that stay linearly independent next to an intercept."""
        return np.array([safe for _, safe in self._columns()], dtype=bool)

    def column_names(self) -> list[str]:
        return [name for name, _ in self._columns()]


def _linear_quantiles(col: np.ndarray, counts: np.ndarray | None,
                      probs: np.ndarray) -> np.ndarray:
    """np.quantile(np.repeat(col, counts), probs) bit for bit, read off col
    sorted once and the cumulative counts in that order (unit counts when
    `counts` is None), without expanding the rows.

    This is numpy's linear method (Hyndman & Fan 1996, type 7) in numpy's
    own operation order: the virtual index (N - 1) * q of the N expanded
    rows has neighbours floor and floor + 1, both the last row once the
    index reaches N - 1; row j of the expanded sorted sample is the value
    whose cumulative count first passes j.  Ties carry equal values, so
    the sort need not be stable; only a zero knot among tied 0.0 and -0.0
    may take the other sign, as np.quantile's own does when the rows are
    permuted.
    """
    order = np.argsort(col)
    cum = np.cumsum(np.ones(col.shape[0], dtype=np.int64) if counts is None else counts[order])
    last = cum[-1] - 1
    index = last * probs
    below = np.floor(index)
    top = index >= last
    prev, nxt = col[order[np.searchsorted(cum, np.where(top, last, [below, below + 1]),
                                          "right")]]
    # numpy's gamma counts from the index -1 it gives the last row
    gamma = index - np.where(top, -1, below)
    diff = nxt - prev
    return np.where(gamma >= 0.5, nxt - diff * (1 - gamma), prev + diff * gamma)


def _spline_columns(col: np.ndarray, term: CubicSplineTerm,
                    counts: np.ndarray | None) -> np.ndarray:
    """Clamped cubic B-spline basis at every row of col.

    Row i lies in knot interval ell[i] (t[ell] <= x < t[ell+1], the last
    interval closed), where only the k+1 = 4 functions ell-k..ell are
    nonzero.  De Boor's triangular recursion gives their values for all rows
    at once, each product and sum in the order of scipy's evaluator
    (FITPACK's fpbspl), which is what makes the values bit-identical.
    """
    lo, hi = col.min(), col.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("spline covariate has non-finite values")
    m = term.inner_knots
    inner = _linear_quantiles(col, counts, np.arange(1, m + 1) / (m + 1))
    if np.any(np.diff(np.concatenate([[lo], inner, [hi]])) <= 0):
        raise ValidationError(
            "spline knot sequence is not strictly increasing; the covariate "
            "has too few distinct values for the requested number of knots")
    k = _SPLINE_ORDER - 1
    t = np.concatenate([[lo] * _SPLINE_ORDER, inner, [hi] * _SPLINE_ORDER])
    n, nbasis = col.shape[0], term.n_terms()
    ell = k + np.searchsorted(inner, col, "right")
    # tk[d] = t[ell + d - k + 1]: the 2k knots around each row's interval
    tk = t[ell + np.arange(1 - k, k + 1)[:, None]]
    right, left = tk - col, col - tk
    # level j holds the j+1 nonzero B-splines of order j+1 at each row:
    # h_new[i] = w[i-1] * (x - t[ell+i-j]) + w[i] * (t[ell+i+1] - x) with
    # w[i] = h[i] / (t[ell+i+1] - t[ell+i+1-j]), the missing ends zero
    h = np.ones((1, n))
    for j in range(1, k + 1):
        w = h / (tk[k:k + j] - tk[k - j:k])
        up, down = w * right[k:k + j], w * left[k - j:k]
        h = np.empty((j + 1, n))
        h[0] = up[0]
        np.add(down[:-1], up[1:], out=h[1:j])
        h[j] = down[-1]
    out = np.zeros(n * nbasis)
    out[np.arange(0, n * nbasis, nbasis) + (ell - k) + np.arange(k + 1)[:, None]] = h
    out = out.reshape(n, nbasis)
    # the rightmost point sits on the closing knot; clamp it into the basis
    at_hi = col == hi
    out[at_hi] = 0.0
    out[at_hi, -1] = 1.0
    return out


def build_basis(x: np.ndarray, spec: BasisSpec,
                counts: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the basis at the rows of x, returning an (n, J) matrix.

    Columns are ordered by (covariate index, term index), then interaction
    pairs in lexicographic order.  Raises DegenerateColumn if any column is
    constant.  A spline term with m inner knots puts them at the linear
    (Hyndman & Fan type 7) quantiles k / (m + 1), k = 1..m, of the column,
    between boundary knots at its min and max.  `counts`, if given, holds
    each row's integer frequency: the knots are then the quantiles of the
    rows repeated that often, read off cumulative counts without repeating
    them, so the basis equals that of the expanded sample row for row.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != spec.n_covariates:
        raise ValidationError(
            f"spec covers {spec.n_covariates} covariates but x has {x.shape[1]} columns")
    n = x.shape[0]
    blocks = []
    for i, term in enumerate(spec.terms):
        col = x[:, i]
        if isinstance(term, Linear):
            blocks.append(col[:, None])
        elif isinstance(term, Polynomial):
            # a power or product that overflows is inf, which the fit
            # refuses as a non-finite design; numpy's warning would repeat it
            with np.errstate(over="ignore"):
                blocks.append(np.column_stack([col ** d for d in range(1, term.degree + 1)]))
        else:
            blocks.append(_spline_columns(col, term, counts))
    if spec.interactions:
        k = spec.n_covariates
        with np.errstate(over="ignore"):
            inter = [x[:, i] * x[:, j] for i in range(k) for j in range(i + 1, k)]
        if inter:
            blocks.append(np.column_stack(inter))
    out = np.column_stack(blocks) if blocks else np.empty((n, 0))
    if out.shape[1] != spec.n_columns:
        raise AssertionError("basis column count mismatch")
    constant = constant_columns(out, np.ones(n, dtype=bool))
    if constant.any():
        raise DegenerateColumn(
            f"basis column {spec.column_names()[int(np.argmax(constant))]!r} is constant")
    return out


def constant_columns(cols: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per leading index, which columns of a (..., n, J) array take one
    value on the rows where the (..., n) mask `on` holds, a (..., J) mask.

    Each column is compared with its value at the first row on, so `on`
    must hold at least one row.
    """
    first = np.take_along_axis(cols, on.argmax(axis=-1)[..., None, None], axis=-2)
    return ~((cols != first) & on[..., None]).any(axis=-2)
