"""The logistic function and the standard normal cdf and quantile, on numpy.

These are the three special functions the package needs; writing them here
keeps scipy out of the import path.  Each agrees with its scipy.special
namesake to rounding, not bit for bit.

- `expit` is scipy's formula 1/(1 + exp(-x)), with -x capped at 709 so that
  exp never overflows: below x = -709 it reads expit(-709) ~ 1.2e-308
  where scipy's overflowed exp gives 0.
- `ndtr` is the cephes split, erf near 0 and erfc in the tails, on the
  math module's erf and erfc.
- `ndtri` is Wichura's algorithm AS241 (PPND16; 1988, Applied Statistics
  37:477), the algorithm of statistics.NormalDist.inv_cdf, vectorised:
  the central rational function runs on every entry and the tail ones
  only on the entries beyond |p - 0.5| = 0.425.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "ndtr", "ndtri"]

_EXP_ARG_MAX = 709.0
_SQRT1_2 = math.sqrt(0.5)
# AS241 leaves its near-tail coefficients where sqrt(-log(min(p, 1 - p))) > 5
_NEAR_MIN = math.exp(-25.0)


def _pair(num, den) -> np.ndarray:
    # (8, 2, 1): entry i holds the i-th coefficient of num and of den
    return np.array([num, den]).T[:, :, None]


# AS241's numerator and denominator coefficients, highest power first
_CENTRAL = _pair(
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0))
_NEAR = _pair(
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
     1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
     0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0))
_FAR = _pair(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
     0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0))


def expit(x):
    """The logistic function 1/(1 + exp(-x)), elementwise; exp's argument
    is capped so that no overflow warning is raised."""
    return 1.0 / (1.0 + np.exp(np.minimum(np.negative(x), _EXP_ARG_MAX)))


def _ndtr(a: float) -> float:
    if math.isnan(a):  # before any ordered comparison, which would flag it
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0 else y


_ndtr_ufunc = np.frompyfunc(_ndtr, 1, 1)


def ndtr(a):
    """The standard normal cdf, elementwise."""
    return np.asarray(_ndtr_ufunc(np.asarray(a, dtype=float)), dtype=float)[()]


def _horner(r: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    # (num(r), den(r)) by Horner's rule in AS241's operation order, both
    # polynomials in one (2, n) array so that each step is one ufunc call
    acc = coefs[0] * r
    for c in coefs[1:-1]:
        acc += c
        acc *= r
    acc += coefs[-1]
    return acc


def _tail(s: np.ndarray, coefs: np.ndarray, shift: float) -> np.ndarray:
    # AS241 beyond |p - 0.5| = 0.425, for s = min(p, 1 - p) > 0: |quantile|
    num, den = _horner(np.sqrt(-np.log(s)) - shift, coefs)
    return num / den


def ndtri(p):
    """The standard normal quantile, elementwise: -inf at 0, inf at 1 and
    NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    shape = p.shape
    p = p.ravel()
    q = p - 0.5
    r = q * q
    num, den = _horner(np.subtract(0.180625, r, out=r), _CENTRAL)
    num *= q
    x = num / den
    tail = np.flatnonzero(abs(q) > 0.425)  # NaN stays central and stays NaN
    if tail.size:
        pt = p[tail]
        s = np.minimum(pt, 1.0 - pt)
        near, far = s > _NEAR_MIN, (s > 0.0) & (s <= _NEAR_MIN)
        z = np.where(s == 0.0, np.inf, np.nan)  # NaN outside [0, 1]
        z[near] = _tail(s[near], _NEAR, 1.6)
        if far.any():
            z[far] = _tail(s[far], _FAR, 5.0)
        x[tail] = np.copysign(z, q[tail])
    return x.reshape(shape)[()]
