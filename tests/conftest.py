import numpy as np
import pytest

from casebound.basis import build_basis
from casebound.logit import fit_logit
from casebound.model import Design, ObservedDataset
from casebound.oracle import DiscretePopulation


@pytest.fixture
def null_population() -> DiscretePopulation:
    """Unconfounded population with no treatment effect (two cells)."""
    pmf = np.zeros((2, 2, 2, 2))
    for c, (mass, pt, q) in enumerate([(0.6, 0.3, 0.2), (0.4, 0.7, 0.5)]):
        # Y*(0) = Y*(1), success probability q, independent of T* given the cell
        joint = np.array([[1.0 - q, 0.0], [0.0, q]])
        pmf[c, 0] = mass * (1.0 - pt) * joint
        pmf[c, 1] = mass * pt * joint
    return DiscretePopulation(support_x=np.array([[0.0], [1.0]]), pmf=pmf)


def dataset_from_cells(counts: dict[tuple[int, int, float], int],
                       design: Design = Design.CASE_CONTROL,
                       h0: float | None = None) -> ObservedDataset:
    """Expand {(y, t, x): count} into a one-covariate dataset."""
    ys, ts, xs = [], [], []
    for (y, t, x), n in counts.items():
        ys += [y] * n
        ts += [t] * n
        xs += [x] * n
    return ObservedDataset(y=np.array(ys), t=np.array(ts),
                           x=np.array(xs, dtype=float)[:, None],
                           design=design, h0=h0)


@pytest.fixture
def interacted_fit():
    """The fully interacted logit of T on [Y, phi - m, (phi - m) * Y], with
    phi the intercept-safe basis and m its stratum-y mean.  Its coefficient
    on Y is beta(y) and cov[1, 1] its squared se, fitted directly rather
    than read off the two stratum fits."""
    def fit(data: ObservedDataset, spec, y_stratum: int):
        cols = build_basis(data.x, spec)[:, spec.intercept_safe_mask()]
        phi = cols - cols[data.stratum(y_stratum)].mean(axis=0)
        y = data.y.astype(float)
        return fit_logit(data.t, np.column_stack([y, phi, phi * y[:, None]]))
    return fit
