"""Observed-data model: sampling designs, datasets, and 2x2 count tables.

The observed sample is always a list of rows (Y, T, X) produced by outcome-
stratified Bernoulli sampling: Y is the researcher's stratum label drawn with
probability h0, and (T, X) is drawn from the stratum law selected by Y.  Two
stratum laws are supported:

* case-control: both strata condition on the true outcome status;
* case-population: the Y=0 stratum is drawn from the whole population
  (a "contaminated" control group).

Everything downstream branches on this design tag.
"""

from __future__ import annotations

import csv
import enum
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyStratum,
    MissingColumn,
    NonBinaryOutcome,
    ValidationError,
    ZeroCell,
)

__all__ = [
    "Design",
    "ObservedDataset",
    "CountTable2x2",
    "ColumnSchema",
    "IngestReport",
    "open_csv",
    "ingest_csv",
    "export_csv",
    "odds_ratio_2x2",
]


class Design(enum.Enum):
    """Which stratum law generated the Y=0 sample."""

    CASE_CONTROL = "case-control"
    CASE_POPULATION = "case-population"

    @classmethod
    def parse(cls, text: str) -> "Design":
        for d in cls:
            if text.lower() in (d.value, d.name.lower(), d.value.replace("-", "_")):
                return d
        raise ValidationError(f"unknown design {text!r}; expected "
                              f"'case-control' or 'case-population'")


def _as_binary(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    binary = (arr == 0) | (arr == 1)
    if not binary.all():
        # first distinct offenders in row order: no sort, so any dtype works
        bad = list(dict.fromkeys(repr(v) for v in arr[~binary].tolist()))
        raise NonBinaryOutcome(f"{name} contains values outside {{0, 1}}: "
                               f"{', '.join(bad[:5])}")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class ObservedDataset:
    """A validated outcome-stratified sample.

    Parameters
    ----------
    y, t : binary arrays of length n (stratum label, treatment).
    x : float matrix, shape (n, K).  K may be zero.
    design : Design
    h0 : stratum probability Pr(Y=1) in (0, 1), or None to estimate it by
        the sample mean of y.  Estimation happens at construction, before
        any other computation; `h0_estimated` records which path was taken.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray
    design: Design
    h0: float | None = None
    h0_estimated: bool = field(init=False, default=False)

    def __post_init__(self):
        y = _as_binary(self.y, "y")
        t = _as_binary(self.t, "t")
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != y.shape[0] or t.shape[0] != y.shape[0]:
            raise ValidationError("y, t, x must share the same number of rows")
        if not np.all(np.isfinite(x)):
            raise ValidationError("x contains non-finite values after ingestion")
        if y.sum() < 1 or (1 - y).sum() < 1:
            raise EmptyStratum("both outcome strata must be nonempty")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        if self.h0 is None:
            object.__setattr__(self, "h0", float(y.mean()))
            object.__setattr__(self, "h0_estimated", True)
        else:
            h0 = float(self.h0)
            if not 0.0 < h0 < 1.0:
                raise ValidationError(f"h0 must lie in (0, 1), got {h0}")
            object.__setattr__(self, "h0", h0)
        self.y.setflags(write=False)
        self.t.setflags(write=False)
        self.x.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]

    def stratum(self, y: int) -> np.ndarray:
        """Boolean mask of rows in stratum y."""
        return np.asarray(self.y == y)


@dataclass(frozen=True)
class CountTable2x2:
    """Counts n[y][t] of a 2x2 outcome-by-treatment table."""

    n00: int  # y=0, t=0
    n01: int  # y=0, t=1
    n10: int  # y=1, t=0
    n11: int  # y=1, t=1

    def __post_init__(self):
        for name in ("n00", "n01", "n10", "n11"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 0):
                raise ValidationError(f"cell {name} must be a nonnegative integer, got {v!r}")

    @property
    def cells(self) -> np.ndarray:
        """Counts as an array indexed [y, t]."""
        return np.array([[self.n00, self.n01], [self.n10, self.n11]], dtype=np.int64)

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    def to_dataset(self, design: Design, h0: float | None = None) -> ObservedDataset:
        """Expand the counts into one row per unit, with no covariates."""
        y = np.repeat([0, 0, 1, 1], [self.n00, self.n01, self.n10, self.n11])
        t = np.repeat([0, 1, 0, 1], [self.n00, self.n01, self.n10, self.n11])
        return ObservedDataset(y=y, t=t, x=np.empty((y.size, 0)), design=design, h0=h0)


def odds_ratio_2x2(table: CountTable2x2) -> float:
    """Cross-product odds ratio n11*n00 / (n01*n10).

    By the Bayes rule this single number is simultaneously the prospective
    odds ratio (odds of y by t) and the retrospective one (odds of t by y),
    so it is invariant to transposing the table.
    """
    if min(table.n00, table.n01, table.n10, table.n11) == 0:
        raise ZeroCell("all four cells must be positive to form an odds ratio")
    return (table.n11 * table.n00) / (table.n01 * table.n10)


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for CSV ingestion: names of y, t and covariate columns.

    Names are stripped, as header names are, and an empty covariate name is
    dropped.
    """

    y: str
    t: str
    x: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "y", self.y.strip())
        object.__setattr__(self, "t", self.t.strip())
        object.__setattr__(self, "x", tuple(c.strip() for c in self.x if c.strip()))
        names = (self.y, self.t) + self.x
        if len(set(names)) != len(names):
            raise ValidationError("schema maps the same column to multiple roles")


@dataclass(frozen=True)
class IngestReport:
    """Rows rejected during ingestion (0-based data-row indices)."""

    dropped_rows: tuple[int, ...]

    @property
    def n_dropped(self) -> int:
        return len(self.dropped_rows)


def _parse_binary_field(raw: str) -> int | None:
    s = raw.strip()
    if s == "":
        return None
    if s == "0":
        return 0
    if s == "1":
        return 1
    raise NonBinaryOutcome(f"expected literal 0/1, got {raw!r}")


# an ASCII decimal real: `float` alone also reads digit-group underscores
# ("1_000"), non-ASCII digits, "nan" and "inf"
_DECIMAL = re.compile(r"\s*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\s*", re.ASCII)


def _parse_record(row: list[str], ycol: int, tcol: int, xcols: list[int]) -> tuple | None:
    """(y, t, covariates) of one CSV row, or None to drop it: a field is
    missing, y or t is blank, or a covariate is not a finite ASCII decimal
    real."""
    try:
        y, t = _parse_binary_field(row[ycol]), _parse_binary_field(row[tcol])
        if y is None or t is None:
            return None
        xrow = []
        for c in xcols:
            if not _DECIMAL.fullmatch(row[c]):
                return None
            v = float(row[c])
            if not math.isfinite(v):  # a literal beyond the float range
                return None
            xrow.append(v)
    except IndexError:
        return None
    return y, t, xrow


@contextmanager
def open_csv(path):
    """A csv.reader over a file read as UTF-8, skipping a byte-order mark as
    spreadsheets write; a file that is not UTF-8 raises ValidationError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def ingest_csv(path, schema: ColumnSchema, design: Design,
               h0: float | None = None) -> tuple[ObservedDataset, IngestReport]:
    """Read a header-first CSV into a validated dataset.

    y and t columns must contain literal 0/1; covariate columns are parsed
    as decimal reals.  Rows with any missing or unparsable covariate field
    are rejected (never imputed) and reported by index; blank lines are
    skipped unreported.  A mapped column named twice in the header is
    refused.  The file is read by `open_csv`.
    """
    with open_csv(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        cols = []
        for name in (schema.y, schema.t, *schema.x):
            if name not in header:
                raise MissingColumn(f"column {name!r} not found in {path}")
            if header.count(name) > 1:
                raise ValidationError(f"column {name!r} appears more than once in {path}")
            cols.append(header.index(name))

        ycol, tcol, *xcols = cols
        records, dropped = [], []
        for i, row in enumerate(reader):
            if row:  # a blank line is no record
                record = _parse_record(row, ycol, tcol, xcols)
                if record is None:
                    dropped.append(i)
                else:
                    records.append(record)

    if not records:
        raise EmptyStratum(f"{path}: no valid rows after ingestion")
    ys, ts, xs = zip(*records)
    x = np.asarray(xs, dtype=float).reshape(len(ys), len(schema.x))
    data = ObservedDataset(y=np.asarray(ys), t=np.asarray(ts), x=x,
                           design=design, h0=h0)
    return data, IngestReport(dropped_rows=tuple(dropped))


def export_csv(data: ObservedDataset, path, schema: ColumnSchema) -> None:
    """Write the dataset back out under the same column mapping."""
    if len(schema.x) != data.n_covariates:
        raise ValidationError("schema covariate count does not match dataset")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.y, schema.t, *schema.x])
        for i in range(data.n):
            writer.writerow([int(data.y[i]), int(data.t[i]),
                             *(repr(float(v)) for v in data.x[i])])
