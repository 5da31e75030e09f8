"""Arithmetic of the benchmark: order statistics, the interval union behind
span self time, the reference comparison and the failed share of each
command's JSON document.

Standard library only, so the runner can use it without importing the
program under test.
"""

from __future__ import annotations

import math
import statistics

# Numbers in a CLI document must match the stored reference to this
# tolerance, relative for magnitudes above 1 and absolute below.
REFERENCE_TOL = 1e-10

# The tail rule: report the highest percentile that still has this many
# samples beyond it.
TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, level: float) -> float:
    """Nearest-rank percentile: the smallest sample whose empirical CDF
    reaches level/100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(level / 100.0 * len(ordered))
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


def tail_percentile(values) -> tuple[float, float] | None:
    """(level, value) of the highest percentile with at least TAIL_SAMPLES
    samples beyond it, or None when there are too few samples.

    With n samples the highest such order statistic has rank n - 10, which
    is the nearest-rank percentile at level 100 * (n - 10) / n.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_SAMPLES
    if rank < 1:
        return None
    return 100.0 * rank / n, float(ordered[rank - 1])


class Cover:
    """Running length of the union of intervals added in order of start.

    A span's self time is its duration minus the Cover of its children, so
    nested or overlapping children are subtracted once.
    """

    __slots__ = ("length", "_end")

    def __init__(self):
        self.length = 0.0
        self._end = -math.inf

    def add(self, start: float, end: float) -> None:
        if end <= self._end:
            return
        self.length += end - max(start, self._end)
        self._end = end


def first_difference(doc, ref, path: str = "$") -> str | None:
    """Path and values of the first field where `doc` differs from `ref`,
    or None when they agree.

    Floats agree within REFERENCE_TOL; integers, strings, booleans and
    nulls must be equal, and containers must have the same shape.
    """
    if isinstance(ref, dict):
        if not isinstance(doc, dict):
            return f"{path}: expected an object, got {type(doc).__name__}"
        if sorted(doc) != sorted(ref):
            return f"{path}: keys {sorted(doc)} differ from reference {sorted(ref)}"
        for key in ref:
            diff = first_difference(doc[key], ref[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (d, r) in enumerate(zip(doc, ref)):
            diff = first_difference(d, r, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool):
        if math.isnan(ref) and math.isnan(doc):
            return None
        if abs(doc - ref) <= REFERENCE_TOL * max(1.0, abs(ref)):
            return None
        return f"{path}: {doc!r} != reference {ref!r}"
    if type(doc) is not type(ref) or doc != ref:
        return f"{path}: {doc!r} != reference {ref!r}"
    return None


def failure_counts(doc: dict) -> tuple[int, int]:
    """(failed, attempted) operations reported in a CLI JSON document.

    mc: failed replicates summed over estimators, out of estimators x
    replications (each estimator's count appears once per stratum cell).
    ar: dropped bootstrap replicates out of B.  oracle: failed cases out of
    checked cases, summed over checks.
    """
    command = doc["command"]
    if command == "mc":
        per_estimator = {c["estimator"]: c["n_failed"] for c in doc["cells"]}
        return sum(per_estimator.values()), len(per_estimator) * doc["replications"]
    if command == "ar":
        diag = doc["diagnostics"]
        return diag["n_dropped"], diag["n_kept"] + diag["n_dropped"]
    if command == "oracle":
        return (sum(r["failures"] for r in doc["results"]),
                sum(r["cases"] for r in doc["results"]))
    raise ValueError(f"no failure count for command {command!r}")


def failed_share(doc: dict) -> float:
    failed, attempted = failure_counts(doc)
    return failed / attempted
