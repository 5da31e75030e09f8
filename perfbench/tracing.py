"""Spans around the program's layers, recorded from outside the program.

`install` replaces the public functions of the casebound modules, wherever
a module has bound them under their own name (``casebound.attributable_risk
.fit_logit`` as well as ``casebound.logit.fit_logit``), by wrappers that open
and close spans on a `Tracer`; the function it returns puts every original
back.  Three methods are wrapped on their classes: the dataset constructor,
the population assumption check, and stream derivation, which also marks
the replicate boundaries of the AR bootstrap and the MC study.

Spans are not stored one by one: each closed span is folded into a
(name, parent) aggregate of calls, total and self time, so the half a
million scalar oracle calls of a run fit in memory.  Only `fit_logit`
durations and replicate durations are kept individually, for percentiles.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

from stats import Cover, median, percentile

LAYERS = ("logit", "basis", "relative_risk", "attributable_risk", "model", "rng",
          "synthetic", "oracle", "checks")

# (class path, method, span name) of the wrapped methods
METHODS = (
    ("model.ObservedDataset", "__init__", "model.ObservedDataset"),
    ("oracle.DiscretePopulation", "check_assumptions",
     "oracle.DiscretePopulation.check_assumptions"),
    ("rng.RngSpec", "derive", "rng.derive"),
)

# derive() purposes that start one replicate, and the replicate's layer
REPLICATE_PURPOSES = {"ar-bootstrap": "attributable_risk", "mc-replicate": "synthetic"}
REPLICATE_LOOPS = ("attributable_risk.ar_curve", "synthetic.run_mc_study")

# Exception classes reported by name; anything else counts as "other".
# NuisanceProbabilityOutOfRange is shortened to keep metric names short.
LOGIT_ERRORS = ("SeparationDetected", "Singular", "NotConverged", "ValidationError")
REPLICATE_ERRORS = ("SeparationDetected", "Singular", "NotConverged",
                    "NuisanceOutOfRange", "ZeroDenominator",
                    "DegenerateColumn", "EmptyStratum", "ValidationError")
_SHORT_NAMES = {"NuisanceProbabilityOutOfRange": "NuisanceOutOfRange"}

_CALLS_AND_SELF = (
    "attributable_risk.upper_bound_curve_values", "model.ObservedDataset",
    "basis.build_basis", "oracle.project", "oracle.r_case_prob", "oracle.gamma",
    "oracle.gamma_ar", "oracle.bounds_ar", "oracle.bounds_rr",
    "oracle.random_population", "oracle.DiscretePopulation.check_assumptions",
)
_SELF_ONLY = (
    "attributable_risk.fit_ar_nuisances", "attributable_risk.estimate_xi_cp",
    "attributable_risk.ar_curve", "model.ingest_csv", "rng.resample_indices",
    "relative_risk.estimate_beta_combined", "synthetic.draw_mc_sample",
    "checks.run_identity_suite",
)

# Per-layer metrics a traced worker reports, in the order they are printed.
SPAN_METRICS = (
    ["logit.fit_logit.calls", "logit.fit_logit.self_s", "logit.fit_logit.ms_p50",
     "logit.fit_logit.ms_p99", "logit.fit_logit.iterations", "logit.fit_logit.cells"]
    + [f"logit.fit_logit.failed.{e}" for e in LOGIT_ERRORS + ("other",)]
    + [f"attributable_risk.replicate.dropped.{e}" for e in REPLICATE_ERRORS + ("other",)]
    + ["attributable_risk.replicate.ms_p50", "attributable_risk.replicate.ms_p99",
       "synthetic.replicate.ms_p50", "synthetic.replicate.ms_p99", "rng.derive.calls"]
    + [f"{name}.{m}" for name in _CALLS_AND_SELF for m in ("calls", "self_s")]
    + [f"{name}.self_s" for name in _SELF_ONLY]
    + ["cli.self_s"]
)

# What the runner adds: CPU use of untraced workers, import times from
# `python -X importtime`, and traced minus untraced wall time.
RUNNER_METRICS = ("process.cpu_per_wall", "setup.import.scipy_stats_s",
                  "setup.import.casebound_s", "trace.overhead_s")

PER_LAYER = tuple(SPAN_METRICS) + RUNNER_METRICS


class Tracer:
    """Span stack plus (name, parent) aggregates for one process."""

    def __init__(self):
        self._stack = []        # open spans: [name, start, Cover of children]
        self.spans = {}         # (name, parent) -> [calls, total_s, self_s]
        self.durations = {"logit.fit_logit": []}
        self.counts = Counter()
        self.replicates = {layer: [] for layer in REPLICATE_PURPOSES.values()}
        self._open_replicate = None   # (layer, start)

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), Cover()]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, exc: BaseException | None = None) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, cover = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2].add(start, end)
        agg = self.spans.setdefault((name, parent[0] if parent else ""), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - cover.length
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if exc is not None:
            self._record_error(name, parent, exc)
        if name in REPLICATE_LOOPS:
            self.mark_replicate(None, end)

    def _record_error(self, name, parent, exc):
        cls = type(exc).__name__
        cls = _SHORT_NAMES.get(cls, cls)
        if name == "logit.fit_logit":
            self.counts[f"logit.fit_logit.failed.{cls if cls in LOGIT_ERRORS else 'other'}"] += 1
        # an error leaving a span called by the bootstrap loop drops the replicate
        if (self._open_replicate is not None
                and self._open_replicate[0] == "attributable_risk"
                and parent is not None and parent[0] == "attributable_risk.ar_curve"):
            key = cls if cls in REPLICATE_ERRORS else "other"
            self.counts[f"attributable_risk.replicate.dropped.{key}"] += 1

    def mark_replicate(self, layer: str | None, now: float) -> None:
        """Close the open replicate at `now` and, given a layer, open the next."""
        if self._open_replicate is not None:
            open_layer, start = self._open_replicate
            self.replicates[open_layer].append(now - start)
        self._open_replicate = (layer, now) if layer else None

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        except BaseException as exc:
            self.leave(frame, exc)
            raise
        self.leave(frame)

    def wrap(self, name: str, fn):
        enter, leave = self.enter, self.leave
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, exc)
                raise
            leave(frame)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a span name, summed over its parents."""
        calls, self_s = 0, 0.0
        for (span_name, _), (c, _, s) in self.spans.items():
            if span_name == name:
                calls += c
                self_s += s
        return calls, self_s

    def metrics(self) -> dict:
        """Every name in SPAN_METRICS with its value for this process."""
        out = {}
        for name in ("logit.fit_logit",) + _CALLS_AND_SELF + _SELF_ONLY + ("cli", "rng.derive"):
            calls, self_s = self.totals(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        fits = self.durations["logit.fit_logit"]
        out["logit.fit_logit.ms_p50"] = 1e3 * median(fits) if fits else 0.0
        out["logit.fit_logit.ms_p99"] = 1e3 * percentile(fits, 99) if fits else 0.0
        for layer, durations in self.replicates.items():
            out[f"{layer}.replicate.ms_p50"] = 1e3 * median(durations) if durations else 0.0
            out[f"{layer}.replicate.ms_p99"] = (1e3 * percentile(durations, 99)
                                                if durations else 0.0)
        for name in SPAN_METRICS:
            if name not in out:
                out[name] = self.counts.get(name, 0)
        return {name: out[name] for name in SPAN_METRICS}

    def table(self) -> list[tuple[str, str, int, float, float]]:
        """(name, parent, calls, total_s, self_s) rows, largest self time first."""
        rows = [(name, parent, c, total, s)
                for (name, parent), (c, total, s) in self.spans.items()]
        return sorted(rows, key=lambda row: -row[4])


def _after_fit_logit(tracer, args, kwargs, result):
    response = args[0] if args else kwargs["response"]
    design = args[1] if len(args) > 1 else kwargs["design"]
    ncol = design.shape[1] if getattr(design, "ndim", 1) == 2 else 1
    tracer.counts["logit.fit_logit.iterations"] += result.iterations
    tracer.counts["logit.fit_logit.cells"] += len(response) * (ncol + 1)


def _before_derive(tracer, args, kwargs):
    purpose = args[1] if len(args) > 1 else kwargs.get("purpose")
    layer = REPLICATE_PURPOSES.get(purpose)
    if layer is not None:
        tracer.mark_replicate(layer, perf_counter())


_BEFORE = {"rng.derive": _before_derive}
_AFTER = {"logit.fit_logit": _after_fit_logit}


def install(tracer: Tracer):
    """Wrap every public function of the LAYERS modules and the METHODS,
    under every module-level name bound to them.  Returns a function that
    restores the originals."""
    wrappers = {}   # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"casebound.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    restore = []
    try:
        for owner_path, method, name in METHODS:
            layer, cls_name = owner_path.split(".")
            cls = getattr(importlib.import_module(f"casebound.{layer}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(name, original))
            restore.append((cls, method, original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "casebound"
                                      or mod_name.startswith("casebound.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    restore.append((module, attr, obj))
    except BaseException:
        _restore(restore)
        raise
    return lambda: _restore(restore)


def _restore(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
