"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# --- order statistics ---------------------------------------------------------

def test_median_of_odd_and_even_counts():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 99.5) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, level", [(20, 50.0), (100, 90.0), (1000, 99.0), (40, 75.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, level):
    values = [float(v) for v in range(n, 0, -1)]   # unsorted on purpose
    got_level, value = stats.tail_percentile(values)
    assert got_level == pytest.approx(level)
    assert sum(v > value for v in values) == stats.TAIL_SAMPLES


@pytest.mark.parametrize("n", [0, 1, 9, 10])
def test_tail_percentile_needs_more_than_ten_samples(n):
    assert stats.tail_percentile([1.0] * n) is None


# --- self time ------------------------------------------------------------------

def _covered(intervals):
    cover = stats.Cover()
    for start, end in sorted(intervals):
        cover.add(start, end)
    return cover.length


def test_cover_counts_overlapping_children_once():
    # union of [0, 0.5], [1, 5] and [8, 10] is 6.5
    children = [(2.0, 5.0), (1.0, 3.0), (4.0, 4.5), (8.0, 10.0), (0.0, 0.5)]
    assert _covered(children) == pytest.approx(6.5)


def test_cover_counts_a_nested_child_inside_its_parent_once():
    assert _covered([(1.0, 3.0), (1.5, 2.0)]) == pytest.approx(2.0)
    assert _covered([]) == 0.0


def test_tracer_self_time_with_nested_spans(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 6.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    with tracer.span("outer"):                 # 0 .. 10
        with tracer.span("child"):             # 1 .. 5
            with tracer.span("leaf"):          # 2 .. 4
                pass
        with tracer.span("leaf"):              # 5 .. 6
            pass
    spans = tracer.spans
    assert spans[("outer", "")] == [1, 10.0, 5.0]
    assert spans[("child", "outer")] == [1, 4.0, 2.0]
    assert spans[("leaf", "child")] == [1, 2.0, 2.0]
    assert spans[("leaf", "outer")] == [1, 1.0, 1.0]
    assert tracer.totals("leaf") == (2, 3.0)


def test_tracer_classifies_errors_leaving_fit_logit_and_replicates():
    tracer = tracing.Tracer()

    class SeparationDetected(Exception):
        pass

    def failing_fit(*args):
        raise SeparationDetected("separated")

    fit = tracer.wrap("logit.fit_logit", failing_fit)
    nuisances = tracer.wrap("attributable_risk.fit_ar_nuisances", lambda: fit())
    with tracer.span("attributable_risk.ar_curve"):
        for b in range(3):
            tracer.mark_replicate("attributable_risk", float(b))
            with pytest.raises(SeparationDetected):
                nuisances()
    metrics = tracer.metrics()
    assert metrics["logit.fit_logit.failed.SeparationDetected"] == 3
    assert metrics["attributable_risk.replicate.dropped.SeparationDetected"] == 3
    assert len(tracer.replicates["attributable_risk"]) == 3


# --- failed share -----------------------------------------------------------------

def test_failed_share_of_mc_counts_each_estimator_once():
    doc = {"command": "mc", "replications": 100,
           "cells": [{"estimator": "parametric", "y_stratum": 0, "n_failed": 0},
                     {"estimator": "parametric", "y_stratum": 1, "n_failed": 0},
                     {"estimator": "sieve", "y_stratum": 0, "n_failed": 3},
                     {"estimator": "sieve", "y_stratum": 1, "n_failed": 3}]}
    assert stats.failure_counts(doc) == (3, 200)
    assert stats.failed_share(doc) == 0.015


def test_failed_share_of_ar_is_dropped_over_b():
    doc = {"command": "ar", "diagnostics": {"n_kept": 350, "n_dropped": 150}}
    assert stats.failure_counts(doc) == (150, 500)
    assert stats.failed_share(doc) == 0.3


def test_failed_share_of_oracle_sums_over_checks():
    doc = {"command": "oracle",
           "results": [{"cases": 80, "failures": 0}, {"cases": 40, "failures": 2}]}
    assert stats.failure_counts(doc) == (2, 120)


def test_failed_share_rejects_other_commands():
    with pytest.raises(ValueError):
        stats.failed_share({"command": "demo"})


# --- output check ---------------------------------------------------------------------

def _reference_doc(name: str) -> dict:
    return run.load_reference(name)["0"]


def test_reference_doc_matches_itself():
    for name in run.WORKLOADS:
        doc = _reference_doc(name)
        assert stats.first_difference(copy.deepcopy(doc), doc) is None


def test_perturbed_reference_value_is_caught():
    ref = _reference_doc("ar_cc")
    doc = copy.deepcopy(ref)
    doc["curve"]["upper"][7] += 1e-8
    diff = stats.first_difference(doc, ref)
    assert diff is not None and diff.startswith("$.curve.upper[7]")
    # within 1e-10 is the same output
    doc["curve"]["upper"][7] = ref["curve"]["upper"][7] + 1e-12
    assert stats.first_difference(doc, ref) is None


def test_first_difference_names_the_first_field():
    ref = {"a": [1.0, 2.0], "b": {"c": 3, "d": "x"}}
    assert stats.first_difference({"a": [1.0, 2.0], "b": {"c": 4, "d": "x"}}, ref) \
        == "$.b.c: 4 != reference 3"
    assert stats.first_difference({"a": [1.0], "b": {"c": 3, "d": "x"}}, ref) \
        == "$.a: expected a list of 2"
    assert "keys" in stats.first_difference({"a": [1.0, 2.0]}, ref)


def test_check_output_requires_exact_failed_share():
    ref = _reference_doc("ar_cp_spline")
    doc = copy.deepcopy(ref)
    doc["diagnostics"]["n_dropped"] += 1
    doc["diagnostics"]["n_kept"] -= 1
    problem = run.check_output({"exit_code": 0, "doc": doc}, ref)
    assert problem is not None and problem.startswith("failed_share")
    assert run.check_output({"exit_code": 3, "doc": None}, ref) \
        == "CLI exited with code 3"


# --- speed probe ---------------------------------------------------------------------

def test_speed_probe_takes_a_pass_at_start_and_stops_on_exit():
    with run.SpeedProbe() as probe:
        pass
    assert len(probe.times) == 1 and probe.times[0] > 0
    assert not probe._thread.is_alive()


# --- tracing against the program ------------------------------------------------------

def test_install_wraps_every_binding_and_restores_it():
    import casebound.attributable_risk as ar
    import casebound.checks as checks
    import casebound.logit as logit
    import casebound.oracle as oracle

    originals = (logit.fit_logit, ar.fit_logit, checks.gamma, oracle.gamma)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert ar.fit_logit is not originals[1]
        assert ar.fit_logit is logit.fit_logit
        assert checks.gamma is oracle.gamma is not originals[2]
        from casebound.rng import RngSpec
        pop = oracle.random_population(RngSpec(0).derive("pop"), n_cells=2)
        from casebound.model import Design
        checks.gamma(checks.project(pop, Design.CASE_CONTROL, 0.3), 0, 0.2)
    finally:
        restore()
    assert (logit.fit_logit, ar.fit_logit, checks.gamma, oracle.gamma) == originals
    assert tracer.totals("oracle.gamma")[0] == 1
    assert tracer.totals("oracle.project")[0] == 1
    assert tracer.totals("rng.derive")[0] == 1


# --- the benchmark definition ---------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(m)
                                                      for m in tracing.PER_LAYER]
