"""Command-line interface.

Subcommands: rr (relative-risk estimates and band), ar (attributable-risk
curve), oracle (identity suite on finite populations), mc (simulation
study), demo (bundled 2x2 tables).  Outputs are plain tables on stdout,
or a self-describing JSON document with --format json; grid outputs go to
files under --out.  Exit codes: 0 success, 2 validation/ingestion, 3
estimation, 4 bootstrap, 5 identification-law errors, 6 a failed check
under oracle --strict, 1 anything else.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import time

import click
import numpy as np

from . import __version__
from .attributable_risk import ar_curve
from .basis import BasisSpec, CubicSplineTerm, Linear, Polynomial
from .checks import check_population, render_report, run_identity_suite
from .errors import (
    BootstrapDegenerate,
    CaseboundError,
    NotConverged,
    NuisanceProbabilityOutOfRange,
    OverlapViolation,
    SeparationDetected,
    Singular,
    ValidationError,
    ZeroDenominator,
    ZeroRetroProb,
)
from .fixtures import FOOTNOTE_RETRO_PROBS, count_table, mc_defaults, top_income_population
from .model import ColumnSchema, Design, ingest_csv, odds_ratio_2x2
from .oracle import gamma, gamma_formula, load_population, project
from .relative_risk import estimate_beta_combined, fit_nuisances, p_grid, rr_band
from .rng import RngSpec
from .special import ndtri
from .synthetic import run_mc_study

SCHEMA_VERSION = 1

_EXIT_CODES = (
    (ValidationError, 2),
    ((SeparationDetected, Singular, NotConverged, NuisanceProbabilityOutOfRange), 3),
    (BootstrapDegenerate, 4),
    ((OverlapViolation, ZeroRetroProb, ZeroDenominator), 5),
    (CaseboundError, 1),
)


def _exit_code(exc: CaseboundError) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def _run(fn):
    try:
        fn()
    except CaseboundError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_code(exc))


def _term_size(tok: str, prefix: str, default: int) -> int:
    try:
        return int(tok[len(prefix):] or default)
    except ValueError:
        raise ValidationError(f"basis term {tok!r}: {prefix} takes an integer suffix") from None


def _parse_basis(text: str, k: int, interactions: bool) -> BasisSpec:
    """'linear' | 'poly<d>' | 'spline<m>', or a comma list with one entry
    per covariate column."""
    terms = []
    for tok in (tok.strip() for tok in text.split(",")):
        if tok == "linear":
            terms.append(Linear())
        elif tok.startswith("poly"):
            terms.append(Polynomial(_term_size(tok, "poly", 2)))
        elif tok.startswith("spline"):
            terms.append(CubicSplineTerm(_term_size(tok, "spline", 3)))
        else:
            raise ValidationError(f"unknown basis term {tok!r}")
    if len(terms) == 1:
        terms = terms * k
    if len(terms) != k:
        raise ValidationError(
            f"basis spec lists {len(terms)} terms for {k} covariate columns")
    return BasisSpec(terms=tuple(terms), interactions=interactions)


def _load_dataset(input_path, design, y_col, t_col, x_cols, h0):
    schema = ColumnSchema(y=y_col, t=t_col, x=tuple((x_cols or "").split(",")))
    data, report = ingest_csv(input_path, schema, Design.parse(design), h0)
    if report.n_dropped:
        more = "..." if report.n_dropped > 10 else ""
        click.echo(f"note: dropped {report.n_dropped} incomplete rows "
                   f"(indices {list(report.dropped_rows[:10])}{more})", err=True)
    return data


def _emit(doc: dict, text: str, fmt: str) -> None:
    click.echo(_json(doc) if fmt == "json" else text)


def _json(doc: dict) -> str:
    """doc as every JSON document the CLI writes, stdout's or a file's:
    schema_version first, and a non-finite float as null."""
    return json.dumps(_jsonable({"schema_version": SCHEMA_VERSION, **doc}), indent=2,
                      allow_nan=False)


def _jsonable(obj):
    """obj in JSON's types; JSON has no infinity, so a non-finite float is null."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return np.where(np.isfinite(obj), obj, None).tolist()
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _exp(value: float) -> float:
    """exp(value), or +inf where it overflows."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _write_grid(path: pathlib.Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _out_dir(out: str | None) -> pathlib.Path | None:
    """The --out directory, created before any fit or draw, or None."""
    if out is None:
        return None
    outdir = pathlib.Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{out}: cannot create the output directory "
                              f"({exc.strerror})") from None
    return outdir


_seed_option = click.option("--seed", type=int, envvar="CASEBOUND_SEED", default=0,
                            show_default=True, help="master seed (env CASEBOUND_SEED)")
_format_option = click.option("--format", "fmt", type=click.Choice(["tabular", "json"]),
                              default="tabular", show_default=True)
_INPUT_FILE = click.Path(exists=True, dir_okay=False)  # a directory is a usage error
_OUT_DIR = click.Path(file_okay=False)  # an existing file is a usage error
_DATA_OPTIONS = (
    click.option("--input", "input_path", required=True, type=_INPUT_FILE),
    click.option("--design", required=True, help="case-control | case-population"),
    click.option("--y-col", required=True),
    click.option("--t-col", required=True),
    click.option("--x-cols", default="", help="comma-separated covariate columns"),
    click.option("--h0", type=float, default=None,
                 help="stratum probability Pr(Y=1); default: sample mean of y"),
    click.option("--interactions", is_flag=True, help="add pairwise covariate products"),
    click.option("--alpha", type=float, default=0.05, show_default=True),
    click.option("--pbar", type=float, default=1.0, show_default=True,
                 help="upper bound on the true case probability"),
    click.option("--grid-step", type=float, default=0.01, show_default=True),
    click.option("--out", type=_OUT_DIR, default=None,
                 help="directory for the grid output files"),
)


def _data_options(command):
    """The data, grid and output options that rr and ar share."""
    for option in reversed(_DATA_OPTIONS):
        command = option(command)
    return command


# glibc serves blocks of 128 KiB or more by mmap, and gives free memory at the
# top of the heap back to the system once more than 128 KiB of it is free; it
# raises both limits the first time it unmaps a block.  A process that has
# loaded only numpy may never do so, and then faults in the pages of every
# large temporary anew: an `mc` call took 8,700 page faults against 460, and
# about 8 % more time on a 2-core x86 VM, than with the limits raised.  Freeing
# one untouched block of this many bytes raises them; with another allocator
# it costs nothing.
_HEAP_SETTLING_BYTES = 4 << 20


@click.group()
@click.version_option(version=__version__)
def main():
    """Causal bounds and inference from case-control / case-population samples."""
    np.empty(_HEAP_SETTLING_BYTES, dtype=np.uint8)  # allocated and freed at once


@main.command()
@_format_option
def demo(fmt):
    """Odds ratios of the bundled tables, plus the sampling-design projections."""
    def body():
        t0 = time.perf_counter()
        tables = {
            "population cross-tab (prospective)": "top_income_population",
            "case-control reweighting (rounded counts)": "top_income_case_control",
            "case-population reweighting (rounded counts)": "top_income_case_population",
            "university entry by private school": "university_private_school",
        }
        ors = {label: odds_ratio_2x2(count_table(name))
               for label, name in tables.items()}
        pop = top_income_population()
        law_cc = project(pop, Design.CASE_CONTROL, h0=921.0 / 1766.0)
        law_cp = project(pop, Design.CASE_POPULATION, h0=0.05)
        projected = {
            "case-control projection (exact)": gamma(law_cc, 0, 0.0),
            "case-population projection (exact)": gamma(law_cp, 0, 0.0),
        }
        pi0, pi1 = FOOTNOTE_RETRO_PROBS
        elapsed = time.perf_counter() - t0
        lines = ["odds ratios from the bundled 2x2 tables:"]
        for label, value in ors.items():
            lines.append(f"  {value:8.4f}  {label}")
        lines.append("exact projections of the population cross-tab:")
        for label, value in projected.items():
            lines.append(f"  {value:8.4f}  {label}")
        lines.append(
            f"note: the case-population table's rounded counts give "
            f"{ors['case-population reweighting (rounded counts)']:.4f}; the exact "
            f"reweighting gives {projected['case-population projection (exact)']:.4f}.")
        lines.append(
            f"rare-treatment illustration (Pi(1|0)={pi0}, Pi(1|1)={pi1}): the "
            f"odds ratio overstates the p=0.01 bound by "
            f"{gamma_formula(pi0, pi1, 0.0) - gamma_formula(pi0, pi1, 0.01):.3f} "
            f"(odds ratio 21.0)")
        lines.append(f"elapsed: {elapsed:.3f}s")
        _emit({"command": "demo", "odds_ratios": ors, "projections": projected,
               "elapsed_seconds": elapsed}, "\n".join(lines), fmt)
    _run(body)


@main.command()
@_data_options
@click.option("--basis", default="linear", show_default=True,
              help="retrospective basis: linear | poly<d> | spline<m> | comma list")
@_format_option
def rr(input_path, design, y_col, t_col, x_cols, h0, basis, interactions,
       alpha, pbar, grid_step, out, fmt):
    """Stratum aggregates of the log odds ratio and the relative-risk band."""
    def body():
        outdir = _out_dir(out)
        if not 0.0 < alpha <= 0.5:
            raise ValidationError("alpha must lie in (0, 0.5]")
        p_grid(pbar, grid_step)  # refuse a bad grid before the fits
        data = _load_dataset(input_path, design, y_col, t_col, x_cols, h0)
        spec = _parse_basis(basis, data.n_covariates, interactions)
        z = ndtri(1.0 - alpha)
        strata = (0, 1) if data.design is Design.CASE_CONTROL else (0,)
        nuis = fit_nuisances(data, spec)
        estimates = {y: estimate_beta_combined(nuis, y) for y in strata}
        beta0 = estimates[0]
        beta1 = estimates.get(1)
        band = rr_band(beta0, beta1, alpha, data.design, pbar=pbar, step=grid_step)

        lines = []
        report = {}
        for y, est in sorted(estimates.items()):
            ub_log = est.value + z * est.se
            lines += [
                f"stratum y={y}:",
                f"  beta({y})            {est.value:10.4f}   (se {est.se:.4f})",
                f"  {100 * (1 - alpha):.0f}% CI            [0, {max(ub_log, 0.0):.4f}]",
                f"  exp[beta({y})]       {_exp(est.value):10.4f}",
                f"  {100 * (1 - alpha):.0f}% CI            [1, {_exp(max(ub_log, 0.0)):.4f}]",
            ]
            report[f"beta{y}"] = {"value": est.value, "se": est.se,
                                  "ci_log": [0.0, max(ub_log, 0.0)],
                                  "exp_value": _exp(est.value),
                                  "ci_level": [1.0, _exp(max(ub_log, 0.0))]}
        if outdir is not None:
            _write_grid(outdir / "rr_band.csv", ["p", "point", "lower", "upper"],
                        band.rows())
            lines.append(f"band grid written to {outdir / 'rr_band.csv'}")
        _emit({"command": "rr", "design": data.design.value, "h0": data.h0,
               "estimates": report,
               "band": {"p": band.p, "point": band.point, "lower": band.lower,
                        "upper": band.upper, "halfwidth": band.halfwidth}},
              "\n".join(lines), fmt)
    _run(body)


@main.command()
@_data_options
@click.option("--retro-basis", default="linear", show_default=True)
@click.option("--prospective-basis", default="linear", show_default=True)
@click.option("--B", "n_boot", type=int, default=1000, show_default=True)
@_seed_option
@click.option("--resample", type=click.Choice(["iid", "stratified"]),
              default="iid", show_default=True)
@_format_option
def ar(input_path, design, y_col, t_col, x_cols, h0, retro_basis,
       prospective_basis, interactions, alpha, pbar, grid_step, n_boot, seed,
       resample, out, fmt):
    """Attributable-risk upper-bound curve with BC bootstrap limits."""
    def body():
        outdir = _out_dir(out)
        data = _load_dataset(input_path, design, y_col, t_col, x_cols, h0)
        rspec = _parse_basis(retro_basis, data.n_covariates, interactions)
        pspec = _parse_basis(prospective_basis, data.n_covariates, interactions)
        curve, diag = ar_curve(data, pspec, rspec, pbar=pbar, alpha=alpha,
                               B=n_boot, seed=RngSpec(seed), step=grid_step,
                               resample_mode=resample)
        lines = [f"{'p':>6} {'point':>10} {'upper':>10}"]
        for p, point, upper in curve.rows():
            lines.append(f"{p:6.3f} {point:10.6f} {upper:10.6f}")
        lines.append(f"mode={curve.mode} B={curve.B} kept={diag.n_kept} "
                     f"dropped={diag.n_dropped}")
        if outdir is not None:
            _write_grid(outdir / "ar_curve.csv",
                        ["p", "point", "upper", "mu_star", "nu_star"],
                        ((curve.p[i], curve.point[i], curve.upper[i],
                          diag.mu_star[i], diag.nu_star[i])
                         for i in range(curve.p.size)))
            (outdir / "ar_diagnostics.json").write_text(_json({
                "mode": curve.mode, "B": curve.B, "alpha": curve.alpha,
                "resample_mode": diag.resample_mode,
                "n_kept": diag.n_kept, "n_dropped": diag.n_dropped,
                "n_clipped_point": diag.n_clipped_point,
                "n_clipped_boot": diag.n_clipped_boot}))
            lines.append(f"curve written to {outdir / 'ar_curve.csv'}")
        _emit({"command": "ar", "design": data.design.value,
               "curve": {"p": curve.p, "point": curve.point, "upper": curve.upper},
               "diagnostics": {"mu_star": diag.mu_star, "nu_star": diag.nu_star,
                               "n_kept": diag.n_kept, "n_dropped": diag.n_dropped}},
              "\n".join(lines), fmt)
    _run(body)


@main.command()
@_seed_option
@click.option("--populations", type=int, default=200, show_default=True,
              help="random populations per identity check")
@click.option("--population", "population_path", type=_INPUT_FILE,
              default=None, help="run the checks on a population fixture file")
@click.option("--strict", is_flag=True, help="exit 6 when a check fails")
@_format_option
def oracle(seed, populations, population_path, strict, fmt):
    """Brute-force verification of the identification identities."""
    def body():
        if population_path is not None:
            results = check_population(load_population(population_path))
        else:
            results = run_identity_suite(seed=seed, n_populations=populations)
        _emit({"command": "oracle",
               "results": [{"name": r.name, "cases": r.n_cases,
                            "failures": r.n_failures, "worst_error": r.worst_error}
                           for r in results]},
              render_report(results), fmt)
        if strict and any(not r.passed for r in results):
            sys.exit(6)
    _run(body)


@main.command()
@click.option("--replications", type=int, default=1000, show_default=True)
@_seed_option
@click.option("--estimators", default="parametric,sieve", show_default=True)
@click.option("--out", type=_OUT_DIR, default=None)
@_format_option
def mc(replications, seed, estimators, out, fmt):
    """Replication study of the benchmark design (six summary statistics)."""
    def body():
        outdir = _out_dir(out)
        names = tuple(e.strip() for e in estimators.split(",") if e.strip())
        result = run_mc_study(mc_defaults(), estimators=names,
                              replications=replications, rng=RngSpec(seed))
        stats = ["mean_bias", "median_bias", "rmse", "mean_abs_dev",
                 "median_abs_dev", "coverage"]
        rows = [["statistic"] + [f"{c.estimator}:beta({c.y_stratum})" for c in result.cells]]
        rows += [[stat] + [f"{getattr(c, stat):.4f}" for c in result.cells] for stat in stats]
        # each column as wide as its widest entry, the labels included
        widths = [max(12, *map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows]
        if outdir is not None:
            (outdir / "mc_summary.json").write_text(_json({
                "seed": seed, "replications": replications,
                "cells": [c.__dict__ for c in result.cells], "failures": result.failures}))
            lines.append(f"summary written to {outdir / 'mc_summary.json'}")
        _emit({"command": "mc", "seed": seed, "replications": replications,
               "cells": [c.__dict__ for c in result.cells]}, "\n".join(lines), fmt)
    _run(body)


if __name__ == "__main__":
    main()
