"""Bundled demonstration tables and benchmark constants.

The count tables ship with the package (data/fixtures.json) so the demo
and the oracle checks run without external data.  The benchmark-estimate
block is documentation: reference numbers from the original analyses of
these datasets, whose microdata is not distributed here.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

import numpy as np

from .model import CountTable2x2
from .oracle import DiscretePopulation
from .synthetic import MCDesign

__all__ = [
    "load_fixtures",
    "count_table",
    "top_income_population",
    "mc_defaults",
    "benchmark_estimates",
    "FOOTNOTE_RETRO_PROBS",
]

# single-cell illustration of a treatment that is rare among controls but
# common among cases: Pi(1|0) = 0.1, Pi(1|1) = 0.7
FOOTNOTE_RETRO_PROBS = (0.1, 0.7)


@cache
def load_fixtures() -> dict:
    text = resources.files("casebound").joinpath("data/fixtures.json").read_text()
    return json.loads(text)


def count_table(name: str) -> CountTable2x2:
    """One of the bundled 2x2 tables, by key in data/fixtures.json."""
    spec = load_fixtures()["count_tables"][name]
    return CountTable2x2(n00=spec["n00"], n01=spec["n01"],
                         n10=spec["n10"], n11=spec["n11"])


def top_income_population() -> DiscretePopulation:
    """The survey cross-tab as a single-cell finite population.

    Potential outcomes are coupled as Y*(0) = Y*(1) = observed outcome, the
    weakest completion consistent with the table: projections and odds
    ratios depend only on the factual (T*, Y*) law it reproduces exactly.
    """
    table = count_table("top_income_population")
    pmf = np.zeros((1, 2, 2, 2))
    total = table.total
    cells = table.cells  # [y, t]
    for y in (0, 1):
        for t in (0, 1):
            pmf[0, t, y, y] = cells[y, t] / total
    return DiscretePopulation(support_x=np.zeros((1, 1)), pmf=pmf)


def mc_defaults() -> MCDesign:
    """The benchmark MC design: MCDesign's defaults, stated there alone."""
    return MCDesign()


def benchmark_estimates() -> dict:
    return load_fixtures()["benchmark_estimates"]
