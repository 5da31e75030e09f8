"""casebound: partial-identification bounds and efficient estimation for
outcome-stratified (case-control and case-population) samples.

The package computes sharp bounds on causal relative risk and causal
attributable risk, estimates the stratum-aggregated log odds ratio with a
retrospective sieve logistic estimator (influence-function standard errors
included), and builds confidence bands indexed by the unknown true case
probability.  A finite-population oracle verifies every identification
formula by enumeration.
"""

__version__ = "0.1.0"

from .attributable_risk import (
    ARCurve,
    BootstrapDiagnostics,
    ar_curve,
    estimate_beta_ar,
    estimate_xi_cp,
)
from .basis import BasisSpec, CubicSplineTerm, Linear, Polynomial, build_basis
from .errors import CaseboundError, ValidationError
from .logit import LogitFit, fit_logit
from .model import (
    ColumnSchema,
    CountTable2x2,
    Design,
    ObservedDataset,
    export_csv,
    ingest_csv,
    odds_ratio_2x2,
)
from .oracle import (
    AssumptionSet,
    DiscretePopulation,
    ObservedLaw,
    bounds_ar,
    bounds_rr,
    gamma,
    gamma_ar,
    project,
    r_case_prob,
    random_population,
    rare_disease_slope,
)
from .relative_risk import (
    BetaEstimate,
    EIFRecord,
    NuisanceFit,
    RRBand,
    eif_record,
    estimate_beta_combined,
    estimate_beta_plugin,
    estimate_kappa,
    fit_nuisances,
    rr_band,
)
from .rng import RngSpec
from .synthetic import MCDesign, draw_mc_sample, run_mc_study, sample_from_population

__all__ = [
    "__version__",
    "ARCurve", "BootstrapDiagnostics", "ar_curve", "estimate_beta_ar", "estimate_xi_cp",
    "BasisSpec", "CubicSplineTerm", "Linear", "Polynomial", "build_basis",
    "CaseboundError", "ValidationError",
    "LogitFit", "fit_logit",
    "ColumnSchema", "CountTable2x2", "Design", "ObservedDataset",
    "export_csv", "ingest_csv", "odds_ratio_2x2",
    "AssumptionSet", "DiscretePopulation", "ObservedLaw", "bounds_ar", "bounds_rr",
    "gamma", "gamma_ar", "project", "r_case_prob", "random_population",
    "rare_disease_slope",
    "BetaEstimate", "EIFRecord", "NuisanceFit", "RRBand", "eif_record",
    "estimate_beta_combined", "estimate_beta_plugin", "estimate_kappa",
    "fit_nuisances", "rr_band",
    "RngSpec",
    "MCDesign", "draw_mc_sample", "run_mc_study", "sample_from_population",
]
