"""Causal position-effect estimation for ranked-item marketplaces.

Past A/B tests shift item rankings without touching user-side relevance, so
their arms can instrument for position. This package provides the full
pipeline: data model, a ground-truth simulator, design preparation (one row
per request, per-item slices, instrument expansion, session aggregation),
OLS/2SLS/ILS estimation with cluster-robust inference, a frozen registry of
model specifications, and paper-style reporting.
"""

from .datamodel import (
    Dataset,
    EdgeObservation,
    from_edges,
    load_dataset,
    write_dataset,
)
from .estimator import (
    EffectEstimate,
    FirstStageReport,
    FitResult,
    aggregate_effect,
    cluster_cov,
    first_stage,
    fit_2sls,
    fit_ils,
    fit_ols,
    significance_stars,
)
from .prepare import (
    DesignMatrix,
    aggregate_sessions,
    build_design,
    sample_one_per_request,
    slice_by_item,
    top_items,
)
from .simulator import SimConfig, SimTruth, ground_truth_tau, simulate
from .specs import ModelSpec, builtin_specs, get_spec, parse_spec, spec_to_json
from .tables import format_value, render_table

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DesignMatrix",
    "EdgeObservation",
    "EffectEstimate",
    "FirstStageReport",
    "FitResult",
    "ModelSpec",
    "SimConfig",
    "SimTruth",
    "aggregate_effect",
    "aggregate_sessions",
    "build_design",
    "builtin_specs",
    "cluster_cov",
    "first_stage",
    "fit_2sls",
    "fit_ils",
    "fit_ols",
    "format_value",
    "from_edges",
    "get_spec",
    "ground_truth_tau",
    "load_dataset",
    "parse_spec",
    "render_table",
    "sample_one_per_request",
    "significance_stars",
    "simulate",
    "slice_by_item",
    "spec_to_json",
    "top_items",
    "write_dataset",
]
