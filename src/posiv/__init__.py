"""Causal position-effect estimation for ranked-item marketplaces.

Past A/B tests shift item rankings without touching user-side relevance, so
their arms can instrument for position. This package provides the full
pipeline: data model, a ground-truth simulator, design preparation (one row
per request, per-item slices, instrument expansion, session aggregation),
OLS/2SLS/ILS estimation with cluster-robust inference, a frozen registry of
model specifications, and paper-style reporting.

Public names live in their modules (``from posiv.estimator import
fit_2sls``); importing the package loads none of them.
"""

__version__ = "0.1.0"
