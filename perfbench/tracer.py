"""Span recorder that wraps the public functions of the posiv modules.

Nothing inside posiv is edited: `Tracer.install()` replaces each public
function with a timing wrapper in its defining module and in every posiv
namespace that imported it by name (``cli`` does ``from .datamodel import
load_dataset``), and wraps ``numpy.linalg.svd`` to count factorizations.
Spans are aggregated in memory (calls and inclusive seconds per function)
and written out once by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("datamodel", "simulator", "prepare", "estimator", "specs", "tables", "plots")

# Per-cell or per-number helpers: a span around each call would cost more
# than the work it measures (parse_id runs once per id cell of a load), so
# their time stays inside the span of the layer function that calls them.
UNWRAPPED = {"datamodel.parse_id", "tables.format_value", "estimator.significance_stars"}

# Entry points whose calls count as one fit each in `estimator.fits`.
FIT_ENTRIES = {"estimator.fit_ols", "estimator.fit_2sls", "estimator.fit_ils",
               "estimator.first_stage"}


class Tracer:
    """Calls, inclusive seconds and named counts per wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[str] = []
        self.top_level_s = 0.0  # time covered by spans that have no parent

    def _enter_exit(self, name, fn, args, kwargs, count):
        parent = self.stack[-1] if self.stack else None
        if name in FIT_ENTRIES and not (parent or "").startswith("estimator."):
            self.counts["estimator.fits"] += 1
        self.stack.append(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.calls[name] += 1
            self.seconds[name] += elapsed
            if parent is None:
                self.top_level_s += elapsed
        if count is not None:
            count(self.counts, args, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._enter_exit(name, fn, args, kwargs, count)

        return traced

    def install(self) -> None:
        """Import the posiv layers and swap in the wrappers (once per process)."""
        import numpy.linalg

        modules = {name: importlib.import_module(f"posiv.{name}") for name in LAYERS}
        namespaces = [*modules.values(), importlib.import_module("posiv.cli"),
                      importlib.import_module("posiv")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(name, fn, COUNTERS.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        numpy.linalg.svd = self.wrap("estimator.svd", numpy.linalg.svd, _count_svd)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }


def _count_load(counts, args, ds):
    counts["datamodel.rows_loaded"] += ds.n_rows
    counts["datamodel.rows_dropped"] += ds.n_dropped
    counts["datamodel.rows_duplicate"] += ds.n_duplicates


def _count_write(counts, args, result):
    counts["datamodel.rows_written"] += args[0].n_rows


def _count_simulate(counts, args, result):
    counts["simulator.rows"] += result[0].n_rows


def _count_design(counts, args, design):
    cols = design.w.shape[1] + design.z.shape[1] + design.x.shape[1]
    counts["prepare.design_cells"] += design.n_obs * cols


def _count_svd(counts, args, result):
    rows, cols = args[0].shape[-2:]
    counts["estimator.svd.cells"] += rows * cols


COUNTERS = {
    "datamodel.load_dataset": _count_load,
    "datamodel.write_dataset": _count_write,
    "simulator.simulate": _count_simulate,
    "prepare.build_design": _count_design,
}
