"""Command-line front end: simulate, prepare, estimate, diagnose, report.

Exit codes: 0 success, 1 estimation error, 2 input error. All commands are
deterministic functions of their inputs and flags; outputs carry no
timestamps, so identical invocations produce byte-identical files.

Each command imports the layers it runs (estimator, prepare, simulator,
tables, plots) inside its function, so a process loads, and where no
bytecode is cached compiles, only those.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from collections import Counter
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from .datamodel import Dataset, load_dataset, parse_id, write_dataset
from .errors import (
    EstimationError,
    InputError,
    ParseError,
    PosivError,
    UnknownItem,
    WeakInstrumentWarning,
)
from .specs import ModelSpec, builtin_specs, get_spec, parse_spec


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed config JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("config JSON must be an object")
    return obj


def _sim_config(config: dict, seed_flag: int | None):
    from .simulator import SimConfig

    sim = config.get("sim", {k: v for k, v in config.items() if k != "schema_map"})
    if not isinstance(sim, dict):
        raise ParseError(f'config "sim" must be an object, got {sim!r}')
    beside = set(config) - {"sim", "schema_map"} if "sim" in config else set()
    if beside:
        raise ParseError(f'config keys beside "sim": {sorted(beside)}')
    known = {f.name for f in dc_fields(SimConfig)}
    unknown = set(sim) - known
    if unknown:
        raise ParseError(f"unknown simulator config keys: {sorted(unknown)}")
    if seed_flag is not None:
        sim = {**sim, "seed": seed_flag}
    return SimConfig(**sim)


def _load(path: str, config: dict) -> Dataset:
    return load_dataset(path, config.get("schema_map"))


def _spec_argument(token: str) -> ModelSpec:
    """argparse type of a spec, a built-in name or a JSON file, so a bad spec
    exits 2 before any work."""
    if token in {s.name for s in builtin_specs()}:
        return get_spec(token)
    try:
        return parse_spec(Path(token).read_text(encoding="utf-8"))
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"{token!r} is neither a built-in spec name nor a readable file: {exc}"
        ) from None
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _specs_argument(text: str) -> list[ModelSpec]:
    """argparse type of report's comma-separated --specs, as _spec_argument."""
    specs = [_spec_argument(token.strip()) for token in text.split(",") if token.strip()]
    if not specs:
        raise argparse.ArgumentTypeError("no specifications given")
    names = [spec.name for spec in specs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"specifications given more than once: {repeated}")
    return specs


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_for(spec: ModelSpec, design):
    from . import estimator

    if spec.method == "OLS":
        return estimator.fit_ols(design)
    if spec.method == "ILS":
        return estimator.fit_ils(design)
    return estimator.fit_2sls(design)


def _item_argument(text: str) -> str:
    """argparse type of --item: an id as the loader reads an item_id cell
    (parse_id: digits up to 2**64 - 1 as the number, other text FNV-1a
    hashed), kept as given for messages."""
    try:
        parse_id(text)
    except ValueError:  # a digit that int() rejects, such as "²"
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an id: a row with that item_id is dropped") from None
    return text


def _item_slice(ds: Dataset, args) -> Dataset:
    from . import prepare

    try:
        return prepare.slice_by_item(ds, parse_id(args.item), args.sample_seed)
    except UnknownItem:
        raise UnknownItem(f"item {args.item} not present") from None


def _estimation_dataset(ds: Dataset, spec: ModelSpec, args) -> Dataset:
    from . import prepare

    if spec.level == "session":
        if not ds.is_session_level():
            top_cut = 4 if args.session_top_cut is None else args.session_top_cut
            return prepare.aggregate_sessions(ds, top_cut)
        if args.session_top_cut is not None:
            raise InputError("--session-top-cut does not apply to a session-level data file")
        return ds
    if args.item is not None:
        return _item_slice(ds, args)
    if not args.no_sample:
        ds = prepare.sample_one_per_request(ds, args.sample_seed)
    return ds


def cmd_simulate(args) -> int:
    from .simulator import ground_truth_tau, simulate

    config = _sim_config(_read_config(args.config), args.seed)
    out = _outdir(args)
    ds, truth = simulate(config)
    write_dataset(ds, str(out / "dataset.csv"))
    truth_doc = {
        "seed": config.seed,
        "marketplace_mode": config.marketplace_mode,
        "n_rows": truth.n_rows,
        "clip_rate": truth.clip_rate,
        "clip_count": truth.clip_count,
        "mean_slope": float(np.mean(truth.slopes)),
        "tau_move_up_one": ground_truth_tau(truth, 2, 1),
        "slopes": {str(i + 1): float(c) for i, c in enumerate(truth.slopes)},
        "item_direction": {
            str(i + 1): int(d) for i, d in enumerate(truth.item_direction)
        },
        "reason_direction": [int(d) for d in truth.reason_direction],
    }
    (out / "truth.json").write_text(
        json.dumps(truth_doc, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'dataset.csv'} ({ds.n_rows} rows) and {out / 'truth.json'}")
    return 0


def cmd_prepare(args) -> int:
    from . import prepare

    ds = _load(args.data, _read_config(args.config))
    out = _outdir(args)
    if args.top_n is not None:
        items = prepare.top_items(ds, args.top_n)
        ids, n_rows = np.unique(ds.column("item_id"), return_counts=True)
        counts = dict(zip(ids.tolist(), n_rows.tolist()))
        path = out / "top_items.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["item_id", "n_rows"])
            for i in items:
                writer.writerow([i, counts[i]])
        print(f"wrote {path}")
        return 0
    if args.session_top_cut is not None:
        prepared = prepare.aggregate_sessions(ds, args.session_top_cut)
    elif args.item is not None:
        prepared = _item_slice(ds, args)
    else:
        prepared = prepare.sample_one_per_request(ds, args.sample_seed)
    path = out / "prepared.csv"
    write_dataset(prepared, str(path))
    print(f"wrote {path} ({prepared.n_rows} rows)")
    return 0


def cmd_estimate(args) -> int:
    from . import prepare, tables

    ds = _load(args.data, _read_config(args.config))
    ds = _estimation_dataset(ds, args.spec, args)
    design = prepare.build_design(ds, args.spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", WeakInstrumentWarning)
        fit = _fit_for(args.spec, design)
    fit.label = args.spec.name
    for w in caught:
        if issubclass(w.category, WeakInstrumentWarning):
            print(f"warning: {w.message}", file=sys.stderr)

    table = tables.render_table([fit])
    out = _outdir(args)
    (out / "table.txt").write_text(table, encoding="utf-8")
    (out / "fit.json").write_text(tables.fits_to_json([fit]) + "\n", encoding="utf-8")
    if args.format == "json":
        print(tables.fits_to_json([fit]))
    else:
        print(table, end="")
    return 0


def _status(result) -> str:
    return type(result).__name__ if isinstance(result, EstimationError) else "ok"


def _failures(statuses: list[str]) -> str:
    failed = Counter(s for s in statuses if s != "ok")
    detail = "".join(f", {name}={n}" for name, n in sorted(failed.items()))
    return f"failed items: {sum(failed.values())} of {len(statuses)}{detail}"


def cmd_diagnose(args) -> int:
    from . import estimator, plots, prepare

    ds = _load(args.data, _read_config(args.config))
    items = prepare.top_items(ds, args.top_n)
    spec = ModelSpec("first-stage", "edge", "outcome", ("position",), "arm", ())
    design = prepare.build_design(prepare.slice_by_item(ds, items), spec, by_item=True)
    reports = estimator.first_stage(design)
    statuses = [_status(r) for r in reports]
    rows = [
        (label, r.equation("position"))
        for label, r in zip(design.items.labels, reports) if not isinstance(r, EstimationError)
    ]
    out = _outdir(args)
    csv_path = out / "first_stage.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "coef", "se", "ci_low", "ci_high", "status", "classification"])
        for label, report in zip(design.items.labels, reports):
            if isinstance(report, EstimationError):
                writer.writerow([label, "", "", "", "", _status(report), ""])
                continue
            eq = report.equation("position")
            cells = (eq.coef, eq.se, eq.ci_low, eq.ci_high)
            writer.writerow([label, *(repr(float(c[0])) for c in cells), "ok", eq.classification])
    if not rows:
        raise EstimationError(f"every item failed; {_failures(statuses)}; wrote {csv_path}")
    svg_path = out / "first_stage.svg"
    svg_path.write_text(
        plots.forest_svg([(label, float(eq.coef[0]), float(eq.ci_low[0]), float(eq.ci_high[0]),
                           eq.classification) for label, eq in rows]),
        encoding="utf-8",
    )
    shares = {cls: 0 for cls in ("negative", "null", "positive")}
    for _, eq in rows:
        shares[eq.classification] += 1
    print(
        f"wrote {csv_path} and {svg_path}; classes: "
        + ", ".join(f"{k}={v}" for k, v in shares.items())
    )
    print(_failures(statuses))
    return 0


def cmd_report(args) -> int:
    from . import estimator, plots, prepare, tables

    ds = _load(args.data, _read_config(args.config))
    items = prepare.top_items(ds, args.top_n)
    sliced = prepare.slice_by_item(ds, items, args.sample_seed)
    last = int(sliced.column("position").max())
    for flag, k in (("--k1", args.k1), ("--k2", args.k2)):
        if k > last:
            raise InputError(f"{flag} {k} is past the last position of the items' rows ({last})")
    by_spec = []  # per spec: each item's FitResult or EstimationError
    for spec in args.specs:
        design = prepare.build_design(sliced, spec, by_item=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakInstrumentWarning)
            by_spec.append(_fit_for(spec, design))
    labels = [str(item) for item in items]
    per_item = list(zip(*by_spec))  # per item: one result per spec
    # an item fails when any of its specs does, so every tau averages one item set
    statuses = [next((s for s in map(_status, res) if s != "ok"), "ok") for res in per_item]

    out = _outdir(args)
    csv_path = out / "effects.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "spec", "coef", "se", "status"])
        for label, results in zip(labels, per_item):
            for spec, fit in zip(args.specs, results):
                if isinstance(fit, EstimationError):
                    writer.writerow([label, spec.name, "", "", _status(fit)])
                else:
                    name = estimator.effect_name(fit)
                    writer.writerow([label, spec.name, repr(fit.coefficient(name)),
                                     repr(fit.se_of(name)), "ok"])
    ok = [i for i, status in enumerate(statuses) if status == "ok"]
    if not ok:
        raise EstimationError(f"every item failed; {_failures(statuses)}; wrote {csv_path}")
    svg_path = out / "effects.svg"
    values = [[r.coefficient(estimator.effect_name(r)) for r in per_item[i]] for i in ok]
    svg_path.write_text(
        plots.bars_svg([labels[i] for i in ok], [s.name for s in args.specs], values),
        encoding="utf-8",
    )
    for spec, fits in zip(args.specs, by_spec):
        effect = estimator.aggregate_effect([fits[i] for i in ok], args.k1, args.k2)
        se_txt = "n/a" if effect.se is None else tables.format_value(effect.se)
        print(
            f"{spec.name}: tau({args.k1}->{args.k2}) = "
            f"{tables.format_value(effect.tau_hat)} (se {se_txt}, "
            f"{effect.n_items} items)"
        )
    print(f"wrote {csv_path} and {svg_path}")
    print(_failures(statuses))
    return 0


def _int_at_least(low: int, below: int | None = None):
    """argparse type: an integer >= low (and < below, if given), so a bad
    value exits 2 before any work."""

    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config (sim fields, schema_map)")
    common.add_argument("--out", default=".", help="output directory")
    positive, non_negative = _int_at_least(1), _int_at_least(0)
    seed = _int_at_least(0, below=2**64)  # the random streams key on 64 bits
    data_help = "CSV data file"
    item_help = ("keep this item's rows, one per request; a text id is hashed as the "
                 "loader hashes it")

    parser = argparse.ArgumentParser(
        prog="posiv",
        description="Position-effect estimation from ranked-marketplace logs "
        "using past A/B tests as instruments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate synthetic data")
    p.add_argument("--seed", type=seed, default=None,
                   help="override the config seed, in [0, 2**64)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", parents=[common], help="sample/slice/aggregate a dataset")
    p.add_argument("data", help=data_help)
    p.add_argument("--sample-seed", type=seed, default=None,
                   help="seed of the one-row-per-request sample or item slice (default 0)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--item", type=_item_argument, default=None, help=item_help)
    mode.add_argument("--top-n", type=positive, default=None,
                      help="write the N items with the most rows to top_items.csv")
    mode.add_argument("--session-top-cut", type=non_negative, default=None,
                      help="aggregate to one row per request, counting slots up to "
                      "this position as top")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("estimate", parents=[common], help="fit one specification")
    p.add_argument("data", help=data_help)
    p.add_argument("--spec", required=True, type=_spec_argument,
                   help="built-in name or JSON file")
    p.add_argument("--sample-seed", type=seed, default=None,
                   help="seed of the one-row-per-request sample or item slice (default 0)")
    p.add_argument("--item", type=_item_argument, default=None, help=item_help)
    p.add_argument("--no-sample", action="store_true",
                   help="skip one-row-per-request sampling (an --item slice keeps "
                   "one row per request regardless)")
    p.add_argument("--session-top-cut", type=non_negative, default=None,
                   help="slots counted as top when a session-level spec aggregates "
                   "an edge-level file (default 4)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="print the fit as a text table or as JSON (default text)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("diagnose", parents=[common], help="per-item first-stage forest plot")
    p.add_argument("data", help=data_help)
    p.add_argument("--top-n", type=positive, default=30,
                   help="fit the first stage of the N items with the most rows (default 30)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", parents=[common], help="per-item effects across specs")
    p.add_argument("data", help=data_help)
    p.add_argument("--specs", type=_specs_argument, default="spec1,spec2,spec3",
                   help="comma-separated built-in names or JSON files "
                   "(default spec1,spec2,spec3)")
    p.add_argument("--top-n", type=positive, default=5,
                   help="report the N items with the most rows (default 5)")
    p.add_argument("--k1", type=positive, default=2,
                   help="position moved from; at most the data's last position (default 2)")
    p.add_argument("--k2", type=positive, default=1,
                   help="position moved to; at most the data's last position (default 1)")
    p.add_argument("--sample-seed", type=seed, default=0,
                   help="seed of the item slices' one row per request (default 0)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.spec.level == "session" and (
            args.item is not None or args.no_sample):
        parser.error(f"--item and --no-sample do not apply to session-level spec {args.spec.name}")
    if args.command == "estimate" and args.spec.level == "edge" and (
            args.session_top_cut is not None):
        parser.error(f"--session-top-cut does not apply to edge-level spec {args.spec.name}")
    if args.command in ("prepare", "estimate"):
        if args.command == "prepare":
            unsampled = args.top_n is not None or args.session_top_cut is not None
        else:
            unsampled = args.spec.level == "session" or (args.no_sample and args.item is None)
        if unsampled and args.sample_seed is not None:
            parser.error("--sample-seed does not apply where no sample is drawn")
        args.sample_seed = args.sample_seed or 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, PosivError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
