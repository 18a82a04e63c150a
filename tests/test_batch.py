"""The per-item engine: a design stacked by item, fitted one stack of items
with the same instrument count at a time, against the one-item path it
replaces (slice one item, build its design, fit it) on every item, spec and
failure."""

import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from posiv.cli import main
from posiv.datamodel import Dataset, write_dataset
from posiv.errors import (
    Collinear, ConstantColumn, EstimationError, TooFewClusters, WeakInstrumentWarning,
    ZeroFirstStage,
)
from posiv.estimator import (
    UNDEFINED_F_NOTE, FirstStageReport, FitResult, first_stage, fit_2sls, fit_ils, fit_ols,
)
from posiv.prepare import DesignMatrix, ItemBlocks, build_design, slice_by_item, top_items
from posiv.simulator import SimConfig, simulate
from posiv.specs import ModelSpec, get_spec
from posiv.tables import format_value

from conftest import make_design, projected_collinear

CONFIG = dict(
    n_users=1800, n_items=18, requests_per_user=1, slots_per_request=5,
    effect_slope_mean=-0.02, effect_slope_sd=0.005, confound_strength=0.3,
    instrument_strength=0.8, instrument_share_negative=0.5,
    base_rate=0.35, marketplace_mode="ads", seed=23,
)
SIZES = (60, 90, 120)
ILS = ModelSpec("ils", "edge", "outcome", ("position",), "arm", (), method="ILS")
FITS = {"OLS": fit_ols, "2SLS": fit_2sls, "ILS": fit_ils}


def _mixed_items() -> Dataset:
    """An ads log with a reason per row, cut into items of three sizes that
    see five, four or three reason levels, so several items share each
    (rows, instruments) shape. Three items fail or thin out in ways the
    others do not:
    - the first item's rows all come from one user, so it has a single arm
      level and spec3 fails it with TooFewClusters at fit time;
    - the second item's rows all sit at one position, so spec3 fails it as
      Collinear at fit time;
    - the third item shows a reason on only four rows, two per arm and one
      per reason, so spec4 fits it on four rows and spec5 has too few.
    Even items repeat their first four requests at another position with the
    other outcome, so the per-(item, request) hash rule has choices to make."""
    ds, _ = simulate(SimConfig(**CONFIG))
    item, arm = ds.column("item_id"), ds.column("arm")
    user, position = ds.column("user_id").copy(), ds.column("position").copy()
    levels = np.array([f"r{i}" for i in range(5)])
    reason = levels[(ds.column("request_id") * 7 + item) % 5]
    kept, twins = [], []
    for k, i in enumerate(np.unique(item)):
        rows = np.flatnonzero(item == i)
        rows = rows[~np.isin(reason[rows], levels[5 - (k // 3) % 3:])]
        if k == 0:
            rows = rows[arm[rows] == arm[rows][0]]
        rows = rows[:SIZES[k % 3]]
        if k == 0:
            user[rows] = user[rows[0]]
        if k == 1:
            position[rows] = 3
        if k == 2:
            shown = np.concatenate([rows[arm[rows] == a][:2] for a in np.unique(arm[rows])])
            reason[rows] = ""
            reason[shown] = ["r0", "r1", "r0", "r1"]
        kept.append(rows)
        if k % 2 == 0:
            twins.append(rows[:4])
    rows, twin = np.concatenate(kept), np.concatenate(twins)
    columns = {name: ds.column(name) for name in ds.column_names}
    columns.update(user_id=user, position=position, reason=reason)
    data = {name: np.concatenate([col[rows], col[twin]]) for name, col in columns.items()}
    data["position"][rows.size:] = data["position"][rows.size:] % 5 + 1
    data["outcome"][rows.size:] = 1 - data["outcome"][rows.size:]
    return Dataset(data, ds.schema, "mixed items")


def _one_by_one(ds, items, spec, fit, seed):
    out = []
    for item in items:
        try:
            design = build_design(slice_by_item(ds, item, seed), spec)
            result = fit(design)
            if fit is not first_stage:
                result.label = str(item)
            out.append(result)
        except EstimationError as exc:
            out.append(exc)
    return out


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def _assert_same(batch, single):
    assert type(batch) is type(single)
    if isinstance(single, EstimationError):
        assert str(batch) == str(single)
    elif isinstance(single, FitResult):
        assert (batch.names, batch.label, batch.n_obs, batch.n_clusters, batch.df_resid) == (
            single.names, single.label, single.n_obs, single.n_clusters, single.df_resid)
        for name in ("coef", "se", "t_stat", "p_value", "cov"):
            _close(getattr(batch, name), getattr(single, name))
        _close(batch.r_squared, single.r_squared)
        assert batch.first_stage_f.keys() == single.first_stage_f.keys()
        _close(list(batch.first_stage_f.values()), list(single.first_stage_f.values()))
        assert (batch.stars, batch.warnings) == (single.stars, single.warnings)
    else:
        assert (batch.n_obs, batch.n_clusters) == (single.n_obs, single.n_clusters)
        for got, want in zip(batch.equations, single.equations, strict=True):
            assert (got.endogenous, got.instrument_names, got.classification) == (
                want.endogenous, want.instrument_names, want.classification)
            for name in ("coef", "se", "ci_low", "ci_high", "f_stat", "p_value"):
                _close(getattr(got, name), getattr(want, name))


@pytest.fixture(scope="module")
def mixed():
    ds = _mixed_items()
    return ds, top_items(ds, 99)


def _single_arm_item(ds) -> str:
    return str(np.unique(ds.column("item_id"))[0])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("spec_name", ["spec1", "spec2", "spec3", "spec4", "spec5", "ils",
                                       "first-stage spec1", "first-stage spec4"])
def test_batch_matches_one_item_at_a_time(mixed, seed, spec_name):
    ds, items = mixed
    if spec_name.startswith("first-stage"):
        spec, fit = get_spec(spec_name.split()[1]), first_stage
    else:
        spec = ILS if spec_name == "ils" else get_spec(spec_name)
        fit = FITS[spec.method]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design = build_design(slice_by_item(ds, items, seed), spec, by_item=True)
        batch = fit(design)
        single = _one_by_one(ds, items, spec, fit, seed)
    assert design.items.labels == tuple(str(i) for i in items)
    assert len(batch) == len(single) == len(items)
    for got, want in zip(batch, single):
        _assert_same(got, want)
    fitted = [r for r in batch if isinstance(r, (FitResult, FirstStageReport))]
    assert len(fitted) > len(items) // 3
    single_arm = batch[design.items.labels.index(_single_arm_item(ds))]
    assert isinstance(single_arm, ConstantColumn) == (spec.instruments != "none")

    built = [g for g, error in enumerate(design.items.errors) if error is None]
    rows, cols = np.diff(design.items.bounds), np.diff(design.items.z_bounds)
    shapes = [(rows[g], cols[g]) for g in built]
    assert 1 < len(set(shapes)) < len(shapes)  # several buckets, some holding many items


def _numbers(result) -> bytes:
    """Every number of a FitResult or FirstStageReport but the CIs, as bytes.
    The CIs' critical values come from one stdtrit call over every item,
    whose Newton steps run until every item's root has converged, so their
    last bits can depend on the other items' G."""
    if isinstance(result, FitResult):
        arrays = [result.coef, result.se, result.cov, result.t_stat, result.p_value,
                  [result.r_squared, result.resid_std_error, *result.first_stage_f.values()]]
    else:
        arrays = [a for eq in result.equations for a in (eq.coef, eq.se, [eq.f_stat, eq.p_value])]
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


@pytest.mark.parametrize("spec_name", ["spec2", "spec4", "spec5", "ils", "first-stage spec4"])
def test_stacked_fits_equal_lone_fits_bit_for_bit(mixed, spec_name):
    """Over stacks of several instrument counts, each cut into several
    row-count parts and holding items that fail, every fitted item's
    numbers have the bits of a fit of that item alone."""
    ds, items = mixed
    if spec_name.startswith("first-stage"):
        spec, fit = get_spec(spec_name.split()[1]), first_stage
    else:
        spec = ILS if spec_name == "ils" else get_spec(spec_name)
        fit = FITS[spec.method]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design = build_design(slice_by_item(ds, items, 0), spec, by_item=True)
        batch = fit(design)
        single = _one_by_one(ds, items, spec, fit, 0)
    built = [g for g, error in enumerate(design.items.errors) if error is None]
    rows, cols = np.diff(design.items.bounds)[built], np.diff(design.items.z_bounds)[built]
    assert any(len(set(rows[cols == width])) > 1 for width in set(cols))
    assert (len(set(cols)) > 1) == (spec.instruments != "arm")
    assert any(isinstance(r, EstimationError) for r in batch)
    fitted = 0
    for got, want in zip(batch, single, strict=True):
        _assert_same(got, want)
        if not isinstance(want, EstimationError):
            assert _numbers(got) == _numbers(want)
            fitted += 1
    assert fitted > len(items) // 3


def test_ils_factors_each_bucket_once_though_some_of_its_items_fail(mixed, factorizations):
    """ILS fails items of the mixed fixture as ZeroFirstStage in buckets
    whose other items fit: a failed item stays in its stack, so each
    bucket's tall matrix is factored once, with all its items."""
    ds, items = mixed
    design = build_design(slice_by_item(ds, items, 0), ILS, by_item=True)
    fits = fit_ils(design)
    rows, cols = np.diff(design.items.bounds), np.diff(design.items.z_bounds)
    buckets: dict[tuple, list] = {}
    for g, error in enumerate(design.items.errors):
        if error is None:
            buckets.setdefault((rows[g], cols[g]), []).append(fits[g])
    assert any(any(isinstance(r, ZeroFirstStage) for r in fitted)
               and any(isinstance(r, FitResult) for r in fitted) for fitted in buckets.values())
    tall = [shape for shape in factorizations["qr"] if shape[-2] in rows]
    assert sorted(shape[:2] for shape in tall) == sorted((len(f), n) for (n, _), f in buckets.items())
    assert all(shape[-2] == shape[-1] not in rows for shape in factorizations["svd"])


def test_a_collinear_projected_design_fails_only_its_item():
    """One item of a bucket of three has endogenous columns whose
    projections on [Z, X] are collinear: it fails at the projected design's
    condition check, and the other two fit as they do alone."""
    rng = np.random.default_rng(12)
    n, bad = 150, 1
    parts = [projected_collinear(rng, n, collinear=g == bad) for g in range(3)]
    clusters = np.arange(n) % 30
    alone = []
    for g, (y, w, _, z, x) in enumerate(parts):
        if g != bad:
            alone.append(fit_2sls(make_design(y, w, z, x, clusters,
                                              z_names=(f"z{2 * g}", f"z{2 * g + 1}"))))
            alone[-1].label = str(g)
    items = ItemBlocks(
        labels=("0", "1", "2"), bounds=np.arange(4) * n, codes=np.tile(clusters, 3),
        instrument=np.concatenate([np.where(p[2] < 0, -1, p[2] + 2 * g)
                                   for g, p in enumerate(parts)]),
        z_names=tuple(f"z{c}" for c in range(6)), z_cols=np.arange(6),
        z_bounds=np.arange(4) * 2, errors=(None,) * 3,
    )
    x = np.concatenate([p[4] for p in parts])
    design = DesignMatrix(
        y=np.concatenate([p[0] for p in parts]), w=np.concatenate([p[1] for p in parts]),
        z=np.empty((3 * n, 0)), x=np.column_stack([x, np.ones(3 * n)]),
        w_names=("w0", "w1"), z_names=(), x_names=("x0", "Constant"),
        clusters=np.concatenate([clusters + 100 * g for g in range(3)]).astype(np.uint64),
        items=items,
    )
    fits = fit_2sls(design)
    assert isinstance(fits[bad], Collinear)
    assert "projected design matrix condition number" in str(fits[bad])
    for got, want in zip([fits[0], fits[2]], alone, strict=True):
        _assert_same(got, want)


def _bucket(parts, arms: int) -> DesignMatrix:
    """A design stacked by item whose items are parts, (y, w, arm, x, codes)
    with the same row count: arm is each row's arm (-1 for the baseline, 0..
    for the treated arms), one instrument column per treated arm and item,
    and x one control, so all the items share one bucket."""
    n, b = len(parts[0][0]), len(parts)
    items = ItemBlocks(
        labels=tuple(str(g) for g in range(b)), bounds=np.arange(b + 1) * n,
        codes=np.concatenate([p[4] for p in parts]),
        instrument=np.concatenate([np.where(p[2] < 0, -1, p[2] + arms * g)
                                   for g, p in enumerate(parts)]),
        z_names=tuple(f"z{c}" for c in range(arms * b)), z_cols=np.arange(arms * b),
        z_bounds=np.arange(b + 1) * arms, errors=(None,) * b,
    )
    x = np.concatenate([p[3] for p in parts])
    return DesignMatrix(
        y=np.concatenate([p[0] for p in parts]), w=np.concatenate([p[1] for p in parts])[:, None],
        z=np.empty((x.size, 0)), x=np.column_stack([x, np.ones(x.size)]),
        w_names=("w",), z_names=(), x_names=("x", "Constant"),
        clusters=np.zeros(x.size, dtype=np.uint64), items=items,
    )


def _well_posed_parts(rng, n: int, arms: int) -> list:
    """Five items for _bucket, n rows each over 30 clusters, whose
    endogenous column each treated arm shifts."""
    parts = []
    for _ in range(5):
        arm = rng.integers(-1, arms, n)
        x = rng.normal(size=n)
        w = np.select([arm == 0, arm == 1], [1.5, -0.7], 0.0) + 0.5 * x + rng.normal(size=n)
        parts.append((0.3 - 0.2 * w + x + rng.normal(size=n), w, arm, x, np.arange(n) % 30))
    return parts


@pytest.mark.parametrize("fit, arms", [(fit_2sls, 2), (fit_ols, 2), (fit_ils, 1)])
def test_failed_items_leave_the_other_items_of_their_bucket_bit_identical(fit, arms):
    """One item whose control is all zeros (an exactly singular R_11, so a
    zero singular value) and one whose rows are one cluster (with a zero
    endogenous column, so its first-stage covariance and ILS denominator are
    exactly 0) fail inside a bucket of well-posed items. Their stand-ins
    keep every number finite: the stacked solve raises no LinAlgError, no
    RuntimeWarning appears, and every other item gets the bytes it gets in
    the bucket without them."""
    n = 120
    parts = _well_posed_parts(np.random.default_rng(21), n, arms)
    singular, one_cluster = 1, 3
    y, w, arm, x, codes = parts[singular]
    parts[singular] = (y, w, arm, np.zeros(n), codes)
    y, w, arm, x, codes = parts[one_cluster]
    parts[one_cluster] = (y, np.zeros(n), arm, x, np.zeros(n, dtype=np.intp))
    good = [g for g in range(len(parts)) if g not in (singular, one_cluster)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fits = fit(_bucket(parts, arms))
        alone = fit(_bucket([parts[g] for g in good], arms))
    assert isinstance(fits[singular], Collinear)
    assert isinstance(fits[one_cluster], Collinear if fit is fit_ols else TooFewClusters)
    for got, want in zip([fits[g] for g in good], alone, strict=True):
        assert (got.coef == want.coef).all() and (got.cov == want.cov).all()
        assert got.first_stage_f == want.first_stage_f


@pytest.mark.parametrize("seed", [0, 3])
def test_an_ill_conditioned_instrument_covariance_leaves_f_undefined(mixed, tmp_path, capsys,
                                                                     seed):
    """The third item of the mixed fixture fits spec4 on four rows with two
    instruments, whose first-stage covariance has rank 1 (condition number
    past 1e12): its joint F and F p-value are NaN, fit_2sls carries the
    undefined note, and estimate writes the F as null and prints the note."""
    ds, _ = mixed
    item = np.unique(ds.column("item_id"))[2]
    design = build_design(slice_by_item(ds, item, seed), get_spec("spec4"))
    eq = first_stage(design).equation("position")
    assert math.isnan(eq.f_stat) and math.isnan(eq.p_value)
    with pytest.warns(WeakInstrumentWarning) as caught:
        fit = fit_2sls(design)
    assert fit.warnings == (UNDEFINED_F_NOTE,) == tuple(str(w.message) for w in caught)
    assert math.isnan(fit.first_stage_f["position"]) and np.isfinite(fit.coef).all()

    data = tmp_path / "mixed.csv"
    write_dataset(ds, str(data))
    capsys.readouterr()
    assert main(["estimate", str(data), "--spec", "spec4", "--item", str(item),
                 "--sample-seed", str(seed), "--format", "json",
                 "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["first_stage_f"] == {"position": None}
    assert '"position": null' in (tmp_path / "out" / "fit.json").read_text(encoding="utf-8")
    assert err == f"warning: {UNDEFINED_F_NOTE}\n"


def test_a_zero_instrument_covariance_leaves_the_f_of_its_bucket_mates_as_alone():
    """One item of a bucket has an all-zero endogenous column over 30
    clusters, so its first-stage instrument covariance is exactly 0: its F
    is NaN, and every other item's F is the one it gets in the bucket
    without it."""
    n, zero = 120, 2
    parts = _well_posed_parts(np.random.default_rng(23), n, 2)
    y, _, arm, x, codes = parts[zero]
    parts[zero] = (y, np.zeros(n), arm, x, codes)
    others = [g for g in range(len(parts)) if g != zero]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = first_stage(_bucket(parts, 2))
        alone = first_stage(_bucket([parts[g] for g in others], 2))
    for got, want in zip([reports[g] for g in others], alone, strict=True):
        assert got.equations[0].f_stat == want.equations[0].f_stat
        assert got.equations[0].p_value == want.equations[0].p_value
    assert math.isnan(reports[zero].equations[0].f_stat)


def _own_arm_labels(ds: Dataset, copies: int = 1) -> Dataset:
    """ds with each item's arm levels renamed "<item>:<arm>", so that no two
    items share an arm level, as in a log where every campaign names its own
    test arms; with copies > 1 every item also comes again under new ids."""
    columns = {name: np.concatenate([ds.column(name)] * copies) for name in ds.column_names}
    ids = ds.column("item_id")
    columns["item_id"] = np.concatenate([ids + np.uint64(k) * (ids.max() + 1)
                                         for k in range(copies)])
    columns["arm"] = np.char.add(columns["item_id"].astype(str), np.char.add(":", columns["arm"]))
    return Dataset(columns, ds.schema, "own arm labels")


@pytest.mark.parametrize("spec_name", ["spec1", "spec4", "spec5"])
def test_items_with_their_own_arm_labels_fit_as_alone(mixed, spec_name):
    ds, items = mixed
    ds = _own_arm_labels(ds)
    spec = get_spec(spec_name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design = build_design(slice_by_item(ds, items, 3), spec, by_item=True)
        batch = fit_2sls(design)
        single = _one_by_one(ds, items, spec, fit_2sls, 3)
    for got, want in zip(batch, single, strict=True):
        _assert_same(got, want)
    assert sum(isinstance(r, FitResult) for r in batch) > len(items) // 3


def test_items_in_a_bucket_with_a_failed_item_keep_their_own_instrument_names(mixed):
    """A bucket of items that each name their own arms, one of which fails
    at fit time (all its rows from one user: TooFewClusters) ahead of the
    others: the items after it keep their own instrument names."""
    ds, items = mixed
    ds = _own_arm_labels(ds)
    lone = np.unique(ds.column("item_id"))[3]
    columns = {name: ds.column(name) for name in ds.column_names}
    rows = columns["item_id"] == lone
    columns["user_id"] = np.where(rows, columns["user_id"][rows][0], columns["user_id"])
    ds = Dataset(columns, ds.schema, "one user for one item")
    spec = get_spec("spec1")
    design = build_design(slice_by_item(ds, items, 0), spec, by_item=True)
    batch = first_stage(design)
    g = design.items.labels.index(str(lone))
    assert isinstance(batch[g], TooFewClusters)
    shape = np.diff(design.items.bounds), np.diff(design.items.z_bounds)
    later = [h for h in range(g + 1, len(batch)) if design.items.errors[h] is None
             and (shape[0][h], shape[1][h]) == (shape[0][g], shape[1][g])]
    names = {batch[h].equations[0].instrument_names for h in later}
    assert len(names) == len(later) > 1  # items after the failed one, each with its own names
    for got, want in zip(batch, _one_by_one(ds, items, spec, first_stage, 0), strict=True):
        _assert_same(got, want)


def test_own_arm_labels_keep_memory_linear_in_rows(mixed):
    """With an arm level per item, one instrument matrix over the whole stack
    would hold rows x items cells (about 14x and 51x the data here for spec1
    and spec4); each bucket builds only its own items' columns."""
    ds = _own_arm_labels(mixed[0], copies=16)
    sliced = slice_by_item(ds, top_items(ds, 10**6), 3)
    data_bytes = sum(sliced.column(name).nbytes for name in sliced.column_names)
    for spec in ("spec1", "spec4"):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits = fit_2sls(build_design(sliced, get_spec(spec), by_item=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(isinstance(fit, FitResult) for fit in fits) > 100
        assert peak < 4 * data_bytes


def test_sample_seed_changes_the_batch_as_it_does_one_item(mixed):
    ds, items = mixed
    a = build_design(slice_by_item(ds, items, 0), get_spec("spec1"), by_item=True)
    b = build_design(slice_by_item(ds, items, 3), get_spec("spec1"), by_item=True)
    assert not np.array_equal(a.y, b.y)


def test_report_factors_each_shape_bucket_once(mixed, tmp_path, factorizations, capsys):
    """report runs the tall QR once per row count and spec, and the k x k
    SVD once per factorization of a spec (2SLS factors its first stage and
    its projected design) and instrument count: the specs here have one."""
    ds, _ = mixed
    ids = np.unique(ds.column("item_id"))
    ds = ds.subset(~np.isin(ds.column("item_id"), ids[:2]))  # every item left fits
    items = top_items(ds, 99)
    data = tmp_path / "mixed.csv"
    write_dataset(ds, str(data))
    sizes = {slice_by_item(ds, item).n_rows for item in items}
    assert main(["report", str(data), "--specs", "spec1,spec2,spec3", "--top-n", "99",
                 "--out", str(tmp_path / "rep")]) == 0
    assert len(sizes) == 3 < len(items)
    tall = [shape for shape in factorizations["qr"] if shape[-2] in sizes]
    assert len(tall) == len(sizes) * 3  # one QR per bucket and spec; one item at a time: len(items) * 3
    assert all(shape[-2] == shape[-1] not in sizes for shape in factorizations["svd"])
    assert [shape[0] for shape in factorizations["svd"]] == [len(items)] * (2 + 2 + 1)
    assert f"failed items: 0 of {len(items)}" in capsys.readouterr().out


@pytest.mark.parametrize("seed, specs", [(3, ["spec1", "spec3", "ils"]),
                                         (0, ["spec4", "spec5", "ils"])])
def test_report_tau_averages_the_items_every_spec_fits_in_ascending_id(mixed, tmp_path, capsys,
                                                                      seed, specs):
    """Each spec's tau on report's stdout is the mean of coef * (k2 - k1) in
    ascending item id over the items whose effects.csv status is ok under
    every spec: an item that any spec fails is left out of every tau."""
    ds, _ = mixed
    data, ils = tmp_path / "mixed.csv", tmp_path / "ils.json"
    write_dataset(ds, str(data))
    ils.write_text(json.dumps({"name": "ils", "level": "edge", "outcome": "outcome",
                               "endogenous": ["position"], "instruments": "arm",
                               "method": "ILS"}), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(data), "--specs", ",".join(str(ils) if s == "ils" else s
                                                         for s in specs),
                 "--top-n", "99", "--sample-seed", str(seed), "--k1", "3", "--k2", "1",
                 "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    with open(tmp_path / "rep" / "effects.csv", encoding="utf-8", newline="") as fh:
        rows = {(int(r["item_id"]), r["spec"]): r for r in csv.DictReader(fh)}
    ok = {item: [rows[item, s]["status"] == "ok" for s in specs] for item, _ in rows}
    every = sorted(item for item, fits in ok.items() if all(fits))
    assert any(any(fits) and not all(fits) for fits in ok.values())  # some specs fail an item
    assert 1 < len(every) < len(ok)
    for spec, line in zip(specs, out.splitlines()):
        taus = np.array([float(rows[item, spec]["coef"]) for item in every]) * (1 - 3)
        assert line.startswith(f"{spec}: tau(3->1) = {format_value(taus.mean())} (se ")
        assert line.endswith(f", {len(every)} items)")


def test_a_stacked_fit_2sls_warns_for_no_item(mixed):
    """A stacked fit_2sls issues no WeakInstrumentWarning for its items; an
    item's FitResult still carries its weak-instrument note."""
    ds, items = mixed
    design = build_design(slice_by_item(ds, items, 0), get_spec("spec4"), by_item=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = fit_2sls(design)
    assert not [w for w in caught if issubclass(w.category, WeakInstrumentWarning)]
    assert any(isinstance(fit, FitResult) and fit.warnings for fit in fits)
