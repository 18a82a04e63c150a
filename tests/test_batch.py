"""The per-item engine: a design stacked by item, fitted one shape bucket at a
time, against the one-item path it replaces (slice one item, build its
design, fit it) on every item, spec and failure."""

import tracemalloc
import warnings

import numpy as np
import pytest

from posiv.cli import main
from posiv.datamodel import Dataset, write_dataset
from posiv.errors import Collinear, ConstantColumn, EstimationError, TooFewClusters
from posiv.estimator import FirstStageReport, FitResult, first_stage, fit_2sls, fit_ils, fit_ols
from posiv.prepare import DesignMatrix, ItemBlocks, build_design, slice_by_item, top_items
from posiv.simulator import SimConfig, simulate
from posiv.specs import ModelSpec, get_spec

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


def test_a_bucket_is_fitted_again_once_per_failing_check(mixed, factorizations):
    """Items that fail one check leave their bucket together: ILS fits each
    bucket once more per failing check, not once more per failing item."""
    ds, items = mixed
    design = build_design(slice_by_item(ds, items, 0), ILS, by_item=True)
    fits = fit_ils(design)
    rows, cols = np.diff(design.items.bounds), np.diff(design.items.z_bounds)
    buckets: dict[tuple, list] = {}
    for g, error in enumerate(design.items.errors):
        if error is None:
            buckets.setdefault((rows[g], cols[g]), []).append(fits[g])
    failed = [[r for r in fitted if isinstance(r, EstimationError)] for fitted in buckets.values()]
    checks = [len({type(error) for error in f}) for f in failed]  # ZeroFirstStage only, here
    per_check = sum(1 + c for c in checks)  # a pass factors its n rows once
    per_item = sum(len(f) + 1 for f in failed)  # refitting once per item
    assert per_check < per_item
    tall = [shape for shape in factorizations["qr"] if shape[-2] in rows]
    assert len(buckets) <= len(tall) <= per_check
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


def test_items_refitted_in_a_bucket_keep_their_own_instrument_names(mixed):
    """A bucket of items that each name their own arms, one of which fails
    at fit time (all its rows from one user: TooFewClusters) ahead of the
    others: the items fitted again keep their own instrument names."""
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
    assert len(names) == len(later) > 1  # the bucket refits items with names of their own
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
    assert f"failed items: 0 of {len(items)}" in capsys.readouterr().out
