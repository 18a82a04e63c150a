from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from posiv import rng
from posiv.datamodel import EDGE_SCHEMA, Dataset
from posiv.errors import (
    ConstantColumn,
    EstimationError,
    MissingColumn,
    Underidentified,
    UnknownItem,
)
from posiv.prepare import (
    _mode_per_group,
    _winner_per_request,
    aggregate_sessions,
    build_design,
    sample_one_per_request,
    slice_by_item,
    top_items,
)
from posiv.simulator import SimConfig, simulate
from posiv.specs import ModelSpec, get_spec

from conftest import edge_columns, table1_dataset


def edge(req, user, item, pos, out=0, arm="control", reason=None, rel=None, depth=None):
    return req, user, item, pos, out, arm, reason, rel, depth


# ------------------------------------------------------------ sampling


def test_sample_table1_gives_one_row_per_request():
    ds = table1_dataset()
    out = sample_one_per_request(ds, seed=17)
    assert out.n_rows == 2
    assert sorted(int(r) for r in out.column("request_id")) == [1, 2]


def test_sample_idempotent_on_one_per_request_data():
    ds = table1_dataset()
    once = sample_one_per_request(ds, seed=3)
    for seed in (0, 1, 99):
        again = sample_one_per_request(once, seed=seed)
        assert again == once


def test_sample_exact_uniformity_over_enumerated_seeds():
    # brute-force enumeration oracle: each of the 3 candidate rows must be
    # chosen between 267 and 400 times across seeds 0..999
    rows = [edge(1, 1, item, pos) for item, pos in ((1, 1), (2, 2), (3, 3))]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    counts = {1: 0, 2: 0, 3: 0}
    for seed in range(1000):
        kept = sample_one_per_request(ds, seed)
        counts[int(kept.column("item_id")[0])] += 1
    assert sum(counts.values()) == 1000
    for c in counts.values():
        assert 267 <= c <= 400


def test_sample_size_invariant_under_permutation():
    ds, _ = simulate(SimConfig(n_users=50, n_items=10, slots_per_request=4, seed=2))
    perm = np.random.default_rng(0).permutation(ds.n_rows)
    shuffled = ds.subset(perm)
    a = sample_one_per_request(ds, seed=5)
    b = sample_one_per_request(shuffled, seed=5)
    assert a.n_rows == b.n_rows == len(np.unique(ds.column("request_id")))


def lexsort_winners(request_ids, seed, groups=None):
    """Oracle of the hash rule, ranked by a four-key lexsort: every row of a
    (group, request) scores raw64(key(seed, request_id), ordinal), and the
    first row by (group, request, score descending, ordinal) wins."""
    groups = np.zeros(len(request_ids), dtype=np.uint8) if groups is None else groups
    order = np.lexsort((request_ids, groups))
    req, grp = request_ids[order], groups[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (req[1:] != req[:-1]) | (grp[1:] != grp[:-1])
    start = np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))
    ordinal = (np.arange(len(order)) - start).astype(np.uint64)
    scores = rng.raw64(rng.stream_key(seed, rng.TAG_SAMPLE, req), ordinal)
    ranking = np.lexsort((ordinal, ~scores, req, grp))
    return np.sort(order[ranking[new]])


def _tied_raw64(monkeypatch):
    """Scores in {0, 1, 2}, so most requests tie and the lowest ordinal decides."""
    raw64 = rng.raw64
    monkeypatch.setattr(rng, "raw64", lambda key, counter=0, out=None: np.remainder(
        raw64(key, counter, out=out), np.uint64(3), out=out))


@st.composite
def request_layouts(draw):
    """Request ids (and, half the time, a group per row) with repeats and
    singletons, sorted by (group, request) as simulate and slice_by_item
    give them or in any order."""
    pool = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20, unique=True))
    n = draw(st.integers(1, 60))
    req = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                   dtype=np.uint64)
    groups = None
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                          dtype=np.uint8)
    if draw(st.booleans()):
        order = np.lexsort((req,) if groups is None else (req, groups))
        req, groups = req[order], None if groups is None else groups[order]
    return req, groups


@settings(max_examples=300, deadline=None)
@given(layout=request_layouts(), seed=st.integers(0, 10**6), ties=st.booleans())
def test_winner_matches_the_lexsort_oracle(layout, seed, ties):
    req, groups = layout
    with pytest.MonkeyPatch.context() as mp:
        if ties:
            _tied_raw64(mp)
        got = _winner_per_request(req, seed, groups)
        want = lexsort_winners(req, seed, groups)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("ties", [False, True])
def test_winner_matches_the_oracle_on_a_simulated_log(monkeypatch, ties):
    # every item shows up twice per request, so each (item, request) is shared
    ds, _ = simulate(SimConfig(n_users=400, n_items=30, requests_per_user=2,
                               slots_per_request=6, seed=11))
    req = np.tile(ds.column("request_id"), 2)
    item = np.tile(ds.column("item_id"), 2).astype(np.uint16)
    if ties:
        _tied_raw64(monkeypatch)
    shuffle = np.random.default_rng(0).permutation(len(req))
    for order in (np.arange(len(req)), shuffle):
        for groups in (None, item[order]):
            got = _winner_per_request(req[order], 5, groups)
            np.testing.assert_array_equal(got, lexsort_winners(req[order], 5, groups))


# ------------------------------------------------------------ slicing


def test_slice_by_item():
    ds, _ = simulate(SimConfig(n_users=80, n_items=8, slots_per_request=4, seed=3))
    item = top_items(ds, 1)[0]
    sl = slice_by_item(ds, item)
    assert set(np.asarray(sl.column("item_id"), dtype=np.uint64)) == {np.uint64(item)}
    req = sl.column("request_id")
    assert len(np.unique(req)) == len(req)


def test_slice_unknown_item():
    ds = table1_dataset()
    with pytest.raises(UnknownItem):
        slice_by_item(ds, 999)


def test_slice_dedups_repeated_item_in_request():
    rows = [
        edge(1, 1, 7, 1),
        edge(1, 1, 7, 2),  # same item twice in request 1
        edge(2, 2, 7, 1),
    ]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    sl = slice_by_item(ds, 7)
    assert sl.n_rows == 2
    assert len(np.unique(sl.column("request_id"))) == 2


# ------------------------------------------------------------ top items


def test_top_items_counts_and_ties():
    rows = (
        [edge(i, i, 1, 1) for i in range(1, 6)]        # item 1: 5 rows
        + [edge(10 + i, 10 + i, 2, 1) for i in range(3)]  # item 2: 3 rows
        + [edge(20 + i, 20 + i, 3, 1) for i in range(3)]  # item 3: 3 rows
    )
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    assert top_items(ds, 2) == [1, 2]
    assert top_items(ds, 10) == [1, 2, 3]
    with pytest.raises(ValueError):
        top_items(ds, 0)


# ------------------------------------------------------------ build_design


def test_build_design_spec2_shapes_and_names():
    ds, _ = simulate(SimConfig(n_users=200, n_items=10, slots_per_request=4,
                               marketplace_mode="ads", base_rate=0.3, seed=4))
    d = build_design(sample_one_per_request(ds, 0), get_spec("spec2"))
    assert d.w_names == ("position",)
    assert d.z_names == ("arm=treatment",)
    assert d.x_names == ("relevance_score", "Constant")
    assert d.w.shape[1] == 1 and d.z.shape[1] == 1 and d.x.shape[1] == 2
    assert np.all(d.x[:, -1] == 1.0)
    assert d.n_dropped == 0


def test_build_design_interaction_instruments_count():
    # 22 observed reasons with a binary arm expand to 22 instruments
    ds, _ = simulate(SimConfig(n_users=800, n_items=40, slots_per_request=6,
                               n_reasons=22, seed=5))
    d = build_design(sample_one_per_request(ds, 0), get_spec("spec5"))
    assert d.z.shape[1] == 22
    assert all(n.startswith("arm=treatment*reason=") for n in d.z_names)


def test_build_design_spec6_two_endogenous_on_varying_depth():
    rng = np.random.default_rng(6)
    rows = []
    req = 0
    for user in range(1, 161):
        arm = "treatment" if user % 2 else "control"
        depth = int(rng.integers(4, 9))
        req += 1
        for pos in range(1, depth + 1):
            rows.append(
                edge(req, user, int(rng.integers(1, 30)), pos,
                     out=int(rng.random() < 0.3), arm=arm,
                     reason=f"r{rng.integers(0, 5):02d}",
                     rel=float(rng.random()), depth=depth)
            )
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    d = build_design(sample_one_per_request(ds, 1), get_spec("spec6"))
    assert d.w_names == ("position", "session_depth")
    assert d.z.shape[1] == 5


def test_build_design_single_arm_level_is_constant_column():
    rows = [edge(i, i, 1, 1, arm="control", rel=0.5) for i in range(1, 30)]
    rows += [edge(100 + i, 100 + i, 2, 2, arm="control", rel=0.2) for i in range(1, 30)]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    # the level prints as a Python string, not as numpy's np.str_('control')
    with pytest.raises(ConstantColumn, match=r"^arm has a single level 'control'; the instrument"):
        build_design(ds, get_spec("spec1"))


def test_build_design_empty_interaction_column_is_constant():
    # item 1 never shows reason r1 under treatment, so arm=treatment*reason=r1
    # is all zero there; item 2 shows every arm and reason pair
    rows = [edge(i, i, 1, 1 + i % 3, arm="control" if i % 2 else "treatment",
                 reason="r1" if i % 4 == 3 else "r0", rel=0.5) for i in range(1, 41)]
    rows += [edge(i, i, 2, 1 + i % 3, arm="control" if i % 2 else "treatment",
                  reason=f"r{i // 2 % 2}", rel=0.5) for i in range(41, 81)]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    with pytest.raises(ConstantColumn, match=r"arm=treatment\*reason=r1"):
        build_design(slice_by_item(ds, 1), get_spec("spec4"))
    stacked = build_design(slice_by_item(ds, [1, 2]), get_spec("spec4"), by_item=True)
    assert isinstance(stacked.items.errors[0], ConstantColumn)
    assert stacked.items.errors[1] is None and np.diff(stacked.items.z_bounds)[1] == 2


def test_build_design_constant_endogenous_rejected():
    rows = [edge(i, i, 1, 1, arm="control" if i % 2 else "treatment", rel=0.5)
            for i in range(1, 40)]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)  # every position is 1
    with pytest.raises(ConstantColumn):
        build_design(ds, get_spec("spec1"))


def test_build_design_drops_missing_values_and_counts():
    rows = [
        edge(1, 1, 1, 1, arm="treatment", rel=0.5),
        edge(2, 2, 2, 1, arm="control", rel=None),  # missing control
        edge(3, 3, 1, 2, arm="control", rel=0.1),
        edge(4, 4, 2, 3, arm="treatment", rel=0.9),
        edge(5, 5, 1, 2, arm="control", rel=0.4),
        edge(6, 6, 2, 1, arm="treatment", rel=0.7),
    ]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    d = build_design(ds, get_spec("spec2"))
    assert d.n_dropped == 1
    assert d.n_obs == 5
    assert d.n_dropped + d.n_obs == ds.n_rows


def test_build_design_underidentified():
    # two endogenous columns but a single observed reason -> 1 instrument
    rng = np.random.default_rng(7)
    rows = []
    for i in range(1, 120):
        arm = "treatment" if i % 2 else "control"
        rows.append(edge(i, i, int(rng.integers(1, 9)), int(rng.integers(1, 5)),
                         arm=arm, reason="r00", rel=float(rng.random()),
                         depth=int(rng.integers(5, 9))))
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    with pytest.raises(Underidentified):
        build_design(ds, get_spec("spec6"))


def _design_outcome(ds, spec, by_item):
    """What build_design gives: the instrument columns, their names and
    bounds and each item's error, or the error it raises."""
    try:
        d = build_design(ds, spec, by_item=by_item)
    except EstimationError as exc:
        return type(exc), str(exc)
    errors = [None if e is None else (type(e), str(e)) for e in d.items.errors]
    return (d.z.dtype, d.z.shape, d.z.tobytes(), d.z_names, d.items.z_cols.tolist(),
            d.items.z_bounds.tolist(), errors)


def test_build_design_ignores_levels_its_rows_do_not_show():
    """Coding over the Dataset's own levels, with unused arm and reason
    levels that sort before and after the shown ones and a "" arm level on
    rows that are dropped, builds what coding over the shown levels builds."""
    arms = {1: ["control", "treatment"], 2: ["treatment"], 3: ["control", "treatment"],
            4: ["", "control", "treatment", "tz"]}
    rows = []
    for item, shown in arms.items():
        for i in range(24):
            arm, reason = shown[i % len(shown)], f"r{1 + i // len(shown) % 2}"
            if item == 3 and arm == "treatment":
                reason = "r1"  # treatment*reason=r2 is never shown
            rows.append(edge(100 * item + i, 100 * item + i, item, 1 + i % 4,
                             out=int(i % 3 == 0), arm=arm, reason=reason))
    data = edge_columns(rows)
    levels = {"arm": np.array(["", "a", "control", "treatment", "tz", "zz"]),
              "reason": np.array(["a0", "r1", "r2", "z9"])}
    coded = {**data, **{k: np.searchsorted(v, data[k]).astype(np.uint8)
                        for k, v in levels.items()}}
    full = Dataset(coded, EDGE_SCHEMA, levels=levels)
    assert full.column("arm").tolist() == data["arm"].tolist()

    def shown_only(ds):
        return Dataset({name: ds.column(name) for name in ds.column_names}, ds.schema)

    seen = set()
    for spec in (get_spec("spec1"), get_spec("spec4")):
        stack = slice_by_item(full, list(arms))
        got = _design_outcome(stack, spec, True)
        assert got == _design_outcome(shown_only(stack), spec, True)
        seen.update(e for e in got[-1] if e)
        for item in arms:
            one = slice_by_item(full, item)
            got = _design_outcome(one, spec, False)
            assert got == _design_outcome(shown_only(one), spec, False)
            if spec.name == "spec4" and item == 4:
                assert got[3] == tuple(f"arm={a}*reason={r}" for a in ("treatment", "tz")
                                       for r in ("r1", "r2"))
    assert seen == {
        (ConstantColumn, "arm has a single level 'treatment'; the instrument is unusable"),
        (ConstantColumn, "instrument column 'arm=treatment*reason=r2' has zero variance"),
    }


def two_unique_codes(clusters, item):
    """Each row's cluster numbered within its item by two np.unique passes:
    the ids' codes, then the distinct (item, code) pairs."""
    ids, codes = np.unique(clusters, return_inverse=True)
    pairs, codes = np.unique(item * len(ids) + codes, return_inverse=True)
    per_item = np.bincount(pairs // max(len(ids), 1), minlength=item.max(initial=-1) + 1)
    return codes - (np.cumsum(per_item) - per_item)[item]


@st.composite
def clustered_logs(draw):
    """Item runs in any id order, each row's user drawn with repeats from a
    shuffled pool of ids, some above 2**63, its session_depth from a pool of
    floats with NaN, and some rows with a missing relevance_score, which
    build_design drops."""
    pool = draw(st.lists(st.one_of(st.integers(0, 50), st.integers(2**63, 2**64 - 1)),
                         min_size=1, max_size=12, unique=True))
    depths = [-0.0, 0.0, 1.5, 7.0, np.nan]
    items = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True))
    data = {name: [] for name in ("item_id", "user_id", "request_id", "position",
                                  "outcome", "relevance_score", "session_depth")}
    for item in items:
        for _ in range(draw(st.integers(3, 15))):
            data["item_id"].append(item)
            data["user_id"].append(draw(st.sampled_from(pool)))
            data["session_depth"].append(draw(st.sampled_from(depths)))
            data["request_id"].append(len(data["request_id"]) + 1)
            data["position"].append(draw(st.integers(1, 5)))
            data["outcome"].append(draw(st.integers(0, 1)))
            data["relevance_score"].append(draw(st.sampled_from([0.25, 0.5, 0.75, np.nan])))
    types = {"item_id": np.uint64, "user_id": np.uint64, "request_id": np.uint64,
             "position": np.int64, "outcome": np.int64, "relevance_score": float,
             "session_depth": float}
    return Dataset({k: np.array(v, dtype=types[k]) for k, v in data.items()}, EDGE_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(ds=clustered_logs())
def test_cluster_codes_match_two_unique_passes(ds):
    """One sort of the ids plus a radix sort of the items numbers each item's
    clusters as the two np.unique passes did, in stacked and single designs,
    on uint64 ids and on a float column whose NaNs np.unique counts as one."""
    kept = ~np.isnan(ds.column("relevance_score"))
    for cluster in ("user_id", "session_depth"):
        clusters = ds.column(cluster)[kept]
        spec = ModelSpec("spec3", "edge", "outcome", (), "none",
                         ("position", "relevance_score"), cluster=cluster, method="OLS")
        stacked = build_design(ds, spec, by_item=True)
        item = np.repeat(np.arange(len(stacked.items.labels)), np.diff(stacked.items.bounds))
        np.testing.assert_array_equal(stacked.items.codes, two_unique_codes(clusters, item))
        if kept.sum() >= 3:  # spec3's three columns
            single = build_design(ds, spec)
            np.testing.assert_array_equal(single.items.codes,
                                          two_unique_codes(clusters, np.zeros_like(item)))


def test_build_design_missing_column():
    ds = table1_dataset()  # no arm, no relevance_score
    with pytest.raises(MissingColumn):
        build_design(ds, get_spec("spec1"))


# ------------------------------------------------------------ sessions


def test_aggregate_sessions_counts():
    rows = [edge(1, 9, item=i, pos=i, out=0, arm="control") for i in range(1, 11)]
    ds = Dataset(edge_columns(rows), EDGE_SCHEMA)
    sess = aggregate_sessions(ds, top_cut=4)
    assert sess.n_rows == 1
    assert int(sess.column("n_top_spot")[0]) == 4
    assert int(sess.column("n_bottom_spot")[0]) == 6
    assert int(sess.column("invite_total")[0]) == 0
    assert int(sess.column("user_id")[0]) == 9


def test_aggregate_sessions_conserves_totals():
    ds, _ = simulate(SimConfig(n_users=300, n_items=30, slots_per_request=6,
                               base_rate=0.6, seed=8))
    sess = aggregate_sessions(ds, top_cut=4)
    assert sess.n_rows == len(np.unique(ds.column("request_id")))
    assert sess.column("invite_total").sum() == ds.column("outcome").sum()
    assert (sess.column("n_top_spot") + sess.column("n_bottom_spot")).sum() == ds.n_rows


def test_aggregate_sessions_reason_mode_tie_breaks_low():
    rows = [
        edge(1, 1, 1, 1, reason="r02"),
        edge(1, 1, 2, 2, reason="r01"),
        edge(1, 1, 3, 3, reason="r02"),
        edge(1, 1, 4, 4, reason="r01"),
        edge(1, 1, 5, 5, reason="r03"),
    ]
    sess = aggregate_sessions(Dataset(edge_columns(rows), EDGE_SCHEMA), top_cut=2)
    assert sess.column("reason_mode")[0] == "r01"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=40))
def test_mode_per_group_matches_counting_each_group(rows):
    """Each group's most frequent code, ties to the smallest, against
    counting each group's codes in Python."""
    groups = sorted({group for group, _ in rows})
    group_of_row = np.array([groups.index(group) for group, _ in rows])
    codes = np.array([code for _, code in rows], dtype=np.uint8)
    want = []
    for group in groups:
        counts = Counter(code for g, code in rows if g == group)
        want.append(min(counts, key=lambda code: (-counts[code], code)))
    assert _mode_per_group(group_of_row, codes, len(groups)).tolist() == want


def test_aggregate_sessions_top_cut_parameter():
    rows = [edge(1, 1, item=i, pos=i) for i in range(1, 7)]
    sess = aggregate_sessions(Dataset(edge_columns(rows), EDGE_SCHEMA), top_cut=2)
    assert int(sess.column("n_top_spot")[0]) == 2
    assert int(sess.column("n_bottom_spot")[0]) == 4
