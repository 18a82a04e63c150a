import hashlib
import tracemalloc

import numpy as np
import pytest

import posiv.simulator as sim
from posiv import rng
from posiv.datamodel import write_dataset
from posiv.errors import InvalidConfig
from posiv.prepare import build_design, sample_one_per_request
from posiv.simulator import SimConfig, SimTruth, ground_truth_tau, simulate
from posiv.specs import ModelSpec


def small_cfg(**kw):
    base = dict(
        n_users=300, n_items=20, requests_per_user=2, slots_per_request=5,
        effect_slope_mean=-0.04, effect_slope_sd=0.0, confound_strength=0.5,
        instrument_strength=0.8, instrument_share_negative=0.5,
        base_rate=0.5, marketplace_mode="pymk", n_reasons=6, seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(n_users=0))
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(slots_per_request=30, n_items=20))
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(base_rate=1.5))
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(instrument_share_negative=1.2))
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(marketplace_mode="search"))
    with pytest.raises(InvalidConfig):
        simulate(small_cfg(effect_slope_sd=-0.1))
    for bad in ({"effect_slope_sd": "x"}, {"base_rate": None}, {"instrument_strength": "0.5"},
                {"confound_strength": True}, {"effect_slope_mean": float("inf")},
                {"instrument_share_negative": float("nan")}, {"effect_slope_mean": 10**400},
                {"n_users": True}, {"seed": False}):
        with pytest.raises(InvalidConfig):
            simulate(small_cfg(**bad))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_64_bits_is_invalid(seed):
    """The random streams key on the seed's 64 bits, so a seed outside
    [0, 2**64) would draw the data of another seed (2**70 that of seed 0)."""
    with pytest.raises(InvalidConfig, match=r"seed must lie in \[0, 2\*\*64\)"):
        simulate(small_cfg(seed=seed))


def test_the_largest_seed_is_valid():
    small_cfg(seed=2**64 - 1).validate()


def test_determinism_and_chunking_independence(monkeypatch, tmp_path):
    cfg = small_cfg(seed=42)
    ds1, t1 = simulate(cfg)
    write_dataset(ds1, str(tmp_path / "default.csv"))
    chunk, select = sim._CHUNK_CELLS, sim._SELECT_CELLS
    for chunk_cells, select_cells in (
        (64, select),     # chunks of 3 of the 600 requests
        (chunk, 1),       # the select step keys one request at a time
        (chunk, 140),     # blocks of 7 requests, the last of the 600 a short one
        (1000, 140),      # chunks of 50 requests, each ending in a 1-request block
    ):
        monkeypatch.setattr(sim, "_CHUNK_CELLS", chunk_cells)
        monkeypatch.setattr(sim, "_SELECT_CELLS", select_cells)
        ds2, t2 = simulate(cfg)
        assert ds1 == ds2
        np.testing.assert_array_equal(t1.slopes, t2.slopes)
        assert t1.audit.keys() == t2.audit.keys()
        for name in t1.audit:
            np.testing.assert_array_equal(t1.audit[name], t2.audit[name])
        assert t1.clip_count == t2.clip_count
        # byte-identical CSV output
        write_dataset(ds2, str(tmp_path / "blocked.csv"))
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_peak_memory_is_a_small_multiple_of_the_columns():
    """tracemalloc peak of simulate on an ads config with 1200 items, against
    the bytes of its final columns. The select step keys n_items per request
    and keeps slots of them: holding a whole chunk's keys at once peaked at
    10.8x (36.1 MB for 3.4 MB of columns), a block of about 32K keys at a
    time peaks at 1.6x.

    Then the recovery Monte Carlo's shape (pymk, 10,000 users, 100 items, 6
    slots), where one chunk holds every request: simulate draws through
    three chunk-sized buffers into its final columns, and the sample scores
    one request-ordered log without sorting it. With a fresh array per draw
    they peaked at 3.4x the coded columns and 3.9 MB."""
    cfg = SimConfig(n_users=4000, n_items=1200, slots_per_request=10,
                    marketplace_mode="ads", base_rate=0.35, seed=1)
    tracemalloc.start()
    try:
        ds, _ = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sum(ds.column(name).nbytes for name in ds.column_names)

    cfg = SimConfig(n_users=10_000, n_items=100, slots_per_request=6, base_rate=0.5, seed=1)
    tracemalloc.start()
    try:
        ds, _ = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        sample_one_per_request(ds, 1)
        sample_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * sum(ds.coded(name)[0].nbytes for name in ds.column_names)
    assert sample_peak <= 2 * 2**20


def _crafted_keys(gen, n_items, slots):
    """Rows of uint64 keys whose sorted high bits tie at one place each: none,
    inside the first `slots`, across the cut (slots - 1 and slots) and past
    it, half of them whole-key ties; then rows whose high bits all come from
    three values. Each row's columns are shuffled."""
    low = (n_items - 1).bit_length()
    step = np.uint64(2**(64 - low) // n_items)
    rows = []
    for tie in (None, 0, slots - 2, slots - 1, slots, n_items - 2):
        for whole in (False, True):
            if tie is not None and not 0 <= tie < n_items - 1:
                continue
            high = np.arange(n_items, dtype=np.uint64) * step
            keys = (high << np.uint64(low)) | gen.integers(
                0, 2**low, n_items, dtype=np.uint64)
            if tie is not None:
                keys[tie + 1] = keys[tie] if whole else (
                    (high[tie] << np.uint64(low)) | np.uint64(gen.integers(2**low)))
            rows.append(gen.permutation(keys))
    for _ in range(20):
        high = gen.integers(0, 3, n_items, dtype=np.uint64) << np.uint64(62)
        rows.append(high | gen.integers(0, 2**62, n_items, dtype=np.uint64))
    return np.array(rows)


@pytest.mark.parametrize("n_items", [7, 100, 1200])
def test_smallest_is_the_stable_argsorts_first_slots(n_items):
    """The select step's packed-key sort keeps the `slots` smallest keys in
    ascending key order, ties to the lower index, as a stable argsort of the
    whole keys does: set and order, wherever the keys' high bits tie."""
    gen = np.random.default_rng(n_items)
    for slots in sorted({1, 2, 3, n_items // 2, n_items - 1}):
        keys = _crafted_keys(gen, n_items, slots)
        before = keys.copy()
        got = sim._smallest(keys, slots)
        assert np.array_equal(keys, before)
        np.testing.assert_array_equal(got, np.argsort(keys, axis=1, kind="stable")[:, :slots])


def test_positions_are_permutations():
    ds, _ = simulate(small_cfg(seed=3))
    pos = ds.column("position")
    req = ds.column("request_id")
    slots = 5
    assert ds.n_rows % slots == 0
    mat = pos.reshape(-1, slots)
    assert np.array_equal(np.sort(mat, axis=1), np.tile(np.arange(1, slots + 1), (mat.shape[0], 1)))
    assert len(np.unique(req)) == ds.n_rows // slots


def test_arm_constant_within_user():
    ds, _ = simulate(small_cfg(seed=4))
    users = ds.column("user_id")
    arms = ds.column("arm")
    for u in np.unique(users)[:30]:
        assert len(np.unique(arms[users == u])) == 1


def test_ads_mode_one_click_and_schema():
    ds, _ = simulate(small_cfg(marketplace_mode="ads", base_rate=0.3, seed=5))
    assert not ds.has_column("reason")
    assert not ds.has_column("session_depth")
    req = ds.column("request_id")
    out = ds.column("outcome")
    _, inverse = np.unique(req, return_inverse=True)
    clicks = np.bincount(inverse, weights=out.astype(float))
    assert clicks.max() <= 1.0


def test_pymk_mode_allows_many_outcomes():
    ds, _ = simulate(small_cfg(base_rate=0.7, seed=6))
    req = ds.column("request_id")
    out = ds.column("outcome")
    _, inverse = np.unique(req, return_inverse=True)
    assert np.bincount(inverse, weights=out.astype(float)).max() > 1.0


def test_linearity_of_potential_outcomes():
    ds, truth = simulate(small_cfg(seed=7))
    audit = truth.audit
    for i in range(0, len(audit["item_id"]), 7):
        item = int(audit["item_id"][i])
        rel = float(audit["relevance"][i])
        c = truth.slopes[item - 1]
        for k1, k2 in ((4, 1), (5, 2), (3, 3)):
            diff = truth.potential_outcome(item, rel, k1) - truth.potential_outcome(item, rel, k2)
            assert abs(diff - c * (k1 - k2)) < 1e-12


def test_audit_rows_match_generated_probabilities():
    # outcome draws depend on the arm only through position: rebuilding the
    # Bernoulli threshold from (relevance, position) reproduces every outcome
    ds, truth = simulate(small_cfg(seed=8))
    n = len(truth.audit["p_raw"])
    out = ds.column("outcome")[:n]
    req = truth.audit["request_id"]
    item = truth.audit["item_id"]
    rel = truth.audit["relevance"]
    pos = truth.audit["position"]
    p = np.clip(
        truth.base_rate + truth.confound_strength * rel
        + truth.slopes[item.astype(int) - 1] * (pos - 1),
        0.0, 1.0,
    )
    np.testing.assert_allclose(p, truth.audit["p"], atol=1e-15)
    u = rng.uniform(rng.stream_key(8, rng.TAG_OUTCOME, req, item))
    np.testing.assert_array_equal(out.astype(bool), u < p)


def test_clip_rate_reported():
    cfg = small_cfg(base_rate=0.97, confound_strength=0.5, seed=9)
    ds, truth = simulate(cfg)
    assert truth.clip_count > 0
    assert 0.0 < truth.clip_rate <= 1.0


def test_zero_instrument_strength_kills_first_stage():
    # pooled regression of position on the arm indicator: |t| < 3 must hold
    # in at least 99 of 100 seeds
    hits = 0
    spec = ModelSpec("fs", "edge", "outcome", ("position",), "arm", ())
    from posiv.estimator import first_stage

    for seed in range(100):
        ds, _ = simulate(small_cfg(n_users=150, instrument_strength=0.0, seed=seed))
        d = build_design(sample_one_per_request(ds, seed), spec)
        eq = first_stage(d).equation("position")
        if abs(eq.coef[0] / eq.se[0]) < 3.0:
            hits += 1
    assert hits >= 99


def test_ground_truth_tau_examples():
    truth = SimTruth(
        slopes=np.array([-0.04, -0.04]), item_direction=np.zeros(2),
        reason_direction=np.zeros(0), base_rate=0.5, confound_strength=0.5,
        slots_per_request=5, clip_count=0, n_rows=10,
    )
    assert ground_truth_tau(truth, 3, 3) == 0.0
    assert abs(ground_truth_tau(truth, 3, 2) - 0.04) < 1e-15
    mixed = SimTruth(
        slopes=np.array([-0.02, -0.06]), item_direction=np.zeros(2),
        reason_direction=np.zeros(0), base_rate=0.5, confound_strength=0.5,
        slots_per_request=5, clip_count=0, n_rows=10,
    )
    assert abs(ground_truth_tau(mixed, 5, 1) - 0.16) < 1e-15
    with pytest.raises(ValueError):
        ground_truth_tau(truth, 0, 1)


def test_reason_labels_and_session_depth():
    ds, _ = simulate(small_cfg(seed=10))
    reasons = np.unique(ds.column("reason"))
    assert all(r.startswith("r") and len(r) == 3 for r in reasons)
    assert len(reasons) <= 6
    assert np.all(ds.column("session_depth") == 5.0)
    assert np.all(ds.column("session_depth") >= ds.column("position"))


# SHA-256 of the CSV bytes and the audit arrays of three small configs. These
# pin the random-stream layout (tags, counters, draw order), which the
# chunking test above cannot see: it compares the simulator with itself.
FROZEN_LAYOUT = [  # config overrides, _CHUNK_CELLS (None: the default), digest
    pytest.param(dict(requests_per_user=2, seed=21), None,
                 "9627dc6a224b04c06b9884110343594c09f8614d0381c83e406949dcf5a48e1e",
                 id="pymk_two_requests"),
    pytest.param(dict(marketplace_mode="ads", n_items=6, slots_per_request=6, base_rate=0.3,
                      effect_slope_sd=0.01, seed=22), None,
                 "fe290e0a585b93683b404a987a9a55c96f758f47310e34ddbc9d93d3262ac144",
                 id="ads_every_item_shown"),
    pytest.param(dict(marketplace_mode="ads", n_users=120, requests_per_user=3, base_rate=0.4,
                      effect_slope_sd=0.01, seed=23), 64,
                 "1c928e39704f3235a478349368585e57b54ff6092df5a82ecbbb5592ec3116f7",
                 id="ads_many_chunks"),
]


@pytest.mark.parametrize("overrides, chunk_cells, digest", FROZEN_LAYOUT)
def test_frozen_stream_layout(overrides, chunk_cells, digest, monkeypatch, tmp_path):
    if chunk_cells is not None:
        monkeypatch.setattr(sim, "_CHUNK_CELLS", chunk_cells)
    ds, truth = simulate(small_cfg(**overrides))
    h = hashlib.sha256()
    write_dataset(ds, str(tmp_path / "data.csv"))
    h.update((tmp_path / "data.csv").read_bytes())
    for name in sorted(truth.audit):
        a = truth.audit[name]
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"clips {truth.clip_count} rows {truth.n_rows}".encode())
    assert h.hexdigest() == digest
