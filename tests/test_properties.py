"""Property-based checks with hypothesis."""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from posiv import datamodel
from posiv.datamodel import EDGE_SCHEMA, Dataset, load_dataset, write_dataset
from posiv.estimator import fit_2sls, fit_ols
from posiv.prepare import aggregate_sessions, sample_one_per_request
from posiv.tables import format_value

from conftest import edge_columns, make_design, row_tuples


@st.composite
def edge_datasets(draw):
    n_users = draw(st.integers(min_value=2, max_value=8))
    arms = {
        u: draw(st.sampled_from(["control", "treatment"]))
        for u in range(1, n_users + 1)
    }
    with_optional = draw(st.booleans())
    rows = []
    req_id = 0
    for u in range(1, n_users + 1):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            req_id += 1
            depth = draw(st.integers(min_value=1, max_value=5))
            for pos in range(1, depth + 1):
                rel = (
                    draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
                    if with_optional and draw(st.booleans())
                    else None
                )
                rows.append((
                    req_id,
                    u,
                    draw(st.integers(min_value=1, max_value=20)),
                    pos,
                    draw(st.integers(min_value=0, max_value=1)),
                    arms[u],
                    draw(st.sampled_from(["r00", "r01", "r02"])) if with_optional else None,
                    rel,
                    depth if with_optional else None,
                ))
    return Dataset(edge_columns(rows), EDGE_SCHEMA)


@settings(max_examples=30, deadline=None)
@given(edge_datasets())
def test_write_load_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    write_dataset(ds, str(path))
    assert load_dataset(str(path)) == ds


@settings(max_examples=30, deadline=None)
@given(edge_datasets())
def test_the_writers_sidecar_is_the_one_a_parse_writes(tmp_path_factory, ds):
    """write_dataset leaves the sidecar that a load which parses the file
    writes, byte for byte."""
    path = tmp_path_factory.mktemp("sidecar") / "ds.csv"
    sidecar = path.parent / f".{path.name}.posiv"
    write_dataset(ds, str(path))
    written = sidecar.read_bytes()
    sidecar.unlink()
    digest = datamodel._sidecar_digest({})
    parsed = datamodel._parse(str(path), {}, digest)
    datamodel._write_sidecar(str(path), digest.hexdigest(), parsed)
    assert sidecar.read_bytes() == written


@settings(max_examples=30, deadline=None)
@given(edge_datasets(), st.integers(min_value=0, max_value=2**32))
def test_sampling_properties(ds, seed):
    out = sample_one_per_request(ds, seed)
    req = out.column("request_id")
    assert len(np.unique(req)) == len(req)
    assert len(req) == len(np.unique(ds.column("request_id")))
    # kept rows are source rows: every kept tuple occurs in the source
    src = set(row_tuples(ds))
    assert all(t in src for t in row_tuples(out))


@settings(max_examples=30, deadline=None)
@given(edge_datasets(), st.integers(min_value=0, max_value=6))
def test_session_aggregation_conserves(ds, top_cut):
    sess = aggregate_sessions(ds, top_cut=top_cut)
    assert sess.column("invite_total").sum() == ds.column("outcome").sum()
    assert (sess.column("n_top_spot") + sess.column("n_bottom_spot")).sum() == ds.n_rows
    assert (sess.column("invite_total") <= sess.column("n_top_spot") + sess.column("n_bottom_spot")).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=20, max_value=60))
def test_fit_permutation_and_scale_invariance(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    w = z + rng.normal(size=n) * 0.5
    x = rng.normal(size=n)
    y = 1.0 - 0.5 * w + 0.3 * x + rng.normal(size=n) * 0.2
    clusters = np.arange(n) % max(2, n // 4)
    d = make_design(y, w, z, x, clusters=clusters)
    fit = fit_2sls(d)

    perm = rng.permutation(n)
    d_perm = make_design(y[perm], w[perm], z[perm], x[perm], clusters=clusters[perm])
    fit_perm = fit_2sls(d_perm)
    np.testing.assert_allclose(fit.coef, fit_perm.coef, rtol=1e-9, atol=1e-12)

    d_scaled = make_design(y, w, z, 4.0 * x + 7.0, clusters=clusters)
    fit_scaled = fit_2sls(d_scaled)
    np.testing.assert_allclose(
        fit.coefficient("w0"), fit_scaled.coefficient("w0"), rtol=1e-9
    )
    np.testing.assert_allclose(
        fit.coefficient("x0"), 4.0 * fit_scaled.coefficient("x0"), rtol=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=15, max_value=50))
def test_covariance_always_symmetric_psd(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    y = 0.5 * w + rng.normal(size=n)
    d = make_design(y, w, [], [], clusters=np.arange(n) % 5)
    fit = fit_ols(d)
    np.testing.assert_allclose(fit.cov, fit.cov.T, atol=1e-14)
    assert np.linalg.eigvalsh(fit.cov).min() > -1e-10
    assert np.isfinite(fit.se).all()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(
        min_value=1e-8, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from([1.0, -1.0]),
)
def test_format_value_parses_close(mag, sign):
    x = sign * mag
    text = format_value(x)
    assert text
    back = float(text)
    assert math.isclose(back, x, rel_tol=6e-3)
