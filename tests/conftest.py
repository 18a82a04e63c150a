import math

import numpy as np
import pytest

from posiv.datamodel import EDGE_SCHEMA, Dataset
from posiv.prepare import DesignMatrix, ItemBlocks

EDGE_FIELDS = ("request_id", "user_id", "item_id", "position", "outcome",
               "arm", "reason", "relevance_score", "session_depth")


def make_design(y, w, z, x_controls, clusters, w_names=None, z_names=None, x_names=None):
    """A single design (one item labelled None) from plain arrays; appends
    the constant column and numbers the clusters 0.. in the order of their
    ids."""
    y = np.asarray(y, dtype=float)
    n = len(y)

    def as_mat(a):
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.size == 0:
            a = a.reshape(n, 0)
        return a

    w, z, xc = as_mat(w), as_mat(z), as_mat(x_controls)
    x = np.hstack([xc, np.ones((n, 1))])
    return DesignMatrix(
        y=y,
        w=w,
        z=z,
        x=x,
        w_names=tuple(w_names or [f"w{i}" for i in range(w.shape[1])]),
        z_names=tuple(z_names or [f"z{i}" for i in range(z.shape[1])]),
        x_names=tuple(x_names or [f"x{i}" for i in range(xc.shape[1])]) + ("Constant",),
        items=ItemBlocks(
            labels=(None,), bounds=np.array([0, n]),
            codes=np.unique(np.asarray(clusters, dtype=np.uint64), return_inverse=True)[1],
            z_cols=np.arange(z.shape[1]), z_bounds=np.array([0, z.shape[1]]), errors=(None,),
        ),
    )


def projected_collinear(rng, n, collinear=True):
    """(y, w, z, x) for two endogenous columns, w2 = 2*w1 + e where e is
    orthogonal to [Z, X]: [Z, X] and [W, X] are well conditioned, but the
    projections of w1 and w2 on [Z, X] are collinear. With collinear=False,
    w2 is instrumented on its own. z holds the dummies of the two treated
    arms."""
    z = ((np.arange(n) % 3 - 1)[:, None] == np.arange(2)).astype(float)
    x = rng.normal(size=n)
    p = np.column_stack([z, x, np.ones(n)])
    w1 = z @ np.array([1.0, -0.7]) + rng.normal(size=n)
    e = rng.normal(size=n)
    e -= p @ np.linalg.lstsq(p, e, rcond=None)[0]
    w2 = 2.0 * w1 + e if collinear else z @ np.array([-0.4, 0.9]) + rng.normal(size=n)
    y = 0.5 - 0.3 * w1 + 0.2 * w2 + x + rng.normal(size=n)
    return y, np.column_stack([w1, w2]), z, x


def edge_columns(rows):
    """Edge-level columns of row tuples in EDGE_FIELDS order, trailing
    optional fields left out or None: ids as uint64, position and outcome as
    int64, and an optional column only when some row has a value. Rows
    without one read "" in arm and reason and NaN in relevance_score and
    session_depth, which are float64 for that reason."""
    rows = [tuple(r) + (None,) * (len(EDGE_FIELDS) - len(r)) for r in rows]
    cols = dict(zip(EDGE_FIELDS, zip(*rows)))
    data = {name: np.array(cols[name], dtype=np.uint64) for name in EDGE_FIELDS[:3]}
    data.update({name: np.array(cols[name], dtype=np.int64) for name in EDGE_FIELDS[3:5]})
    for name in EDGE_FIELDS[5:]:
        if any(v is not None for v in cols[name]):
            if name in ("arm", "reason"):
                data[name] = np.array(["" if v is None else v for v in cols[name]])
            else:
                data[name] = np.array([math.nan if v is None else v for v in cols[name]],
                                      dtype=float)
    return data


def table1_dataset():
    """The six example observations: two requests of three items each."""
    return Dataset({
        "request_id": np.array([1, 1, 1, 2, 2, 2], dtype=np.uint64),
        "user_id": np.array([1, 1, 1, 2, 2, 2], dtype=np.uint64),
        "item_id": np.array([1, 2, 3, 1, 3, 6], dtype=np.uint64),
        "position": np.array([1, 2, 3, 1, 2, 3], dtype=np.int64),
        "outcome": np.array([1, 0, 0, 0, 1, 0], dtype=np.int64),
    }, EDGE_SCHEMA)


def row_tuples(ds):
    """Rows as canonical tuples in column order (NaN normalized to None): the
    row-wise oracle of the duplicate count and of sampled rows."""
    cols = []
    for name in ds.column_names:
        arr = ds.column(name)
        if arr.dtype.kind == "f":
            cols.append([None if math.isnan(v) else float(v) for v in arr])
        elif arr.dtype.kind in "ui":
            cols.append([int(v) for v in arr])
        else:
            cols.append([str(v) for v in arr])
    return list(zip(*cols)) if cols else []


@pytest.fixture
def factorizations(monkeypatch):
    """The shapes of the matrices passed to np.linalg.qr and np.linalg.svd,
    recorded per function name while a test runs."""
    shapes = {"qr": [], "svd": []}
    for name, calls in shapes.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _calls=calls, **kwargs):
            _calls.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes

