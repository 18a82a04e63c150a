import numpy as np
import pytest

from posiv.datamodel import EdgeObservation, from_edges
from posiv.prepare import DesignMatrix


def make_design(y, w, z, x_controls, clusters, w_names=None, z_names=None, x_names=None):
    """DesignMatrix from plain arrays; appends the constant column."""
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
        clusters=np.asarray(clusters, dtype=np.uint64),
    )


def projected_collinear(rng, n, collinear=True):
    """(y, w, instrument, z, x) for two endogenous columns, w2 = 2*w1 + e
    where e is orthogonal to [Z, X]: [Z, X] and [W, X] are well conditioned,
    but the projections of w1 and w2 on [Z, X] are collinear. With
    collinear=False, w2 is instrumented on its own. z holds the dummies of
    the two treated arms; instrument is each row's arm, -1 for the baseline."""
    instrument = np.arange(n) % 3 - 1
    z = (instrument[:, None] == np.arange(2)).astype(float)
    x = rng.normal(size=n)
    p = np.column_stack([z, x, np.ones(n)])
    w1 = z @ np.array([1.0, -0.7]) + rng.normal(size=n)
    e = rng.normal(size=n)
    e -= p @ np.linalg.lstsq(p, e, rcond=None)[0]
    w2 = 2.0 * w1 + e if collinear else z @ np.array([-0.4, 0.9]) + rng.normal(size=n)
    y = 0.5 - 0.3 * w1 + 0.2 * w2 + x + rng.normal(size=n)
    return y, np.column_stack([w1, w2]), instrument, z, x


def table1_rows():
    """The six example observations: two requests of three items each."""
    spec = [
        (1, 1, 1, 1),
        (0, 2, 1, 2),
        (0, 3, 1, 3),
        (0, 1, 2, 1),
        (1, 3, 2, 2),
        (0, 6, 2, 3),
    ]
    return [
        EdgeObservation(
            request_id=req, user_id=req, item_id=item, position=pos, outcome=resp
        )
        for resp, item, req, pos in spec
    ]


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


@pytest.fixture
def table1_dataset():
    return from_edges(table1_rows())
