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
def table1_dataset():
    return from_edges(table1_rows())
