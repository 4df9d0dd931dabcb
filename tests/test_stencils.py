"""The one stencil evaluator against the per-axis reference stencils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import _stencils
from bochner2d import surfaces as surf

import metric_oracle
import stencil_oracle

SHIPPED_BLOCK = _stencils.BLOCK_NODES
BLOCK = 256         # the block size of this module's other tests
# node counts around the block boundaries, each with a 2-D shape of that size
SHAPES = {1: (1, 1), 255: (15, 17), 256: (16, 16), 257: (257, 1), 513: (27, 19)}
TORUS = surf.torus(2.0, 1.0)


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    """Blocks of BLOCK nodes, so that the node counts of SHAPES cross block
    boundaries; the weighted sums do not depend on the block size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stencils, "BLOCK_NODES", BLOCK)
        yield


def _scalar(u, v):
    return np.sin(u) * np.cos(v) + u * v * v


def _vector(u, v):
    return np.stack(np.broadcast_arrays(np.cos(u) * v, np.exp(np.sin(v)) + u))


def _first_form(u, v):
    return metric_oracle.first_form(TORUS.maps, u, v)


def _nodes(layout, count, dtype, seed):
    rng = np.random.default_rng(seed)
    if layout == "0-d":
        return tuple(dtype.type(x) for x in rng.uniform(-3.0, 3.0, 2))
    a, b = SHAPES[count]
    shapes = {"1-D": ((count,), (count,)), "2-D": ((a, b), (a, b)),
              "broadcast": ((a, 1), (1, b))}[layout]
    return tuple(rng.uniform(-3.0, 3.0, shape).astype(dtype) for shape in shapes)


@settings(max_examples=80)
@given(f=st.sampled_from((_scalar, _vector, _first_form)),
       dtype=st.sampled_from((np.dtype(np.float64), np.dtype(np.longdouble))),
       layout=st.sampled_from(("0-d", "1-D", "2-D", "broadcast")),
       count=st.sampled_from(sorted(SHAPES)),
       h=st.sampled_from((1e-3, 1e-2, 0.1)),
       order=st.sampled_from((1, 2)),
       seed=st.integers(0, 2**16))
def test_partials_match_the_per_axis_stencils(f, dtype, layout, count, h, order, seed):
    u, v = _nodes(layout, count, dtype, seed)
    got = _stencils.partials(f, u, v, h, order)
    want = stencil_oracle.partials(f, u, v, h, order)
    assert len(got) == len(want) == order + 1
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("order", [1, 2])
def test_shipped_blocks_match_the_per_axis_stencils(monkeypatch, order):
    # one node past a block of the shipped size, in both dtypes
    monkeypatch.setattr(_stencils, "BLOCK_NODES", SHIPPED_BLOCK)
    nodes = np.random.default_rng(3).uniform(-3.0, 3.0, (2, SHIPPED_BLOCK + 1))
    for dtype in (np.dtype(np.float64), np.dtype(np.longdouble)):
        u, v = nodes.astype(dtype)
        got = _stencils.partials(_vector, u, v, 1e-3, order)
        want = stencil_oracle.partials(_vector, u, v, 1e-3, order)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)


def test_order_two_evaluates_25_points_per_node():
    calls = []

    def f(u, v):
        calls.append((u.shape, v.shape))
        return np.sin(u) + np.cos(v)

    u = np.linspace(0.0, 3.0, 600)
    _stencils.partials(f, u, 0.5, 1e-3, 2)
    blocks = [min(_stencils.BLOCK_NODES, u.size - s)
              for s in range(0, u.size, _stencils.BLOCK_NODES)]
    # one call per block; each coordinate varies along one grid axis only
    assert calls == [((5, 1, b), (1, 5, b)) for b in blocks]
    assert sum(np.prod(np.broadcast_shapes(*c)) for c in calls) == 25 * u.size


def test_order_one_evaluates_9_points_per_node():
    points = []

    def f(u, v):
        points.append(np.broadcast_arrays(u, v))
        return np.sin(u) + np.cos(v)

    u = np.linspace(0.0, 3.0, 600)
    _stencils.partials(f, u, 0.5, 1e-3, 1)
    blocks = [min(_stencils.BLOCK_NODES, u.size - s)
              for s in range(0, u.size, _stencils.BLOCK_NODES)]
    # per block, the line along u, then the line along v without its centre
    assert [p[0].shape for p in points] == [s for b in blocks for s in ((5, b), (4, b))]
    assert sum(p[0].size for p in points) == 9 * u.size
    for along_u, along_v in zip(points[::2], points[1::2]):
        grid = np.concatenate([np.stack(along_u, -1), np.stack(along_v, -1)])  # (9, b, 2)
        assert all(len(np.unique(grid[:, k], axis=0)) == 9 for k in range(grid.shape[1]))
