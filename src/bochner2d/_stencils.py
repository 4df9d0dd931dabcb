"""Fourth-order central finite-difference stencils on chart coordinates.

Two evaluators share the weights and their contraction.  ``partials``
differences f(u, v): at order 2 it calls f once on the 5x5 grid of offsets
``(u + k h, v + l h)``, ``k, l in -2..2``, passed as ``u + offs[:, None]``
and ``v + offs[None, :]`` so that anything f computes from u or v alone
runs on 5 points per node, not 25.  The value is the grid centre; both
first partials, both pure second partials and the mixed partial (the
tensor product of first-derivative stencils) are read off slices of that
one array.  At order 1 f is called on the line along u and on the four
off-centre points along v, 9 points per node.  ``along`` differences f(x)
of one chart coordinate, the metric's factor tables (see ``surfaces``), on
5 points per point.  Both walk the flattened points in blocks of
BLOCK_NODES, a `verify` tile, which bounds the stencil points' memory: a
block's 25 x 4096 grid points take about 0.8 MB per value component.

f must return an array in the node-last layout of ``_jets``: value axes
first, then the broadcast shape of its arguments, here the stencil axes and
the nodes of a block, so a weighted sum in fixed order contracts the
stencil axes; no BLAS kernel is involved, whose summation order could
depend on how many nodes are in the batch.  Stencil nodes may leave the
chart rectangle: the built-in embeddings are entire functions of (u, v), so
off-chart evaluation is well defined.

Weights are formed from exact integer numerators in the dtype of the
evaluation points; precomputing them in float64 would put an eps/h^2 noise
floor under extended-precision runs.
"""

import numpy as np

BLOCK_NODES = 4096      # nodes per block of calls of f; bounds the memory of its grid

OFFSETS = np.arange(-2, 3)                 # grid offsets, in units of h
D1_POINTS = [0, 1, 3, 4]                   # the first-derivative stencil's offsets
D1_NUM = np.array([1, -8, 8, -1])          # /12h
D2_NUM = np.array([-1, 16, -30, 16, -1])   # /12h^2


def _contract(vals, num, points):
    """sum_j w_j vals[..., points_j, :], the weights w_j = num_j / 12 in fixed order."""
    w = num.astype(vals.dtype) / vals.dtype.type(12)
    out = w[0] * vals[..., points[0], :]
    for wj, p in zip(w[1:], points[1:]):
        out = out + wj * vals[..., p, :]
    return out


def _block(f, u, v, h, order):
    """`partials` at 1-D nodes, from f on their 5x5 grid, or on its centre lines."""
    offs = (OFFSETS.astype(u.dtype) * u.dtype.type(h))[:, None]
    if order >= 2:
        vals = np.asarray(f(u + offs[:, None], v + offs[None, :]))
        # the grid lines through the node along u and along v: (..., 5, nodes)
        along_u, along_v, v_points = vals[..., :, 2, :], vals[..., 2, :, :], D1_POINTS
    else:
        # the same lines, the centre only on the first; offs[2:3] is the
        # grid's zero offset, so every point is the grid's to the bit
        along_u = np.asarray(f(u + offs, v + offs[2:3]))
        along_v = np.asarray(f(u + offs[2:3], v + offs[D1_POINTS]))
        v_points = range(4)
    h = along_u.dtype.type(h)
    parts = [along_u[..., 2, :], np.stack([_contract(along_u, D1_NUM, D1_POINTS),
                                           _contract(along_v, D1_NUM, v_points)]) / h]
    if order >= 2:
        # sum over k of w_k sum over l of w_l vals[k, l], the inner sum on
        # every row k of the grid
        cross = _contract(_contract(vals, D1_NUM, D1_POINTS), D1_NUM, D1_POINTS)
        uu, vv = (_contract(line, D2_NUM, range(5)) for line in (along_u, along_v))
        parts.append(np.stack([uu, cross, vv]) / h ** 2)
    return parts[:order + 1]


def _walk(block, nodes, shape):
    """block(s) on the slices s of BLOCK_NODES flat nodes, each part joined to shape."""
    blocks = [block(np.s_[s:s + BLOCK_NODES])
              for s in range(0, max(nodes, 1), BLOCK_NODES)]
    return [np.concatenate(part, axis=-1).reshape(part[0].shape[:-1] + shape)
            for part in zip(*blocks)]


def partials(f, u, v, h, order):
    """[f, d f, dd f][:order + 1] at the nodes (u, v), by steps h in both axes.

    d f stacks (d_u f, d_v f) and dd f stacks (d_uu f, d_uv f, d_vv f) on a
    new first axis, as the d and dd of a jet; every part has the value axes
    of f, then the broadcast shape of (u, v).  The offsets take the dtype of
    u, and the weights that of f's values.
    """
    u, v = np.broadcast_arrays(np.asarray(u), np.asarray(v))
    flat_u, flat_v = u.ravel(), v.ravel()
    return _walk(lambda s: _block(f, flat_u[s], flat_v[s], h, order), u.size, u.shape)


def along(f, x, h, order):
    """[f, f', f''][:order + 1] at the points x of one chart axis, by step h,
    from f, a function of that coordinate alone, on the five points x + k h
    of each point; every part has the value axes of f, then the shape of x."""
    x = np.asarray(x)
    offs = (OFFSETS.astype(x.dtype) * x.dtype.type(h))[:, None]

    def line(s):
        vals = np.asarray(f(x.ravel()[s] + offs))
        w = vals.dtype.type(h)
        return [vals[..., 2, :], _contract(vals, D1_NUM, D1_POINTS) / w,
                _contract(vals, D2_NUM, range(5)) / w ** 2][:order + 1]

    return _walk(line, x.size, x.shape)
