"""Fourth-order central finite-difference stencils on chart coordinates.

All helpers accept callables ``f(u, v)`` returning arrays in the node-last
layout of ``_jets``: value axes first, then the broadcast shape of their
arguments.  The stencil points of a node sit on new leading axes of (u, v),
so f returns them just before the node axes, where a weighted sum in fixed
order contracts them; no BLAS kernel is involved, whose summation order
could depend on how many nodes are in the batch.  The broadcast shape of
``(u, v)`` is preserved.  Stencil nodes may leave the chart rectangle: the
built-in embeddings are entire functions of (u, v), so off-chart evaluation
is well defined.

Weights are formed from exact integer numerators in the dtype of the
evaluation points; precomputing them in float64 would put an eps/h^2 noise
floor under extended-precision runs.
"""

import numpy as np

D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_NUM = np.array([1, -8, 8, -1])          # /12h

D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_NUM = np.array([-1, 16, -30, 16, -1])   # /12h^2


def _weights(num, dtype):
    return num.astype(dtype) / dtype.type(12)


def _contract(vals, num, ndim):
    """sum_j w_j vals_j over the stencil axis, just before the ndim node axes."""
    w = _weights(num, vals.dtype)
    terms = np.moveaxis(vals, -ndim - 1, 0)
    out = w[0] * terms[0]
    for wj, x in zip(w[1:], terms[1:]):
        out = out + wj * x
    return out


def _offsets(offsets, u, h, ndim):
    return (offsets.astype(u.dtype) * u.dtype.type(h)).reshape((-1,) + (1,) * ndim)


def _apply(f, u, v, axis, offsets, num, h):
    u = np.asarray(u)
    v = np.asarray(v)
    ndim = np.broadcast(u, v).ndim
    offs = _offsets(offsets, u, h, ndim)
    vals = np.asarray(f(u + offs, v) if axis == 0 else f(u, v + offs))
    return _contract(vals, num, ndim)


def diff1(f, u, v, axis, h):
    """First partial of f along the given chart axis."""
    out = _apply(f, u, v, axis, D1_OFFSETS, D1_NUM, h)
    return out / out.dtype.type(h)


def diff2(f, u, v, axis, h):
    """Second partial of f along the given chart axis."""
    out = _apply(f, u, v, axis, D2_OFFSETS, D2_NUM, h)
    return out / out.dtype.type(h) ** 2


def diff_cross(f, u, v, h):
    """Mixed partial d^2 f / du dv via tensor-product first-derivative stencils."""
    u = np.asarray(u)
    v = np.asarray(v)
    ndim = np.broadcast(u, v).ndim
    offs = _offsets(D1_OFFSETS, u, h, ndim)
    vals = np.asarray(f(u + offs[:, None], v + offs[None, :]))
    out = _contract(_contract(vals, D1_NUM, ndim), D1_NUM, ndim)
    return out / out.dtype.type(h) ** 2


def gradient(f, u, v, h):
    """Stack (d_u f, d_v f) on a new first axis, as the d of a jet."""
    return np.stack([diff1(f, u, v, 0, h), diff1(f, u, v, 1, h)])


def hessian(f, u, v, h):
    """Stack (d_uu f, d_uv f, d_vv f) on a new first axis, as the dd of a jet."""
    return np.stack([diff2(f, u, v, 0, h), diff_cross(f, u, v, h),
                     diff2(f, u, v, 1, h)])
