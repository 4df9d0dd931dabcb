"""Reference stencils: one call of f per partial, each on its own offsets.

These are the per-axis stencils that ``_stencils.partials`` replaced: the
first partials along one axis (4 points), the pure second partials (5
points) and the mixed partial as a tensor product of first-derivative
stencils (16 points), each with the same weights, contracted in the same
order.  Tests compare ``partials`` with them bit for bit and use them where
a stencil must be nested in another one.

f(u, v) returns value axes first, then the broadcast shape of its
arguments; the stencil points sit on a new axis just before the node axes.
"""

import numpy as np

D1_OFFSETS = np.array([-2, -1, 1, 2])
D1_NUM = np.array([1, -8, 8, -1])          # /12h

D2_OFFSETS = np.array([-2, -1, 0, 1, 2])
D2_NUM = np.array([-1, 16, -30, 16, -1])   # /12h^2


def _contract(vals, num, ndim):
    """sum_j w_j vals_j over the stencil axis, just before the ndim node axes."""
    w = num.astype(vals.dtype) / vals.dtype.type(12)
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


def partials(f, u, v, h, order):
    """[f, d f, dd f][:order + 1] from the per-axis stencils, one call each."""
    parts = [np.asarray(f(np.asarray(u), np.asarray(v)))]
    if order >= 1:
        parts.append(np.stack([diff1(f, u, v, 0, h), diff1(f, u, v, 1, h)]))
    if order >= 2:
        parts.append(np.stack([diff2(f, u, v, 0, h), diff_cross(f, u, v, h),
                               diff2(f, u, v, 1, h)]))
    return parts
