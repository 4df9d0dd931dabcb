"""Reference tile kernels: the jet contraction, the connection and the Ricci trace.

These are the forms that ``_jets.einsum``, ``operators._levi_civita`` and
``operators._ricci`` replaced:

* ``einsum`` sums the derivative terms of the product rule through ``sum()``
  from 0 and stacks the rows of a second-order cross term with ``np.stack``;
* ``levi_civita`` builds det g, g^-1 / 2 and
  S[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij as jets and contracts them
  with ``einsum``;
* ``ricci`` contracts the full curvature tensor (``riemann``).

The rewritten kernels must give the same values bit for bit, NaN for NaN.
"""

import numpy as np

from bochner2d import _jets
from bochner2d.surfaces import cofactor_signs


def cross(a_d, b_d, product=np.multiply):
    """Rows (uu, uv, vv) of product(d_i a, d_j b) + product(d_j a, d_i b)."""
    if len(a_d) == 1:
        return 2 * product(a_d[0], b_d[0])[None]
    (a0, a1), (b0, b1) = a_d, b_d
    return np.stack([2 * product(a0, b0), product(a0, b1) + product(a1, b0),
                     2 * product(a1, b1)])


def einsum(subscripts, *operands):
    """np.einsum over jets and constant arrays, differentiated by the product rule."""
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    vals = [x.v if isinstance(x, _jets.Jet) else x for x in operands]
    jets = [k for k, x in enumerate(operands) if isinstance(x, _jets.Jet)]
    order = min(operands[k].order for k in jets)

    def derivative(k, x):
        subs = ",".join(("Z" if n == k else "") + t for n, t in enumerate(terms))
        return np.einsum(f"{subs}->Z{output}", *vals[:k], x, *vals[k + 1:])

    def pair(k, m):
        def product(a, b):
            ops = list(vals)
            ops[k], ops[m] = a, b
            return np.einsum(subscripts, *ops)
        return cross(operands[k].d, operands[m].d, product)

    v = np.einsum(subscripts, *vals)
    if order == 0:
        return _jets.Jet(v)
    if len(operands) == 1:
        return _jets.Jet(v, *(derivative(0, x)
                              for x in (operands[0].d, operands[0].dd)[:order]))
    d = sum(derivative(k, operands[k].d) for k in jets)
    if order == 1:
        return _jets.Jet(v, d)
    dd = sum(derivative(k, operands[k].dd) for k in jets)
    for n, k in enumerate(jets):
        for m in jets[n + 1:]:
            dd = dd + pair(k, m)
    return _jets.Jet(v, d, dd)


def levi_civita(g):
    """Christoffel symbols and d_i log sqrt(det g), one order below the jet g."""
    low = g.truncated(g.order - 1)
    det = low[0, 0] * low[1, 1] - low[0, 1] * low[1, 0]
    half_inv = low[::-1, ::-1] * (0.5 * cofactor_signs(det.v.ndim)) / det[None, None]
    dg = _jets.gradient(g)
    s = einsum("ijl...->lij...", dg) + einsum("jil...->lij...", dg) - dg
    return (einsum("kl...,lij...->kij...", half_inv, s),
            einsum("ab...,iab...->i...", half_inv, dg))


def riemann(gamma):
    """R[l, k, i, j] = R^l_kij of the connection jet gamma (order >= 1)."""
    quad = np.einsum("lim...,mjk...->lkij...", gamma.v, gamma.v)
    return (np.einsum("iljk...->lkij...", gamma.d)
            - np.einsum("jlik...->lkij...", gamma.d)
            + quad - np.einsum("lkji...->lkij...", quad))


def ricci(gamma):
    """Ric_kj by contracting the full curvature tensor."""
    return np.einsum("ikij...->kj...", riemann(gamma))
