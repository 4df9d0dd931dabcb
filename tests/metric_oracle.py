"""Reference metric assemblies.

``metric`` and its two routes are those that ``surfaces._assemble`` replaced
with its per-axis factor tables: the first fundamental form J^T J of the
Jacobian, its exact jet by the product rule over the Jacobian's jet
(``jacobian_jet``, on the node grid; analytic backend), and the 4th-order
long-double 2-D stencil of J^T J (fd backend), both node-last as
``_assemble`` returns them.  Tests bound the factored assembly against them.

``assemble_by_rows`` is the factored assembly in its first form: each
table's three factor products as three jet products, and each row of
(g, dg, ddg) summed in a pass of its own, placed as g_ij by a copy, then
stacked.  ``_assemble`` must give the same bits.
"""

import numpy as np

from bochner2d import _jets, _stencils
from bochner2d import surfaces as surf


def gram(a, b):
    """a^T b at every node: sum over the ambient axis of a[a, i] b[a, j]."""
    return np.einsum("ai...,aj...->ij...", a, b)


def first_form(maps, u, v):
    jac = maps.d1(u, v)
    return gram(jac, jac)


def jacobian_jet(maps, u, v, order):
    """The Jacobian J[a, i] as a jet of `order`, node axes last.

    It is (p' q, p q') of the factor maps evaluated on the seed jets of
    (u, v) over their broadcast shape: d_m J[a, i] is the embedding's second
    partial in rows m + i of (uu, uv, vv), and row r of the jet's second
    partials holds the third partials r + i of (uuu, uuv, uvv, vvv).
    """
    u, v = _jets.variables(u, v, max(order, 1))
    (p, dp), (q, dq) = maps.u_factors(u), maps.v_factors(v)
    cols = (dp * q).truncated(order), (p * dq).truncated(order)
    # the columns stacked on a new second value axis, behind the derivative axis
    return _jets.Jet(*(np.stack([(c.v, c.d, c.dd)[k] for c in cols], axis=1 + min(k, 1))
                       for k in range(order + 1)))


def analytic_metric(maps, u, v, order):
    """(g, dg, ddg) to `order` from the Jacobian's jet, by the product rule.

    Each pair of terms is one product and its transpose: dg = S + S^T with
    S = dJ^T J, and the mixed row of the second partials holds P + P^T with
    P = d_u J^T d_v J.
    """
    jac = jacobian_jet(maps, u, v, order)
    g = gram(jac.v, jac.v)
    if order == 0:
        return g, None, None
    s = np.einsum("Zai...,aj...->Zij...", jac.d, jac.v)
    dg = s + s.swapaxes(1, 2)
    if order == 1:
        return g, dg, None
    s = np.einsum("Zai...,aj...->Zij...", jac.dd, jac.v)
    ju, jv = jac.d
    p = gram(ju, jv)
    cross = np.stack([2 * gram(ju, ju), p + p.swapaxes(0, 1), 2 * gram(jv, jv)])
    return g, dg, s + s.swapaxes(1, 2) + cross


def fd_metric(maps, u, v, order, h):
    """(g, dg, ddg) to `order` from stencils of J^T J on the 5x5 grid of each node.

    Long double keeps the stencils' round-off below their O(h^4)
    truncation; g is the grid centre.
    """
    ul = np.asarray(u, dtype=np.longdouble)
    vl = np.asarray(v, dtype=np.longdouble)
    g_fn = lambda uu, vv: first_form(maps, uu, vv)
    parts = _stencils.partials(g_fn, ul, vl, h, order) if order else [g_fn(ul, vl)]
    return (*(x.astype(np.float64) for x in parts), None, None)[:3]


def metric(surface, u, v, order):
    """The reference (g, dg, ddg) of the surface's backend."""
    if surface.derivative_mode == "analytic":
        return analytic_metric(surface.maps, u, v, order)
    return fd_metric(surface.maps, u, v, order, surface.step)


def axis_table_by_products(surface, factors, x, order):
    """``surfaces._axis_table`` with each factor product a jet product of its own."""
    def products(y):
        f, df = factors(y)
        return _jets.stack([df * df, df * f, f * f])

    fd = surface.derivative_mode == "fd"
    x = np.asarray(x, dtype=np.longdouble if fd else np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if order and not fd:
            jet = products(_jets.variables(x, 0.0)[0])
            return np.stack([jet.v, jet.d[0], jet.dd[0]])[:order + 1]
        parts = (_stencils.along(products, x, surface.step, order) if order
                 else [products(x)])
        return np.asarray(np.stack(parts), dtype=np.float64)


def assemble_by_rows(surface, u, v, order):
    """(g, dg, ddg, det g) of ``surfaces._assemble``, one row at a time."""
    u, v = surf._aligned(u, v)
    a = axis_table_by_products(surface, surface.maps.u_factors, u, order)
    b = axis_table_by_products(surface, surface.maps.v_factors, v, order)[:, ::-1]

    def row(i, j):
        comps = a[i, :, 0] * b[j, :, 0]
        for k in range(1, a.shape[2]):
            comps += a[i, :, k] * b[j, :, k]
        return comps[[[0, 1], [1, 2]]]
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.stack([row(i, j) for i, j in surf._ROWS[:(1, 3, 6)[order]]])
        det = surf._det(full[0])
    return full[0], full[1:3] if order else None, full[3:] if order > 1 else None, det
