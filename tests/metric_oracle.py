"""Reference metric assemblies: g = J^T J at every node.

These are the routes that ``surfaces._assemble`` replaced with its per-axis
factor tables: the first fundamental form J^T J of the Jacobian, its exact
jet by the product rule over the Jacobian's jet (analytic backend), and the
4th-order long-double 2-D stencil of J^T J (fd backend), both node-last as
``_assemble`` returns them.  Tests bound the factored assembly against
them.
"""

import numpy as np

from bochner2d import _stencils
from bochner2d import surfaces as surf


def gram(a, b):
    """a^T b at every node: sum over the ambient axis of a[a, i] b[a, j]."""
    return np.einsum("ai...,aj...->ij...", a, b)


def first_form(maps, u, v):
    jac = maps.d1(u, v)
    return gram(jac, jac)


def analytic_metric(maps, u, v, order):
    """(g, dg, ddg) to `order` from the Jacobian's jet, by the product rule.

    Each pair of terms is one product and its transpose: dg = S + S^T with
    S = dJ^T J, and the mixed row of the second partials holds P + P^T with
    P = d_u J^T d_v J.
    """
    jac = surf._jacobian_jet(maps, u, v, order)
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
