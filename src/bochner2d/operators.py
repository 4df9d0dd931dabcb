"""Pointwise Riemannian operators on an embedded surface.

Chart-coefficient conventions (trailing axes):

  field values      a      -> (..., 2)          a[..., k] = k-th coefficient
  first partials    dX     -> (..., 2, 2)       dX[..., i, k] = d_i X^k
  second partials   ddX    -> (..., 3, 2)       rows ordered (uu, uv, vv)
  Christoffel       gamma  -> (..., 2, 2, 2)    gamma[..., k, i, j] = G^k_ij
  operator matrix   m      -> (..., 2, 2)       m[..., k, i] = (grad_{e_i} X)^k

Every derivative comes from one mechanism, the second-order jets of
``_jets``.  A base field is a coefficient function that may declare exact
partials (``d_coeff``/``dd_coeff``, or ``grad``/``hess`` for a scalar).  They
are used when the surface runs in analytic mode; otherwise, and always on the
finite-difference backend, which treats the whole pipeline as the method
under test, the coefficients are differenced by 4th-order stencils at the
surface's step.  A field built from other fields (sums, multiples, products,
the unit field, grad_T T, div T, ...) carries a jet function instead: its
partials follow exactly from the jets of its inputs and of the metric, on
both backends, and are never differenced.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _jets, _stencils
from .errors import NotUnitFieldError
from .surfaces import COFACTOR_SIGNS, metric_data, metric_only

UNIT_TOL = 1e-8  # allowed deviation of g(T, T) from 1 for unit-field inputs


@dataclass(frozen=True)
class TangentField:
    """Tangent vector field given by chart-coefficient functions.

    coeff(u, v)    -> (..., 2)
    d_coeff(u, v)  -> (..., 2, 2), optional exact first partials
    dd_coeff(u, v) -> (..., 3, 2), optional exact second partials
    jet            -> (surface, u, v, order, g) -> Jet of the coefficients;
                      set on fields built from other fields.  g is the metric
                      jet at (u, v) when the caller has assembled it, else None
    """
    coeff: Callable
    d_coeff: Optional[Callable] = None
    dd_coeff: Optional[Callable] = None
    name: str = "field"
    jet: Optional[Callable] = None

    def __call__(self, u, v):
        return np.asarray(self.coeff(u, v), dtype=float)


@dataclass(frozen=True)
class ScalarField:
    """Scalar chart function with optional exact gradient and Hessian."""
    value: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    name: str = "scalar"
    jet: Optional[Callable] = None

    def __call__(self, u, v):
        return np.asarray(self.value(u, v), dtype=float)


def _derived(jet, name, kind=TangentField):
    """A field whose values and partials all come from `jet`.

    Values need no surface: only partials depend on the backend.
    """
    return kind(lambda u, v: jet(None, u, v, 0, None).v, name=name, jet=jet)


def _jet(surface, f, u, v, order, g=None):
    """Jet of a TangentField's coefficients or a ScalarField's values.

    A derived field takes the metric jet `g` at (u, v), when given, instead
    of assembling the metric again; a base field needs no metric.
    """
    if f.jet is not None:
        return f.jet(surface, u, v, order, g)
    if order > 2:
        raise ValueError(f"{f.name!r} declares partials up to second order only")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(f, TangentField):
        value, exact = f.coeff, (f.d_coeff, f.dd_coeff)
    else:
        value, exact = f.value, (f.grad, f.hess)
    parts = [np.asarray(value(u, v), dtype=float)]
    for k, stencil in enumerate((_stencils.gradient, _stencils.hessian)[:order]):
        if surface.derivative_mode == "analytic" and exact[k] is not None:
            parts.append(np.asarray(exact[k](u, v), dtype=float))
        else:
            parts.append(stencil(value, u, v, surface.step))
    return _jets.from_parts(parts, np.broadcast(u, v).ndim)


def coordinate_field(axis, name=None):
    """The coordinate field d/du (axis 0) or d/dv (axis 1)."""
    return constant_field(1.0 - axis, float(axis),
                          name=name or ("du" if axis == 0 else "dv"))


def constant_field(au, av, name="constant"):
    """Field with constant coefficients (au, av), whose exact partials vanish."""
    def filled(x):
        return lambda u, v: np.broadcast_to(
            x, np.broadcast(np.asarray(u), np.asarray(v)).shape + x.shape).copy()

    values = (np.array([float(au), float(av)]), np.zeros((2, 2)), np.zeros((3, 2)))
    return TangentField(*map(filled, values), name=name)


def add_fields(x, y, name=None):
    """Pointwise sum."""
    return _derived(lambda s, u, v, k, g: (_jet(s, x, u, v, k, g)
                                           + _jet(s, y, u, v, k, g)),
                    name or f"{x.name}+{y.name}")


def scale_field(c, x, name=None):
    """Constant multiple of a field."""
    c = float(c)
    return _derived(lambda s, u, v, k, g: c * _jet(s, x, u, v, k, g),
                    name or f"{c:g}*{x.name}")


def scalar_times_field(f, x, name=None):
    """Product field f*X of a ScalarField and a TangentField."""
    return _derived(lambda s, u, v, k, g: _jet(s, f, u, v, k, g)[..., None]
                    * _jet(s, x, u, v, k, g), name or f"{f.name}*{x.name}")


def field_jet(surface, field, u, v, order=1):
    """Field values with partials up to `order`, honoring callbacks.

    Returns (a, dX) for order 1 and (a, dX, ddX) for order 2.
    """
    return _jets.to_parts(_jet(surface, field, u, v, order), np.broadcast(u, v).ndim)


def scalar_jet(surface, f, u, v, order=1):
    """Scalar analogue of field_jet; returns (val, grad[, hess])."""
    return _jets.to_parts(_jet(surface, f, u, v, order), np.broadcast(u, v).ndim)


# ---------------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------------

def _metric_jet(md):
    """The metric of `md` as a jet of the order it was assembled to."""
    ders = tuple(x for x in (md.dg, md.ddg) if x is not None)
    return _jets.from_parts((md.g,) + ders, md.g.ndim - 2)


def _metric(surface, u, v, order, g=None):
    """The metric as a jet of `order`, or `g` when the caller assembled it
    to at least that order.

    Values alone come from metric_only.
    """
    if g is not None and g.order >= order:
        return g
    if order == 0:
        return _jets.Jet(metric_only(surface, u, v))
    return _metric_jet(metric_data(surface, u, v, order=order))


def _levi_civita(g):
    """Christoffel symbols and d_i log sqrt(det g), one order below the jet g."""
    low = _jets.Jet(g.v, *(g.d, g.dd)[:g.order - 1])     # all that g^-1 needs
    det = low[..., 0, 0] * low[..., 1, 1] - low[..., 0, 1] * low[..., 1, 0]
    half_inv = 0.5 * low[..., ::-1, ::-1] * COFACTOR_SIGNS / det[..., None, None]
    dg = _jets.gradient(g)                  # dg[..., i, j, m] = d_m g_ij
    # S[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    s = (_jets.einsum("...jli->...lij", dg) + _jets.einsum("...ilj->...lij", dg)
         - _jets.einsum("...ijl->...lij", dg))
    return (_jets.einsum("...kl,...lij->...kij", half_inv, s),
            _jets.einsum("...ab,...abi->...i", half_inv, dg))


def _covariant_gradient(x, gamma):
    """Jet of m[..., k, i] = (grad_{e_i} X)^k, one order below x."""
    return _jets.gradient(x) + _jets.einsum("...kij,...j->...ki", gamma, x)


def _divergence(x, dlogs):
    """Jet of div X = d_i X^i + X^i d_i log sqrt(det g), one order below x."""
    return (_jets.einsum("...ii->...", _jets.gradient(x))
            + _jets.einsum("...i,...i->...", x, dlogs))


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def christoffel_from_metric(md):
    """Levi-Civita symbols gamma[..., k, i, j] from metric data (order >= 1)."""
    return _levi_civita(_metric_jet(md))[0].v


def christoffel_derivative_from_metric(md):
    """d_m gamma^k_ij, shape (..., 2, 2, 2, 2); needs order-2 metric data."""
    return np.moveaxis(_levi_civita(_metric_jet(md))[0].d, 0, -4)


def christoffel_at(surface, u, v):
    """Levi-Civita connection symbols at chart points."""
    return christoffel_from_metric(metric_data(surface, u, v, order=1))


def gauss_curvature_from_metric(md):
    """Curvature of the first fundamental form via its determinant identity.

    Uses only the metric and its first and second partials, so it applies
    unchanged to surfaces with no distinguished unit normal (ambient R^4).
    """
    g, dg, ddg = md.g, md.dg, md.ddg
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    E_u, E_v = dg[..., 0, 0, 0], dg[..., 1, 0, 0]
    F_u, F_v = dg[..., 0, 0, 1], dg[..., 1, 0, 1]
    G_u, G_v = dg[..., 0, 1, 1], dg[..., 1, 1, 1]
    E_vv, F_uv, G_uu = ddg[..., 2, 0, 0], ddg[..., 1, 0, 1], ddg[..., 0, 1, 1]

    def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (a11 * (a22 * a33 - a23 * a32)
                - a12 * (a21 * a33 - a23 * a31)
                + a13 * (a21 * a32 - a22 * a31))

    m1 = det3(-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v,
              F_v - 0.5 * G_u, E, F,
              0.5 * G_v, F, G)
    m2 = det3(np.zeros_like(E), 0.5 * E_v, 0.5 * G_u,
              0.5 * E_v, E, F,
              0.5 * G_u, F, G)
    return (m1 - m2) / md.det_g**2


def gauss_curvature_at(surface, u, v):
    """Gauss curvature at chart points (analytic or stencil backend)."""
    return gauss_curvature_from_metric(metric_data(surface, u, v, order=2))


def riemann_tensor_from_metric(md):
    """R^l_{kij} from the connection, shape (..., 2, 2, 2, 2)."""
    return _riemann(_levi_civita(_metric_jet(md))[0])


def _riemann(gamma):
    quad = np.einsum("...lim,...mjk->...lkij", gamma.v, gamma.v)
    return (np.einsum("i...ljk->...lkij", gamma.d)
            - np.einsum("j...lik->...lkij", gamma.d)
            + quad - np.einsum("...lkji->...lkij", quad))


def ricci_tensor_from_metric(md):
    """Ric_{kj} by contracting the curvature tensor of the connection."""
    return _ricci(_levi_civita(_metric_jet(md))[0])


def _ricci(gamma):
    return np.einsum("...ikij->...kj", _riemann(gamma))


def ricci_tensor_at(surface, u, v):
    return ricci_tensor_from_metric(metric_data(surface, u, v, order=2))


# ---------------------------------------------------------------------------
# first-order field operators
# ---------------------------------------------------------------------------

def covariant_gradient_at(surface, X, u, v):
    """Matrix of v -> grad_v X in the chart basis; columns are directions.

    Its negative is the operator whose trace equals -div X and whose square
    enters the curvature identities.
    """
    gamma, _ = _levi_civita(_metric(surface, u, v, 1))
    return _covariant_gradient(_jet(surface, X, u, v, 1), gamma).v


def covariant_derivative(surface, X, direction, u, v):
    """grad_dir X as chart coefficients; `direction` is (..., 2) or length-2."""
    m = covariant_gradient_at(surface, X, u, v)
    direction = np.asarray(direction, dtype=float)
    return np.einsum("...ki,...i->...k", m, direction)


def divergence_at(surface, X, u, v):
    """div X via the volume-weighted coordinate formula."""
    _, dlogs = _levi_civita(_metric(surface, u, v, 1))
    return _divergence(_jet(surface, X, u, v, 1), dlogs).v


def divergence_scalar_field(surface, X, name=None):
    """div X as a ScalarField; its partials come from the jets of X and g."""
    def jet(_, u, v, order, g):
        g = _metric(surface, u, v, order + 1, g)
        return _divergence(_jet(surface, X, u, v, order + 1, g), _levi_civita(g)[1])

    return _derived(jet, name or f"div({X.name})", ScalarField)


def field_norm(surface, X, u, v):
    """Pointwise metric norm g(X, X)^(1/2)."""
    g = metric_only(surface, u, v)
    a = np.asarray(X.coeff(u, v), dtype=float)
    return np.sqrt(np.einsum("...ij,...i,...j->...", g, a, a))


def _unit_deviation(g, a):
    """|g(a, a) - 1| pointwise."""
    return np.abs(np.einsum("...ij,...i,...j->...", g, a, a) - 1.0)


def _not_unit_message(name, worst, tol=UNIT_TOL):
    return f"field {name!r} is not unit: max |g(T,T)-1| = {worst:.3e} > {tol:g}"


def _check_unit(g, a, name, tol=UNIT_TOL):
    worst = float(np.max(_unit_deviation(g, a)))
    if worst > tol:
        raise NotUnitFieldError(_not_unit_message(name, worst, tol))


def ricci_residual_at(surface, X, Y, u, v):
    """|Ric(X, Y) - K g(X, Y)| with Ric taken from the curvature tensor."""
    md = metric_data(surface, u, v, order=2)
    ric = ricci_tensor_from_metric(md)
    K = gauss_curvature_from_metric(md)
    a = np.asarray(X.coeff(u, v), dtype=float)
    b = np.asarray(Y.coeff(u, v), dtype=float)
    lhs = np.einsum("...ij,...i,...j->...", ric, a, b)
    rhs = K * np.einsum("...ij,...i,...j->...", md.g, a, b)
    return np.abs(lhs - rhs)


def product_rule_residual_at(surface, f, X, u, v):
    """|div(fX) - X(f) - f div(X)| for a scalar f and tangent field X."""
    g = _metric(surface, u, v, 1)
    return _product_rule(_jet(surface, f, u, v, 1, g), _jet(surface, X, u, v, 1, g),
                         _levi_civita(g)[1])


def _product_rule(f, x, dlogs):
    """|div(fX) - X(f) - f div(X)| from the jets of f and X (order >= 1)."""
    lhs = _divergence(f[..., None] * x, dlogs).v
    x_of_f = np.einsum("...i,...i->...", x.v, _jets.gradient(f).v)
    return np.abs(lhs - (x_of_f + f.v * _divergence(x, dlogs).v))
