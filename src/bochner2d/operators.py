"""Pointwise Riemannian operators on an embedded surface.

``local_geometry`` is the one public query of the metric's pointwise
objects: g, its inverse and partials, det g, the Christoffel symbols and
their partials, K and Ric, all from one order-2 metric assembly.  The
field operators and ``bochner``'s node batch work on the private jets
behind it.  The connection (``_levi_civita``) is contracted from the metric
jet's own arrays, its partials by the product and quotient rules written
out, and Ric (``_ricci``) from the 8 components R^i_kij of the curvature
tensor that its trace reads: the same operations, in the same order, as the
jet arithmetic and the full tensor they replace, so the same bits.

Chart-coefficient conventions.  Public functions take and return the value
axes trailing, after the node axes (...):

  field values      a      -> (..., 2)          a[..., k] = k-th coefficient
  first partials    dX     -> (..., 2, 2)       dX[..., i, k] = d_i X^k
  second partials   ddX    -> (..., 3, 2)       rows ordered (uu, uv, vv)
  Christoffel       gamma  -> (..., 2, 2, 2)    gamma[..., k, i, j] = G^k_ij
  operator matrix   m      -> (..., 2, 2)       m[..., k, i] = (grad_{e_i} X)^k

The private jets and arrays behind them keep the same index order with the
node axes last instead, a -> (2, ...), gamma -> (2, 2, 2, ...), and a jet's
derivative axis in front (see ``_jets``); so the private code indexes value
axes from the front, g[0, 0], and its einsum terms end with the ellipsis.

A field is its jet function, ``X.jet(surface, u, v, order, g)``, from the
one mechanism of ``_jets``.  A base field's callbacks, a coefficient or value
function that may declare exact partials (``d_coeff``/``dd_coeff``, or
``grad``/``hess`` for a scalar), are wrapped into it once, when the field is
built: the one conversion from the public layout, and in `_base_jet` the one
choice of stencils.  Declared partials are used when the surface runs in
analytic mode; the others, and on the finite-difference backend, which treats
the whole pipeline as the method under test, all partials of a base field,
are differenced by 4th-order stencils of its values at the surface's step,
from one ``_stencils.partials`` call.  On both backends a constant field's
jet is a constant to ``_jets``, its coefficients at the nodes with implied
zero partials, and a field built from others (sums, multiples, the unit
field, grad_T T - (div T) T, ...) gets exact partials from the jets of its
inputs and of the metric.  A reader of a field's values takes them by
``_jets.value``, which accepts either.
"""

from dataclasses import InitVar, dataclass
from typing import Callable, Optional

import numpy as np

from . import _jets, _stencils
from .errors import NotUnitFieldError
from .surfaces import _assemble, _det, _require_nondegenerate, cofactor_signs

UNIT_TOL = 1e-8  # allowed deviation of g(T, T) from 1 for unit-field inputs


def _base_jet(value, exact, name):
    """The jet function of a base field, to second order.

    value(u, v) gives its node-last values on plain arrays; exact(u, v,
    order), for order 1 or 2, its node-last parts [v, d, dd][:order + 1] at
    nodes of one shape, None where not declared.  Those, and on the fd
    backend every part, come from stencils of `value`.
    """
    def jet(surface, u, v, order, g):
        if order > 2:
            raise ValueError(f"{name!r} declares partials up to second order only")
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        if not order:
            return _jets.Jet(np.asarray(value(u, v), order="C"))
        parts = (exact(u, v, order) if surface.derivative_mode == "analytic"
                 else [None] * (order + 1))
        if any(p is None for p in parts):
            stenciled = _stencils.partials(value, u, v, surface.step, order)
            parts = [s if p is None else p for p, s in zip(parts, stenciled)]
        return _jets.Jet(*(np.asarray(x, order="C") for x in parts))

    return jet


def _callback_jet(fns, rank, name):
    """`_base_jet` of public-layout callbacks fns = (value, d, dd) with `rank`
    value axes, a partial None where not declared.  Each output is broadcast
    to the shape of the nodes, so a callback may depend on one coordinate
    alone and return that coordinate's shape."""
    def exact(u, v, order):
        nodes = np.broadcast(u, v).shape

        def values(fn, axes):
            x = np.asarray(fn(u, v), dtype=float)
            return _jets.value_first(
                np.broadcast_to(x, nodes + x.shape[x.ndim - axes:]), axes)

        return [None if fn is None else values(fn, rank + (k > 0))
                for k, fn in enumerate(fns[:order + 1])]

    return _base_jet(lambda u, v: exact(u, v, 0)[0], exact, name)


@dataclass(frozen=True)
class TangentField:
    """Tangent vector field: its jet function, or chart-coefficient callbacks.

    coeff(u, v)    -> (..., 2)
    d_coeff(u, v)  -> (..., 2, 2), optional exact first partials
    dd_coeff(u, v) -> (..., 3, 2), optional exact second partials
    jet            -> (surface, u, v, order, g) -> Jet of the coefficients;
                      given for fields built from other fields, else wrapped
                      from the callbacks.  g is the metric jet at (u, v) when
                      the caller has assembled it, else None
    """
    coeff: Callable
    d_coeff: InitVar[Optional[Callable]] = None
    dd_coeff: InitVar[Optional[Callable]] = None
    name: str = "field"
    jet: Optional[Callable] = None

    def __post_init__(self, d_coeff, dd_coeff):
        if self.jet is None:
            object.__setattr__(self, "jet", _callback_jet(
                (self.coeff, d_coeff, dd_coeff), 1, self.name))

    def __call__(self, u, v):
        return np.asarray(self.coeff(u, v), dtype=float)


@dataclass(frozen=True)
class ScalarField:
    """Scalar chart function with optional exact gradient and Hessian."""
    value: Callable
    grad: InitVar[Optional[Callable]] = None
    hess: InitVar[Optional[Callable]] = None
    name: str = "scalar"
    jet: Optional[Callable] = None

    def __post_init__(self, grad, hess):
        if self.jet is None:
            object.__setattr__(self, "jet", _callback_jet(
                (self.value, grad, hess), 0, self.name))

    def __call__(self, u, v):
        return np.asarray(self.value(u, v), dtype=float)


def _derived(jet, name):
    """A tangent field whose values and partials all come from `jet`.

    Values need no surface: only partials depend on the backend.  They are
    returned in the public layout, coefficient axis trailing.
    """
    return TangentField(
        lambda u, v: _jets.value_last(_jets.value(jet(None, u, v, 0, None)), 1),
        name=name, jet=jet)


def coordinate_field(axis, name=None):
    """The coordinate field d/du (axis 0) or d/dv (axis 1)."""
    return constant_field(1.0 - axis, float(axis), name=name or ("du", "dv")[axis])


def constant_field(au, av, name="constant"):
    """Field with constant coefficients (au, av).  Its jet, of every order and
    on both backends, is a constant to `_jets`: a fresh (2, *nodes) array of
    the coefficients, whose zero partials are implied and never stored, so
    no stencil differences it and no product rule multiplies them."""
    a = np.array([float(au), float(av)])

    def jet(surface, u, v, order, g):
        nodes = np.broadcast(np.asarray(u), np.asarray(v)).shape
        return np.broadcast_to(a.reshape((2,) + (1,) * len(nodes)), (2,) + nodes).copy()

    return _derived(jet, name)


def add_fields(x, y, name=None):
    """Pointwise sum."""
    return _derived(lambda s, u, v, k, g: (x.jet(s, u, v, k, g)
                                           + y.jet(s, u, v, k, g)),
                    name or f"{x.name}+{y.name}")


def scale_field(c, x, name=None):
    """Constant multiple of a field."""
    c = float(c)
    return _derived(lambda s, u, v, k, g: c * x.jet(s, u, v, k, g),
                    name or f"{c:g}*{x.name}")


# ---------------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------------

def _metric(surface, u, v, order, g=None):
    """The metric as a jet of `order`, or `g` when the caller assembled it
    to at least that order.  From order 1 on, a degenerate node raises
    DegenerateMetricError, as in `local_geometry`; values alone are unchecked.
    """
    if g is not None and g.order >= order:
        return g
    g, dg, ddg, det = _assemble(surface, u, v, order)
    if order:
        _require_nondegenerate(surface, g, det, u, v)
    return _jets.Jet(g, dg, ddg)


def _levi_civita(g):
    """Christoffel symbols and d_i log sqrt(det g), one order below the jet g.

    From det g, g^-1 / 2 and S[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij as
    G^k_ij = (g^-1 / 2)^kl S_lij and d_i log sqrt(det g) = (g^-1 / 2)^ab d_i g_ab,
    their partials by the product and quotient rules written out on g's
    arrays, term for term as `_jets` would differentiate them.
    """
    v, d = g.v, g.d
    det = _det(v)
    signs = 0.5 * cofactor_signs(det.ndim)
    half_inv = v[::-1, ::-1] * signs / det
    s = np.einsum("ijl...->lij...", d) + np.einsum("jil...->lij...", d) - d
    gamma = np.einsum("kl...,lij...->kij...", half_inv, s)
    dlogs = np.einsum("ab...,iab...->i...", half_inv, d)
    if g.order < 2:
        return _jets.Jet(gamma), _jets.Jet(dlogs)
    dd = _jets.gradient(g).d                # dd[n, m, i, j] = d_n d_m g_ij
    d_det = ((d[:, 0, 0] * v[1, 1] + v[0, 0] * d[:, 1, 1])
             - (d[:, 0, 1] * v[1, 0] + v[0, 1] * d[:, 1, 0]))
    d_half = d[:, ::-1, ::-1] * signs
    d_half -= half_inv * d_det[:, None, None]
    d_half /= det
    d_s = np.einsum("Zijl...->Zlij...", dd) + np.einsum("Zjil...->Zlij...", dd) - dd
    d_gamma = np.einsum("Zkl...,lij...->Zkij...", d_half, s)
    d_gamma += np.einsum("kl...,Zlij...->Zkij...", half_inv, d_s)
    d_dlogs = np.einsum("Zab...,iab...->Zi...", d_half, d)
    d_dlogs += np.einsum("ab...,Ziab...->Zi...", half_inv, dd)
    return _jets.Jet(gamma, d_gamma), _jets.Jet(dlogs, d_dlogs)


def _covariant_gradient(x, gamma):
    """Jet of m[k, i] = (grad_{e_i} X)^k, one order below x; for a constant x,
    which has no d_i X^k, of the order of gamma."""
    connection = _jets.einsum("kij...,j...->ki...", gamma, x)
    if not isinstance(x, _jets.Jet):
        return connection
    return _jets.einsum("ik...->ki...", _jets.gradient(x)) + connection


def _divergence(x, dlogs):
    """Jet of div X = d_i X^i + X^i d_i log sqrt(det g), one order below x.

    X and dlogs are contracted at that order, so a divergence of which only
    the value is read computes no partials of X^i d_i log sqrt(det g).  A
    constant x has no d_i X^i, and its divergence is of the order of dlogs.
    """
    if not isinstance(x, _jets.Jet):
        return _jets.einsum("i...,i...->...", x, dlogs)
    return (_jets.einsum("ii...->...", _jets.gradient(x))
            + _jets.einsum("i...,i...->...", x.truncated(x.order - 1), dlogs))


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def _gauss_curvature(g):
    """K from the metric jet g (order 2), by the determinant identity.

    Uses only the metric and its first and second partials, so it applies
    unchanged to surfaces with no distinguished unit normal (ambient R^4).
    """
    (E, F), (F2, G) = g.v
    (E_u, F_u), (_, G_u) = g.d[0]
    (E_v, F_v), (_, G_v) = g.d[1]
    E_vv, F_uv, G_uu = g.dd[2, 0, 0], g.dd[1, 0, 1], g.dd[0, 1, 1]

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
    return (m1 - m2) / (E * G - F * F2)**2


def gauss_curvature_at(surface, u, v):
    """Gauss curvature at chart points (analytic or stencil backend)."""
    return _gauss_curvature(_metric(surface, u, v, 2))


def _ricci(gamma):
    """Ric_kj = R^i_kij from the connection jet gamma (order >= 1), with
    R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik: only
    the 8 components R^i_kij of the curvature tensor that the trace reads
    are formed, each as ((d_i G - d_j G) + G G) - G G, then summed over i."""
    quad = np.einsum("lim...,mjk...->lkij...", gamma.v, gamma.v)
    r = (np.einsum("iijk...->ikj...", gamma.d) - np.einsum("jiik...->ikj...", gamma.d)
         + np.einsum("ikij...->ikj...", quad) - np.einsum("ikji...->ikj...", quad))
    return r[0] + r[1]


@dataclass(frozen=True)
class LocalGeometry:
    """The metric, its connection and its curvature at chart points.

    g, g_inv                -> (..., 2, 2)
    dg                      -> (..., 2, 2, 2)      dg[..., m, i, j] = d_m g_ij
    ddg                     -> (..., 3, 2, 2)      first axis ordered (uu, uv, vv)
    det_g                   -> (...)
    christoffel             -> (..., 2, 2, 2)      [..., k, i, j] = G^k_ij
    christoffel_derivative  -> (..., 2, 2, 2, 2)   [..., m, k, i, j] = d_m G^k_ij
    gauss_curvature         -> (...)
    ricci                   -> (..., 2, 2)         Ric_kj from the curvature tensor
    """
    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray
    det_g: np.ndarray
    christoffel: np.ndarray
    christoffel_derivative: np.ndarray
    gauss_curvature: np.ndarray
    ricci: np.ndarray


def local_geometry(surface, u, v):
    """Every pointwise object of the metric, from one order-2 assembly.

    Raises DegenerateMetricError when det g falls to the chart-singular
    threshold DET_EPS (tr g)^2 or to DET_MIN, exceeds DET_MAX or is NaN
    anywhere in the batch.  The arrays are views of node-last storage.
    """
    g, dg, ddg, det = _assemble(surface, u, v, 2)
    _require_nondegenerate(surface, g, det, u, v)
    g_inv = g[::-1, ::-1] * cofactor_signs(det.ndim) / det
    jet = _jets.Jet(g, dg, ddg)
    gamma = _levi_civita(jet)[0]
    return LocalGeometry(
        _jets.value_last(g, 2), _jets.value_last(g_inv, 2),
        _jets.value_last(dg, 3), _jets.value_last(ddg, 3), det,
        christoffel=_jets.value_last(gamma.v, 3),
        christoffel_derivative=_jets.value_last(gamma.d, 4),
        gauss_curvature=_gauss_curvature(jet),
        ricci=_jets.value_last(_ricci(gamma), 2))


# ---------------------------------------------------------------------------
# first-order field operators
# ---------------------------------------------------------------------------

def divergence_at(surface, X, u, v):
    """div X via the volume-weighted coordinate formula."""
    g = _metric(surface, u, v, 1)
    return _divergence(X.jet(surface, u, v, 1, g), _levi_civita(g)[1]).v


def _vanishes(n2, trace, floor):
    """Where a field with g(X, X) = n2 counts as zero: n2 < floor^2 tr(g) / 2.

    tr g = |J|_F^2 is the summed squared length of the chart's coordinate
    vectors, and n2 = |J X|^2, so the rule does not depend on the surface's
    scale; for an isometric chart (tr g = 2) it is n2 < floor^2.  A NaN n2
    or trace is no zero here: the callers count non-finite norms apart.
    """
    with np.errstate(over="ignore", under="ignore"):
        return n2 < floor * floor * (0.5 * trace)


def _quadratic(g, a, b=None):
    """g(a, b) at every node, from node-last arrays; b defaults to a."""
    return np.einsum("ij...,i...,j...->...", g, a, a if b is None else b)


def _unit_deviation(g, a):
    """|g(a, a) - 1| pointwise."""
    return np.abs(_quadratic(g, a) - 1.0)


def _not_unit_message(name, worst):
    return f"field {name!r} is not unit: max |g(T,T)-1| = {worst:.3e} > {UNIT_TOL:g}"


def _check_unit(g, a, name):
    worst = float(np.max(_unit_deviation(g, a), initial=0.0))   # 0 with no nodes
    if not worst <= UNIT_TOL:   # a NaN deviation is no unit field either
        raise NotUnitFieldError(_not_unit_message(name, worst))


def ricci_residual_at(surface, X, Y, u, v):
    """|Ric(X, Y) - K g(X, Y)| with Ric taken from the curvature tensor."""
    g = _metric(surface, u, v, 2)
    a, b = (_jets.value(F.jet(surface, u, v, 0, g)) for F in (X, Y))
    lhs = _quadratic(_ricci(_levi_civita(g)[0]), a, b)
    return np.abs(lhs - _gauss_curvature(g) * _quadratic(g.v, a, b))


def product_rule_residual_at(surface, f, X, u, v):
    """|div(fX) - X(f) - f div(X)| for a scalar f and tangent field X."""
    g = _metric(surface, u, v, 1)
    return _product_rule(f.jet(surface, u, v, 1, g), X.jet(surface, u, v, 1, g),
                         _levi_civita(g)[1])


def _product_rule(f, x, dlogs):
    """|div(fX) - X(f) - f div(X)| from the jets of f and X (order >= 1, or
    a constant X)."""
    dlogs = dlogs.truncated(0)      # only values are read
    lhs = _divergence(f[None] * x, dlogs).v
    x_of_f = np.einsum("i...,i...->...", _jets.value(x), _jets.gradient(f).v)
    return np.abs(lhs - (x_of_f + f.v * _divergence(x, dlogs).v))
