"""Curvature identities certified by pointwise residuals.

Given a unit tangent field T on a surface, the chain of identities checked
here is:

  (1)  T(div T) = -Ric(T, T) + div(grad_T T) - trace(A_T^2)   (Bochner)
  (2)  trace(A_T^2) = (div T)^2                               (unit field, dim 2)
  (3)  (div T)^2 = div((div T) T) - T(div T)                  (product rule)
  (4)  K = div(grad_T T - (div T) T)                          (combination)

with A_X(v) = -grad_v X.  Every identity is evaluated numerically on grids
and reported as |LHS - RHS| with a tolerance verdict; the toolkit certifies
rather than proves.

Residual functions return plain arrays over the broadcast shape of (u, v);
`residual_report` summarizes a sweep.  Tolerances default to 1e-6 for
analytic backends and 1e-3 for finite-difference backends.
"""

from dataclasses import dataclass

import numpy as np

from . import _jets
from .errors import ZeroFieldPointError
from .operators import (
    _check_unit,
    _covariant_gradient,
    _derived,
    _divergence,
    _jet,
    _levi_civita,
    _metric,
    _metric_jet,
    _ricci,
    field_jet,
    gauss_curvature_from_metric,
)
from .surfaces import ChartPoint, metric_data, metric_only

ANALYTIC_TOL = 1e-6
FD_TOL = 1e-3
ZERO_FLOOR = 1e-9


@dataclass(frozen=True)
class IdentityResidual:
    """Absolute residual of a named identity at a single chart point."""
    name: str
    point: ChartPoint
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    """Grid summary of a named identity residual."""
    name: str
    resolution: tuple
    sup: float
    mean: float
    worst_point: ChartPoint
    tolerance: float
    passed: bool
    n_points: int


def default_tolerance(surface):
    return ANALYTIC_TOL if surface.derivative_mode == "analytic" else FD_TOL


def residual_report(name, values, U, V, tolerance):
    """Summarize residual values over grid nodes into a ResidualReport."""
    values = np.asarray(values, dtype=float)
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    flat = values.ravel()
    iworst = int(np.argmax(flat))
    sup = float(flat[iworst])
    return ResidualReport(
        name=name, resolution=values.shape, sup=sup, mean=float(flat.mean()),
        worst_point=ChartPoint(float(U.ravel()[iworst]), float(V.ravel()[iworst])),
        tolerance=float(tolerance), passed=bool(sup <= tolerance),
        n_points=int(flat.size))


def point_residual(name, value, u, v, tolerance):
    value = float(value)
    return IdentityResidual(name=name, point=ChartPoint(float(u), float(v)),
                            value=value, tolerance=float(tolerance),
                            passed=bool(value <= tolerance))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_field(surface, X, floor=ZERO_FLOOR):
    """Pointwise unit field X / g(X, X)^(1/2).

    Raises ZeroFieldPointError lazily whenever an evaluation meets a point
    where the metric norm of X falls below `floor`: the input is then not
    nowhere-zero at working precision.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")

    def check(n2, u, v):
        bad = n2 < floor**2
        if np.any(bad):
            U, V = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
            Ub = np.broadcast_to(U, bad.shape)[bad]
            Vb = np.broadcast_to(V, bad.shape)[bad]
            pts = [ChartPoint(float(a), float(b)) for a, b in zip(Ub.ravel()[:16],
                                                                  Vb.ravel()[:16])]
            raise ZeroFieldPointError(
                f"field {X.name!r} has norm below floor {floor:g} at "
                f"{int(np.count_nonzero(bad))} point(s), first {pts[0]}", points=pts)

    def jet(_, u, v, order):
        g = _metric(surface, u, v, order)
        x = _jet(surface, X, u, v, order)
        n2 = _jets.einsum("...ij,...i,...j->...", g, x, x)
        check(n2.v, u, v)
        return x / _jets.sqrt(n2)[..., None]

    return _derived(jet, f"unit({X.name})")


# ---------------------------------------------------------------------------
# field constructions
# ---------------------------------------------------------------------------

def _self_transport(t, gamma):
    """Jet of grad_T T, one order below t."""
    return _jets.einsum("...ki,...i->...k", _covariant_gradient(t, gamma), t)


def _curvature_potential(t, gamma, dlogs):
    """Jet of grad_T T - (div T) T, one order below t."""
    return _self_transport(t, gamma) - _divergence(t, dlogs)[..., None] * t


def self_covariant_derivative(surface, T):
    """grad_T T as a tangent field."""
    def jet(_, u, v, order):
        gamma, _ = _levi_civita(_metric(surface, u, v, order + 1))
        return _self_transport(_jet(surface, T, u, v, order + 1), gamma)

    return _derived(jet, f"selfgrad({T.name})")


def curvature_potential_field(surface, T):
    """Tangent field whose divergence reproduces the Gauss curvature.

    For a unit field T this is grad_T T - (div T) T; its divergence equals K
    wherever T is defined.  Requires g(T, T) = 1 within the unit tolerance at
    every evaluated point.
    """
    def jet(_, u, v, order):
        g = _metric(surface, u, v, order + 1)
        t = _jet(surface, T, u, v, order + 1)
        _check_unit(g.v, t.v, T.name)
        return _curvature_potential(t, *_levi_civita(g))

    return _derived(jet, f"curvpot({T.name})")


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def _inputs(surface, X, u, v, order):
    """One metric assembly and one jet of X: every term of a residual uses these."""
    md = metric_data(surface, u, v, order=order)
    x = _jets.from_parts(field_jet(surface, X, u, v, order=order),
                         np.broadcast(u, v).ndim)
    return md, x, *_levi_civita(_metric_jet(md))


def bochner_residual(surface, X, u, v):
    """|X(div X) + Ric(X,X) - div(grad_X X) + trace(A_X^2)| pointwise.

    X need not be unit; it must be twice differentiable near the evaluation
    points.
    """
    _, x, gamma, dlogs = _inputs(surface, X, u, v, order=2)
    m = _covariant_gradient(x, gamma)
    lhs = np.einsum("...i,...i->...", x.v, _jets.gradient(_divergence(x, dlogs)).v)
    ric_xx = np.einsum("...ij,...i,...j->...", _ricci(gamma), x.v, x.v)
    div_grad_xx = _divergence(_jets.einsum("...ki,...i->...k", m, x), dlogs).v
    trace_a2 = np.einsum("...ki,...ik->...", m.v, m.v)
    return np.abs(lhs - (-ric_xx + div_grad_xx - trace_a2))


def trace_identity_residual(surface, T, u, v):
    """|trace(A_T^2) - (div T)^2| for a unit field T."""
    md, t, gamma, dlogs = _inputs(surface, T, u, v, order=1)
    _check_unit(md.g, t.v, T.name)
    m = _covariant_gradient(t, gamma).v
    trace_a2 = np.einsum("...ki,...ik->...", m, m)
    return np.abs(trace_a2 - _divergence(t, dlogs).v ** 2)


def divergence_scaling_residual(surface, T, u, v):
    """|(div T)^2 - div((div T) T) + T(div T)|, the product-rule link."""
    _, t, _, dlogs = _inputs(surface, T, u, v, order=2)
    div_t = _divergence(t, dlogs)
    t_of_div = np.einsum("...i,...i->...", t.v, _jets.gradient(div_t).v)
    div_scaled = _divergence(div_t[..., None] * t, dlogs).v
    return np.abs(div_t.v ** 2 - div_scaled + t_of_div)


def curvature_identity_residual(surface, T, u, v):
    """|K - div(grad_T T - (div T) T)| for a unit field T."""
    md, t, gamma, dlogs = _inputs(surface, T, u, v, order=2)
    _check_unit(md.g, t.v, T.name)
    div_y = _divergence(_curvature_potential(t, gamma, dlogs), dlogs).v
    return np.abs(gauss_curvature_from_metric(md) - div_y)


def chained_residuals(surface, T, u, v):
    """All four residuals of the identity chain at the given points.

    Returns a dict with keys "bochner", "trace", "product", "curvature" and
    "bound_slack": curvature residual minus the sum of the other three.  The
    derivation makes the slack at most numerical-linearity noise (~1e-9).
    """
    r1 = bochner_residual(surface, T, u, v)
    r2 = trace_identity_residual(surface, T, u, v)
    r3 = divergence_scaling_residual(surface, T, u, v)
    r4 = curvature_identity_residual(surface, T, u, v)
    return {"bochner": r1, "trace": r2, "product": r3, "curvature": r4,
            "bound_slack": r4 - (r1 + r2 + r3)}


# ---------------------------------------------------------------------------
# orthonormal-frame check
# ---------------------------------------------------------------------------

NEAR_PARALLEL = 1.0 - 1e-6   # squared-cosine threshold for frame fallback


def unit_frame_companion(surface, T, u, v):
    """Unit field E with g(T, E) = 0, built by Gram-Schmidt from d/du.

    Falls back to d/dv at points where T is nearly parallel to d/du.
    Returns chart coefficients of E, shape (..., 2).
    """
    g = metric_only(surface, u, v)
    t = np.asarray(T.coeff(u, v), dtype=float)

    e_u = np.zeros_like(t)
    e_u[..., 0] = 1.0
    e_v = np.zeros_like(t)
    e_v[..., 1] = 1.0

    ip_u = np.einsum("...ij,...i,...j->...", g, t, e_u)
    guu = g[..., 0, 0]
    use_v = ip_u**2 > NEAR_PARALLEL * guu
    w = np.where(use_v[..., None], e_v, e_u)

    ip = np.einsum("...ij,...i,...j->...", g, t, w)
    e = w - ip[..., None] * t
    norm = np.sqrt(np.einsum("...ij,...i,...j->...", g, e, e))
    return e / norm[..., None]


def unit_frame_operator_matrix(surface, T, u, v):
    """Matrix of v -> -grad_v T in the orthonormal frame (T, E).

    For a unit field the first row vanishes identically: differentiate
    g(T, T) = 1 to see g(grad_v T, T) = 0 for every direction v.
    """
    md, t, gamma, _ = _inputs(surface, T, u, v, order=1)
    _check_unit(md.g, t.v, T.name)
    m = -_covariant_gradient(t, gamma).v
    e = unit_frame_companion(surface, T, u, v)
    basis = np.stack([t.v, e], axis=-1)            # columns T, E
    # entries M[i, j] = g(A(b_j), b_i)
    a_cols = np.einsum("...ki,...ij->...kj", m, basis)
    return np.einsum("...ij,...ik,...kl->...jl", basis, md.g, a_cols)
