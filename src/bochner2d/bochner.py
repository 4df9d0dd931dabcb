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

All of them are algebra over one set of pointwise objects, which a private
node batch (`_NodeBatch`) builds once per batch of nodes: one metric
assembly, the Levi-Civita connection from it, and the jet of the field,
which takes that same metric jet.  Each residual formula is written once
on a batch.  The public residual functions build one batch each;
`chained_residuals` builds one for all four; the `verify` command makes a
single pass per block of `cli.BATCH_NODES` nodes for all its checks, and
`gauss-bonnet` takes K and div(grad_T T - (div T) T) from one batch per
quadrature grid (`gauss_bonnet_integrands`).

Residual functions return plain arrays over the broadcast shape of (u, v);
`residual_report` summarizes a sweep.  Tolerances default to 1e-6 for
analytic backends and 1e-3 for finite-difference backends.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _jets
from .errors import GeometryError, ZeroFieldPointError
from .operators import (
    _check_unit,
    _covariant_gradient,
    _derived,
    _divergence,
    _gauss_curvature,
    _jet,
    _levi_civita,
    _metric,
    _not_unit_message,
    _product_rule,
    _quadratic,
    _ricci,
    _unit_deviation,
    _vanishes,
    UNIT_TOL,
)
from .surfaces import ChartPoint, metric_only

ANALYTIC_TOL = 1e-6
FD_TOL = 1e-3
ZERO_FLOOR = 1e-9
PARTIAL_MAX = np.sqrt(np.finfo(float).max)   # a larger first partial squares to inf


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


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_field(surface, X, floor=ZERO_FLOOR):
    """Pointwise unit field X / g(X, X)^(1/2).

    Raises ZeroFieldPointError lazily whenever an evaluation meets a point
    where the metric norm of X falls below `floor` relative to the chart's
    scale, g(X, X) < floor^2 tr(g) / 2 (`operators._vanishes`; the input
    is then not nowhere-zero at working precision), is not finite (g(X, X)
    overflowed or is NaN), or where the norm is fine but a value or partial
    of the unit field is not finite (the partials of X or of g(X, X)
    overflowed) or a first partial exceeds PARTIAL_MAX, so that any
    residual, quadratic in the first partials, would overflow; the message
    counts the three kinds of node apart.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")

    def check(n2, trace, unit, u, v):
        finite = np.isfinite(n2)
        bad = ~finite | _vanishes(n2, trace, floor)
        parts = [x.reshape((-1,) + n2.shape) for x in (unit.v, unit.d, unit.dd)
                 if x is not None]
        rough = ~np.isfinite(np.concatenate(parts)).all(axis=0)
        if unit.d is not None:    # every residual is quadratic in these
            rough |= (np.abs(parts[1]) > PARTIAL_MAX).any(axis=0)
        rough &= ~bad
        bad |= rough
        if np.any(bad):
            U, V = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
            Ub = np.broadcast_to(U, bad.shape)[bad]
            Vb = np.broadcast_to(V, bad.shape)[bad]
            pts = [ChartPoint(float(a), float(b)) for a, b in zip(Ub.ravel()[:16],
                                                                  Vb.ravel()[:16])]
            n_inf = int(np.count_nonzero(~finite))
            n_rough = int(np.count_nonzero(rough))
            n_low = int(np.count_nonzero(bad)) - n_inf - n_rough
            counts = [f"norm below floor {floor:g} at {n_low} point(s)"] if n_low else []
            if n_inf:
                counts.append(f"a non-finite norm at {n_inf} point(s)")
            if n_rough:
                counts.append(f"non-finite unit-field partials at {n_rough} point(s)")
            raise ZeroFieldPointError(
                f"field {X.name!r} has {' and '.join(counts)}, first at (u, v) = "
                f"({pts[0].u:.6g}, {pts[0].v:.6g})", points=pts)

    def jet(_, u, v, order, g):
        g = _metric(surface, u, v, order, g)
        # overflow in X, g(X, X) or the quotient is flagged by check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = _jet(surface, X, u, v, order, g)
            n2 = _jets.einsum("ij...,i...,j...->...", g, x, x)
            unit = x / _jets.sqrt(n2)[None]
        check(n2.v, g.v[0, 0] + g.v[1, 1], unit, u, v)
        return unit

    return _derived(jet, f"unit({X.name})")


# ---------------------------------------------------------------------------
# the node batch
# ---------------------------------------------------------------------------

class _NodeBatch:
    """The metric, the connection and the jet of a field X at a batch of nodes.

    The metric is assembled once (or taken as the jet `g` when that is of
    at least `order`), the connection comes from it, and X's jet takes that
    same metric jet, so a derived X such as the unit field assembles nothing
    again.  Every term shared by the identities is computed at most once
    per batch.
    """

    def __init__(self, surface, X, u, v, order=2, g=None):
        g = _metric(surface, u, v, order, g)
        self.g, self.name = g, X.name
        self.x = _jet(surface, X, u, v, order, g)
        self.gamma, self.dlogs = _levi_civita(g)

    def check_unit(self):
        _check_unit(self.g.v, self.x.v, self.name)

    @cached_property
    def grad_x(self):
        """Jet of m[k, i] = (grad_{e_i} X)^k, one order below x."""
        return _covariant_gradient(self.x, self.gamma)

    @cached_property
    def div_x(self):
        """Jet of div X, one order below x."""
        return _divergence(self.x, self.dlogs)

    @cached_property
    def transport(self):
        """Jet of grad_X X, one order below x."""
        return _jets.einsum("ki...,i...->k...", self.grad_x, self.x)

    @cached_property
    def potential(self):
        """Jet of grad_X X - (div X) X, one order below x."""
        return self.transport - self.div_x[None] * self.x

    @cached_property
    def x_of_div(self):
        """X(div X)."""
        return np.einsum("i...,i...->...", self.x.v, _jets.gradient(self.div_x).v)

    @cached_property
    def trace_a2(self):
        """trace(A_X^2) with A_X(v) = -grad_v X."""
        m = self.grad_x.v
        # the trace of m @ m as the sum over k of (row k) . (column k)
        return sum(np.einsum("i...,i...->...", m[k], m[:, k]) for k in range(2))


# ---------------------------------------------------------------------------
# field constructions
# ---------------------------------------------------------------------------

def self_covariant_derivative(surface, T):
    """grad_T T as a tangent field."""
    def jet(_, u, v, order, g):
        return _NodeBatch(surface, T, u, v, order + 1, g).transport

    return _derived(jet, f"selfgrad({T.name})")


def curvature_potential_field(surface, T):
    """Tangent field whose divergence reproduces the Gauss curvature.

    For a unit field T this is grad_T T - (div T) T; its divergence equals K
    wherever T is defined.  Requires g(T, T) = 1 within the unit tolerance at
    every evaluated point.
    """
    def jet(_, u, v, order, g):
        batch = _NodeBatch(surface, T, u, v, order + 1, g)
        batch.check_unit()
        return batch.potential

    return _derived(jet, f"curvpot({T.name})")


# ---------------------------------------------------------------------------
# identity residuals: each formula once, on a node batch of order 2
# (the trace identity needs order 1 only)
# ---------------------------------------------------------------------------

def _bochner(b):
    ric_xx = _quadratic(_ricci(b.gamma), b.x.v)
    div_grad_xx = _divergence(b.transport, b.dlogs).v
    return np.abs(b.x_of_div - (-ric_xx + div_grad_xx - b.trace_a2))


def _trace(b):
    return np.abs(b.trace_a2 - b.div_x.v ** 2)


def _product(b):
    div_scaled = _divergence(b.div_x[None] * b.x, b.dlogs).v
    return np.abs(b.div_x.v ** 2 - div_scaled + b.x_of_div)


def _curvature_divergence(b):
    return _divergence(b.potential, b.dlogs).v


def _curvature(b):
    return np.abs(_gauss_curvature(b.g) - _curvature_divergence(b))


def _chain(b):
    """The residuals of identities (1)-(4), in order, from one node batch."""
    return _bochner(b), _trace(b), _product(b), _curvature(b)


def bochner_residual(surface, X, u, v):
    """|X(div X) + Ric(X,X) - div(grad_X X) + trace(A_X^2)| pointwise.

    X need not be unit; it must be twice differentiable near the evaluation
    points.
    """
    return _bochner(_NodeBatch(surface, X, u, v))


def trace_identity_residual(surface, T, u, v):
    """|trace(A_T^2) - (div T)^2| for a unit field T."""
    batch = _NodeBatch(surface, T, u, v, order=1)
    batch.check_unit()
    return _trace(batch)


def curvature_identity_residual(surface, T, u, v):
    """|K - div(grad_T T - (div T) T)| for a unit field T."""
    batch = _NodeBatch(surface, T, u, v)
    batch.check_unit()
    return _curvature(batch)


def chained_residuals(surface, T, u, v):
    """All four residuals of the identity chain at the given points.

    One node batch serves all four.  Returns a dict with keys "bochner",
    "trace", "product", "curvature" and "bound_slack": curvature residual
    minus the sum of the other three.  The derivation makes the slack at
    most numerical-linearity noise (~1e-9).
    """
    batch = _NodeBatch(surface, T, u, v)
    batch.check_unit()
    r1, r2, r3, r4 = _chain(batch)
    return {"bochner": r1, "trace": r2, "product": r3, "curvature": r4,
            "bound_slack": r4 - (r1 + r2 + r3)}


# the checks of `verify`, in the column order of `_verify_pass`
VERIFY_CHECKS = ("bochner", "trace_identity", "divergence_product_rule",
                 "curvature_identity", "product_rule")
# those whose identity holds for a unit T only, as in their residual functions
_UNIT_CHECKS = ("trace_identity", "curvature_identity")


def _verify_pass(surface, T, f, Y, u, v):
    """Every residual of `verify` at one node batch, from one metric assembly.

    Returns shape (..., 6): the four residuals of the chain for T, the
    product-rule residual |div(fY) - Y(f) - f div(Y)|, and |g(T,T) - 1|,
    which `_unit_failures` reads.

    A node's row does not depend on the other nodes of the batch.  A lone
    node is evaluated as a pair of copies of itself: with a node axis of
    length 1, numpy's einsum picks kernels that sum in another order.  An
    error comes from the node alone, so that its message counts one node.
    """
    shape = np.broadcast(u, v).shape
    if np.prod(shape) == 1:
        pair = (np.full(2, float(np.ravel(x)[0])) for x in (u, v))
        try:
            return _verify_pass(surface, T, f, Y, *pair)[0].reshape(shape + (6,))
        except GeometryError:
            pass
    batch = _NodeBatch(surface, T, u, v)
    product_rule = _product_rule(_jet(surface, f, u, v, 1, batch.g),
                                 _jet(surface, Y, u, v, 1, batch.g), batch.dlogs)
    return np.stack([*_chain(batch), product_rule,
                     _unit_deviation(batch.g.v, batch.x.v)], axis=-1)


def _unit_failures(T, values):
    """The nodes where a check of `verify` fails because T is not unit.

    `values` holds one row of `_verify_pass` per node.  Returns one
    {node index: message} per check of VERIFY_CHECKS, empty for the checks
    that do not need a unit T; the message is the NotUnitFieldError that the
    check's residual function raises at that node alone.
    """
    deviation = values[:, -1]
    failed = {int(i): _not_unit_message(T.name, float(deviation[i]))
              for i in np.flatnonzero(deviation > UNIT_TOL)}
    return [failed if name in _UNIT_CHECKS else {} for name in VERIFY_CHECKS]


def gauss_bonnet_integrands(surface, T, u, v):
    """K and div(grad_T T - (div T) T) for a unit field T, one metric assembly."""
    batch = _NodeBatch(surface, T, u, v)
    batch.check_unit()
    return _gauss_curvature(batch.g), _curvature_divergence(batch)


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
    batch = _NodeBatch(surface, T, u, v, order=1)
    batch.check_unit()
    m = -batch.grad_x.v
    e = _jets.value_first(unit_frame_companion(surface, T, u, v), 1)
    basis = np.stack([batch.x.v, e], axis=1)       # columns T, E
    # entries M[i, j] = g(A(b_j), b_i)
    a_cols = np.einsum("ki...,ij...->kj...", m, basis)
    return _jets.value_last(
        np.einsum("ij...,ik...,kl...->jl...", basis, batch.g.v, a_cols), 2)
