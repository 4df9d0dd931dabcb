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
single pass per tile of the grid for all its checks, on the metric that
the pass assembles on the tile's axes, and `gauss-bonnet` takes K and
div(grad_T T - (div T) T) from one batch per tile of each quadrature grid
(`gauss_bonnet_integrands`), on the metric jet its caller assembled there.

The unit field T = X / g(X, X)^(1/2) comes with a failure code per node
from one rule (`_failure_codes`).  The public routes raise
ZeroFieldPointError at a flagged node.  `verify`'s pass (`_verify_pass`)
decides each node's fate once: its last column is the node's failure code,
`_DEGENERATE_METRIC` where the metric is degenerate and else the unit
field's code, so a failing node costs it no extra pass, and
`_node_failures` names each flagged node with the error it raises alone.

Residual functions return plain arrays over the broadcast shape of (u, v).
Tolerances default to 1e-6 for analytic backends and 1e-3 for
finite-difference backends.
"""

from functools import cached_property

import numpy as np

from . import _jets
from .errors import ZeroFieldPointError
from .operators import (
    _check_unit,
    _covariant_gradient,
    _derived,
    _divergence,
    _gauss_curvature,
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
from .surfaces import ChartPoint, _assemble, _degenerate_error, _nondegenerate

ANALYTIC_TOL = 1e-6
FD_TOL = 1e-3
ZERO_FLOOR = 1e-9
PARTIAL_MAX = np.sqrt(np.finfo(float).max)   # a larger first partial squares to inf


def default_tolerance(surface):
    return ANALYTIC_TOL if surface.derivative_mode == "analytic" else FD_TOL


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_field(surface, X, floor=ZERO_FLOOR):
    """Pointwise unit field X / g(X, X)^(1/2).

    Raises ZeroFieldPointError lazily whenever an evaluation meets a node
    that `_failure_codes` flags at `floor`, counting zero norms, non-finite
    norms and unusable partials apart and naming the first node.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")

    def jet(_, u, v, order, g):
        unit, codes = _unit_jet(surface, X, u, v, order, g, floor)
        bad = codes > 0
        if np.any(bad):
            U, V = (np.broadcast_to(np.asarray(x, dtype=float), bad.shape)[bad]
                    for x in (u, v))
            pts = [ChartPoint(float(a), float(b)) for a, b in zip(U[:16], V[:16])]
            raise ZeroFieldPointError(_field_message(
                X.name, floor, np.bincount(codes[bad], minlength=5), pts[0]), points=pts)
        return unit

    return _derived(jet, f"unit({X.name})")


# why a node has no usable unit field; 0 where it has one
_ZERO_NORM, _NON_FINITE_NORM, _NON_FINITE_PARTIAL, _LARGE_PARTIAL = 1, 2, 3, 4
# verify's code for a node whose metric is degenerate, before any of the above
_DEGENERATE_METRIC = 5


def _failure_codes(n2, trace, floor, unit):
    """Per node, 0 where a field with g(X, X) = n2 has a usable unit field,
    else why not: a zero norm, g(X, X) < floor^2 tr(g) / 2 (`operators._vanishes`),
    or a non-finite one; else a value or partial of the unit field's jet
    `unit` that is not finite, or else a first partial above PARTIAL_MAX,
    with which a residual, quadratic in the first partials, would overflow."""
    codes = np.zeros(np.shape(n2), dtype=np.int8)
    codes[_vanishes(n2, trace, floor)] = _ZERO_NORM
    codes[~np.isfinite(n2)] = _NON_FINITE_NORM
    if codes.size:    # reshape sizes no -1 without nodes
        parts = [x.reshape((-1,) + codes.shape) for x in (unit.v, unit.d, unit.dd)
                 if x is not None]
        ok = codes == 0
        if unit.d is not None:
            codes[ok & (np.abs(parts[1]) > PARTIAL_MAX).any(axis=0)] = _LARGE_PARTIAL
        finite = np.logical_and.reduce([np.isfinite(x).all(axis=0) for x in parts])
        codes[ok & ~finite] = _NON_FINITE_PARTIAL
    return codes


def _unit_jet(surface, X, u, v, order, g, floor):
    """The jet of X / g(X, X)^(1/2) to `order`, on the caller's metric jet g
    or a new one, and its `_failure_codes`."""
    g = _metric(surface, u, v, order, g)
    # overflow in X, g(X, X) or the quotient is flagged by the codes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = X.jet(surface, u, v, order, g)
        n2 = _jets.einsum("ij...,i...,j...->...", g, x, x)
        unit = x / _jets.sqrt(n2)[None]
    return unit, _failure_codes(n2.v, g.v[0, 0] + g.v[1, 1], floor, unit)


def _field_message(name, floor, counts, point):
    """The message naming a field's unusable nodes, counts[c] of failure code
    c (the two codes of the partials count as one kind), the first at `point`."""
    kinds = ((f"norm below floor {floor:g}", counts[1]), ("a non-finite norm", counts[2]),
             ("non-finite unit-field partials", counts[3] + counts[4]))
    has = " and ".join(f"{kind} at {n} point(s)" for kind, n in kinds if n)
    return f"field {name!r} has {has}, first at (u, v) = ({point.u:.6g}, {point.v:.6g})"


# ---------------------------------------------------------------------------
# the node batch
# ---------------------------------------------------------------------------

class _NodeBatch:
    """The metric, the connection and the jet of a field X at a batch of nodes.

    The metric is assembled once (`of` takes the jet `g` instead when that
    is of at least `order`), the connection comes from it, and X's jet
    takes that same metric jet, so a derived X such as the unit field
    assembles nothing again.  Every term shared by the identities is
    computed at most once per batch.
    """

    def __init__(self, g, x, name):
        self.g, self.x, self.name = g, x, name
        self.gamma, self.dlogs = _levi_civita(g)

    @classmethod
    def of(cls, surface, X, u, v, order=2, g=None):
        """The batch of X at (u, v), on the caller's metric jet g or a new one."""
        g = _metric(surface, u, v, order, g)
        return cls(g, X.jet(surface, u, v, order, g), X.name)

    def check_unit(self):
        _check_unit(self.g.v, _jets.value(self.x), self.name)

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
        return np.einsum("i...,i...->...", _jets.value(self.x),
                         _jets.gradient(self.div_x).v)

    @cached_property
    def trace_a2(self):
        """trace(A_X^2) with A_X(v) = -grad_v X."""
        m = self.grad_x.v
        # the trace of m @ m as the sum over k of (row k) . (column k)
        return sum(np.einsum("i...,i...->...", m[k], m[:, k]) for k in range(2))


# ---------------------------------------------------------------------------
# field constructions
# ---------------------------------------------------------------------------

def curvature_potential_field(surface, T):
    """Tangent field whose divergence reproduces the Gauss curvature.

    For a unit field T this is grad_T T - (div T) T; its divergence equals K
    wherever T is defined.  Requires g(T, T) = 1 within the unit tolerance at
    every evaluated point.
    """
    def jet(_, u, v, order, g):
        batch = _NodeBatch.of(surface, T, u, v, order + 1, g)
        batch.check_unit()
        return batch.potential

    return _derived(jet, f"curvpot({T.name})")


# ---------------------------------------------------------------------------
# identity residuals: each formula once, on a node batch of order 2
# (the trace identity needs order 1 only)
# ---------------------------------------------------------------------------

def _bochner(b):
    ric_xx = _quadratic(_ricci(b.gamma), _jets.value(b.x))
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
    return _bochner(_NodeBatch.of(surface, X, u, v))


def trace_identity_residual(surface, T, u, v):
    """|trace(A_T^2) - (div T)^2| for a unit field T."""
    batch = _NodeBatch.of(surface, T, u, v, order=1)
    batch.check_unit()
    return _trace(batch)


def curvature_identity_residual(surface, T, u, v):
    """|K - div(grad_T T - (div T) T)| for a unit field T."""
    batch = _NodeBatch.of(surface, T, u, v)
    batch.check_unit()
    return _curvature(batch)


def chained_residuals(surface, T, u, v):
    """All four residuals of the identity chain at the given points.

    One node batch serves all four.  Returns a dict with keys "bochner",
    "trace", "product", "curvature" and "bound_slack": curvature residual
    minus the sum of the other three.  The derivation makes the slack at
    most numerical-linearity noise (~1e-9).
    """
    batch = _NodeBatch.of(surface, T, u, v)
    batch.check_unit()
    r1, r2, r3, r4 = _chain(batch)
    return {"bochner": r1, "trace": r2, "product": r3, "curvature": r4,
            "bound_slack": r4 - (r1 + r2 + r3)}


# the checks of `verify`, in the column order of `_verify_pass`
VERIFY_CHECKS = ("bochner", "trace_identity", "divergence_product_rule",
                 "curvature_identity", "product_rule")
# those whose identity holds for a unit T only, as in their residual functions
UNIT_CHECKS = ("trace_identity", "curvature_identity")


def _verify_pass(surface, X, f, Y, u, v, floor):
    """Every residual of `verify` at the nodes (u, v), from one metric assembly.

    u and v are any broadcastable node arrays, such as a tile's axes of
    shapes (rows, 1) and (1, cols): the order-2 metric is assembled on them
    and the pass runs on the flattened nodes.  Returns shape (..., 8) over
    their broadcast shape: the four residuals of the chain for the unit
    field T of X, |div(fY) - Y(f) - f div(Y)|, |g(T,T) - 1|
    (`_node_failures`), det g, and the node's failure code: _DEGENERATE_METRIC
    where `surfaces._nondegenerate` fails, else its `_failure_codes` at
    `floor`.  The row's residuals and deviation are NaN where the code is
    not 0.  Nothing raises where the metric or T is not usable.

    A node's row does not depend on the other nodes of the batch.  A lone
    node is evaluated as a pair of copies of itself: with a node axis of
    length 1, numpy's einsum picks kernels that sum in another order.
    """
    shape = np.broadcast(u, v).shape
    if np.prod(shape) == 1:
        pair = (np.full(2, float(np.ravel(x)[0])) for x in (u, v))
        return _verify_pass(surface, X, f, Y, *pair, floor)[0].reshape(shape + (8,))
    g, dg, ddg, det = (x.reshape(x.shape[:x.ndim - len(shape)] + (-1,))
                       for x in _assemble(surface, u, v, 2))
    u, v = (x.ravel() for x in np.broadcast_arrays(u, v))
    degenerate = ~_nondegenerate(g, det)
    g = _jets.Jet(g, dg, ddg)
    if degenerate.any():    # NaN from here on, which no term warns of
        g = g * np.where(degenerate, np.nan, 1.0)
    unit, codes = _unit_jet(surface, X, u, v, 2, g, floor)
    codes[degenerate] = _DEGENERATE_METRIC
    flagged = codes > 0
    if flagged.any():
        unit = unit * np.where(flagged, np.nan, 1.0)
    batch = _NodeBatch(g, unit, f"unit({X.name})")
    product_rule = _product_rule(f.jet(surface, u, v, 1, g),
                                 Y.jet(surface, u, v, 1, g), batch.dlogs)
    rows = np.stack([*_chain(batch), product_rule, _unit_deviation(g.v, unit.v),
                     det, codes], -1)
    rows[flagged, :-2] = np.nan
    return rows.reshape(shape + (8,))


def _node_failures(surface, X, floor, values, U, V):
    """The failing nodes among U, V, whose rows of `_verify_pass` are `values`,
    as two {node index: message}: the nodes with a failure code, and those
    plus the nodes where T = X / |X| is not unit, for the checks of
    UNIT_CHECKS.  The message is the error that the node raises alone:
    `local_geometry`'s DegenerateMetricError where the metric is degenerate,
    else the ZeroFieldPointError of `normalize_field`'s field, or the
    NotUnitFieldError of the check's residual function."""
    deviation, det, codes = values[:, -3], values[:, -2], values[:, -1]
    flagged = np.flatnonzero(codes > 0)
    alone = (codes[flagged, None] == np.arange(5)).astype(int)   # one node of one code
    named = {i: str(_degenerate_error(surface, d, u, v)) if c == _DEGENERATE_METRIC
             else _field_message(X.name, floor, counts, ChartPoint(u, v))
             for i, c, counts, d, u, v in zip(
                 flagged.tolist(), codes[flagged].tolist(), alone.tolist(),
                 det[flagged].tolist(), U[flagged].tolist(), V[flagged].tolist())}
    not_unit = {int(i): _not_unit_message(f"unit({X.name})", float(deviation[i]))
                for i in np.flatnonzero(deviation > UNIT_TOL)}
    return named, {**named, **not_unit}


def gauss_bonnet_integrands(surface, T, u, v, g=None):
    """K and div(grad_T T - (div T) T) for a unit field T, from one metric
    assembly or the caller's order-2 metric jet g."""
    batch = _NodeBatch.of(surface, T, u, v, g=g)
    batch.check_unit()
    return _gauss_curvature(batch.g), _curvature_divergence(batch)


# ---------------------------------------------------------------------------
# orthonormal-frame check
# ---------------------------------------------------------------------------

NEAR_PARALLEL = 1.0 - 1e-6   # squared-cosine threshold for frame fallback


def _companion(g, t):
    """Unit field E with g(T, E) = 0 from the metric g (..., 2, 2) and T's
    coefficients t (..., 2), built by Gram-Schmidt from d/du.

    Falls back to d/dv at points where T is nearly parallel to d/du.
    Returns chart coefficients of E, shape (..., 2).
    """
    e_u, e_v = np.eye(2)
    ip_u = np.einsum("...ij,...i,...j->...", g, t, e_u)
    use_v = ip_u**2 > NEAR_PARALLEL * g[..., 0, 0]
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
    batch = _NodeBatch.of(surface, T, u, v, order=1)
    batch.check_unit()
    m, t = -batch.grad_x.v, _jets.value(batch.x)
    e = _companion(_jets.value_last(batch.g.v, 2), _jets.value_last(t, 1))
    basis = np.stack([t, _jets.value_first(e, 1)], axis=1)   # columns T, E
    # entries M[i, j] = g(A(b_j), b_i)
    a_cols = np.einsum("ki...,ij...->kj...", m, basis)
    return _jets.value_last(
        np.einsum("ij...,ik...,kl...->jl...", basis, batch.g.v, a_cols), 2)
