"""Embedded compact surfaces and their chart metric data.

Four closed-form embeddings are built in:

* ``sphere(radius)``            -- round sphere in R^3, chart (u, v) = (polar, azimuth)
* ``torus(R, r)``               -- torus of revolution in R^3, both angles periodic
* ``clifford_torus(radius)``    -- flat torus in R^4 on the 3-sphere of that radius
* ``ellipsoid(a, b, c)``        -- triaxial ellipsoid in R^3, same chart as the sphere

``SURFACE_KINDS`` is the one table of these families: parameter names and
defaults, chart rectangle, ambient dimension, Euler characteristic, maps and
the exponent caps of the standard monomials of the surface's equations.

Each surface hand-writes one derivative, the Jacobian ``d1`` of its
embedding; evaluated on second-order jets of (u, v) it gives the exact
second and third chart partials, from which the first fundamental form and
its first and second partials are assembled.  ``derivative_mode`` selects
between that exact route ("analytic") and 4th-order central finite
differences of the metric components ("fd"); the finite-difference stencils
are evaluated in extended precision so that truncation, not round-off,
dominates down to small steps.  The fd metric is one ``_stencils.partials``
call: g = J^T J on the 5x5 stencil grid of each node (on its two centre
lines at order 1), in blocks of ``_stencils.BLOCK_NODES`` nodes, with g
itself the grid centre.

The maps and the assembly keep the nodes as the trailing axes (the private
layout of ``_jets``); ``SurfaceSpec`` methods and ``MetricData`` present the
public layout, value axes trailing.

All evaluation functions accept scalars or broadcastable arrays for (u, v).
Everything is pure and free of shared mutable state.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _jets, _stencils
from .errors import DegenerateMetricError, InvalidParameterError

DET_EPS = 1e-12          # below this, det g signals a chart singularity
DET_MAX = np.sqrt(np.finfo(float).max)   # above this, (det g)^2 in K overflows
GUARD_BAND = 1e-3        # half-width of the excluded band at non-periodic chart ends
DEFAULT_FD_STEP = 1e-3   # balances truncation vs round-off for second derivatives
# the inverse of a symmetric 2x2 matrix g is g[::-1, ::-1] * signs / det g, with
# signs = COFACTOR_SIGNS shaped by `cofactor_signs` to broadcast over the nodes
COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def cofactor_signs(ndim):
    """COFACTOR_SIGNS broadcasting against a node-last (2, 2, *N) array, len(N) = ndim."""
    return COFACTOR_SIGNS.reshape((2, 2) + (1,) * ndim)


class ChartPoint(NamedTuple):
    u: float
    v: float


@dataclass(frozen=True)
class ChartRect:
    """Chart rectangle [u0, u1] x [v0, v1] with per-axis periodicity flags."""
    u0: float
    u1: float
    v0: float
    v1: float
    periodic_u: bool
    periodic_v: bool


@dataclass(frozen=True)
class _ChartMaps:
    """Closed-form embedding and its Jacobian, the one hand-written derivative.

    Index conventions (node axes last):
      embed -> (n, ...)
      d1    -> (n, 2, ...)   columns d/du, d/dv

    d1 accepts arrays or jets of (u, v); the second and third chart partials
    of the embedding are the partials of its jet (see `_jacobian_jet`).
    """
    embed: Callable
    d1: Callable


@dataclass(frozen=True)
class SurfaceSpec:
    """An explicitly embedded surface plus its chart geometry."""
    name: str
    ambient_dim: int
    chart_rect: ChartRect
    derivative_mode: str          # "analytic" | "fd"
    step: float
    known_chi: Optional[int]
    params: dict
    maps: _ChartMaps = field(repr=False)
    monomial_caps: Optional[tuple]    # of the fit's basis, see SurfaceKind

    def embed(self, u, v):
        """Ambient position of the chart point, shape (..., n)."""
        return _public(self.maps.embed(u, v), 1)

    def jacobian(self, u, v):
        """Embedding Jacobian, shape (..., n, 2); exact in both backends."""
        return _public(self.maps.d1(u, v), 2)

    def embedding_hessian(self, u, v):
        """Exact second chart partials of the embedding, shape (..., n, 3).

        Rows (uu, uv, vv) are d_u J[:, (u, v)] and d_v J[:, v] of the
        Jacobian's jet.
        """
        d = _jacobian_jet(self.maps, u, v, 1).d
        return _public(np.concatenate([d[0], d[1][:, 1:]], axis=1), 2)


@dataclass(frozen=True)
class MetricData:
    """First fundamental form at a point (or grid of points).

    g, g_inv  -> (..., 2, 2)
    dg        -> (..., 2, 2, 2), dg[..., k, i, j] = d_k g_ij
    ddg       -> (..., 3, 2, 2), first axis ordered (uu, uv, vv)

    The arrays are views of node-last storage (see ``_jets``), which
    ``_jets.from_parts`` recovers without a copy.
    """
    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    ddg: Optional[np.ndarray]
    det_g: np.ndarray
    sqrt_det_g: np.ndarray


@dataclass(frozen=True)
class GridSampling:
    """Quadrature grid on the chart rectangle.

    Periodic axes carry equispaced nodes with the endpoint excluded
    (trapezoidal rule under edge identification); non-periodic axes carry
    Gauss-Legendre nodes strictly inside the interval.
    """
    nu: int
    nv: int
    u_nodes: np.ndarray
    v_nodes: np.ndarray
    U: np.ndarray
    V: np.ndarray
    weights: np.ndarray
    rule: str


def _public(x, k):
    """A map's node-last output as a contiguous array, value axes trailing."""
    return np.asarray(_jets.value_last(x, k), order="C")


# Each d1 runs unchanged on float64 arrays, on long-double arrays (the fd
# metric's stencils) and on jets; `_jets.stack` broadcasts arrays and stacks
# jets alike, and `_jets.sincos` evaluates each of sin u, cos u, sin v and
# cos v once per call.

def _torus_maps(big_r, small_r):
    R, r = big_r, small_r

    def embed(u, v):
        w = R + r * np.cos(v)
        return _jets.stack([w * np.cos(u), w * np.sin(u), r * np.sin(v) + 0.0 * u])

    def d1(u, v):
        (su, cu), (sv, cv) = _jets.sincos(u), _jets.sincos(v)
        w = R + r * cv
        du = _jets.stack([-w * su, w * cu, 0.0 * (u + v)])
        dv = _jets.stack([-r * sv * cu, -r * sv * su, r * cv + 0.0 * u])
        return _jets.stack([du, dv], axis=1)

    return _ChartMaps(embed, d1)


def _polar_maps(a, b, c):
    """Maps for (a sin u cos v, b sin u sin v, c cos u); sphere is a = b = c."""

    def embed(u, v):
        return _jets.stack([a * np.sin(u) * np.cos(v), b * np.sin(u) * np.sin(v),
                            c * np.cos(u) + 0.0 * v])

    def d1(u, v):
        (su, cu), (sv, cv) = _jets.sincos(u), _jets.sincos(v)
        du = _jets.stack([a * cu * cv, b * cu * sv, -c * su + 0.0 * v])
        dv = _jets.stack([-a * su * sv, b * su * cv, 0.0 * (u + v)])
        return _jets.stack([du, dv], axis=1)

    return _ChartMaps(embed, d1)


def _clifford_maps(radius):
    s = radius / np.sqrt(2.0)

    def embed(u, v):
        return _jets.stack([s * np.cos(u), s * np.sin(u), s * np.cos(v), s * np.sin(v)])

    def d1(u, v):
        (su, cu), (sv, cv) = _jets.sincos(u), _jets.sincos(v)
        zero = 0.0 * (u + v)
        du = _jets.stack([-s * su, s * cu, zero, zero])
        dv = _jets.stack([zero, zero, -s * sv, s * cv])
        return _jets.stack([du, dv], axis=1)

    return _ChartMaps(embed, d1)


TWO_PI = 2.0 * np.pi


class SurfaceKind(NamedTuple):
    """One built-in family: its parameters and what does not depend on them.

    ``monomial_caps`` bounds the exponent of each ambient coordinate in the
    standard monomials of the family's defining equations, the monomials
    divisible by no leading term in graded-lex order; None leaves an axis,
    or with no tuple every axis, uncapped.  Modulo the equations these
    monomials span every polynomial function on the surface, so a fit in
    them spans what the full graded-lex basis spans there.  The quadric of
    the sphere and the ellipsoid leads with x0^2, so x0 is capped at 1; the
    Clifford torus satisfies x0^2 + x1^2 = s^2 and x2^2 + x3^2 = s^2, whose
    coprime leading terms cap x0 and x2 at 1.  The torus's quartic leads
    with x0^4, but capping it leaves its degree-10 gram matrix below the
    fit's eigenvalue cutoff, so the torus fits in the full basis.
    """
    params: tuple                 # parameter names, in order
    defaults: tuple               # values taken when none are given, or ()
    chart_rect: ChartRect
    ambient_dim: int
    known_chi: int
    maps: Callable                # parameter values -> _ChartMaps
    monomial_caps: Optional[tuple]   # per-axis exponent caps, or None


_POLAR_RECT = ChartRect(0.0, np.pi, 0.0, TWO_PI, False, True)
_ANGLES_RECT = ChartRect(0.0, TWO_PI, 0.0, TWO_PI, True, True)

SURFACE_KINDS = {
    "sphere": SurfaceKind(("r",), (1.0,), _POLAR_RECT, 3, 2,
                          lambda r: _polar_maps(r, r, r), (1, None, None)),
    "torus": SurfaceKind(("R", "r"), (), _ANGLES_RECT, 3, 0, _torus_maps, None),
    "clifford_torus": SurfaceKind(("r",), (1.0,), _ANGLES_RECT, 4, 0, _clifford_maps,
                                  (1, None, 1, None)),
    "ellipsoid": SurfaceKind(("a", "b", "c"), (), _POLAR_RECT, 3, 2, _polar_maps,
                             (1, None, None)),
}


def make_surface(kind, params=(), mode="analytic", step=DEFAULT_FD_STEP):
    """Construct a built-in surface.

    kind    -- a key of SURFACE_KINDS: "sphere", "torus", "clifford_torus"
               or "ellipsoid"
    params  -- shape parameters: (r,), (R, r), (r,), (a, b, c) respectively;
               sphere and clifford_torus default to r = 1
    mode    -- "analytic" (closed-form metric derivatives) or "fd" (stencils)
    step    -- finite-difference step used when mode == "fd"
    """
    params = tuple(float(p) for p in params)
    if mode not in ("analytic", "fd"):
        raise InvalidParameterError(f"unknown derivative mode {mode!r}")
    if not 0 < step < np.inf:                   # NaN fails too
        raise InvalidParameterError("finite-difference step must be positive and finite")
    if not all(0 < p < np.inf for p in params):
        raise InvalidParameterError(
            f"{kind} parameters must be positive and finite, got {params}")
    if kind not in SURFACE_KINDS:
        raise InvalidParameterError(f"unknown surface kind {kind!r}")
    family = SURFACE_KINDS[kind]
    params = params or family.defaults
    if len(params) != len(family.params):
        raise InvalidParameterError(f"{kind} takes parameters ({', '.join(family.params)})")
    if kind == "torus" and params[0] <= params[1]:
        raise InvalidParameterError(
            f"torus requires R > r for an embedded tube, got R={params[0]}, r={params[1]}")
    return SurfaceSpec(
        name=f"{kind}({','.join(f'{p:g}' for p in params)})",
        ambient_dim=family.ambient_dim, chart_rect=family.chart_rect,
        derivative_mode=mode, step=step, known_chi=family.known_chi,
        params=dict(zip(family.params, params)), maps=family.maps(*params),
        monomial_caps=family.monomial_caps)


def sphere(radius=1.0, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("sphere", (radius,), mode, step)


def torus(big_radius, small_radius, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("torus", (big_radius, small_radius), mode, step)


def clifford_torus(radius=1.0, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("clifford_torus", (radius,), mode, step)


def ellipsoid(a, b, c, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("ellipsoid", (a, b, c), mode, step)


def _gram(a, b):
    """a^T b at every node: sum over the ambient axis of a[a, i] b[a, j]."""
    return np.einsum("ai...,aj...->ij...", a, b)


def _first_form(maps, u, v):
    jac = maps.d1(u, v)
    return _gram(jac, jac)


def _jacobian_jet(maps, u, v, order):
    """The Jacobian J[a, i] as a jet of `order`, node axes last.

    It is `d1` evaluated on the seed jets of (u, v): d_m J[a, i] is the
    embedding's second partial in rows m + i of (uu, uv, vv), and row r of
    the jet's second partials holds the third partials r + i of
    (uuu, uuv, uvv, vvv).
    """
    seeds = (_jets.Jet(x.v, *(x.d, x.dd)[:order]) for x in _jets.variables(u, v))
    return maps.d1(*seeds)


def _analytic_metric(maps, u, v, order):
    # the jet of g = J^T J by the product rule, each pair of terms being one
    # product and its transpose: dg = S + S^T with S = dJ^T J, and the mixed
    # row of the second partials holds P + P^T with P = d_u J^T d_v J.  The
    # sums keep the generic jet einsum's order, so the result is the same
    jac = _jacobian_jet(maps, u, v, order)
    g = _gram(jac.v, jac.v)
    if order == 0:
        return g, None, None
    s = np.einsum("Zai...,aj...->Zij...", jac.d, jac.v)
    dg = s + s.swapaxes(1, 2)
    if order == 1:
        return g, dg, None
    s = np.einsum("Zai...,aj...->Zij...", jac.dd, jac.v)
    ju, jv = jac.d
    p = _gram(ju, jv)
    cross = np.stack([2 * _gram(ju, ju), p + p.swapaxes(0, 1), 2 * _gram(jv, jv)])
    return g, dg, s + s.swapaxes(1, 2) + cross


def _fd_metric(maps, u, v, order, h):
    # long double keeps stencil round-off below O(h^4) truncation; g is the grid centre
    ul = np.asarray(u, dtype=np.longdouble)
    vl = np.asarray(v, dtype=np.longdouble)
    g_fn = lambda uu, vv: _first_form(maps, uu, vv)
    parts = _stencils.partials(g_fn, ul, vl, h, order) if order else [g_fn(ul, vl)]
    return (*(x.astype(np.float64) for x in parts), None, None)[:3]


def _assemble(surface, u, v, order):
    """g and its partials to `order` on the surface's backend, node-last, and det g."""
    if surface.derivative_mode == "analytic":
        g, dg, ddg = _analytic_metric(surface.maps, u, v, order)
    else:
        g, dg, ddg = _fd_metric(surface.maps, u, v, order, surface.step)
    return g, dg, ddg, g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]


def _degenerate_error(surface, det, u, v):
    """The DegenerateMetricError naming det g at the chart point (u, v)."""
    pt = ChartPoint(float(u), float(v))
    return DegenerateMetricError(
        f"metric degenerate on {surface.name}: det g = {det:.3e} "
        f"at (u, v) = ({pt.u:.6g}, {pt.v:.6g})", point=pt)


def _nondegenerate(det):
    """DET_EPS < det <= DET_MAX, node by node; a NaN det fails."""
    return (det > DET_EPS) & (det <= DET_MAX)


def _require_nondegenerate(surface, det, u, v):
    """Raise DegenerateMetricError unless DET_EPS < det <= DET_MAX at every node.

    A NaN det fails too.  The error names the failing node of least det, NaN first.
    """
    ok = _nondegenerate(det)
    if not np.all(ok):
        bad = np.argmin(np.where(ok, np.inf, det))
        uu, vv = np.broadcast_arrays(u, v)
        raise _degenerate_error(surface, np.ravel(det)[bad], np.ravel(uu)[bad],
                                np.ravel(vv)[bad])


def metric_data(surface, u, v, order=2):
    """First fundamental form with derivatives up to the requested order.

    order 0 -> g only; 1 -> + first partials; 2 -> + second partials.
    Raises DegenerateMetricError when det g falls to the chart-singular
    threshold DET_EPS, exceeds DET_MAX or is NaN anywhere in the batch.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g, dg, ddg, det = _assemble(surface, u, v, order)
    _require_nondegenerate(surface, det, u, v)
    g_inv = g[::-1, ::-1] * cofactor_signs(det.ndim) / det
    dg, ddg = (None if x is None else _jets.value_last(x, 3) for x in (dg, ddg))
    return MetricData(g=_jets.value_last(g, 2), g_inv=_jets.value_last(g_inv, 2),
                      dg=dg, ddg=ddg, det_g=det, sqrt_det_g=np.sqrt(det))


def degenerate_nodes(surface, u, v):
    """{flat node index: message} of the nodes where `metric_data` raises.

    One order-0 assembly on the surface's backend: its det g is, node by
    node, the one an assembly of any order computes, and each message is
    the one `metric_data` raises at that node alone.
    """
    u, v = (np.ravel(x) for x in np.broadcast_arrays(np.asarray(u, dtype=float),
                                                      np.asarray(v, dtype=float)))
    det = _assemble(surface, u, v, 0)[3]
    bad = np.flatnonzero(~_nondegenerate(det))
    return {int(i): str(_degenerate_error(surface, det[i], u[i], v[i])) for i in bad}


def metric_at(surface, u, v):
    """Full metric data (g, its inverse, first and second partials)."""
    return metric_data(surface, u, v, order=2)


def metric_only(surface, u, v):
    """Just g, shape (..., 2, 2); exact in both backends."""
    return _jets.value_last(_first_form(surface.maps, np.asarray(u, dtype=float),
                                        np.asarray(v, dtype=float)), 2)


def _axis_rule(lo, hi, n, periodic):
    if periodic:
        nodes = lo + (hi - lo) * np.arange(n) / n
        weights = np.full(n, (hi - lo) / n)
    else:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        weights = 0.5 * (hi - lo) * w
    return nodes, weights


def chart_grid(surface, nu, nv):
    """Quadrature grid with per-axis rules chosen by periodicity."""
    if nu < 4 or nv < 4:
        raise InvalidParameterError("grid needs at least 4 nodes per axis")
    rect = surface.chart_rect
    un, uw = _axis_rule(rect.u0, rect.u1, nu, rect.periodic_u)
    vn, vw = _axis_rule(rect.v0, rect.v1, nv, rect.periodic_v)
    U, V = np.meshgrid(un, vn, indexing="ij")
    weights = np.outer(uw, vw)
    rule = ("periodic-trapezoid" if rect.periodic_u and rect.periodic_v
            else "gauss-legendre-mixed")
    return GridSampling(nu=nu, nv=nv, u_nodes=un, v_nodes=vn,
                        U=U, V=V, weights=weights, rule=rule)


def guarded_mask(surface, u, v, band=GUARD_BAND):
    """Boolean mask of points clear of non-periodic chart ends by `band`."""
    rect = surface.chart_rect
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mask = np.ones(np.broadcast(u, v).shape, dtype=bool)
    if not rect.periodic_u:
        mask &= (u >= rect.u0 + band) & (u <= rect.u1 - band)
    if not rect.periodic_v:
        mask &= (v >= rect.v0 + band) & (v <= rect.v1 - band)
    return mask
