"""Embedded compact surfaces and their chart metric data.

Four closed-form embeddings are built in:

* ``sphere(radius)``            -- round sphere in R^3, chart (u, v) = (polar, azimuth)
* ``torus(R, r)``               -- torus of revolution in R^3, both angles periodic
* ``clifford_torus(radius)``    -- flat torus in R^4 on the 3-sphere of that radius
* ``ellipsoid(a, b, c)``        -- triaxial ellipsoid in R^3, same chart as the sphere

``SURFACE_KINDS`` is the one table of these families: parameter names and
defaults, chart rectangle, ambient dimension, Euler characteristic, maps and
the exponent caps of the standard monomials of the surface's equations.

Each family writes its embedding once, as two factor maps and their
derivatives: every ambient coordinate is a product x_k(u, v) = p_k(u) q_k(v),
``u_factors`` gives (p, p') and ``v_factors`` (q, q'); the embedding is p q
and its Jacobian ``d1`` is (p' q, p q').  Higher derivatives come from the
factor maps on jets of their own coordinate, which have one derivative row:
the metric's partials (``_axis_table``) and the second partials p''q, p'q',
pq'' (``SurfaceSpec.embedding_hessian``).

* torus(R, r): p(u) = (cos u, sin u, 1), q(v) = (w, w, r sin v), w = R + r cos v
* sphere and ellipsoid(a, b, c): p(u) = (a sin u, b sin u, c cos u),
  q(v) = (cos v, sin v, 1)
* clifford_torus(radius), s = radius / sqrt 2: p(u) = (s cos u, s sin u, 1, 1),
  q(v) = (1, 1, s cos v, s sin v)

So the metric factors too (sum factorization, see ``_assemble``): on a
tensor grid passed as its axes, (nu, 1) and (1, nv), its trig, jets and
stencils run on nu + nv points, as does anything that is a product over
the coordinates, such as a monomial x^e = p(u)^e q(v)^e (see ``approx``).
``derivative_mode`` selects exact partials ("analytic") or 4th-order
central differences in extended precision ("fd").

The maps and the assembly keep the nodes as the trailing axes (the private
layout of ``_jets``); ``SurfaceSpec`` methods and ``operators.local_geometry``
present the public layout, value axes trailing.

All evaluation functions accept scalars or broadcastable arrays for (u, v).
Everything is pure and free of shared mutable state; the one shared object,
the Gauss-Legendre rule of each node count, is read-only.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _jets, _stencils
from .errors import DegenerateMetricError, InvalidParameterError

DET_EPS = 1e-12          # det g <= DET_EPS (tr g)^2 signals a chart singularity
DET_MIN = np.sqrt(np.finfo(float).tiny)  # at or below this, (det g)^2 in K underflows
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
    """The embedding x_k(u, v) = p_k(u) q_k(v) as two factor maps, node axes last:
      u_factors -> (p, p'), each (n, ...) over the shape of u
      v_factors -> (q, q'), each (n, ...) over the shape of v
    Both accept float64 or long-double arrays, or jets of their own
    coordinate, whose partials are the factors' higher derivatives."""
    u_factors: Callable
    v_factors: Callable

    def embed(self, u, v):
        """p(u) q(v), coordinate by coordinate, node axes last."""
        u, v = _aligned(u, v)
        return self.u_factors(u)[0] * self.v_factors(v)[0]

    def d1(self, u, v):
        """The Jacobian (n, 2, ...), columns d/du and d/dv."""
        u, v = _aligned(u, v)
        (p, dp), (q, dq) = self.u_factors(u), self.v_factors(v)
        jac = np.empty((len(p), 2) + np.broadcast(u, v).shape, np.result_type(p, q))
        np.multiply(dp, q, out=jac[:, 0])       # in place: no temporaries of its size
        np.multiply(p, dq, out=jac[:, 1])
        return jac


def _aligned(u, v):
    """u and v with as many axes as their broadcast, node axes aligned."""
    nodes = max(np.ndim(u), np.ndim(v))
    return (np.reshape(x, (1,) * (nodes - np.ndim(x)) + np.shape(x)) for x in (u, v))


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

        Rows (uu, uv, vv) are p''q, p'q' and pq'', with p'' and q'' the
        partials of p' and q' on order-1 jets of their own coordinate.
        """
        u, v = _aligned(*(np.asarray(x, dtype=float) for x in (u, v)))
        (p, dp), (q, dq) = (factors(_jets.variable(x, 1)) for factors, x in
                            ((self.maps.u_factors, u), (self.maps.v_factors, v)))
        return _public(np.stack([dp.d[0] * q.v, dp.v * dq.v, p.v * dq.d[0]], axis=1), 2)


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


def _constants(x):
    """1 and 0 shaped as x: a float64 or long-double array, or a jet."""
    return 1.0 + 0.0 * x, 0.0 * x


def _torus_maps(big_r, small_r):
    R, r = big_r, small_r

    def u_factors(u):
        (su, cu), (one, zero) = _jets.sincos(u), _constants(u)
        return _jets.stack([cu, su, one]), _jets.stack([-su, cu, zero])

    def v_factors(v):
        sv, cv = _jets.sincos(v)
        w = R + r * cv
        return _jets.stack([w, w, r * sv]), _jets.stack([-r * sv, -r * sv, r * cv])

    return _ChartMaps(u_factors, v_factors)


def _polar_maps(a, b, c):
    """Maps for (a sin u cos v, b sin u sin v, c cos u); sphere is a = b = c."""

    def u_factors(u):
        su, cu = _jets.sincos(u)
        return (_jets.stack([a * su, b * su, c * cu]),
                _jets.stack([a * cu, b * cu, -c * su]))

    def v_factors(v):
        (sv, cv), (one, zero) = _jets.sincos(v), _constants(v)
        return _jets.stack([cv, sv, one]), _jets.stack([-sv, cv, zero])

    return _ChartMaps(u_factors, v_factors)


def _clifford_maps(radius):
    s = radius / np.sqrt(2.0)

    def u_factors(u):
        (su, cu), (one, zero) = _jets.sincos(u), _constants(u)
        return (_jets.stack([s * cu, s * su, one, one]),
                _jets.stack([-s * su, s * cu, zero, zero]))

    def v_factors(v):
        (sv, cv), (one, zero) = _jets.sincos(v), _constants(v)
        return (_jets.stack([one, one, s * cv, s * sv]),
                _jets.stack([zero, zero, -s * sv, s * cv]))

    return _ChartMaps(u_factors, v_factors)


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


# derivative orders of the u and v tables in the rows (value, u, v, uu, uv, vv)
_ROWS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _axis_table(surface, factors, x, order):
    """(f'f', f'f, ff) of (f, f') = factors(x), (order + 1, 3, n, *x.shape), row k
    its k-th derivative along x: exact from the factors on a jet of x alone
    (one derivative row), or on fd by long-double stencils at
    `surface.step`, rounded to float64.  Products that overflow give inf or
    NaN without a warning: `_nondegenerate` names their nodes."""
    def products(y):
        f, df = factors(y)
        return _jets.stack([df, df, f]) * _jets.stack([df, f, f])

    fd = surface.derivative_mode == "fd"
    x = np.asarray(x, dtype=np.longdouble if fd else np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if order and not fd:
            jet = products(_jets.variable(x, order))
            return np.concatenate([jet.v[None], jet.d, jet.dd][:order + 1])
        parts = (_stencils.along(products, x, surface.step, order) if order
                 else [products(x)])
        return np.asarray(np.stack(parts), dtype=np.float64)


def _assemble(surface, u, v, order):
    """g and its partials to `order` on the surface's backend, node-last, and det g.

    With x_k = p_k(u) q_k(v), the components (uu, uv, vv) of g are
    sum_k A_k(u) B_k(v), A = (p'p', p'p, pp) and B = (qq, qq', q'q'), and
    each partial differentiates A along u and B along v alone.  The table
    rows that the rows of (g, dg, ddg) need are gathered on the axes, so one
    broadcast pass sums every row's components over k, in fixed order node
    by node: a node's rows depend on no other node.  One gather then places
    them as g_ij in one (rows, 2, 2, *N) array.  As in `_axis_table`,
    overflow is left to `_nondegenerate` to name.
    """
    u, v = _aligned(u, v)
    i, j = zip(*_ROWS[:(1, 3, 6)[order]])
    a = _axis_table(surface, surface.maps.u_factors, u, order)[list(i)]
    b = _axis_table(surface, surface.maps.v_factors, v, order)[:, ::-1][list(j)]
    with np.errstate(over="ignore", invalid="ignore"):
        comps = a[:, :, 0] * b[:, :, 0]         # (rows, 3, *N)
        for k in range(1, a.shape[2]):
            comps += a[:, :, k] * b[:, :, k]
        full = comps[:, [[0, 1], [1, 2]]]       # g_ij from the components (uu, uv, vv)
        det = _det(full[0])
    g, dg, ddg = full[0], full[1:3] if order else None, full[3:] if order > 1 else None
    return g, dg, ddg, det


def _det(g):
    """det g of a node-last (2, 2, *N) metric."""
    return g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]


def _degenerate_error(surface, det, u, v):
    """The DegenerateMetricError naming det g at the chart point (u, v)."""
    pt = ChartPoint(float(u), float(v))
    return DegenerateMetricError(
        f"metric degenerate on {surface.name}: det g = {det:.3e} "
        f"at (u, v) = ({pt.u:.6g}, {pt.v:.6g})", point=pt)


def _nondegenerate(g, det):
    """Node by node, whether the node-last metric g with determinant det is usable.

    A node is chart-singular where det <= DET_EPS (tr g)^2, a bound that does
    not depend on the surface's scale: det / (tr g)^2 is about the ratio of
    g's eigenvalues when it is small.  Independently of that, det must lie in
    (DET_MIN, DET_MAX], so that the (det g)^2 of the curvature formula
    neither underflows nor overflows.  A NaN det, or a NaN or infinite
    trace, fails.
    """
    trace = g[0, 0] + g[1, 1]
    with np.errstate(over="ignore"):
        singular_below = DET_EPS * (trace * trace)
    return (det > singular_below) & (det > DET_MIN) & (det <= DET_MAX)


def _require_nondegenerate(surface, g, det, u, v):
    """Raise DegenerateMetricError unless `_nondegenerate` holds at every node.

    The error names the failing node of least det, NaN first.
    """
    ok = _nondegenerate(g, det)
    if not np.all(ok):
        bad = np.argmin(np.where(ok, np.inf, det))
        uu, vv = np.broadcast_arrays(u, v)
        raise _degenerate_error(surface, np.ravel(det)[bad], np.ravel(uu)[bad],
                                np.ravel(vv)[bad])


@functools.lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes and weights of n points on [-1, 1], read-only.

    Built at the first grid of n nodes and shared by every later one; each
    grid scales them into fresh arrays of its own.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for x in rule:
        x.flags.writeable = False
    return rule


def _axis_rule(lo, hi, n, periodic):
    if periodic:
        nodes = lo + (hi - lo) * np.arange(n) / n
        weights = np.full(n, (hi - lo) / n)
    else:
        x, w = _leggauss(n)
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        weights = 0.5 * (hi - lo) * w
    return nodes, weights


def chart_grid(surface, nu, nv):
    """Quadrature grid with per-axis rules chosen by periodicity.

    The Gauss-Legendre rule of each node count is computed once per process
    and shared read-only; the grid's own arrays are fresh and writable.
    """
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


def guarded_mask(surface, u, v):
    """Boolean mask of points clear of non-periodic chart ends by GUARD_BAND."""
    rect = surface.chart_rect
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mask = np.ones(np.broadcast(u, v).shape, dtype=bool)
    if not rect.periodic_u:
        mask &= (u >= rect.u0 + GUARD_BAND) & (u <= rect.u1 - GUARD_BAND)
    if not rect.periodic_v:
        mask &= (v >= rect.v0 + GUARD_BAND) & (v <= rect.v1 - GUARD_BAND)
    return mask
