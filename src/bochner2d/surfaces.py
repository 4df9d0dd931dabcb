"""Embedded compact surfaces and their chart metric data.

Four closed-form embeddings are built in:

* ``sphere(radius)``            -- round sphere in R^3, chart (u, v) = (polar, azimuth)
* ``torus(R, r)``               -- torus of revolution in R^3, both angles periodic
* ``clifford_torus(radius)``    -- flat torus in R^4 on the 3-sphere of that radius
* ``ellipsoid(a, b, c)``        -- triaxial ellipsoid in R^3, same chart as the sphere

Each surface carries exact chart derivatives of its embedding up to third
order, from which the first fundamental form and its first and second
partials are assembled.  ``derivative_mode`` selects between that closed-form
route ("analytic") and 4th-order central finite differences of the metric
components ("fd"); the finite-difference stencils are evaluated in extended
precision so that truncation, not round-off, dominates down to small steps.

All evaluation functions accept scalars or broadcastable arrays for (u, v).
Everything is pure and free of shared mutable state.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _jets, _stencils
from .errors import DegenerateMetricError, InvalidParameterError

DET_EPS = 1e-12          # below this, det g signals a chart singularity
GUARD_BAND = 1e-3        # half-width of the excluded band at non-periodic chart ends
DEFAULT_FD_STEP = 1e-3   # balances truncation vs round-off for second derivatives
# the inverse of a symmetric 2x2 matrix g is g[..., ::-1, ::-1] * COFACTOR_SIGNS / det g
COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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

    def contains(self, u, v):
        return (np.all(u >= self.u0) and np.all(u <= self.u1)
                and np.all(v >= self.v0) and np.all(v <= self.v1))


@dataclass(frozen=True)
class _ChartMaps:
    """Closed-form embedding and its chart partials up to third order.

    Index conventions (trailing axes):
      embed -> (..., n)
      d1    -> (..., n, 2)   columns d/du, d/dv
      d2    -> (..., n, 3)   order (uu, uv, vv)
      d3    -> (..., n, 4)   order (uuu, uuv, uvv, vvv)
    """
    embed: Callable
    d1: Callable
    d2: Callable
    d3: Callable


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

    def embed(self, u, v):
        """Ambient position of the chart point, shape (..., n)."""
        return self.maps.embed(u, v)

    def jacobian(self, u, v):
        """Embedding Jacobian, shape (..., n, 2); exact in both backends."""
        return self.maps.d1(u, v)

    def embedding_hessian(self, u, v):
        """Exact second chart partials of the embedding, shape (..., n, 3)."""
        return self.maps.d2(u, v)


@dataclass(frozen=True)
class MetricData:
    """First fundamental form at a point (or grid of points).

    g, g_inv  -> (..., 2, 2)
    dg        -> (..., 2, 2, 2), dg[..., k, i, j] = d_k g_ij
    ddg       -> (..., 3, 2, 2), first axis ordered (uu, uv, vv)
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


def _stack(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def _torus_maps(big_r, small_r):
    R, r = big_r, small_r

    def embed(u, v):
        w = R + r * np.cos(v)
        return _stack(w * np.cos(u), w * np.sin(u), r * np.sin(v) + 0.0 * u)

    def d1(u, v):
        w = R + r * np.cos(v)
        du = _stack(-w * np.sin(u), w * np.cos(u), 0.0 * (u + v))
        dv = _stack(-r * np.sin(v) * np.cos(u), -r * np.sin(v) * np.sin(u),
                    r * np.cos(v) + 0.0 * u)
        return np.stack([du, dv], axis=-1)

    def d2(u, v):
        w = R + r * np.cos(v)
        zero = 0.0 * (u + v)
        duu = _stack(-w * np.cos(u), -w * np.sin(u), zero)
        duv = _stack(r * np.sin(v) * np.sin(u), -r * np.sin(v) * np.cos(u), zero)
        dvv = _stack(-r * np.cos(v) * np.cos(u), -r * np.cos(v) * np.sin(u),
                     -r * np.sin(v) + zero)
        return np.stack([duu, duv, dvv], axis=-1)

    def d3(u, v):
        w = R + r * np.cos(v)
        zero = 0.0 * (u + v)
        duuu = _stack(w * np.sin(u), -w * np.cos(u), zero)
        duuv = _stack(r * np.sin(v) * np.cos(u), r * np.sin(v) * np.sin(u), zero)
        duvv = _stack(r * np.cos(v) * np.sin(u), -r * np.cos(v) * np.cos(u), zero)
        dvvv = _stack(r * np.sin(v) * np.cos(u), r * np.sin(v) * np.sin(u),
                      -r * np.cos(v) + zero)
        return np.stack([duuu, duuv, duvv, dvvv], axis=-1)

    return _ChartMaps(embed, d1, d2, d3)


def _polar_maps(a, b, c):
    """Maps for (a sin u cos v, b sin u sin v, c cos u); sphere is a = b = c."""

    def embed(u, v):
        return _stack(a * np.sin(u) * np.cos(v), b * np.sin(u) * np.sin(v),
                      c * np.cos(u) + 0.0 * v)

    def d1(u, v):
        du = _stack(a * np.cos(u) * np.cos(v), b * np.cos(u) * np.sin(v),
                    -c * np.sin(u) + 0.0 * v)
        dv = _stack(-a * np.sin(u) * np.sin(v), b * np.sin(u) * np.cos(v),
                    0.0 * (u + v))
        return np.stack([du, dv], axis=-1)

    def d2(u, v):
        zero = 0.0 * (u + v)
        duu = _stack(-a * np.sin(u) * np.cos(v), -b * np.sin(u) * np.sin(v),
                     -c * np.cos(u) + zero)
        duv = _stack(-a * np.cos(u) * np.sin(v), b * np.cos(u) * np.cos(v), zero)
        dvv = _stack(-a * np.sin(u) * np.cos(v), -b * np.sin(u) * np.sin(v), zero)
        return np.stack([duu, duv, dvv], axis=-1)

    def d3(u, v):
        zero = 0.0 * (u + v)
        duuu = _stack(-a * np.cos(u) * np.cos(v), -b * np.cos(u) * np.sin(v),
                      c * np.sin(u) + zero)
        duuv = _stack(a * np.sin(u) * np.sin(v), -b * np.sin(u) * np.cos(v), zero)
        duvv = _stack(-a * np.cos(u) * np.cos(v), -b * np.cos(u) * np.sin(v), zero)
        dvvv = _stack(a * np.sin(u) * np.sin(v), -b * np.sin(u) * np.cos(v), zero)
        return np.stack([duuu, duuv, duvv, dvvv], axis=-1)

    return _ChartMaps(embed, d1, d2, d3)


def _clifford_maps(radius):
    s = radius / np.sqrt(2.0)

    def embed(u, v):
        return _stack(s * np.cos(u), s * np.sin(u), s * np.cos(v), s * np.sin(v))

    def d1(u, v):
        zero = 0.0 * (u + v)
        du = _stack(-s * np.sin(u), s * np.cos(u), zero, zero)
        dv = _stack(zero, zero, -s * np.sin(v), s * np.cos(v))
        return np.stack([du, dv], axis=-1)

    def d2(u, v):
        zero = 0.0 * (u + v)
        duu = _stack(-s * np.cos(u), -s * np.sin(u), zero, zero)
        duv = _stack(zero, zero, zero, zero)
        dvv = _stack(zero, zero, -s * np.cos(v), -s * np.sin(v))
        return np.stack([duu, duv, dvv], axis=-1)

    def d3(u, v):
        zero = 0.0 * (u + v)
        duuu = _stack(s * np.sin(u), -s * np.cos(u), zero, zero)
        duuv = _stack(zero, zero, zero, zero)
        duvv = _stack(zero, zero, zero, zero)
        dvvv = _stack(zero, zero, s * np.sin(v), -s * np.cos(v))
        return np.stack([duuu, duuv, duvv, dvvv], axis=-1)

    return _ChartMaps(embed, d1, d2, d3)


TWO_PI = 2.0 * np.pi


def make_surface(kind, params=(), mode="analytic", step=DEFAULT_FD_STEP):
    """Construct a built-in surface.

    kind    -- "sphere", "torus", "clifford_torus" or "ellipsoid"
    params  -- shape parameters: (r,), (R, r), (r,), (a, b, c) respectively
    mode    -- "analytic" (closed-form metric derivatives) or "fd" (stencils)
    step    -- finite-difference step used when mode == "fd"
    """
    params = tuple(float(p) for p in params)
    if mode not in ("analytic", "fd"):
        raise InvalidParameterError(f"unknown derivative mode {mode!r}")
    if step <= 0:
        raise InvalidParameterError("finite-difference step must be positive")
    if any(p <= 0 for p in params):
        raise InvalidParameterError(f"{kind} parameters must be positive, got {params}")

    if kind == "sphere":
        (r,) = params or (1.0,)
        if r <= 0:
            raise InvalidParameterError("sphere radius must be positive")
        return SurfaceSpec(
            name=f"sphere({r:g})", ambient_dim=3,
            chart_rect=ChartRect(0.0, np.pi, 0.0, TWO_PI, False, True),
            derivative_mode=mode, step=step, known_chi=2,
            params={"r": r}, maps=_polar_maps(r, r, r))
    if kind == "torus":
        if len(params) != 2:
            raise InvalidParameterError("torus takes parameters (R, r)")
        big_r, small_r = params
        if big_r <= small_r:
            raise InvalidParameterError(
                f"torus requires R > r for an embedded tube, got R={big_r}, r={small_r}")
        return SurfaceSpec(
            name=f"torus({big_r:g},{small_r:g})", ambient_dim=3,
            chart_rect=ChartRect(0.0, TWO_PI, 0.0, TWO_PI, True, True),
            derivative_mode=mode, step=step, known_chi=0,
            params={"R": big_r, "r": small_r}, maps=_torus_maps(big_r, small_r))
    if kind == "clifford_torus":
        (r,) = params or (1.0,)
        return SurfaceSpec(
            name=f"clifford_torus({r:g})", ambient_dim=4,
            chart_rect=ChartRect(0.0, TWO_PI, 0.0, TWO_PI, True, True),
            derivative_mode=mode, step=step, known_chi=0,
            params={"r": r}, maps=_clifford_maps(r))
    if kind == "ellipsoid":
        if len(params) != 3:
            raise InvalidParameterError("ellipsoid takes parameters (a, b, c)")
        a, b, c = params
        return SurfaceSpec(
            name=f"ellipsoid({a:g},{b:g},{c:g})", ambient_dim=3,
            chart_rect=ChartRect(0.0, np.pi, 0.0, TWO_PI, False, True),
            derivative_mode=mode, step=step, known_chi=2,
            params={"a": a, "b": b, "c": c}, maps=_polar_maps(a, b, c))
    raise InvalidParameterError(f"unknown surface kind {kind!r}")


def sphere(radius=1.0, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("sphere", (radius,), mode, step)


def torus(big_radius, small_radius, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("torus", (big_radius, small_radius), mode, step)


def clifford_torus(radius=1.0, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("clifford_torus", (radius,), mode, step)


def ellipsoid(a, b, c, mode="analytic", step=DEFAULT_FD_STEP):
    return make_surface("ellipsoid", (a, b, c), mode, step)


def _first_form(maps, u, v):
    jac = maps.d1(u, v)
    return np.einsum("...ai,...aj->...ij", jac, jac)


def _analytic_metric(maps, u, v, order):
    # g = J^T J on the jet of the Jacobian: d_m J[..., a, i] = d2[..., a, m + i]
    # and row r = m + l of its second partials is d3[..., a, r + i], so both
    # are sliding windows over the last axis of the closed-form maps
    def window(d):
        return np.moveaxis(np.lib.stride_tricks.sliding_window_view(d, 2, axis=-1), -2, 0)

    ders = [window(d(u, v)) for d in (maps.d2, maps.d3)[:order]]
    jac = _jets.Jet(maps.d1(u, v), *ders)
    g = _jets.einsum("...ai,...aj->...ij", jac, jac)
    return (_jets.to_parts(g, g.v.ndim - 2) + (None, None))[:3]


def _fd_metric(maps, u, v, order, h):
    # extended precision keeps stencil round-off below O(h^4) truncation
    ul = np.asarray(u, dtype=np.longdouble)
    vl = np.asarray(v, dtype=np.longdouble)
    g_fn = lambda uu, vv: _first_form(maps, uu, vv)
    g = g_fn(ul, vl)
    dg = ddg = None
    if order >= 1:
        dg = np.stack([_stencils.diff1(g_fn, ul, vl, 0, h),
                       _stencils.diff1(g_fn, ul, vl, 1, h)], axis=g.ndim - 2)
    if order >= 2:
        ddg = np.stack([_stencils.diff2(g_fn, ul, vl, 0, h),
                        _stencils.diff_cross(g_fn, ul, vl, h),
                        _stencils.diff2(g_fn, ul, vl, 1, h)], axis=g.ndim - 2)
        ddg = ddg.astype(np.float64)
    g = g.astype(np.float64)
    if dg is not None:
        dg = dg.astype(np.float64)
    return g, dg, ddg


def metric_data(surface, u, v, order=2):
    """First fundamental form with derivatives up to the requested order.

    order 0 -> g only; 1 -> + first partials; 2 -> + second partials.
    Raises DegenerateMetricError when det g falls to the chart-singular
    threshold anywhere in the batch.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if surface.derivative_mode == "analytic":
        g, dg, ddg = _analytic_metric(surface.maps, u, v, order)
    else:
        g, dg, ddg = _fd_metric(surface.maps, u, v, order, surface.step)

    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.any(det <= DET_EPS):
        bad = np.argmin(det)
        uu, vv = np.broadcast_arrays(u, v)
        pt = ChartPoint(float(np.ravel(uu)[bad]), float(np.ravel(vv)[bad]))
        raise DegenerateMetricError(
            f"metric degenerate on {surface.name}: det g = {np.min(det):.3e} "
            f"at (u, v) = ({pt.u:.6g}, {pt.v:.6g})", point=pt)

    g_inv = g[..., ::-1, ::-1] * COFACTOR_SIGNS / det[..., None, None]
    return MetricData(g=g, g_inv=g_inv, dg=dg, ddg=ddg,
                      det_g=det, sqrt_det_g=np.sqrt(det))


def metric_at(surface, u, v):
    """Full metric data (g, its inverse, first and second partials)."""
    return metric_data(surface, u, v, order=2)


def metric_only(surface, u, v):
    """Just g, shape (..., 2, 2); exact in both backends."""
    return _first_form(surface.maps, np.asarray(u, dtype=float),
                       np.asarray(v, dtype=float))


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
