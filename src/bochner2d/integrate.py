"""Quadrature against the area element and the Euler-characteristic estimate.

Periodic chart axes use the equispaced trapezoidal rule; non-periodic axes
use Gauss-Legendre nodes, which never touch the chart-singular ends.  The
integrands and the area element come from one metric assembly on the grid's
axes, (nu, 1) and (1, nv), and the weighted reduction is an ordinary numpy
sum, so results are reproducible bit-for-bit for a given grid.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _jets, surfaces as surf
from .errors import ChiIndeterminateError
from .operators import _divergence, _gauss_curvature, _levi_civita, _metric
from .surfaces import chart_grid

CHI_MARGIN = 0.01   # an order below the 0.5 rounding boundary


@dataclass(frozen=True)
class IntegralResult:
    """Value of a surface integral with an a-posteriori error estimate.

    estimated_error is the difference against the next-coarser grid (half
    the nodes per axis, at least 4), a Richardson-style signal that works
    for both quadrature rules; NaN where an axis of 4 nodes has none.
    """
    value: float
    resolution: tuple
    rule: str
    estimated_error: float


@dataclass(frozen=True)
class ChiEstimate:
    """Euler characteristic from the total-curvature integral.

    A non-finite total rounds to no integer: rounded is None and the margin
    infinite, so the estimate is indeterminate.
    """
    raw: float
    rounded: Optional[int]
    margin: float
    margin_limit: float = CHI_MARGIN

    @property
    def indeterminate(self):
        return bool(self.margin >= self.margin_limit)


def _integrands(surface, fs, grid):
    """fs's integrands on the grid's axes and the area element, from one metric
    assembly, whose jet fs gets unless degenerate (fs's own then raises)."""
    u, v = grid.u_nodes[:, None], grid.v_nodes[None, :]
    g, dg, ddg, det = surf._assemble(surface, u, v, 2)
    jet = _jets.Jet(g, dg, ddg) if np.all(surf._nondegenerate(g, det)) else None
    return [np.asarray(vals, dtype=float) for vals in fs(u, v, jet)], np.sqrt(det)


def _weighted_sums(grid, vals, area_elem):
    return [float(np.sum(grid.weights * f * area_elem)) for f in vals]


def surface_integrals(surface, fs, grid):
    """Integrals of each scalar that fs(u, v, g) returns, against the area element.

    fs is evaluated once per grid (the given one and the coarser one of the
    error estimate), on its axes u (nu, 1) and v (1, nv), with the metric
    jet g of the area element or None, so integrands that share their
    pointwise work, the metric included, share it here too.  Where the
    coarse nodes are every other fine node, as on periodic axes with even
    counts, the coarse integrands and area element are read off the fine
    ones instead.  Returns one IntegralResult per integrand."""
    vals, area_elem = _integrands(surface, fs, grid)
    values = _weighted_sums(grid, vals, area_elem)
    rough = [np.nan] * len(values)
    if min(grid.nu, grid.nv) > 4:
        coarse = chart_grid(surface, max(4, grid.nu // 2), max(4, grid.nv // 2))
        sub = np.s_[::2, ::2]
        if np.array_equal(coarse.U, grid.U[sub]) and np.array_equal(coarse.V, grid.V[sub]):
            coarse_vals = [np.broadcast_to(f, grid.U.shape)[sub] for f in vals]
            coarse_area = area_elem[sub]
        else:
            coarse_vals, coarse_area = _integrands(surface, fs, coarse)
        rough = _weighted_sums(coarse, coarse_vals, coarse_area)
    return [IntegralResult(value=value, resolution=(grid.nu, grid.nv),
                           rule=grid.rule, estimated_error=abs(value - r))
            for value, r in zip(values, rough)]


def surface_integral(surface, f, grid):
    """Integral of the scalar chart function f against the area element."""
    return surface_integrals(surface, lambda u, v, g: (f(u, v),), grid)[0]


def surface_area(surface, grid):
    return surface_integral(surface, lambda u, v: np.ones(np.broadcast(u, v).shape), grid)


def total_curvature(surface, grid):
    """Integral of the Gauss curvature over the surface."""
    return surface_integrals(surface, lambda u, v, g: (
        _gauss_curvature(_metric(surface, u, v, 2, g)),), grid)[0]


def euler_characteristic(surface, grid):
    """Round the total curvature over 2*pi to the nearest integer.

    Raises ChiIndeterminateError when the raw value sits further than
    CHI_MARGIN from every integer, which signals an under-resolved grid.
    """
    est = chi_from_total(total_curvature(surface, grid).value)
    if est.indeterminate:
        raise ChiIndeterminateError(
            f"chi estimate {est.raw:.6f} is {est.margin:.3f} from the nearest "
            f"integer (limit {est.margin_limit:g}); refine the grid", estimate=est)
    return est


def chi_from_total(total, margin_limit=CHI_MARGIN):
    """Round total / (2 pi) to the nearest integer, recording the margin."""
    raw = total / (2.0 * np.pi)
    if not np.isfinite(raw):
        return ChiEstimate(raw=raw, rounded=None, margin=np.inf,
                           margin_limit=margin_limit)
    rounded = int(np.rint(raw))
    return ChiEstimate(raw=raw, rounded=rounded, margin=abs(raw - rounded),
                       margin_limit=margin_limit)


def divergence_theorem_residual(surface, X, grid):
    """Integral of div X over the closed surface; zero in exact arithmetic.

    div X and the field's jet take the quadrature's own metric jet."""
    def divergence(u, v, g):
        g = _metric(surface, u, v, 1, g)
        return (_divergence(X.jet(surface, u, v, 1, g), _levi_civita(g)[1]).v,)

    return surface_integrals(surface, divergence, grid)[0]
