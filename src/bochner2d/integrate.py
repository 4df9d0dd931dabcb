"""Quadrature against the area element and the Euler-characteristic estimate.

Periodic chart axes use the equispaced trapezoidal rule; non-periodic axes
use Gauss-Legendre nodes, which never touch the chart-singular ends.  The
integrands and the area element come from one metric assembly per tile of
the grid (`surfaces.sweep`), on the tile's axes, (rows, 1) and (1, cols),
into arrays over the whole grid, and the weighted reduction is an ordinary
numpy sum over them, so results are reproducible bit-for-bit for a given
grid, whatever its tiles.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _jets, surfaces as surf
from .errors import ChiIndeterminateError, GeometryError
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
    infinite, so the estimate is indeterminate.  The rounding holds only
    when the margin plus the total's estimated error, in units of 2 pi,
    stays below margin_limit; a NaN error, where an axis of 4 nodes has no
    coarser grid to estimate it on, leaves chi indeterminate.  Where the
    surface declares its chi, the rounded value must also agree with it.
    """
    raw: float
    rounded: Optional[int]
    margin: float
    error: float                    # estimated error of raw, NaN where none
    declared: Optional[int]
    margin_limit: float = CHI_MARGIN

    @property
    def indeterminate(self):
        return not bool(self.margin + self.error < self.margin_limit)

    @property
    def agrees(self):
        """Whether rounded is the declared chi; None where none is declared."""
        return None if self.declared is None else self.rounded == self.declared

    @property
    def certified(self):
        return not self.indeterminate and self.agrees is not False

    def failure(self):
        """Why the estimate certifies no chi, or None where it does."""
        if self.rounded is None:
            return (f"total curvature is not finite ({self.raw * 2.0 * np.pi}), "
                    f"so chi is indeterminate")
        if np.isnan(self.error):
            return (f"chi estimate {self.raw:.6f} has no error estimate, since an "
                    f"axis of 4 nodes has no coarser grid; refine the grid")
        if self.indeterminate:
            return (f"chi estimate {self.raw:.6f} is {self.margin:.3g} from the "
                    f"nearest integer with estimated error {self.error:.3g} "
                    f"(limit {self.margin_limit:g}); refine the grid")
        if self.agrees is False:
            return (f"chi estimate {self.raw:.6f} rounds to {self.rounded}, not to "
                    f"the declared {self.declared}")
        return None


def _integrands(surface, fs, grid):
    """fs's integrands on the grid, then the area element, as (nu, nv) arrays
    that `surfaces.sweep` fills tile by tile, from one metric assembly per
    tile, whose jet fs gets unless degenerate (fs's own then raises).  A
    GeometryError of a tile is raised again from the whole grid, evaluated
    once, so that it counts and names the grid's failing nodes."""
    def tile(u, v):
        g, dg, ddg, det = surf._assemble(surface, u, v, 2)
        jet = _jets.Jet(g, dg, ddg) if np.all(surf._nondegenerate(g, det)) else None
        return (*fs(u, v, jet), np.sqrt(det))

    try:
        return surf.sweep(grid.u_nodes, grid.v_nodes, tile)
    except GeometryError:
        tile(grid.u_nodes[:, None], grid.v_nodes[None, :])
        raise


def _weighted_sums(grid, vals, area_elem):
    return [float(np.sum(grid.weights * f * area_elem)) for f in vals]


def surface_integrals(surface, fs, grid):
    """Integrals of each scalar that fs(u, v, g) returns, against the area element.

    fs is evaluated once per tile of each grid (the given one and the
    coarser one of the error estimate), on the tile's axes u (rows, 1) and
    v (1, cols), with the metric jet g of the area element or None, so
    integrands that share their pointwise work, the metric included, share
    it here too.  fs's integrands are arrays over the tile's nodes, or
    broadcast to them.  Where the coarse nodes are every other fine node,
    as on periodic axes with even counts, the coarse integrands and area
    element are read off the fine ones instead.  Returns one IntegralResult
    per integrand."""
    *vals, area_elem = _integrands(surface, fs, grid)
    values = _weighted_sums(grid, vals, area_elem)
    rough = [np.nan] * len(values)
    if min(grid.nu, grid.nv) > 4:
        coarse = chart_grid(surface, max(4, grid.nu // 2), max(4, grid.nv // 2))
        sub = np.s_[::2, ::2]
        if np.array_equal(coarse.U, grid.U[sub]) and np.array_equal(coarse.V, grid.V[sub]):
            coarse_vals = [f[sub] for f in vals]
            coarse_area = area_elem[sub]
        else:
            *coarse_vals, coarse_area = _integrands(surface, fs, coarse)
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

    Raises ChiIndeterminateError, with the estimate, when the rounding is
    not certified (``ChiEstimate.certified``): the raw value plus its
    estimated error sits CHI_MARGIN or further from every integer, the grid
    has no error estimate, or the integer is not the surface's declared chi.
    Each signals an under-resolved grid.
    """
    total = total_curvature(surface, grid)
    est = chi_from_total(total.value, error=total.estimated_error,
                         declared=surface.known_chi)
    if not est.certified:
        raise ChiIndeterminateError(est.failure(), estimate=est)
    return est


def chi_from_total(total, margin_limit=CHI_MARGIN, *, error, declared):
    """Round total / (2 pi) to the nearest integer, recording the margin; error
    is the total's estimated error and declared the surface's chi, if any."""
    raw = total / (2.0 * np.pi)
    rounded = int(np.rint(raw)) if np.isfinite(raw) else None
    margin = np.inf if rounded is None else abs(raw - rounded)
    return ChiEstimate(raw=raw, rounded=rounded, margin=margin, margin_limit=margin_limit,
                       error=error / (2.0 * np.pi), declared=declared)


def divergence_theorem_residual(surface, X, grid):
    """Integral of div X over the closed surface; zero in exact arithmetic.

    div X and the field's jet take the quadrature's own metric jet."""
    def divergence(u, v, g):
        g = _metric(surface, u, v, 1, g)
        return (_divergence(X.jet(surface, u, v, 1, g), _levi_civita(g)[1]).v,)

    return surface_integrals(surface, divergence, grid)[0]
