"""Quadrature against the area element and the Euler-characteristic estimate.

Periodic chart axes use the equispaced trapezoidal rule (spectrally accurate
for smooth periodic integrands); non-periodic axes use Gauss-Legendre nodes,
which never touch the chart-singular ends.  The weighted reduction is an
ordinary fixed-order numpy sum, so results are reproducible bit-for-bit for
a given grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChiIndeterminateError
from .operators import divergence_at, gauss_curvature_at
from .surfaces import chart_grid, metric_only

CHI_MARGIN = 0.01   # an order below the 0.5 rounding boundary


@dataclass(frozen=True)
class IntegralResult:
    """Value of a surface integral with an a-posteriori error estimate.

    estimated_error is the difference against the next-coarser grid
    (half the nodes per axis), a Richardson-style signal that works for
    both quadrature rules.
    """
    value: float
    resolution: tuple
    rule: str
    estimated_error: float


@dataclass(frozen=True)
class ChiEstimate:
    """Euler characteristic from the total-curvature integral."""
    raw: float
    rounded: int
    margin: float
    margin_limit: float = CHI_MARGIN

    @property
    def indeterminate(self):
        return bool(self.margin >= self.margin_limit)


def _weighted_sums(surface, fs, grid):
    area_elem = np.sqrt(np.linalg.det(metric_only(surface, grid.U, grid.V)))
    return [float(np.sum(grid.weights * np.asarray(vals, dtype=float) * area_elem))
            for vals in fs(grid.U, grid.V)]


def surface_integrals(surface, fs, grid):
    """Integrals of each scalar that fs(u, v) returns, against the area element.

    fs is evaluated once per grid (the given one and the coarser one of the
    error estimate), so integrands that share their pointwise work share it
    here too.  Returns one IntegralResult per integrand.
    """
    fine = _weighted_sums(surface, fs, grid)
    coarse = chart_grid(surface, max(4, grid.nu // 2), max(4, grid.nv // 2))
    return [IntegralResult(value=value, resolution=(grid.nu, grid.nv),
                           rule=grid.rule, estimated_error=abs(value - rough))
            for value, rough in zip(fine, _weighted_sums(surface, fs, coarse))]


def surface_integral(surface, f, grid):
    """Integral of the scalar chart function f against the area element."""
    return surface_integrals(surface, lambda u, v: (f(u, v),), grid)[0]


def surface_area(surface, grid):
    return surface_integral(surface, lambda u, v: np.ones(np.broadcast(u, v).shape), grid)


def total_curvature(surface, grid):
    """Integral of the Gauss curvature over the surface."""
    return surface_integral(surface, lambda u, v: gauss_curvature_at(surface, u, v),
                            grid)


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
    rounded = int(np.rint(raw))
    return ChiEstimate(raw=raw, rounded=rounded, margin=abs(raw - rounded),
                       margin_limit=margin_limit)


def divergence_theorem_residual(surface, X, grid):
    """Integral of div X over the closed surface; zero in exact arithmetic."""
    return surface_integral(surface,
                            lambda u, v: divergence_at(surface, X, u, v), grid)
