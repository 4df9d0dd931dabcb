"""Finite-difference backend versus the closed-form backend.

Every surface can run in "fd" mode, where the metric derivatives feeding
the connection and the curvature come from 4th-order central stencils
rather than closed forms.  The stencils are evaluated in extended precision
so that the h^4 truncation term dominates all the way down to small steps;
this script measures the convergence order of the Gauss curvature.

The curvature-divergence identity is then checked on the fd backend.  Both
of its sides are computed through exact jets from the same stenciled metric
partials, so it holds to rounding at every step: the step sets how far the
fd geometry is from the closed forms, not whether the identity holds.
"""

import numpy as np

from bochner2d import (
    chart_grid,
    coordinate_field,
    curvature_identity_residual,
    gauss_curvature_at,
    normalize_field,
    torus,
)

exact = torus(2.0, 1.0)
grid = chart_grid(exact, 16, 16)
K_exact = gauss_curvature_at(exact, grid.U, grid.V)

print("Gauss curvature, stencil backend vs closed forms on torus(2, 1)")
print(f"{'h':>10} {'sup |K_fd - K|':>16} {'reduction':>10}")
errs = []
steps = [2e-2, 1e-2, 5e-3, 2.5e-3]
for h in steps:
    fd = torus(2.0, 1.0, mode="fd", step=h)
    err = float(np.max(np.abs(gauss_curvature_at(fd, grid.U, grid.V) - K_exact)))
    ratio = f"{errs[-1] / err:9.1f}x" if errs else "         -"
    errs.append(err)
    print(f"{h:10.4g} {err:16.3e} {ratio}")

order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
print(f"\nfitted convergence order: {order:.3f}  (4th-order stencils: "
      f"each halving divides the error by 16)")

print("\ncurvature-divergence identity under the fd backend:")
for h in (1e-2, 1e-3):
    fd = torus(2.0, 1.0, mode="fd", step=h)
    T = normalize_field(fd, coordinate_field(0))
    res = curvature_identity_residual(fd, T, grid.U, grid.V)
    print(f"  h = {h:g}: sup |K - div Y| = {float(np.max(res)):.3e}")
print("\nthe identity holds to rounding at every step; the step sets how far")
print("K_fd is from the closed-form K, measured above.")
