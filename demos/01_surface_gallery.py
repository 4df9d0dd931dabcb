"""Tour of the built-in surfaces and their chart geometry.

Each surface is a closed-form embedding of a chart rectangle into R^3 or
R^4.  The metric (first fundamental form) is assembled from the embedding
Jacobian, and everything downstream -- connection, curvature, quadrature --
derives from it.  This script prints the basic geometric data so you can
eyeball the classical values.
"""

import numpy as np

from bochner2d import (
    chart_grid,
    clifford_torus,
    ellipsoid,
    gauss_curvature_at,
    local_geometry,
    sphere,
    surface_area,
    torus,
)

surfaces = [
    sphere(1.0),
    torus(2.0, 1.0),
    clifford_torus(1.0),
    ellipsoid(1.0, 1.3, 0.7),
]

print("=" * 72)
print("surface gallery")
print("=" * 72)

for s in surfaces:
    rect = s.chart_rect
    print(f"\n{s.name}  (ambient R^{s.ambient_dim}, declared chi = {s.known_chi})")
    print(f"  chart: u in [{rect.u0:.4g}, {rect.u1:.4g}]"
          f"{' (periodic)' if rect.periodic_u else ''}, "
          f"v in [{rect.v0:.4g}, {rect.v1:.4g}]"
          f"{' (periodic)' if rect.periodic_v else ''}")

    # sample the metric and curvature at a generic interior point
    u0 = 0.5 * (rect.u0 + rect.u1)
    v0 = 0.31 * (rect.v0 + rect.v1)
    geo = local_geometry(s, u0, v0)
    K = gauss_curvature_at(s, u0, v0)
    print(f"  at (u, v) = ({u0:.3f}, {v0:.3f}):")
    print(f"    g   = [[{geo.g[0, 0]:9.5f}, {geo.g[0, 1]:9.5f}],")
    print(f"           [{geo.g[1, 0]:9.5f}, {geo.g[1, 1]:9.5f}]]")
    print(f"    det g = {geo.det_g:.6f}, K = {float(K):+.6f}")

    grid = chart_grid(s, 64, 64)
    area = surface_area(s, grid)
    print(f"  area ({grid.rule}, 64x64) = {area.value:.12f}"
          f"  [est. error {area.estimated_error:.1e}]")

print("\nreference values:")
print(f"  sphere(1) area       = 4 pi        = {4 * np.pi:.12f}")
print(f"  torus(2,1) area      = 4 pi^2 R r  = {8 * np.pi**2:.12f}")
print(f"  clifford_torus(1)    = 2 pi^2      = {2 * np.pi**2:.12f}")
print("\nthe unit sphere has K = 1 everywhere; the torus changes sign with")
print("cos(v); the flat torus in R^4 has K = 0 in spite of living on S^3.")
