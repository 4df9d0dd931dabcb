"""Smoothing a continuous nowhere-zero field by ambient polynomials.

A continuous tangent field with no zeros need not be differentiable.  To
get a smooth one: push the field into ambient coordinates, normalize it to
unit length, fit each component by a polynomial, and project the polynomial
map back onto the tangent planes.  If the fitted map P stays within vector
distance 1/2 of the unit samples Z, the tangential part T cannot vanish:
projection does not expand errors, so |T| >= 1 - |P - Z| > 1/2 everywhere.

The demo field has |sin| / |cos| kinks in both chart components but never
vanishes.  Degrees escalate 2, 4, ... until the budget is certified on a
4x-denser verification grid.
"""

import numpy as np

from bochner2d import chart_grid, sample_unit_field, smooth_field, torus
from bochner2d.approx import evaluate_polynomial_field, project_to_tangent
from bochner2d.cli import kinked_mixture_field
from bochner2d.errors import BudgetNotMetError

t = torus(2.0, 1.0)
X = kinked_mixture_field()
print("input field: (1 + 0.5 |sin u|) d/du + (0.6 |cos v| - 0.3) d/dv")
print("continuous, kinked, nowhere zero (the d/du coefficient stays >= 1)\n")

# a degree-0 budget cannot work: no constant map tracks a rotating field
try:
    smooth_field(t, X, max_degree=0)
except BudgetNotMetError as exc:
    print(f"max_degree = 0 -> {exc}\n")

report, smooth, poly = smooth_field(t, X, max_degree=16, fit_grid=(64, 64))
print("degrees tried: " + ", ".join(
    f"{d} (sup error {e:.4f})"
    for d, e in zip(report.degrees_tried, report.sup_errors)))
print(f"certified at degree {report.final_degree}: "
      f"sup |P - Z| = {report.sup_error:.4f} < 0.5 on a "
      f"{poly.verify_grid[0]}x{poly.verify_grid[1]} verification grid")
print(f"min |T| over that grid = {report.min_tangential_norm:.4f} > 0.5")

# orthogonal split P = T + U on a few nodes
verify = sample_unit_field(t, X, chart_grid(t, 256, 256))
pred = evaluate_polynomial_field(poly, verify.positions)
proj = project_to_tangent(t, pred, verify.chart_u, verify.chart_v)
normal_part = pred - proj
dots = np.einsum("ij,ij->i", proj, normal_part)
print(f"tangential/normal split orthogonality: max |<T, U>| = "
      f"{float(np.max(np.abs(dots))):.2e}")

print("\nsample of the smooth output field (chart coefficients):")
for u, v in ((0.0, 0.0), (1.0, 2.0), (3.0, 5.0)):
    c = smooth.coeff(u, v)
    print(f"  T({u:3.1f}, {v:3.1f}) = ({c[0]:+.6f}, {c[1]:+.6f})")
print("\nthe coefficients compose a polynomial with the analytic embedding,")
print("so the output is smooth even though the input had kinks.")
