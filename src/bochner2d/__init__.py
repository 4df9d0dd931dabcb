"""Numerical certification toolkit for curvature identities on embedded surfaces.

The package verifies, on explicitly embedded compact surfaces, the chain of
identities that ties a nowhere-zero tangent field to the topology of the
surface: the Bochner identity for vector fields, the dimension-2 trace
identity, the construction of a field whose divergence is the Gauss
curvature, the total-curvature computation of the Euler characteristic, and
the polynomial smoothing of continuous nowhere-zero fields.

Modules
-------
surfaces   -- built-in embeddings, metric assembly, quadrature grids
operators  -- local_geometry (metric, Christoffel symbols, K, Ric), divergence, fields
bochner    -- identity residuals and the curvature-potential field
integrate  -- area-element quadrature, Euler characteristic, divergence theorem
approx     -- ambient polynomial fitting and tangential projection
cli        -- batch front end (`bochner2d verify|gauss-bonnet|smooth`)
"""

from .bochner import (
    ResidualReport,
    bochner_residual,
    chained_residuals,
    curvature_identity_residual,
    curvature_potential_field,
    gauss_bonnet_integrands,
    normalize_field,
    trace_identity_residual,
    unit_frame_operator_matrix,
)
from .approx import (
    AmbientFieldSamples,
    PolynomialField,
    SmoothedFieldReport,
    sample_unit_field,
    smooth_field,
)
from .errors import (
    BudgetNotMetError,
    ChiIndeterminateError,
    ConfigError,
    DegenerateMetricError,
    GeometryError,
    InvalidParameterError,
    NotUnitFieldError,
    RankDeficientFitError,
    ZeroFieldPointError,
)
from .integrate import (
    ChiEstimate,
    IntegralResult,
    divergence_theorem_residual,
    euler_characteristic,
    surface_area,
    surface_integral,
    surface_integrals,
    total_curvature,
)
from .operators import (
    ScalarField,
    TangentField,
    coordinate_field,
    divergence_at,
    gauss_curvature_at,
    local_geometry,
    product_rule_residual_at,
    ricci_residual_at,
)
from .surfaces import (
    ChartPoint,
    GridSampling,
    SurfaceSpec,
    chart_grid,
    clifford_torus,
    ellipsoid,
    guarded_mask,
    make_surface,
    sphere,
    torus,
)

__version__ = "0.1.0"
