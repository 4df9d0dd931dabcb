"""Metric definitions shared by the runner and the manifest writer.

Each per-layer metric names the end-to-end metric it should move and the
workloads on which it should move; on the others the prediction is no
change.  Layer names follow the program's modules; the ``_stencils``
module's metrics are named ``stencils.*`` because a metric name must start
with a letter or digit.
"""

RUN_SECONDS = 25

# On a shared 2-core host the speed of one thread drifts by 5-15 % between
# runs a minute apart (wall time equals CPU time, so it is not preemption),
# so a time may worsen by a quarter of its median before it counts as a
# regression.  Peak RSS repeats to within 0.5 %.
END_TO_END = [
    {"name": "session_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "session_s_tail", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

ALL = ("exact", "stencil", "smooth")
EXACT_STENCIL = ("exact", "stencil")
P50 = ("session_s_p50",)

# (name, unit, better, end-to-end metrics it should move, workloads it moves on)
PER_LAYER = [
    ("cli.cmd_verify.s", "s", "lower", P50, EXACT_STENCIL),
    ("cli.cmd_gauss_bonnet.s", "s", "lower", P50, EXACT_STENCIL),
    ("cli.cmd_smooth.s", "s", "lower", P50, ("smooth",)),
    ("cli.guarded_eval.fallback_nodes", "count", "lower", ("session_s_tail",),
     EXACT_STENCIL),
    ("cli.render_report.s", "s", "lower", P50, ALL),
    ("surfaces.metric_data.calls_o0", "count", "lower", P50, EXACT_STENCIL),
    ("surfaces.metric_data.calls_o1", "count", "lower", P50, EXACT_STENCIL),
    ("surfaces.metric_data.calls_o2", "count", "lower", P50, EXACT_STENCIL),
    ("surfaces.metric_data.self_s", "s", "lower", P50, EXACT_STENCIL),
    ("surfaces.metric_evals_per_node", "ratio", "lower",
     ("session_s_p50", "peak_rss_mb"), EXACT_STENCIL),
    ("surfaces.metric_only.calls", "count", "lower", P50, EXACT_STENCIL),
    ("surfaces.metric_only.self_s", "s", "lower", P50, EXACT_STENCIL),
    ("surfaces.jacobian.self_s", "s", "lower", P50, ("smooth",)),
    ("stencils.calls", "count", "lower", P50, ("stencil",)),
    ("stencils.self_s", "s", "lower", P50, ("stencil",)),
    ("stencils.point_evals", "count", "lower", P50, ("stencil",)),
    ("stencils.longdouble_share", "ratio", "lower", P50, ("stencil",)),
    ("stencils.max_nesting", "count", "lower", P50, ("stencil",)),
    ("operators.field_jet.calls", "count", "lower", P50, EXACT_STENCIL),
    ("operators.field_jet.self_s", "s", "lower", P50, ("exact",)),
    ("operators.field_jet.stencil_share", "ratio", "lower", P50, ("stencil",)),
    ("operators.connection.self_s", "s", "lower", P50, ("exact",)),
    ("operators.curvature.self_s", "s", "lower", P50, ("exact",)),
    ("operators.divergence_at.calls", "count", "lower", P50, ("exact",)),
    ("bochner.us_per_node.bochner", "us", "lower", P50, EXACT_STENCIL),
    ("bochner.us_per_node.trace_identity", "us", "lower", P50, EXACT_STENCIL),
    ("bochner.us_per_node.divergence_product_rule", "us", "lower", P50,
     EXACT_STENCIL),
    ("bochner.us_per_node.curvature_identity", "us", "lower", P50,
     EXACT_STENCIL),
    ("operators.product_rule_residual_at.us_per_node", "us", "lower", P50,
     EXACT_STENCIL),
    ("bochner.worst_sup_over_tol", "ratio", "lower", (), EXACT_STENCIL),
    ("integrate.surface_integral.s", "s", "lower", P50, EXACT_STENCIL),
    ("integrate.quadrature_nodes", "count", "lower", P50, EXACT_STENCIL),
    ("approx.monomial_matrix.self_s", "s", "lower", P50, ("smooth",)),
    ("approx.monomial_matrix.entries", "count", "lower",
     ("session_s_p50", "peak_rss_mb"), ("smooth",)),
    ("approx.fit.self_s", "s", "lower", P50, ("smooth",)),
    ("approx.fit.gram_flops", "flop", "lower", P50, ("smooth",)),
    ("approx.evaluate_polynomial_field.s", "s", "lower", P50, ("smooth",)),
    ("approx.sample_unit_field.s", "s", "lower", P50, ("smooth",)),
    ("approx.project_to_tangent.s", "s", "lower", P50, ("smooth",)),
    ("approx.degrees_tried", "count", "lower", P50, ("smooth",)),
    ("trace.overhead_s", "s", "lower", (), ALL),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, *_ in PER_LAYER})
