"""Per-layer metrics of one traced session, from its spans and reports.

Times are summed over the session; ``*.self_s`` is self time (duration
minus child spans), ``*.s`` is inclusive time, ``us_per_node`` is inclusive
time per evaluated node.  The runner takes the median over sessions.
"""

from . import tracing
from .metrics import PER_LAYER

STENCIL_POINTS = {"_stencils.diff1": 4, "_stencils.diff2": 5,
                  "_stencils.diff_cross": 16}
RESIDUALS = {   # span name -> metric
    "bochner.bochner_residual": "bochner.us_per_node.bochner",
    "bochner.trace_identity_residual": "bochner.us_per_node.trace_identity",
    "bochner.divergence_scaling_residual":
        "bochner.us_per_node.divergence_product_rule",
    "bochner.curvature_identity_residual":
        "bochner.us_per_node.curvature_identity",
    "operators.product_rule_residual_at":
        "operators.product_rule_residual_at.us_per_node",
}
CONNECTION = {"operators.christoffel_from_metric",
              "operators.christoffel_derivative_from_metric",
              "operators.christoffel_at"}
CURVATURE = {"operators.gauss_curvature_from_metric",
             "operators.gauss_curvature_at",
             "operators.riemann_tensor_from_metric",
             "operators.ricci_tensor_from_metric",
             "operators.ricci_tensor_at"}
JETS = {"operators.field_jet", "operators.scalar_jet"}
HANDLERS = {"cli.cmd_verify": "cli.cmd_verify.s",     # span name -> metric
            "cli.cmd_gauss_bonnet": "cli.cmd_gauss_bonnet.s",
            "cli.cmd_smooth": "cli.cmd_smooth.s"}


def _is_stencil(name):
    return name.startswith("_stencils.")


def annotate(spans):
    """Per-span self time, enclosing CLI handler and stencil nesting depth.

    Spans are in start order, so a parent always precedes its children.
    The nesting depth counts stencil entries (a stencil span whose parent
    is not a stencil span) on the chain from the root.
    """
    selfs = tracing.self_times(spans)
    handler, depth = [], []
    for span in spans:
        p = span.parent
        own = span.name if span.name.startswith("cli.cmd_") else None
        handler.append(own or (handler[p] if p >= 0 else None))
        entry = _is_stencil(span.name) and not (p >= 0 and _is_stencil(spans[p].name))
        depth.append((depth[p] if p >= 0 else 0) + int(entry))
    return selfs, handler, depth


def _worst_sup_over_tol(reports):
    ratios = []
    for rep in reports:
        for c in rep.get("checks", ()):
            ratios.append(c["sup"] / c["tolerance"])
        div = rep.get("integrals", {}).get("divergence_theorem_residual")
        if div:
            ratios.append(abs(div["value"]) / div["tolerance"])
        sm = rep.get("smoothing")
        if sm and sm.get("sup_error") is not None:
            ratios.append(sm["sup_error"] / sm["target"])
    return max(ratios, default=0.0)


def session_metrics(spans, indices, annotations, reports):
    """Per-layer metrics of the session whose spans sit at `indices`."""
    selfs, handler, depth = annotations
    m = {name: 0.0 for name, *_ in PER_LAYER}
    handler_calls = dict.fromkeys(HANDLERS.values(), 0)
    residual_nodes = dict.fromkeys(RESIDUALS.values(), 0)
    verify_metric_points = 0
    jets, jets_with_stencil = 0, set()
    points = ld_points = 0
    for i in indices:
        s = spans[i]
        name, dur, own = s.name, s.end - s.start, selfs[i]
        attrs = s.attrs or {}
        parent = spans[s.parent] if s.parent >= 0 else None
        if name in HANDLERS:
            m[HANDLERS[name]] += dur
            handler_calls[HANDLERS[name]] += 1
        elif name in RESIDUALS:
            m[RESIDUALS[name]] += dur
            residual_nodes[RESIDUALS[name]] += attrs["size"]
        elif name == "cli.sweep_chunks" and s.error and parent is not None \
                and parent.name == "cli.guarded_eval":
            m["cli.guarded_eval.fallback_nodes"] += parent.attrs["size"]
        elif name == "cli.render_report":
            m["cli.render_report.s"] += dur
        elif name == "surfaces.metric_data":
            m[f"surfaces.metric_data.calls_o{attrs['order']}"] += 1
            m["surfaces.metric_data.self_s"] += own
            if handler[i] == "cli.cmd_verify":
                verify_metric_points += attrs["size"]
        elif name == "surfaces.metric_only":
            m["surfaces.metric_only.calls"] += 1
            m["surfaces.metric_only.self_s"] += own
            if parent is not None and parent.name == "integrate.surface_integral":
                m["integrate.quadrature_nodes"] += attrs["size"]
        elif name in ("surfaces.SurfaceSpec.jacobian", "surfaces.SurfaceSpec.embed"):
            m["surfaces.jacobian.self_s"] += own
        elif _is_stencil(name):
            m["stencils.calls"] += 1
            m["stencils.self_s"] += own
            m["stencils.max_nesting"] = max(m["stencils.max_nesting"], depth[i])
            if name in STENCIL_POINTS:
                n = attrs["size"] * STENCIL_POINTS[name]
                points += n
                ld_points += n if attrs["longdouble"] else 0
            if parent is not None and parent.name in JETS:
                jets_with_stencil.add(s.parent)
        elif name in JETS:
            m["operators.field_jet.calls"] += 1
            m["operators.field_jet.self_s"] += own
            jets += 1
        elif name in CONNECTION:
            m["operators.connection.self_s"] += own
        elif name in CURVATURE:
            m["operators.curvature.self_s"] += own
        elif name == "operators.divergence_at":
            m["operators.divergence_at.calls"] += 1
        elif name == "integrate.surface_integral":
            m["integrate.surface_integral.s"] += dur
        elif name == "approx.monomial_matrix":
            m["approx.monomial_matrix.self_s"] += own
            m["approx.monomial_matrix.entries"] += attrs["entries"]
        elif name == "approx.fit_polynomial_field":
            m["approx.fit.self_s"] += own
            m["approx.fit.gram_flops"] += attrs["gram_flops"]
        elif name in ("approx.evaluate_polynomial_field",
                      "approx.sample_unit_field", "approx.project_to_tangent"):
            m[f"{name}.s"] += dur
    for key, calls in handler_calls.items():
        m[key] = m[key] / calls if calls else 0.0
    for key, nodes in residual_nodes.items():
        m[key] = 1e6 * m[key] / nodes if nodes else 0.0
    m["stencils.point_evals"] = points
    m["stencils.longdouble_share"] = ld_points / points if points else 0.0
    m["operators.field_jet.stencil_share"] = (len(jets_with_stencil) / jets
                                              if jets else 0.0)
    certified = sum(max((c["n_points"] for c in rep.get("checks", ())), default=0)
                    for rep in reports if rep.get("command") == "verify")
    m["surfaces.metric_evals_per_node"] = (verify_metric_points / certified
                                           if certified else 0.0)
    m["bochner.worst_sup_over_tol"] = _worst_sup_over_tol(reports)
    m["approx.degrees_tried"] = sum(
        len(rep.get("smoothing", {}).get("degrees_tried", ())) for rep in reports)
    del m["trace.overhead_s"]
    return m
