"""Batch command-line front end.

Subcommands
-----------
verify       -- normalize the selected field and sweep the identity chain
                (Bochner, trace, product-rule link, curvature-divergence)
                and a scalar product rule over a guarded grid, in one pass
                and one metric assembly per tile of BATCH_NODES grid nodes
gauss-bonnet -- total-curvature integral, Euler-characteristic estimate and,
                when a field is given, the divergence-theorem residual of its
                curvature-potential field
smooth       -- run the polynomial smoothing pipeline and report its sup
                errors, sampled on the verification grid, against the budget

Reports are JSON (schema 1) on stdout, optionally duplicated to --out; CSV
emits flat per-node residual rows for plotting.  Exit status: 0 exactly when
the report's "overall_pass" is true, 1 when a check failed or the run met a
named failure, 2 configuration error (stderr only).  Identical
configurations produce byte-identical JSON except for the "timings" section.

--tol NAME=VAL takes the names of TOLERANCE_NAMES, any other being a
configuration error: verify takes bochner, trace_identity,
divergence_product_rule, curvature_identity, product_rule and zero_floor;
gauss-bonnet chi_margin and divergence_theorem; smooth none.  A field norm
below zero_floor relative to the chart's scale, g(X, X) < zero_floor^2
tr(g) / 2, which for an isometric chart is g(X, X) < zero_floor^2, or not
finite (NaN, or an overflow to inf) leaves no unit field at its node (the
same rule, with the default floor 1e-9, screens gauss-bonnet's field and
smooth's samples): verify counts such nodes in "zero_field_nodes" and names
non-finite norms when no usable node is left, gauss-bonnet names the first
such node in its "error".

Field expressions ("expr_u,expr_v") use a whitelisted grammar of u, v,
numeric constants, + - * / and sin, cos.  A jet request evaluates each
once, on seed jets of u and v of its order, so the partials are exact, or on
plain arrays where the fd stencils ask for values.
"""

import argparse
import ast
import ctypes
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:         # not POSIX: reports carry no fault count
    resource = None

from . import _jets, approx, bochner, integrate, operators
from . import surfaces as surf
from .errors import (
    BudgetNotMetError,
    ConfigError,
    GeometryError,
    ZeroFieldPointError,
)

SCHEMA_VERSION = 1
PRODUCT_RULE_TOL = 1e-8
BATCH_NODES = 4096      # nodes per verify pass; bounds the memory of its jets
# glibc's mallopt parameters and the values _retain_freed_memory pins them at
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for its dynamic mmap threshold on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_SURFACE_ALIASES = {"clifford": "clifford_torus"}
_CONSTANT_FIELDS = {"du": (1.0, 0.0), "dv": (0.0, 1.0), "du+dv": (1.0, 1.0)}
# the names --tol accepts, per command
TOLERANCE_NAMES = {
    "verify": (*bochner.VERIFY_CHECKS, "zero_floor"),
    "gauss-bonnet": ("chi_margin", "divergence_theorem"),
    "smooth": (),
}

_ALLOWED_CALLS = {"sin": _jets.sin, "cos": _jets.cos}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div,
                  ast.USub, ast.UAdd, ast.Load)


def _parse_expression(text):
    """Compile a whitelisted chart expression of u and v.

    Grammar: sin, cos, + - * /, numeric constants, the names u and v.
    """
    too_deep = ConfigError(f"field expression of {len(text)} characters nests too deeply")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse field expression {text!r}: {exc}") from exc
    except RecursionError as exc:       # past the parser's nesting limit
        raise too_deep from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(
                f"expression {text!r} uses disallowed syntax {type(node).__name__}")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _ALLOWED_CALLS or node.keywords
                    or len(node.args) != 1):
                raise ConfigError(f"expression {text!r}: only sin(...) and "
                                  f"cos(...) calls are allowed")
        if isinstance(node, ast.Name) and node.id not in ("u", "v", "sin", "cos"):
            raise ConfigError(f"expression {text!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {text!r}: non-numeric constant")
    try:
        code = compile(tree, "<field>", "eval")
    except RecursionError as exc:       # past the compiler's
        raise too_deep from exc

    def fn(u, v):
        return eval(code, {"__builtins__": {}},
                    {"u": u, "v": v, **_ALLOWED_CALLS})

    # constant sub-expressions are Python numbers, which raise where arrays
    # would give inf or nan: reject them here rather than mid-run
    try:
        with np.errstate(all="ignore"):
            fn(np.float64(0.5), np.float64(0.5))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"expression {text!r} cannot be evaluated: {exc}") from exc
    return fn


def expression_field(expr_u, expr_v):
    """Base field of two chart expressions, each evaluated once per jet: on
    seed jets of its order, or on plain arrays for the fd stencils."""
    fu = _parse_expression(expr_u)
    fv = _parse_expression(expr_v)

    def evaluate(u, v):
        zero = 0.0 * (u + v)        # every component takes the shape of (u, v)
        return _jets.stack([fu(u, v) + zero, fv(u, v) + zero])

    def exact(u, v, order):
        jet = evaluate(*_jets.variables(u, v, order))
        return [jet.v, jet.d, jet.dd][:order + 1]

    name = f"expr({expr_u},{expr_v})"
    return operators._derived(operators._base_jet(evaluate, exact, name), name)


def kinked_mixture_field():
    """Continuous, nowhere-zero built-in field with |.|-kinks in both slots."""
    def coeff(u, v):
        au = 1.0 + 0.5 * np.abs(np.sin(u))
        av = 0.6 * np.abs(np.cos(v)) - 0.3
        return np.stack(np.broadcast_arrays(au, av), axis=-1)

    return operators.TangentField(coeff, name="kinked")


def named_field(name):
    if name in _CONSTANT_FIELDS:
        return operators.constant_field(*_CONSTANT_FIELDS[name], name=name)
    if name == "kinked":
        return kinked_mixture_field()
    raise ConfigError(f"unknown field name {name!r}; "
                      f"use du, dv, du+dv, kinked or \"expr_u,expr_v\"")


def parse_field(text):
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(f"field expression needs exactly two components, "
                              f"got {text!r}")
        return expression_field(parts[0].strip(), parts[1].strip())
    return named_field(text.strip())


def parse_surface(text, backend):
    name, _, params = text.partition(":")
    name = name.strip().lower()
    kind = _SURFACE_ALIASES.get(name, name)
    if kind not in surf.SURFACE_KINDS:
        raise ConfigError(f"unknown surface {name!r}; "
                          f"choose from {sorted([*surf.SURFACE_KINDS, *_SURFACE_ALIASES])}")
    try:
        values = tuple(float(p) for p in params.split(",")) if params else ()
    except ValueError as exc:
        raise ConfigError(f"bad surface parameters {params!r}") from exc
    nparams = len(surf.SURFACE_KINDS[kind].params)
    if values and len(values) != nparams:
        raise ConfigError(f"surface {name!r} takes {nparams} parameter(s), "
                          f"got {len(values)}")
    mode, step = backend
    try:
        return surf.make_surface(kind, values, mode=mode, step=step)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc


def parse_backend(text):
    if text == "analytic":
        return ("analytic", surf.DEFAULT_FD_STEP)
    if text == "fd":
        return ("fd", surf.DEFAULT_FD_STEP)
    if text.startswith("fd:"):
        try:
            step = float(text[3:])
        except ValueError as exc:
            raise ConfigError(f"bad fd step in backend {text!r}") from exc
        if not 0 < step < np.inf:               # NaN fails too
            raise ConfigError("fd step must be positive and finite")
        return ("fd", step)
    raise ConfigError(f"unknown backend {text!r}; use analytic or fd[:H]")


def parse_grid(text):
    try:
        nu, nv = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}; expected NUxNV") from exc
    if nu < 4 or nv < 4:
        raise ConfigError("grid needs at least 4 nodes per axis")
    return nu, nv


def parse_tols(pairs, accepted):
    """NAME=VAL overrides as {name: value}; each name must be in `accepted`."""
    out = {}
    for pair in pairs or ():
        name, _, val = pair.partition("=")
        name = name.strip()
        if not val:
            raise ConfigError(f"bad tolerance override {pair!r}; expected NAME=VAL")
        try:
            out[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
        if not np.isfinite(out[name]):  # JSON has neither; a NaN chi margin passes all
            raise ConfigError(f"tolerance value in {pair!r} must be finite")
        if name not in accepted:
            raise ConfigError(f"unknown tolerance {name!r}; accepted names: "
                              f"{', '.join(accepted) or 'none'}")
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"unserializable {type(obj)}")


def _csv_float(x):
    return "nan" if x is None else f"{x:.17g}"


def render_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, default=_json_default) + "\n"
    rows = ["section,name,u,v,value"]
    for check in report.get("checks", ()):
        for node in check.get("nodes", ()):
            rows.append(f"residual,{check['name']},{node['u']:.17g},"
                        f"{node['v']:.17g},{node['residual']:.17g}")
        rows.append(f"summary,{check['name']},,,{_csv_float(check['sup'])}")
    for key, val in report.get("integrals", {}).items():
        rows.append(f"integral,{key},,,{_csv_float(val['value'])}")
    if "chi" in report:
        rows.append(f"chi,raw,,,{_csv_float(report['chi']['raw'])}")
        rows.append(f"chi,rounded,,,{_csv_float(report['chi']['rounded'])}")
    if "smoothing" in report:
        for key in ("final_degree", "sup_error", "min_tangential_norm"):
            val = report["smoothing"][key]
            rows.append(f"smoothing,{key},,,{'nan' if val is None else val}")
    return "\n".join(rows) + "\n"


class _WriteError(Exception):
    """An --out or --coeff-out target that failed at write time."""


def _check_writable(option, path):
    """Raise ConfigError unless the file `path` given to `option` can be written.

    Its directory must exist and be writable, and the path must not name a
    directory; an existing file must be writable.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(directory):
        reason = f"no such directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {option} {path}: {reason}")


def _write_output(option, path, write):
    """write(path), an OSError becoming one _WriteError line that names `option`."""
    try:
        write(path)
    except OSError as exc:
        raise _WriteError(f"cannot write {option} {path}: "
                          f"{exc.strerror or exc}") from exc


def emit(report, args):
    """The rendered report on stdout, after its --out copy is written."""
    text = render_report(report, args.format)
    if args.out:
        _write_output("--out", args.out, lambda path: Path(path).write_text(text))
    sys.stdout.write(text)


def _config_echo(args, surface, grid_shape, tols):
    return {
        "surface": surface.name,
        "field": args.field,
        "grid": f"{grid_shape[0]}x{grid_shape[1]}",
        "backend": args.backend,
        "tolerances": {k: tols[k] for k in sorted(tols)},
        "format": args.format,
    }


def _check_entry(name, values, U, V, tol, keep_nodes):
    """The report entry of check `name` from its residuals `values` at the
    nodes (U, V), three flat float arrays of one length: sup, mean and worst
    node, the verdict against `tol`, and with `keep_nodes` every node."""
    tol = float(tol)
    if values.size == 0:
        entry = {"name": name, "sup": None, "mean": None, "worst_node": None,
                 "tolerance": tol, "pass": False, "n_points": 0}
    else:
        worst = int(np.argmax(values))
        sup = float(values[worst])
        entry = {"name": name, "sup": sup, "mean": float(values.mean()),
                 "worst_node": {"u": float(U[worst]), "v": float(V[worst])},
                 "tolerance": tol, "pass": sup <= tol, "n_points": values.size}
    if keep_nodes:
        entry["nodes"] = [{"u": float(a), "v": float(b), "residual": float(r)}
                          for a, b, r in zip(U, V, values)]
    return entry


def _product_rule_pair():
    """The canonical scalar product rule of verify: f = cos u + sin v, X = du + dv."""
    f = operators.ScalarField(
        value=lambda uu, vv: np.cos(uu) + np.sin(vv),
        grad=lambda uu, vv: np.stack(
            np.broadcast_arrays(-np.sin(uu), np.cos(vv)), axis=-1),
        name="cos(u)+sin(v)")
    return f, operators.constant_field(1.0, 1.0, name="du+dv")


def _verify_sweep(surface, field, grid, floor):
    """verify's pass over the guarded grid in tiles of at most BATCH_NODES nodes,
    whole rows or chunks of one row: per tile with guarded nodes, one order-2
    metric assembly on its axes and one `bochner._verify_pass` on it at the
    guarded nodes, whose last column is each node's failure code.  Returns
    the guarded nodes' U, V and rows, in grid order."""
    run = functools.partial(bochner._verify_pass, surface, field, *_product_rule_pair())
    tiles = []
    rows, cols = max(1, BATCH_NODES // grid.nv), min(grid.nv, BATCH_NODES)
    for i, j in itertools.product(range(0, grid.nu, rows), range(0, grid.nv, cols)):
        u, v = grid.u_nodes[i:i + rows, None], grid.v_nodes[None, j:j + cols]
        U, V = grid.U[i:i + rows, j:j + cols], grid.V[i:i + rows, j:j + cols]
        mask = surf.guarded_mask(surface, U, V)
        if not mask.any():          # polar rows within the guard band
            continue
        whole = mask.all()          # then the tile's arrays, not a copy
        metric = [x.reshape(x.shape[:-2] + (-1,)) if whole else
                  np.ascontiguousarray(x[..., mask]) for x in surf._assemble(surface, u, v, 2)]
        U, V = U[mask], V[mask]
        tiles.append((U, V, run(U, V, metric, floor)))
    return (np.concatenate(x) for x in zip(*tiles))


def cmd_verify(args, surface, field, grid_shape, tols, report):
    report["checks"] = []
    floor = tols.get("zero_floor", bochner.ZERO_FLOOR)
    if not floor > 0:
        raise ConfigError(f"zero_floor must be positive, got {floor:g}")
    keep_nodes = args.format == "csv"
    base = bochner.default_tolerance(surface)
    grid = surf.chart_grid(surface, *grid_shape)
    U, V, values = _verify_sweep(surface, field, grid, floor)
    codes = values[:, -1]
    zero = (codes == bochner._ZERO_NORM) | (codes == bochner._NON_FINITE_NORM)
    report["zero_field_nodes"] = [
        {"u": float(a), "v": float(b)} for a, b in zip(U[zero][:64], V[zero][:64])]
    report["n_zero_field_nodes"] = int(np.count_nonzero(zero))
    if zero.all():
        n_inf = int(np.count_nonzero(codes == bochner._NON_FINITE_NORM))
        n_low = report["n_zero_field_nodes"] - n_inf
        reason = "field vanishes everywhere"
        if n_inf:
            reason = f"field has a non-finite norm at {n_inf} node(s)" + (
                f" and vanishes at {n_low} node(s)" if n_low else "")
        report["error"] = "no usable grid nodes: " + reason
        return False
    U, V, values = U[~zero], V[~zero], values[~zero]

    pr_tol = (PRODUCT_RULE_TOL if surface.derivative_mode == "analytic" else base)
    passed = report["n_zero_field_nodes"] == 0
    errors = bochner._node_failures(surface, field, floor, values, U, V)
    for k, (name, unit_failed) in enumerate(zip(
            bochner.VERIFY_CHECKS,
            bochner._unit_failures(f"unit({field.name})", values))):
        tol = tols.get(name, pr_tol if name == "product_rule" else base)
        errs = {**errors, **unit_failed}
        ok = np.isfinite(values[:, k])
        ok[list(errs)] = False
        # the named failures in node order, then the other non-finite residuals
        listed = sorted(np.flatnonzero(~ok), key=lambda i: i not in errs)[:64]
        entry = _check_entry(name, values[ok, k], U[ok], V[ok], tol, keep_nodes)
        if listed:
            entry["failed_nodes"] = [{"u": float(U[i]), "v": float(V[i]),
                                      "error": errs.get(i, "non-finite residual")}
                                     for i in listed]
            entry["n_failed"] = int(np.count_nonzero(~ok))
            entry["pass"] = False
        report["checks"].append(entry)
        passed = passed and entry["pass"]
    return passed


def cmd_gauss_bonnet(args, surface, field, grid_shape, tols, report):
    report["integrals"] = {}
    grid = surf.chart_grid(surface, *grid_shape)
    # with a field, K and div(grad_T T - (div T) T) come from one metric
    # assembly per quadrature grid
    try:
        if field is not None:
            unit = bochner.normalize_field(surface, field)
            total, res = integrate.surface_integrals(
                surface,
                lambda u, v, g: bochner.gauss_bonnet_integrands(surface, unit, u, v, g),
                grid)
        else:
            total = integrate.total_curvature(surface, grid)
    except GeometryError as exc:
        # a degenerate metric, a zero, non-finite or non-unit normalized field
        # at some node: no integral exists, and the report says why
        report["error"] = str(exc)
        point = getattr(exc, "point", None) or next(iter(getattr(exc, "points", ())), None)
        if point is not None:
            report["failed_node"] = {"u": point.u, "v": point.v}
        return False
    report["integrals"]["total_curvature"] = {
        "value": _finite_or_none(total.value),
        "estimated_error": _finite_or_none(total.estimated_error),
        "rule": total.rule, "resolution": list(total.resolution)}

    chi = integrate.chi_from_total(total.value,
                                   tols.get("chi_margin", integrate.CHI_MARGIN))
    report["chi"] = {"raw": _finite_or_none(chi.raw), "rounded": chi.rounded,
                     "margin": _finite_or_none(chi.margin),
                     "margin_limit": chi.margin_limit,
                     "indeterminate": chi.indeterminate}
    if chi.rounded is None:
        report["error"] = (f"total curvature is not finite ({total.value}), "
                           f"so chi is indeterminate")
    if surface.known_chi is not None:
        # echoed for reference; the pass verdict rests on determinacy alone
        report["chi"]["declared"] = surface.known_chi
    passed = not chi.indeterminate

    if field is not None:
        div_tol = tols.get("divergence_theorem",
                           1e-8 if surface.derivative_mode == "analytic"
                           else bochner.FD_TOL)
        ok = bool(abs(res.value) <= div_tol)
        report["integrals"]["divergence_theorem_residual"] = {
            "value": _finite_or_none(res.value),
            "estimated_error": _finite_or_none(res.estimated_error),
            "rule": res.rule, "resolution": list(res.resolution),
            "tolerance": div_tol, "pass": ok}
        passed = passed and ok
    return passed


def cmd_smooth(args, surface, field, grid_shape, tols, report):
    report["config_extra"] = {"max_degree": args.max_degree}
    if args.max_degree < 0:
        raise ConfigError("--max-degree must be >= 0")
    try:
        rep, _, poly = approx.smooth_field(surface, field, max_degree=args.max_degree,
                                           fit_grid=grid_shape)
    except BudgetNotMetError as exc:
        report["smoothing"] = _smooth_section(exc.report)
        report["error"] = str(exc)
        return False

    report["smoothing"] = _smooth_section(rep)
    if args.coeff_out:
        _write_output("--coeff-out", args.coeff_out,
                     lambda path: approx.write_coefficient_file(poly, path))
        report["smoothing"]["coefficient_file"] = args.coeff_out
    return rep.passed


def _finite_or_none(x):
    """x, or None (JSON null) where x is NaN or infinite."""
    return x if np.isfinite(x) else None


def _smooth_section(rep):
    return {
        "final_degree": rep.final_degree,
        "sup_error": _finite_or_none(rep.sup_error),
        "min_tangential_norm": rep.min_tangential_norm,
        "target": rep.target,
        "pass": rep.passed,
        "degrees_tried": list(rep.degrees_tried),
        "sup_errors": [_finite_or_none(e) for e in rep.sup_errors],
    }


@functools.lru_cache(maxsize=None)
def build_parser():
    """The one argument parser, built at first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="bochner2d",
        description="Certify curvature identities, Euler characteristics and "
                    "field smoothing on built-in embedded surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field_required):
        p.add_argument("--surface", required=True,
                       help="NAME[:p1,p2,...], e.g. torus:2,1 or sphere:1")
        p.add_argument("--field", required=field_required,
                       help="named field (du, dv, du+dv, kinked) or \"expr_u,expr_v\"")
        p.add_argument("--grid", default="64x64", help="NUxNV grid resolution")
        p.add_argument("--backend", default="analytic",
                       help="analytic | fd | fd:H (stencil step H)")
        p.add_argument("--tol", action="append", metavar="NAME=VAL",
                       help="per-check tolerance override; repeatable")
        p.add_argument("--out", default=None, help="also write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run the identity-residual suite")
    common(p_verify, field_required=True)

    p_gb = sub.add_parser("gauss-bonnet",
                          help="total curvature and Euler characteristic")
    common(p_gb, field_required=False)

    p_smooth = sub.add_parser("smooth", help="polynomial smoothing pipeline")
    common(p_smooth, field_required=True)
    p_smooth.add_argument("--max-degree", type=int, default=16)
    p_smooth.add_argument("--coeff-out", default=None,
                          help="write fitted polynomial coefficients here")

    return parser


@functools.lru_cache(maxsize=None)
def _retain_freed_memory():
    """Keep the heap a command frees for the next one, once per process.

    glibc's dynamic thresholds let free() hand the heap's top back to the
    kernel after a tile or a command, and the next one faults the same pages
    back in.  Pinning the mmap threshold at the ceiling of glibc's own
    dynamic rule, and the trim threshold at twice it, keeps that memory:
    arrays above MMAP_THRESHOLD are still mapped and unmapped one by one,
    and free space above TRIM_THRESHOLD at the heap's top is still trimmed.
    Returns whether both were set; False, changing nothing, where the C
    library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def _minor_faults():
    """The process's minor page faults so far, or None without `resource`."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None):
    """Run one command; returns its exit status.

    The shared options are parsed here, in one order for every command, and
    the report's header, verdict and timings are written here too; a handler
    adds only its own keys and returns whether everything it checked passed.
    An --out or --coeff-out target is checked before the command runs.

    The argument parser (`build_parser`), the Gauss-Legendre rule of each
    node count (`surfaces.chart_grid`) and the allocator policy
    (`_retain_freed_memory`) are set up at their first use and serve every
    later command of the process, so in-process callers pay for them once;
    nothing that depends on a command's inputs is cached.  Under that
    policy the process keeps the heap its largest command freed: up to
    TRIM_THRESHOLD free at the heap's top.  Where `resource` exists,
    "timings" counts the handler's minor page faults.
    """
    _retain_freed_memory()
    args = build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "gauss-bonnet": cmd_gauss_bonnet,
                "smooth": cmd_smooth}
    try:
        for option, path in (("--out", args.out),
                             ("--coeff-out", getattr(args, "coeff_out", None))):
            if path:
                _check_writable(option, path)
        surface = parse_surface(args.surface, parse_backend(args.backend))
        field = None if args.field is None else parse_field(args.field)
        grid_shape = parse_grid(args.grid)
        tols = parse_tols(args.tol, TOLERANCE_NAMES[args.command])
        report = {"schema": SCHEMA_VERSION, "command": args.command,
                  "config": _config_echo(args, surface, grid_shape, tols)}
        faults = _minor_faults()
        t_start = time.perf_counter()
        passed = handlers[args.command](args, surface, field, grid_shape, tols, report)
        report["overall_pass"] = bool(passed)
        report["timings"] = {"total_s": time.perf_counter() - t_start}
        if faults is not None:
            report["timings"]["counts"] = {"minor_faults": _minor_faults() - faults}
        emit(report, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ZeroFieldPointError as exc:
        sys.stderr.write(f"zero-field-point: {exc}\n")
        return 1
    except GeometryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _WriteError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
