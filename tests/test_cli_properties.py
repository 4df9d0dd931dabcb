"""Properties of the command line over random fields from its grammar.

(a) exit status 0 means every check is finite, within its tolerance and free
    of failed nodes, and each `verify` check's sup is, bit for bit, the max
    of the matching public residual function on the same nodes; (b) `main`
    returns 0, 1 or 2 and never raises; (c) two identical runs give identical
    reports apart from `timings`; (d) a report is strict JSON (no NaN or
    Infinity) and the exit status is 0 exactly when its `overall_pass` is true;
    (e) Gauss-Bonnet does not depend on scale: with a surface's parameters
    scaled by 10^e, -30 <= e <= 30, `gauss-bonnet` passes and rounds chi to
    the declared value, and at any scale it ends in an exit status, never a
    traceback, and a passing run rounds chi to the declared value; (f) nor
    does the zero floor: at those scales the nowhere-zero field du has no
    zero node in `verify`, and `gauss-bonnet --field du` rounds chi to the
    declared value, passing on the tori; on the sphere and the ellipsoid
    only its divergence-theorem residual fails, as it must: every field
    there has a zero, at the poles that the chart leaves out, and the
    integral of div Y is 2 pi chi = 4 pi; (g) an expression field's jets of
    orders 0, 1 and 2 agree bit for bit where they overlap, and its order-0
    value is its `coeff`.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bochner2d import bochner, cli, operators
from bochner2d import surfaces as surf
from bochner2d.errors import ConfigError

SURFACES = ("torus:2,1", "sphere:1", "clifford:1", "ellipsoid:1,1.3,0.7")

constants = st.one_of(st.integers(0, 4).map(str),
                      st.floats(0.1, 3.0).map(lambda c: f"{c:.2f}"))
leaves = st.one_of(st.sampled_from(("u", "v")), constants)


def _extend(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})")
    call = st.tuples(st.sampled_from(("sin", "cos")), children).map(
        lambda t: f"{t[0]}({t[1]})")
    return st.one_of(binary, call, children.map(lambda e: f"(-{e})"))


expressions = st.recursive(leaves, _extend, max_leaves=5)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(("verify", "gauss-bonnet", "smooth")))
    field = f"{draw(expressions)},{draw(expressions)}"
    grid = f"{draw(st.integers(4, 10))}x{draw(st.integers(4, 10))}"
    argv = [command, "--surface", draw(st.sampled_from(SURFACES)),
            "--field", field, "--grid", grid,
            "--backend", draw(st.sampled_from(("analytic", "fd")))]
    if command == "smooth":
        argv += ["--max-degree", "4"]
    return argv


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        yield


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            _quiet():
        status = cli.main(list(argv))
    text = out.getvalue()
    report = json.loads(text, parse_constant=_reject_constant) if text else None
    if report is not None:
        report.pop("timings")
    return status, report


def _finite_within(value, tolerance):
    return value is not None and math.isfinite(value) and abs(value) <= tolerance


def _public_residuals(argv):
    """Each verify check's public residual function on the nodes verify uses."""
    args = cli.build_parser().parse_args(argv)
    surface = cli.parse_surface(args.surface, cli.parse_backend(args.backend))
    field = cli.parse_field(args.field)
    grid = surf.chart_grid(surface, *cli.parse_grid(args.grid))
    # a passing run has no zero-field or failed node: verify uses every guarded one
    usable = surf.guarded_mask(surface, grid.U, grid.V)
    U, V = grid.U[usable], grid.V[usable]
    unit = bochner.normalize_field(surface, field)
    f, xsum = cli._product_rule_pair()
    with _quiet():
        return {
            "bochner": bochner.bochner_residual(surface, unit, U, V),
            "trace_identity": bochner.trace_identity_residual(surface, unit, U, V),
            "divergence_product_rule":
                bochner.chained_residuals(surface, unit, U, V)["product"],
            "curvature_identity":
                bochner.curvature_identity_residual(surface, unit, U, V),
            "product_rule": operators.product_rule_residual_at(surface, f, xsum, U, V),
        }


def _assert_pass_is_sound(report):
    assert report["overall_pass"] is True
    if report["command"] == "verify":
        assert report["n_zero_field_nodes"] == 0
        for check in report["checks"]:
            assert _finite_within(check["sup"], check["tolerance"]), check
            assert "n_failed" not in check and check["pass"]
    elif report["command"] == "gauss-bonnet":
        assert not report["chi"]["indeterminate"]
        res = report["integrals"].get("divergence_theorem_residual")
        if res is not None:
            assert _finite_within(res["value"], res["tolerance"]), res
    else:
        sm = report["smoothing"]
        assert _finite_within(sm["sup_error"], sm["target"]), sm


@settings(max_examples=200)
@given(commands())
def test_cli_exit_status_is_sound_and_reports_are_deterministic(argv):
    status, report = _run(argv)
    assert status in (0, 1, 2)
    if report is not None:
        assert (status == 0) == report["overall_pass"]
    if status == 0:
        _assert_pass_is_sound(report)
        if argv[0] == "verify":
            public = _public_residuals(argv)
            for check in report["checks"]:
                assert check["sup"] == float(np.max(public[check["name"]])), check
    again = _run(argv)
    assert again[0] == status
    assert json.dumps(again[1]) == json.dumps(report)


# each family at a scale where its chi is certified
FAMILIES = {"sphere": (1.0,), "torus": (2.0, 1.0), "clifford": (1.0,),
            "ellipsoid": (1.0, 1.3, 0.7)}


def _gauss_bonnet_at_scale(family, exponent):
    scale = 10.0 ** exponent
    params = ",".join(repr(p * scale) for p in FAMILIES[family])
    return params, *_run(["gauss-bonnet", "--surface", f"{family}:{params}",
                          "--grid", "32x64"])


@settings(max_examples=40)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(-30.0, 30.0))
@example("sphere", -30.0)
@example("torus", 30.0)
def test_gauss_bonnet_is_scale_free(family, exponent):
    params, status, report = _gauss_bonnet_at_scale(family, exponent)
    assert status == 0, (params, report)
    assert report["chi"]["rounded"] == report["chi"]["declared"], params


@settings(max_examples=60)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(-300.0, 300.0))
# det g overflowed K's (det g)^2 to inf here: chi 0 passed, or chi was NaN
@example("sphere", 40.0)
@example("ellipsoid", 50.0)
@example("sphere", 60.0)
@example("clifford", 80.0)
# (det g)^2 underflowed to 0 here: K and the total were inf
@example("sphere", -40.0)
def test_gauss_bonnet_at_any_scale_ends_in_a_status(family, exponent):
    params, status, report = _gauss_bonnet_at_scale(family, exponent)
    assert status in (0, 1, 2)
    if status == 0:
        assert report["chi"]["rounded"] == report["chi"]["declared"], params


@settings(max_examples=40)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(-30.0, 30.0))
@example("torus", -10.0)
@example("sphere", -30.0)
@example("clifford", 30.0)
def test_zero_floor_is_scale_free(family, exponent):
    scale = 10.0 ** exponent
    surface = f"{family}:" + ",".join(repr(p * scale) for p in FAMILIES[family])
    status, report = _run(["gauss-bonnet", "--surface", surface, "--field", "du",
                           "--grid", "32x64"])
    assert "error" not in report, (surface, report)
    assert report["chi"]["rounded"] == report["chi"]["declared"], surface
    if report["chi"]["declared"] == 0:
        assert status == 0, (surface, report)
    else:
        residual = report["integrals"]["divergence_theorem_residual"]
        assert abs(residual["value"] - 4 * math.pi) < 1e-3, (surface, residual)
    status, report = _run(["verify", "--surface", surface, "--field", "du",
                           "--grid", "16x16"])
    assert report["n_zero_field_nodes"] == 0 and "error" not in report, surface


@settings(max_examples=60, deadline=None)
@given(expressions, expressions,
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                min_size=1, max_size=6))
def test_expression_jets_are_prefixes_of_each_other(expr_u, expr_v, nodes):
    try:
        field = cli.expression_field(expr_u, expr_v)
    except ConfigError:
        assume(False)
    surface = surf.torus(2.0, 1.0)
    u, v = (np.array(x) for x in zip(*nodes))
    with _quiet():
        jets = [field.jet(surface, u, v, order, None) for order in range(3)]
        coeff = field.coeff(u, v)
    parts = [[x.tobytes() for x in (j.v, j.d, j.dd)[:order + 1]]
             for order, j in enumerate(jets)]
    assert parts[0] == parts[1][:1] == parts[2][:1]
    assert parts[1] == parts[2][:2]
    assert np.ascontiguousarray(np.moveaxis(coeff, -1, 0)).tobytes() == parts[0][0]
