"""Properties of the command line over random fields from its grammar.

(a) exit status 0 means every check is finite, within its tolerance and free
    of failed nodes, and each `verify` check's sup is, bit for bit, the max
    of the matching public residual function on the same nodes; (b) `main`
    returns 0, 1 or 2 and never raises; (c) two identical runs give identical
    reports apart from `timings`.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import bochner, cli, operators
from bochner2d import surfaces as surf

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


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            _quiet():
        status = cli.main(list(argv))
    text = out.getvalue()
    report = json.loads(text) if text else None
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
    usable = (surf.guarded_mask(surface, grid.U, grid.V)
              & (operators.field_norm(surface, field, grid.U, grid.V)
                 >= bochner.ZERO_FLOOR))
    U, V = grid.U[usable], grid.V[usable]
    unit = bochner.normalize_field(surface, field)
    f, xsum = cli._product_rule_pair()
    with _quiet():
        return {
            "bochner": bochner.bochner_residual(surface, unit, U, V),
            "trace_identity": bochner.trace_identity_residual(surface, unit, U, V),
            "divergence_product_rule":
                bochner.divergence_scaling_residual(surface, unit, U, V),
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
    if status == 0:
        _assert_pass_is_sound(report)
        if argv[0] == "verify":
            public = _public_residuals(argv)
            for check in report["checks"]:
                assert check["sup"] == float(np.max(public[check["name"]])), check
    again = _run(argv)
    assert again[0] == status
    assert json.dumps(again[1]) == json.dumps(report)
