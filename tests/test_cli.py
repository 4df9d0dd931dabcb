import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bochner2d import _jets, approx, bochner, cli, integrate
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import ConfigError, DegenerateMetricError, ZeroFieldPointError

from conftest import non_finite_parameters


# inputs whose metric is degenerate at some or all nodes of a grid: det g
# below DET_MIN everywhere, below it near the poles, above DET_MAX, and NaN
# where g overflows, which overflows the field's norm too
DEGENERATE_INPUTS = [
    ("--surface", "sphere:1e-40", "--field", "1e40,0"),
    ("--surface", "sphere:1e-38", "--field", "0,1e38"),
    ("--surface", "sphere:1e40", "--field", "du"),
    ("--surface", "torus:1e200,1e199", "--field", "du"),
]


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


class TestVerify:
    def test_torus_du_passes(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "32x32",
                               "--backend", "analytic")
        assert status == 0
        assert rep["schema"] == 1
        assert rep["overall_pass"] is True
        names = {c["name"] for c in rep["checks"]}
        assert names == {"bochner", "trace_identity", "divergence_product_rule",
                         "curvature_identity", "product_rule"}
        for c in rep["checks"]:
            assert c["pass"] and c["sup"] <= c["tolerance"]

    def test_clifford_residuals_vanish(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "clifford",
                               "--field", "du", "--grid", "16x16")
        assert status == 0
        for c in rep["checks"]:
            assert c["sup"] < 1e-12

    def test_fd_backend(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "16x16",
                               "--backend", "fd:1e-3")
        assert status == 0
        for c in rep["checks"]:
            assert c["tolerance"] == pytest.approx(1e-3) or c["name"] == "product_rule"

    def test_expression_field(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "cos(v)+2,sin(u)", "--grid", "16x16")
        assert status == 0
        assert rep["overall_pass"] is True

    def test_zero_field_diagnostics(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "sin(u),0", "--grid", "16x16")
        assert status == 1
        assert rep["n_zero_field_nodes"] > 0
        assert rep["zero_field_nodes"]
        assert rep["overall_pass"] is False

    def test_vanishing_field_leaves_no_usable_node(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "0,0", "--grid", "8x8")
        assert status == 1
        assert rep["error"] == "no usable grid nodes: field vanishes everywhere"

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    def test_nan_field_nodes_fail_the_run(self, capsys):
        # u/u is NaN on the u = 0 column; those nodes must not count as passes
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "u/u,0", "--grid", "32x32")
        assert status == 1
        assert rep["overall_pass"] is False
        assert rep["n_zero_field_nodes"] == 32
        for c in rep["checks"]:
            assert c["n_points"] == 32 * 32 - 32

    @pytest.mark.parametrize("n_bad", [3, 16 * 16])
    def test_non_finite_residual_is_a_named_failure(self, capsys, monkeypatch,
                                                    n_bad):
        original = cli.bochner._verify_pass
        column = cli.bochner.VERIFY_CHECKS.index("bochner")

        def poisoned(*args):
            out = np.array(original(*args), dtype=float)
            out[:n_bad, column] = np.nan
            return out

        monkeypatch.setattr(cli.bochner, "_verify_pass", poisoned)
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "16x16")
        assert status == 1
        assert rep["overall_pass"] is False
        check = next(c for c in rep["checks"] if c["name"] == "bochner")
        assert check["pass"] is False
        assert check["n_failed"] == n_bad
        assert check["n_points"] == 16 * 16 - n_bad
        assert (check["sup"] is None) == (n_bad == 16 * 16)
        assert {f["error"] for f in check["failed_nodes"]} == {"non-finite residual"}

    def test_tolerance_override_forces_failure(self, capsys):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "16x16",
                               "--tol", "bochner=1e-30")
        assert status == 1
        bochner = next(c for c in rep["checks"] if c["name"] == "bochner")
        assert bochner["tolerance"] == pytest.approx(1e-30)
        assert not bochner["pass"]

    def test_determinism_excluding_timings(self, capsys):
        argv = ("verify", "--surface", "torus:2,1", "--field", "du",
                "--grid", "16x16")
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timings")
        r2.pop("timings")
        assert json.dumps(r1) == json.dumps(r2)
        assert out1 != out2 or r1 == r2  # timings differ, payload agrees

    def test_csv_export(self, capsys):
        status, out = run_cli(capsys, "verify", "--surface", "torus:2,1",
                              "--field", "du", "--grid", "8x8",
                              "--format", "csv")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,name,u,v,value"
        assert any(line.startswith("residual,bochner,") for line in lines)
        assert any(line.startswith("summary,curvature_identity,") for line in lines)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        status, out = run_cli(capsys, "verify", "--surface", "torus:2,1",
                              "--field", "du", "--grid", "8x8",
                              "--out", str(path))
        assert status == 0
        assert path.read_text() == out


class TestUnwritableOutput:
    """An --out or --coeff-out that cannot be written is named, never a traceback."""

    COMMANDS = {
        "verify": ("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8"),
        "gauss-bonnet": ("gauss-bonnet", "--surface", "sphere:1", "--grid", "8x8"),
        "smooth": ("smooth", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8",
                   "--max-degree", "4"),
    }
    CASES = [(command, "--out") for command in COMMANDS] + [("smooth", "--coeff-out")]

    @pytest.mark.parametrize("command,option", CASES)
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_rejected_before_the_command_runs(self, capsys, monkeypatch, tmp_path,
                                              command, option, target):
        path = tmp_path / "missing" / "x.txt" if target == "missing-dir" else tmp_path
        reason = (f"no such directory {tmp_path / 'missing'}" if target == "missing-dir"
                  else "is a directory")
        monkeypatch.setattr(cli, "parse_surface", _not_reached)
        status = cli.main([*self.COMMANDS[command], option, str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"config error: cannot write {option} {path}: {reason}\n"

    @pytest.mark.parametrize("command,option", CASES)
    def test_write_failure_is_one_line(self, capsys, monkeypatch, tmp_path,
                                       command, option):
        # a target that passes the check but fails at write time
        monkeypatch.setattr(cli, "_check_writable", lambda option, path: None)
        path = tmp_path / "missing" / "x.txt"
        status = cli.main([*self.COMMANDS[command], option, str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {option} {path}: "
                                f"No such file or directory\n")

    @pytest.mark.parametrize("command", ["verify", "gauss-bonnet"])
    def test_coeff_out_is_smooth_only(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.COMMANDS[command], "--coeff-out", str(tmp_path / "p.txt")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --coeff-out" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()


def _not_reached(*args):
    raise AssertionError("the command ran")


class TestGaussBonnet:
    def test_sphere_chi_two(self, capsys):
        status, rep = run_json(capsys, "gauss-bonnet", "--surface", "sphere:1",
                               "--grid", "32x64")
        assert status == 0
        assert rep["chi"]["rounded"] == 2
        assert rep["chi"]["margin"] < 0.01

    def test_torus_chi_zero_with_field(self, capsys):
        status, rep = run_json(capsys, "gauss-bonnet", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "64x64")
        assert status == 0
        assert rep["chi"]["rounded"] == 0
        res = rep["integrals"]["divergence_theorem_residual"]
        assert abs(res["value"]) < 1e-8 and res["pass"]

    def test_coarse_grid_is_indeterminate(self, capsys):
        status, rep = run_json(capsys, "gauss-bonnet", "--surface",
                               "ellipsoid:1,1.3,0.7", "--grid", "8x8")
        assert status == 1
        assert rep["chi"]["indeterminate"] is True
        assert "raw" in rep["chi"]

    def test_sphere_with_field_shows_obstruction(self, capsys):
        status, rep = run_json(capsys, "gauss-bonnet", "--surface", "sphere:1",
                               "--field", "dv", "--grid", "32x64")
        assert status == 1
        res = rep["integrals"]["divergence_theorem_residual"]
        assert abs(res["value"] - 4 * np.pi) < 1e-6

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_residual_is_null(self, capsys, monkeypatch, fmt):
        # a unit field whose partials overflow is named before any integral
        # (TestOverflowingPartials), so a NaN divergence is put in its place
        integrands = bochner.gauss_bonnet_integrands
        monkeypatch.setattr(bochner, "gauss_bonnet_integrands", lambda s, T, u, v, g: (
            integrands(s, T, u, v, g)[0], np.full(np.shape(u), np.nan)))
        status, out = run_cli(capsys, "gauss-bonnet", "--surface", "torus:2,1",
                              "--field", "du", "--grid", "16x16", "--format", fmt)
        assert status == 1
        if fmt == "csv":
            assert "integral,divergence_theorem_residual,,,nan\n" in out
            return
        res = _strict_json(out)["integrals"]["divergence_theorem_residual"]
        assert res["value"] is None and res["estimated_error"] is None
        assert res["pass"] is False

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_total_is_a_named_indeterminate_chi(self, capsys, monkeypatch,
                                                          fmt):
        total = integrate.IntegralResult(value=np.inf, resolution=(16, 16),
                                         rule="gauss-legendre-mixed",
                                         estimated_error=np.nan)
        monkeypatch.setattr(integrate, "total_curvature", lambda surface, grid: total)
        status, out = run_cli(capsys, "gauss-bonnet", "--surface", "sphere:1",
                              "--grid", "16x16", "--format", fmt)
        assert status == 1
        if fmt == "csv":
            assert "integral,total_curvature,,,nan\nchi,raw,,,nan\nchi,rounded,,,nan\n" in out
            return
        rep = _strict_json(out)
        assert rep["error"] == "total curvature is not finite (inf), so chi is indeterminate"
        assert rep["integrals"]["total_curvature"]["value"] is None
        assert rep["chi"]["raw"] is None and rep["chi"]["rounded"] is None
        assert rep["chi"]["indeterminate"] is True and rep["overall_pass"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,reason,has_node", [
        # g(X, X) overflows to inf off the u = 0 grid line
        (("--surface", "torus:2,1", "--field", "1e200*sin(u)+1,0"), "non-finite norm",
         True),
        # det g = r^4 sin^2 u of a tiny sphere falls to DET_MIN at its
        # Gauss-Legendre nodes near the poles, or at every node
        (("--surface", "sphere:1e-38", "--field", "0,1e38"), "metric degenerate", True),
        (("--surface", "sphere:1e-40"), "metric degenerate", True),
        # det g of a huge sphere would overflow the (det g)^2 of K to inf
        (("--surface", "sphere:1e40"), "metric degenerate", True),
        (("--surface", "torus:2e40,1e40", "--field", "du"), "metric degenerate", True),
    ])
    def test_failure_is_reported(self, capsys, argv, reason, has_node):
        status, rep = run_json(capsys, "gauss-bonnet", *argv, "--grid", "16x16")
        assert status == 1
        assert rep["overall_pass"] is False
        assert reason in rep["error"]
        assert rep["integrals"] == {}
        assert ("failed_node" in rep) == has_node
        if has_node:
            node = rep["failed_node"]
            assert f"({node['u']:.6g}, {node['v']:.6g})" in rep["error"]


class TestSmooth:
    def test_kinked_field_passes(self, capsys, tmp_path):
        coeffs = tmp_path / "poly.txt"
        status, rep = run_json(capsys, "smooth", "--surface", "torus:2,1",
                               "--field", "kinked", "--grid", "32x32",
                               "--max-degree", "16",
                               "--coeff-out", str(coeffs))
        assert status == 0
        sm = rep["smoothing"]
        assert sm["pass"] and sm["sup_error"] < 0.5
        assert sm["min_tangential_norm"] > 0.5
        assert len(sm["sup_errors"]) == len(sm["degrees_tried"])
        assert sm["sup_errors"][-1] == sm["sup_error"]
        assert coeffs.exists()

    def test_smooth_input_field(self, capsys):
        status, rep = run_json(capsys, "smooth", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "32x32",
                               "--max-degree", "16")
        assert status == 0
        assert rep["smoothing"]["min_tangential_norm"] > 0.5

    @pytest.mark.parametrize("field", ["du", "cos(4*u+v+1.3),sin(4*u+v+1.3)"])
    def test_smoothing_does_not_depend_on_scale(self, capsys, field):
        # the zero floor is relative to the chart's scale, so a torus of
        # radii 2e-10 and 1e-10 smooths as the one of radii 2 and 1 does
        reports = [run_json(capsys, "smooth", "--surface", surface, "--field", field,
                            "--grid", "32x32") for surface in ("torus:2,1",
                                                               "torus:2e-10,1e-10")]
        (status, rep), (tiny_status, tiny) = reports
        assert status == tiny_status == 0 and "error" not in tiny
        assert tiny["smoothing"]["degrees_tried"] == rep["smoothing"]["degrees_tried"]
        np.testing.assert_allclose(tiny["smoothing"]["sup_errors"],
                                   rep["smoothing"]["sup_errors"], rtol=1e-6)

    def test_budget_not_met(self, capsys):
        status, rep = run_json(capsys, "smooth", "--surface", "torus:2,1",
                               "--field", "kinked", "--grid", "16x16",
                               "--max-degree", "0")
        assert status == 1
        assert rep["smoothing"]["pass"] is False
        assert "error" in rep

    def test_budget_not_met_keeps_history(self, capsys):
        status, rep = run_json(capsys, "smooth", "--surface", "torus:2,1",
                               "--field", "cos(4*u+v),sin(4*u+v)",
                               "--grid", "32x32", "--max-degree", "4")
        assert status == 1
        sm = rep["smoothing"]
        assert sm["degrees_tried"] == [2, 4]
        assert len(sm["sup_errors"]) == 2
        assert sm["sup_error"] == min(sm["sup_errors"]) >= 0.5

    @pytest.mark.parametrize("field,grid,nodes", [("u/u,1", "16x16", 16),
                                                  ("1/sin(u),1", "8x8", 8)],
                             ids=["zero-over-zero", "one-over-zero"])
    def test_non_finite_field_is_a_zero_field_point(self, capsys, field, grid, nodes):
        # 0/0 and 1/0 on the grid line u = 0: named once, with no warning
        status = cli.main(["smooth", "--surface", "torus:2,1", "--field", field,
                           "--grid", grid])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == (f"zero-field-point: field 'expr({field})' has a "
                                f"non-finite ambient norm at {nodes} grid node(s)\n")

    def test_csv_renders_a_null_sup_error_as_nan(self, capsys):
        status, out = run_cli(capsys, "smooth", "--surface", "torus:2,1", "--field",
                              "kinked", "--grid", "8x8", "--max-degree", "0",
                              "--format", "csv")
        assert status == 1
        assert out.splitlines()[1:] == ["smoothing,final_degree,,,-1",
                                        "smoothing,sup_error,,,nan",
                                        "smoothing,min_tangential_norm,,,0.0"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_a_zero_field_point(self, capsys):
        # a finite, nowhere-zero field whose ambient norm overflows to inf:
        # no node may be normalized to the zero vector and certified unit
        status = cli.main(["smooth", "--surface", "torus:2,1", "--field", "1e200,1e200",
                           "--grid", "16x16"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == ("zero-field-point: field 'expr(1e200,1e200)' has a "
                                "non-finite ambient norm at 256 grid node(s)\n")


class TestVerifyFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,reason", [
        # g(X, X) overflows off the u = 0 grid line, so only its nodes are
        # usable, and there the unit field's second partials overflow
        (("--surface", "torus:2,1", "--field", "1e200*sin(u)+1,0"),
         "non-finite unit-field partials"),
        # the field is scaled to unit norm, so no node falls below zero_floor
        (("--surface", "sphere:1e-38", "--field", "0,1e38"), "metric degenerate"),
        (("--surface", "sphere:1e40", "--field", "du"), "metric degenerate"),
    ])
    def test_failure_is_reported(self, capsys, argv, reason):
        status, rep = run_json(capsys, "verify", *argv, "--grid", "16x16")
        assert status == 1
        assert rep["overall_pass"] is False
        failed = [c for c in rep["checks"] if not c["pass"]]
        assert failed and all(c["n_failed"] > 0 for c in failed)
        errors = {node["error"] for c in failed for node in c["failed_nodes"]}
        assert any(reason in error for error in errors), errors


class TestOverflowingNorm:
    """A finite field whose g(X, X) overflows to inf at every node."""

    ARGV = ("--surface", "torus:2,1", "--field", "1e200,1e200", "--grid", "16x16")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_names_it(self, capsys):
        status, out = run_cli(capsys, "verify", *self.ARGV)
        rep = _strict_json(out)
        assert status == 1
        assert rep["overall_pass"] is False
        assert rep["error"] == ("no usable grid nodes: field has a non-finite "
                                "norm at 256 node(s)")
        assert rep["n_zero_field_nodes"] == 256
        assert rep["checks"] == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gauss_bonnet_names_it(self, capsys):
        status, out = run_cli(capsys, "gauss-bonnet", *self.ARGV)
        rep = _strict_json(out)
        assert status == 1
        assert rep["overall_pass"] is False
        assert rep["error"] == ("field 'expr(1e200,1e200)' has a non-finite norm "
                                "at 256 point(s), first at (u, v) = (0, 0)")
        assert rep["failed_node"] == {"u": 0.0, "v": 0.0}
        assert rep["integrals"] == {}


class TestOverflowingMetric:
    """A metric that overflows at every node: its nodes are named degenerate,
    not zero-field, without a warning from the assembly."""

    ARGV = ("--surface", "torus:1e200,1e199", "--field", "du", "--grid", "8x8")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    def test_verify_names_it(self, capsys, backend):
        status, out = run_cli(capsys, "verify", *self.ARGV, "--backend", backend)
        rep = _strict_json(out)
        assert status == 1
        assert "error" not in rep and rep["n_zero_field_nodes"] == 0
        for check in rep["checks"]:
            assert check["n_points"] == 0 and check["n_failed"] == 64
            assert check["failed_nodes"][0] == {
                "u": 0.0, "v": 0.0, "error": "metric degenerate on "
                "torus(1e+200,1e+199): det g = nan at (u, v) = (0, 0)"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    def test_gauss_bonnet_names_it(self, capsys, backend):
        status, out = run_cli(capsys, "gauss-bonnet", *self.ARGV, "--backend", backend)
        rep = _strict_json(out)
        assert status == 1
        assert rep["error"] == ("metric degenerate on torus(1e+200,1e+199): "
                                "det g = nan at (u, v) = (0, 0)")
        assert rep["failed_node"] == {"u": 0.0, "v": 0.0}


class TestOverflowingPartials:
    """Finite fields with finite norms whose unit field's partials overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_names_them(self, capsys):
        # g(X, X) overflows off the u = 0 grid line; on it, d_u X = 1e200
        # squares to inf in the second partials of g(X, X)
        status, out = run_cli(capsys, "verify", "--surface", "torus:2,1",
                              "--field", "1e200*sin(u)+1,0", "--grid", "16x16")
        rep = _strict_json(out)
        assert status == 1
        assert rep["n_zero_field_nodes"] == 240
        message = ("field 'expr(1e200*sin(u)+1,0)' has non-finite unit-field "
                   "partials at 1 point(s), first at (u, v) = (0, {:.6g})")
        for check in rep["checks"]:
            assert check["pass"] is False and check["n_points"] == 0
            assert check["n_failed"] == 16
            assert [(n["u"], n["error"]) for n in check["failed_nodes"]] == [
                (0.0, message.format(n["v"])) for n in check["failed_nodes"]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gauss_bonnet_names_them(self, capsys):
        # d_uu X = -1e600 sin(1e300 u) overflows at every node
        status, out = run_cli(capsys, "gauss-bonnet", "--surface", "torus:2,1",
                              "--field", "sin(1e300*u),2", "--grid", "16x16")
        rep = _strict_json(out)
        assert status == 1
        assert rep["error"] == ("field 'expr(sin(1e300*u),2)' has non-finite "
                                "unit-field partials at 256 point(s), first at "
                                "(u, v) = (0, 0)")
        assert rep["failed_node"] == {"u": 0.0, "v": 0.0}
        assert rep["integrals"] == {}


class TestOnePassPerTile:
    """verify makes one pass per tile over its guarded nodes, however many of
    them fail, and decides each node's failure code once, in that pass."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field,grid,passes,n_failed", [
        # the norm is finite on the u = 0 row alone, which lies in the first
        # tile, and the unit field's partials overflow on all of it
        ("1e200*sin(u)+1,0", "16x16", 1, 16),
        ("1e200*sin(u)+1,0", "64x64", 1, 64),
        ("1e200*sin(u)+1,0", "256x256", 16, 256),
        # d_uu X overflows at every node, in each of the 16 tiles
        ("sin(1e300*u),2", "256x256", 16, 256 * 256),
    ])
    def test_failing_nodes_cost_no_extra_pass(self, capsys, monkeypatch, field, grid,
                                              passes, n_failed):
        original, calls = cli.bochner._verify_pass, []

        def counted(*args):
            calls.append(np.stack([args[4], args[5]], axis=-1))
            return original(*args)

        monkeypatch.setattr(cli.bochner, "_verify_pass", counted)
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", field, "--grid", grid)
        assert status == 1
        assert len(calls) == passes
        # every node of the torus is guarded, and each is in exactly one pass
        nodes = np.concatenate(calls)
        nu, nv = (int(n) for n in grid.split("x"))
        assert len(nodes) == len(np.unique(nodes, axis=0)) == nu * nv
        for check in rep["checks"]:
            assert check["n_failed"] == n_failed
            assert "unit-field partials" in check["failed_nodes"][0]["error"]

    @pytest.mark.parametrize("field,grid,tiles", [
        ("du", "16x16", 1), ("sin(u),0", "128x64", 2), ("du", "4x5000", 8)])
    def test_failure_codes_run_once_per_tile(self, capsys, monkeypatch, field, grid,
                                             tiles):
        original, calls = cli.bochner._failure_codes, []

        def counted(*args, **kwargs):
            calls.append(np.size(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.bochner, "_failure_codes", counted)
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", field, "--grid", grid)
        assert status in (0, 1) and "checks" in rep
        nu, nv = (int(n) for n in grid.split("x"))
        assert len(calls) == tiles and sum(calls) == nu * nv


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "--surface", "mobius", "--field", "du"),
        ("verify", "--surface", "torus:2,1", "--field", "nosuch"),
        ("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "9"),
        ("verify", "--surface", "torus:2,1", "--field", "du", "--backend", "magic"),
        ("verify", "--surface", "torus:1,2", "--field", "du"),
        ("verify", "--surface", "torus:2,1", "--field", "du", "--tol", "oops"),
        ("verify", "--surface", "torus:2,1", "--field", "__import__('os'),0"),
        ("verify", "--surface", "torus:2,1", "--field", "u**2,0"),
        # a wrong parameter count for each surface kind and the clifford alias
        ("verify", "--surface", "sphere:1,2", "--field", "du"),
        ("verify", "--surface", "torus:2", "--field", "du"),
        ("verify", "--surface", "clifford:1,2", "--field", "du"),
        ("verify", "--surface", "clifford_torus:1,2", "--field", "du"),
        ("verify", "--surface", "ellipsoid:1,2", "--field", "du"),
        # nested too deeply for the compiler, and at 20000 terms for the parser
        ("verify", "--surface", "torus:2,1", "--field", "u+" * 1000 + "3,0"),
        ("verify", "--surface", "torus:2,1", "--field", "u+" * 20000 + "3,0"),
    ])
    def test_rejected_before_compute(self, capsys, argv):
        assert cli.main(list(argv)) == 2

    @pytest.mark.parametrize("command,name,accepted", [
        ("verify", "bochnr", "bochner, trace_identity, divergence_product_rule, "
                             "curvature_identity, product_rule, zero_floor"),
        ("gauss-bonnet", "bochner", "chi_margin, divergence_theorem"),
        ("smooth", "bochner", "none"),
    ])
    def test_unknown_tolerance_name(self, capsys, command, name, accepted):
        status = cli.main([command, "--surface", "torus:2,1", "--field", "du",
                           "--grid", "8x8", "--tol", f"{name}=1"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (f"config error: unknown tolerance {name!r}; "
                                f"accepted names: {accepted}\n")

    @pytest.mark.parametrize("command", ["verify", "gauss-bonnet"])
    def test_accepted_tolerance_names_are_echoed(self, capsys, command):
        names = cli.TOLERANCE_NAMES[command]
        tols = [arg for name in names for arg in ("--tol", f"{name}=0.25")]
        status, rep = run_json(capsys, command, "--surface", "torus:2,1",
                               "--field", "du", "--grid", "8x8", *tols)
        assert status in (0, 1)
        assert rep["config"]["tolerances"] == {name: 0.25 for name in sorted(names)}

    def test_expression_grammar_whitelist(self):
        fn = cli._parse_expression("sin(u) + 2*cos(v) - 1/2")
        assert fn(0.0, 0.0) == pytest.approx(1.5)
        for bad in ("tan(u)", "u.__class__", "lambda: 1", "sin(u, v)", "'x'"):
            with pytest.raises(ConfigError):
                cli._parse_expression(bad)

    @pytest.mark.parametrize("argv", [
        ("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8",
         "--tol", "zero_floor=0"),
        ("verify", "--surface", "torus:2,1", "--field", "1/0,1", "--grid", "8x8"),
        ("gauss-bonnet", "--surface", "torus:2,1", "--field", "1/0,1",
         "--grid", "8x8"),
        ("smooth", "--surface", "torus:2,1", "--field", "1/0,1", "--grid", "8x8"),
        # a NaN margin would make every chi estimate determinate
        ("gauss-bonnet", "--surface", "torus:2,1", "--grid", "8x8",
         "--tol", "chi_margin=nan"),
        ("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8",
         "--tol", "bochner=inf"),
        # a NaN or inf parameter or step reached the chi rounding as NaN
        *(("gauss-bonnet", "--surface", "torus:2,1", "--backend", f"fd:{step}",
           "--grid", "8x8") for step in ("nan", "inf", "-inf")),
        *(("gauss-bonnet", "--surface", f"{kind}:{','.join(map(str, params))}",
           "--grid", "8x8") for kind, params in non_finite_parameters()),
    ])
    def test_config_error_instead_of_traceback(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""


@pytest.fixture
def factor_points(monkeypatch):
    """The points the factor maps of the commands' surfaces see, call by call."""
    points = []
    parse = cli.parse_surface

    def counted(factors):
        def wrapped(x):
            points.append(np.size(x.v if isinstance(x, _jets.Jet) else x))
            return factors(x)
        return wrapped

    def parse_counted(text, backend):
        s = parse(text, backend)
        maps = surf._ChartMaps(counted(s.maps.u_factors), counted(s.maps.v_factors))
        return dataclasses.replace(s, maps=maps)

    monkeypatch.setattr(cli, "parse_surface", parse_counted)
    return points


class TestMetricAssemblies:
    def test_verify_assembles_the_metric_once(self, capsys, metric_assemblies):
        status, _ = run_json(capsys, "verify", "--surface", "torus:2,1",
                             "--field", "du", "--grid", "64x64")
        assert status == 0
        # one order-2 assembly serves the zero screen and the pass; no
        # order-0 assembly is made
        assert metric_assemblies == [2]

    def test_gauss_bonnet_assembles_once_per_grid(self, capsys, metric_assemblies):
        status, _ = run_json(capsys, "gauss-bonnet", "--surface", "torus:2,1",
                             "--field", "du", "--grid", "64x64")
        assert status == 0
        # the coarse half's nodes are every other node of the grid, so its
        # integrands are read off the grid's; the area element comes from
        # the integrands' assembly
        assert metric_assemblies == [2]

    def test_gauss_bonnet_on_a_polar_chart_assembles_both_grids(
            self, capsys, metric_assemblies):
        # Gauss-Legendre nodes in u are not nested: the coarse half is its own grid
        status, _ = run_json(capsys, "gauss-bonnet", "--surface", "sphere:1",
                             "--grid", "32x64")
        assert status == 0
        assert metric_assemblies == [2, 2]

    def test_verify_assembles_once_per_block(self, capsys, metric_assemblies):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "128x128")
        assert status == 0
        nodes = rep["checks"][0]["n_points"]
        assert nodes == 128 * 128 > cli.BATCH_NODES
        assert metric_assemblies == [2] * -(-nodes // cli.BATCH_NODES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_screens_an_all_degenerate_block(self, capsys, metric_assemblies):
        # every node's metric is degenerate: the tile's one assembly names
        # them all, each with the message local_geometry raises there alone
        status, rep = run_json(capsys, "verify", "--surface", "sphere:1e-40",
                               "--field", "1e40,0", "--grid", "64x64")
        assert status == 1
        assert all(c["n_failed"] == 64 * 64 for c in rep["checks"])
        assert metric_assemblies == [2]
        surface = surf.sphere(1e-40)
        for node in rep["checks"][0]["failed_nodes"]:
            with pytest.raises(DegenerateMetricError) as exc:
                op.local_geometry(surface, [node["u"]], [node["v"]])
            assert node["error"] == str(exc.value)

    @pytest.mark.parametrize("backend,per_point", [("analytic", 1), ("fd", 5)])
    @pytest.mark.parametrize("argv", [
        ("verify", "--surface", "torus:2,1", "--field", "du+dv", "--grid", "96x80"),
        ("verify", "--surface", "sphere:1", "--field", "dv", "--grid", "80x12"),
        ("gauss-bonnet", "--surface", "torus:2,1", "--field", "du", "--grid", "48x40"),
        ("gauss-bonnet", "--surface", "ellipsoid:1,1.3,0.7", "--grid", "32x24"),
    ])
    def test_factor_maps_see_the_axes_only(self, capsys, metric_assemblies,
                                           factor_points, argv, backend, per_point):
        # per assembly, of a tile or a quadrature grid, the factor maps see
        # each axis point of the nu x nv grid once (five stencil points on
        # fd), never the nu nv nodes
        status, _ = run_json(capsys, *argv, "--backend", backend)
        assert status == 0
        nu, nv = (int(n) for n in argv[-1].split("x"))
        assert 0 < sum(factor_points) <= len(metric_assemblies) * per_point * (nu + nv)


class TestDegenerateScreen:
    """Each degenerate node is named with the message local_geometry raises
    there alone, whatever the tiles of the grid."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    @pytest.mark.parametrize("argv", DEGENERATE_INPUTS)
    def test_payload_matches_node_by_node_halving(self, capsys, argv, backend):
        status, rep = run_json(capsys, "verify", *argv, "--grid", "16x16",
                               "--backend", backend)
        assert status == 1
        surface = cli.parse_surface(argv[1], cli.parse_backend(backend))
        grid = surf.chart_grid(surface, 16, 16)
        expected = []
        for u, v in zip(grid.U.ravel(), grid.V.ravel()):
            try:
                op.local_geometry(surface, [u], [v])
            except DegenerateMetricError as exc:
                expected.append({"u": float(u), "v": float(v), "error": str(exc)})
        assert expected and rep["n_zero_field_nodes"] == 0
        for check in rep["checks"]:
            assert check["n_failed"] == len(expected)
            assert check["failed_nodes"] == expected[:64]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    @pytest.mark.parametrize("argv", DEGENERATE_INPUTS)
    def test_smooth_names_the_metric_before_it_fits(self, capsys, argv, backend):
        # after the samples' own screen, the fit grid's metric on its axes
        status = cli.main(["smooth", *argv, "--grid", "16x16", "--backend", backend])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        surface = cli.parse_surface(argv[1], cli.parse_backend(backend))
        grid = surf.chart_grid(surface, 16, 16)
        try:
            approx.sample_unit_field(surface, cli.parse_field(argv[3]), grid)
        except ZeroFieldPointError as exc:
            assert captured.err == f"zero-field-point: {exc}\n"
        else:
            with pytest.raises(DegenerateMetricError) as exc:
                op.local_geometry(surface, grid.u_nodes[:, None], grid.v_nodes[None, :])
            assert captured.err == f"error: {exc.value}\n"


def _tiling_cases():
    """(argv, BATCH_NODES values) of TestTiling.

    At 1 and 7 nodes per tile every row of these grids is wider than a
    tile; the 4x5000 grid's rows are wider than the default tile too, and
    run at 64 and 4096 only (at 7 it takes about 2800 tiles).
    """
    every = (1, 7, 64, 4096)
    cases = [(("verify", "--surface", surface, "--field", field, "--grid", "8x9",
               "--backend", backend), every)
             for surface, field in (("torus:2,1", "du+dv"), ("sphere:1", "dv"),
                                    ("clifford:1", "du"), ("ellipsoid:1,1.3,0.7", "dv"))
             for backend in ("analytic", "fd")]
    cases += [(("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "4x5000",
                "--backend", backend), (64, 4096)) for backend in ("analytic", "fd")]
    # Gauss-Legendre rows within the polar guard band (72 rows reach it),
    # zero-field nodes, and degenerate metrics
    cases.append((("verify", "--surface", "sphere:1", "--field", "du", "--grid", "72x4"),
                  every))
    cases.append((("verify", "--surface", "torus:2,1", "--field", "sin(u),0",
                   "--grid", "8x9"), every))
    cases += [(("verify", *argv, "--grid", "8x8", "--backend", backend), every)
              for argv in DEGENERATE_INPUTS for backend in ("analytic", "fd")]
    return cases


class TestTiling:
    """verify's payload does not depend on the tiles it walks its grid in."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,batches", _tiling_cases(),
                             ids=lambda x: " ".join(x) if isinstance(x[0], str) else "")
    def test_payload_does_not_depend_on_the_tiles(self, capsys, monkeypatch, argv,
                                                  batches):
        payloads = set()
        for batch in batches:
            monkeypatch.setattr(cli, "BATCH_NODES", batch)
            status, out = run_cli(capsys, *argv)
            payloads.add((status, out[:out.index('"timings"')]))
        assert len(payloads) == 1

    def test_cases_reach_what_they_name(self, capsys):
        # the guard band leaves out polar rows, the field has zero nodes
        last = -2 * len(DEGENERATE_INPUTS)      # the two cases before the degenerate ones
        reports = {argv[2] + argv[4]: run_json(capsys, *argv)[1]
                   for argv, _ in _tiling_cases()[last - 2:last]}
        assert reports["sphere:1du"]["checks"][0]["n_points"] < 72 * 4
        assert reports["torus:2,1sin(u),0"]["n_zero_field_nodes"] > 0


class TestProcessConstants:
    """One parser and one Gauss-Legendre rule per node count serve every command."""

    COMMANDS = [
        ["verify", "--surface", "ellipsoid:1,1.3,0.7", "--field", "dv", "--grid", "16x16"],
        ["gauss-bonnet", "--surface", "sphere:1", "--grid", "16x32"],
        ["smooth", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8",
         "--max-degree", "4"],
    ]
    REJECTED = [
        ["verify", "--field", "du"],
        ["gauss-bonnet", "--surface", "sphere:1", "--format", "xml"],
    ]

    def _outcomes(self, capsys):
        outcomes = []
        for argv in self.COMMANDS:
            status, out = run_cli(capsys, *argv)
            outcomes.append((status, out[:out.index('"timings"')]))
        for argv in self.REJECTED:
            with pytest.raises(SystemExit) as exc:
                cli.main(list(argv))
            outcomes.append((exc.value.code, capsys.readouterr().err))
        return outcomes

    def test_parser_is_built_once(self, capsys, monkeypatch):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        runs = [self._outcomes(capsys) for _ in range(3)]
        # the first command built the parser and its subcommands' parsers,
        # and no later command built any
        assert constructed == ["bochner2d", "bochner2d verify",
                               "bochner2d gauss-bonnet", "bochner2d smooth"]
        assert runs[0] == runs[1] == runs[2]
        assert [status for status, _ in runs[0]] == [0, 0, 0, 2, 2]
        assert "the following arguments are required: --surface" in runs[0][3][1]
        assert "invalid choice: 'xml'" in runs[0][4][1]

        # a parser built afresh for every command gives the same bytes
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self._outcomes(capsys) == runs[0]

    def test_import_builds_no_parser_and_no_rule(self):
        # what the import builds would move into the benchmark's set-up time
        code = (
            "import argparse, numpy as np\n"
            "counts = {'parsers': 0, 'leggauss': 0}\n"
            "init, leggauss = argparse.ArgumentParser.__init__, np.polynomial.legendre.leggauss\n"
            "def counting_init(*args, **kwargs):\n"
            "    counts['parsers'] += 1\n"
            "    init(*args, **kwargs)\n"
            "def counting_leggauss(n):\n"
            "    counts['leggauss'] += 1\n"
            "    return leggauss(n)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "np.polynomial.legendre.leggauss = counting_leggauss\n"
            "import bochner2d.cli as cli\n"
            "print(counts)\n"
            "cli.build_parser()\n"
            "cli.surf.chart_grid(cli.surf.sphere(), 8, 8)\n"
            "print(counts)\n")
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        at_import, after_use = proc.stdout.splitlines()
        assert at_import == "{'parsers': 0, 'leggauss': 0}"
        # the probe counts what a first use builds
        assert after_use == "{'parsers': 4, 'leggauss': 1}"


class TestAllocatorPolicy:
    """cli.main keeps the heap a command frees for the next command."""

    @pytest.fixture
    def fresh_policy(self):
        # the policy runs again at the next main; pinning twice changes nothing
        cli._retain_freed_memory.cache_clear()
        yield
        cli._retain_freed_memory.cache_clear()

    def test_repeated_verify_takes_no_faults(self, capsys):
        if cli.resource is None or not cli._retain_freed_memory():
            pytest.skip("needs getrusage and the C library's mallopt")
        argv = ["verify", "--surface", "torus:2,1", "--field", "du", "--grid", "64x64"]
        faults = []
        for _ in range(3):
            before = cli._minor_faults()
            assert cli.main(argv) == 0
            faults.append(cli._minor_faults() - before)
        capsys.readouterr()
        # with glibc's dynamic thresholds, the third call re-faults ~1300 pages
        assert faults[2] <= 64, faults

    def test_report_counts_the_handler_faults(self, capsys):
        if cli.resource is None:
            pytest.skip("needs getrusage")
        status, rep = run_json(capsys, "gauss-bonnet", "--surface", "sphere:1",
                               "--grid", "16x32")
        assert status == 0
        assert list(rep)[-1] == "timings"
        assert list(rep["timings"]) == ["total_s", "counts"]
        assert rep["timings"]["counts"]["minor_faults"] >= 0

    def test_no_mallopt_changes_nothing(self, monkeypatch, fresh_policy):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._retain_freed_memory() is False

    def test_main_pins_both_thresholds_once(self, capsys, monkeypatch, fresh_policy):
        calls = []

        class Library:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Library())
        for _ in range(3):
            run_json(capsys, "gauss-bonnet", "--surface", "sphere:1", "--grid", "16x32")
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
