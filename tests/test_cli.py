import json

import numpy as np
import pytest

from bochner2d import cli
from bochner2d.errors import ConfigError


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out)


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
        original = cli.bochner.bochner_residual

        def poisoned(surface, unit, u, v):
            out = np.array(original(surface, unit, u, v), dtype=float)
            out[:n_bad] = np.nan
            return out

        monkeypatch.setattr(cli.bochner, "bochner_residual", poisoned)
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
    ])
    def test_rejected_before_compute(self, capsys, argv):
        assert cli.main(list(argv)) == 2

    def test_expression_grammar_whitelist(self):
        fn = cli._parse_expression("sin(u) + 2*cos(v) - 1/2")
        assert fn(0.0, 0.0) == pytest.approx(1.5)
        for bad in ("tan(u)", "u.__class__", "lambda: 1", "sin(u, v)", "'x'"):
            with pytest.raises(ConfigError):
                cli._parse_expression(bad)

    def test_thread_env_validation(self, monkeypatch):
        monkeypatch.setenv("BOCHNER_THREADS", "junk")
        assert cli.main(["verify", "--surface", "torus:2,1", "--field", "du",
                         "--grid", "8x8"]) == 2

    def test_threaded_sweep_matches_serial(self, capsys, monkeypatch):
        argv = ("verify", "--surface", "torus:2,1", "--field", "du",
                "--grid", "24x24")
        status1, out1 = run_cli(capsys, *argv)
        monkeypatch.setenv("BOCHNER_THREADS", "4")
        status2, out2 = run_cli(capsys, *argv)
        assert status1 == status2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timings"); r2.pop("timings")
        r1["config"].pop("threads"); r2["config"].pop("threads")
        assert json.dumps(r1) == json.dumps(r2)
