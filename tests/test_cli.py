import json
import sys

import numpy as np
import pytest

from bochner2d import cli
from bochner2d import surfaces as surf
from bochner2d.errors import ConfigError, GeometryError


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

    @pytest.mark.parametrize("argv", [
        ("verify", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8",
         "--tol", "zero_floor=0"),
        ("verify", "--surface", "torus:2,1", "--field", "1/0,1", "--grid", "8x8"),
        ("gauss-bonnet", "--surface", "torus:2,1", "--field", "1/0,1",
         "--grid", "8x8"),
        ("smooth", "--surface", "torus:2,1", "--field", "1/0,1", "--grid", "8x8"),
    ])
    def test_config_error_instead_of_traceback(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""


class TestGuardedEval:
    def test_halving_matches_per_node_loop(self):
        n = 4096
        U = np.linspace(0.0, 1.0, n)
        V = np.linspace(2.0, 3.0, n)
        bad = {17, 2048, 4095}
        calls = []

        def fn(u, v):
            calls.append(u.size)
            hit = [i for i in bad if U[i] in u]
            if hit:
                raise GeometryError(f"bad node {min(hit)}")
            return u + v

        values = np.empty(n)
        failed = cli.guarded_eval(fn, U, V, values)
        n_calls = len(calls)

        ref_values = np.full(n, np.nan)
        ref_failed = {}
        for i in range(n):      # the per-node reference
            try:
                ref_values[i] = float(fn(U[i:i + 1], V[i:i + 1])[0])
            except GeometryError as exc:
                ref_failed[i] = str(exc)
        np.testing.assert_array_equal(values, ref_values)
        assert list(failed.items()) == list(ref_failed.items())
        assert n_calls <= 2 * len(bad) * (np.log2(n) + 1) + 1


@pytest.fixture
def metric_assemblies(monkeypatch):
    """Counts calls of surfaces.metric_data under every name the package binds."""
    original = surf.metric_data
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bochner2d" and \
                getattr(module, "metric_data", None) is original:
            monkeypatch.setattr(module, "metric_data", counted)
    return calls


class TestMetricAssemblies:
    def test_verify_assembles_the_metric_once(self, capsys, metric_assemblies):
        status, _ = run_json(capsys, "verify", "--surface", "torus:2,1",
                             "--field", "du", "--grid", "64x64")
        assert status == 0
        assert len(metric_assemblies) == 1

    def test_gauss_bonnet_assembles_once_per_grid(self, capsys, metric_assemblies):
        status, _ = run_json(capsys, "gauss-bonnet", "--surface", "torus:2,1",
                             "--field", "du", "--grid", "64x64")
        assert status == 0
        assert len(metric_assemblies) == 2         # the grid and its coarse half

    def test_verify_assembles_once_per_block(self, capsys, metric_assemblies):
        status, rep = run_json(capsys, "verify", "--surface", "torus:2,1",
                               "--field", "du", "--grid", "128x128")
        assert status == 0
        nodes = rep["checks"][0]["n_points"]
        assert nodes == 128 * 128 > cli.BATCH_NODES
        assert len(metric_assemblies) == -(-nodes // cli.BATCH_NODES)
