"""The diff logic of ``tools/payload_diff.py`` on synthetic reports."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "payload_diff.py"
_SPEC = importlib.util.spec_from_file_location("payload_diff", _PATH)
payload_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(payload_diff)


def report(sup, total, timings):
    return {"schema": 1, "checks": [{"name": "bochner", "sup": sup, "pass": True},
                                    {"name": "trace_identity", "sup": 1e-12, "pass": True}],
            "integrals": {"total_curvature": {"value": total}},
            "timings": {"total_s": timings}}


def result(rep, stderr="", code=0, coeff=None):
    return {"stdout": json.dumps(rep, indent=2) + "\n", "stderr": stderr, "code": code,
            "coeff": coeff}


def test_timings_and_the_source_path_are_not_payload():
    a = payload_diff.payload(result(report(1e-9, 0.5, 0.25),
                                    "/a/src/bochner2d/x.py:3: RuntimeWarning"),
                             "/a/src", "/t/a")
    b = payload_diff.payload(result(report(1e-9, 0.5, 0.75),
                                    "/b/src/bochner2d/x.py:3: RuntimeWarning"),
                             "/b/src", "/t/b")
    assert "timings" not in json.loads(a["stdout"])
    assert payload_diff.compare(a, b) == []


def test_coefficient_files_join_the_payload_under_a_masked_path():
    def smooth(tmp, coeff):
        rep = {"smoothing": {"sup_error": 0.25, "coefficient_file": f"{tmp}/7.txt"}}
        return payload_diff.payload(result(rep, coeff=coeff), "/src", tmp)

    a = smooth("/t/a", "degree 2\n0.5 0.25\n")
    assert json.loads(a["stdout"])["smoothing"]["coefficient_file"] == "<tmp>/7.txt"
    assert payload_diff.compare(a, smooth("/t/b", "degree 2\n0.5 0.25\n")) == []
    assert payload_diff.compare(a, smooth("/t/b", "degree 2\n0.5 0.2500001\n")) == [
        "  coeff differs"]
    assert payload_diff.compare(a, smooth("/t/b", None)) == ["  coeff differs"]


def test_differences_are_named_with_the_largest_per_key():
    a = payload_diff.payload(result(report(1e-9, 0.5, 0.1)), "/a", "/t/a")
    b = payload_diff.payload(result(report(3e-9, float("nan"), 0.1), "warning", 1),
                             "/b", "/t/b")
    lines = payload_diff.compare(a, b)
    assert lines == ["  stdout differs", "    checks[bochner].sup: 2e-09",
                     "    integrals.total_curvature.value: inf",
                     "  stderr differs", "  code differs"]


def test_float_differences():
    diffs = payload_diff.float_differences(
        {"x": [1.0, 2.0, {"name": "n", "y": -0.0}], "z": None, "w": True},
        {"x": [1.5, 2.0, {"name": "n", "y": 0.0}], "z": 3.0, "w": False})
    assert diffs == {"x[0]": 0.5, "z": math.inf}
    nan = float("nan")
    assert payload_diff.float_differences([nan, nan], [nan, 1.0]) == {"[1]": math.inf}


def test_a_report_that_is_not_json_is_compared_as_text():
    a = payload_diff.payload({"stdout": "section,name\n", "stderr": "", "code": 0},
                             "/a", "/t/a")
    b = payload_diff.payload({"stdout": "section,name \n", "stderr": "", "code": 0},
                             "/b", "/t/b")
    assert payload_diff.compare(a, a) == []
    assert payload_diff.compare(a, b) == ["  stdout differs"]


def test_the_commands_cover_the_bench_sessions_and_the_degenerate_inputs():
    argvs = payload_diff.commands()
    assert len(argvs) == 4 * 3 * (6 + 3 + 2) + 2 * 2 + 5 * 2 + 4 * 3 * 2
    for command in ("verify", "gauss-bonnet"):
        assert [command, "--surface", "torus:2,1", "--field", "dv", "--grid", "4x4097",
                "--backend", "fd"] in argvs
    assert argvs[-1] == ["smooth", "--surface", "torus:1e200,1e199", "--field", "du",
                         "--grid", "16x16", "--backend", "fd"]


def test_a_smooth_command_writes_its_coefficient_file_into_the_payload():
    src = payload_diff.source_dir(Path(__file__).resolve().parent.parent)
    smooth, verify = payload_diff.run_tree(src, [
        ["smooth", "--surface", "torus:2,1", "--field", "du", "--grid", "8x8"],
        ["verify", "--surface", "torus:2,1", "--field", "du", "--grid", "4x4"]])
    assert smooth["code"] == 0 and smooth["coeff"].startswith("ambient_dim 3\n")
    assert json.loads(smooth["stdout"])["smoothing"]["coefficient_file"] == "<tmp>/0.txt"
    assert verify["code"] == 0 and verify["coeff"] is None


def test_a_tree_runs_its_own_package_from_inside_another_trees_src(tmp_path,
                                                                   monkeypatch):
    # `python -c` puts the working directory first on the import path: run
    # from the repository's src, a copy of it must still import itself
    repo_src = payload_diff.source_dir(Path(__file__).resolve().parent.parent)
    shutil.copytree(repo_src / "bochner2d", tmp_path / "src" / "bochner2d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "bochner2d" / "cli.py"
    cli.write_text(cli.read_text().replace("SCHEMA_VERSION = 1\n", "SCHEMA_VERSION = 99\n"))
    monkeypatch.chdir(repo_src)
    verify, = payload_diff.run_tree(
        payload_diff.source_dir(tmp_path),
        [["verify", "--surface", "torus:2,1", "--field", "du", "--grid", "4x4"]])
    assert verify["code"] == 0 and json.loads(verify["stdout"])["schema"] == 99


def test_a_child_that_imports_another_package_is_refused(tmp_path):
    fake = "import sys, types\nsys.modules['bochner2d'] = types.ModuleType('bochner2d')\n"
    fake += "sys.modules['bochner2d'].__file__ = '/elsewhere/bochner2d/__init__.py'\n"
    with pytest.raises(SystemExit, match="/elsewhere/bochner2d"):
        payload_diff.run_python(tmp_path, fake)


def test_the_summary_takes_the_largest_move_per_key_over_all_commands():
    def smooth(sup, errors, coeff, chi=None):
        rep = {"smoothing": {"sup_error": sup, "sup_errors": errors, "pass": True}}
        if chi is not None:
            rep["chi"] = chi
        return payload_diff.payload(result(rep, coeff=coeff), "/src", "/t")

    head = "ambient_dim 3\ndegree 2\nmonomial_ordering graded-lexicographic\n"
    head += "components 1\nterms 3\n"
    pairs = [
        (smooth(0.25, [0.5, 0.25], head + "2.0 -1.0 0.0\n"),
         smooth(0.25 + 2e-10, [0.5, 0.25 + 2e-10], head + "2.0 -1.0 1e-9\n")),
        (smooth(0.125, [0.5, 0.125], head + "4.0 0.5 0.0\n", {"raw": 2.0}),
         smooth(0.125 + 3e-10, [0.5 + 1e-11, 0.125 + 3e-10], head + "4.0 0.5 4e-12\n",
                {"raw": 2.0, "estimated_error": 1e-12, "agrees_with_declared": True})),
    ]
    lines = payload_diff.summary(pairs)
    assert lines[0] == "largest moves over 2 differing commands:"
    moves = dict(line.strip().split(": ") for line in lines[1:4])
    assert {k: float(v) for k, v in moves.items()} == {
        "smoothing.sup_error": 3e-10, "smoothing.sup_errors[0]": 1e-11,
        "smoothing.sup_errors[1]": 3e-10}
    assert lines[4:6] == ["  +chi.agrees_with_declared", "  +chi.estimated_error"]
    assert lines[6] == "  coefficient files: 5e-10 relative to the largest entry"


def test_a_coefficient_file_that_changes_shape_or_goes_missing_moves_infinitely():
    head = "ambient_dim 3\ndegree 1\nmonomial_ordering graded-lexicographic\n"
    one = head + "components 1\nterms 4\n1.0 0.0 0.0 0.5\n"
    assert payload_diff.coefficient_move(one, one) == 0.0
    assert payload_diff.coefficient_move(one, None) == math.inf
    assert payload_diff.coefficient_move(one, one.replace("1\nterms", "2\nterms")) == math.inf
    assert payload_diff.coefficient_move(one, one + "1.0 0.0 0.0 0.5\n") == math.inf
    assert payload_diff.coefficient_move(one, one.replace("0.5", "0.75")) == 0.25


def test_the_summary_of_identical_trees_moves_nothing():
    assert payload_diff.summary([]) == [
        "largest moves over 0 differing commands:",
        "  coefficient files: 0 relative to the largest entry"]
