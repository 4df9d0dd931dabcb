"""Tests of the benchmark's generator, checker, tracer and metrics.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import json
import sys

import pytest

from bench import checks, layers, run, tracing, workloads


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a = [workloads.session_commands(workload, 5, i) for i in range(20)]
    b = [workloads.session_commands(workload, 5, i) for i in range(20)]
    assert a == b
    assert a != [workloads.session_commands(workload, 6, i) for i in range(20)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_gives_distinct_sessions(workload):
    sessions = {json.dumps(workloads.session_commands(workload, 9, i))
                for i in range(200)}
    assert len(sessions) == 200


def _cost_shape(commands):
    return [(argv[0], *(dict(zip(argv[1::2], argv[2::2])).get(opt)
                        for opt in ("--grid", "--backend")))
            for argv in commands]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_keeps_commands_grids_and_backends_fixed(workload):
    first = _cost_shape(workloads.session_commands(workload, 1, 0))
    for i in range(1, 30):
        assert _cost_shape(workloads.session_commands(workload, 1, i)) == first


def test_generator_rejects_unknown_workload():
    with pytest.raises(ValueError):
        workloads.session_commands("nope", 1, 0)


# ------------------------------------------------------------------ checker

VERIFY_ARGV = ["verify", "--surface", "torus:2,1", "--field", "du",
               "--grid", "8x8"]
GB_ARGV = ["gauss-bonnet", "--surface", "torus:2,1", "--field", "du",
           "--grid", "8x8"]
SMOOTH_ARGV = ["smooth", "--surface", "torus:2,1", "--field", "du",
               "--grid", "8x8"]

VERIFY_REPORT = {
    "schema": 1, "command": "verify", "overall_pass": True,
    "n_zero_field_nodes": 0, "zero_field_nodes": [],
    "checks": [{"name": "bochner", "sup": 1e-9, "tolerance": 1e-6,
                "pass": True, "n_points": 64}],
    "timings": {"total_s": 0.1},
}
GB_REPORT = {
    "schema": 1, "command": "gauss-bonnet", "overall_pass": True,
    "chi": {"raw": 1e-12, "rounded": 0, "margin": 1e-12, "margin_limit": 0.01,
            "indeterminate": False, "declared": 0},
    "integrals": {"divergence_theorem_residual": {
        "value": 1e-14, "tolerance": 1e-8, "pass": True, "resolution": [8, 8]}},
    "timings": {"total_s": 0.1},
}
SMOOTH_REPORT = {
    "schema": 1, "command": "smooth", "overall_pass": True,
    "smoothing": {"final_degree": 4, "sup_error": 0.3,
                  "min_tangential_norm": 0.7, "target": 0.5, "pass": True,
                  "degrees_tried": [2, 4]},
    "timings": {"total_s": 0.1},
}


def _problems(argv, report, status=0, nodes=64):
    return checks.command_problems(argv, status, json.dumps(report), nodes)[0]


def test_checker_passes_good_reports():
    assert _problems(VERIFY_ARGV, VERIFY_REPORT) == []
    assert _problems(GB_ARGV, GB_REPORT) == []
    assert _problems(SMOOTH_ARGV, SMOOTH_REPORT) == []


def test_checker_flags_nonzero_exit():
    assert _problems(VERIFY_ARGV, VERIFY_REPORT, status=1)
    assert checks.command_problems(VERIFY_ARGV, 2, "", 64)[0]


def test_checker_flags_sup_over_tolerance():
    rep = copy.deepcopy(VERIFY_REPORT)
    rep["checks"][0]["sup"] = 2e-6
    assert any("tolerance" in p for p in _problems(VERIFY_ARGV, rep))
    rep["checks"][0]["sup"] = float("nan")
    assert _problems(VERIFY_ARGV, rep)


def test_checker_flags_dropped_and_zero_nodes():
    assert _problems(VERIFY_ARGV, VERIFY_REPORT, nodes=65)
    rep = copy.deepcopy(VERIFY_REPORT)
    rep["n_zero_field_nodes"] = 3
    assert _problems(VERIFY_ARGV, rep)
    rep = copy.deepcopy(VERIFY_REPORT)
    rep["checks"][0]["failed_nodes"] = [{"u": 0.0, "v": 0.0, "error": "x"}]
    assert _problems(VERIFY_ARGV, rep)


def test_checker_flags_wrong_or_indeterminate_chi():
    rep = copy.deepcopy(GB_REPORT)
    rep["chi"]["rounded"] = 2
    assert _problems(GB_ARGV, rep)
    rep = copy.deepcopy(GB_REPORT)
    rep["chi"]["indeterminate"] = True
    assert _problems(GB_ARGV, rep)
    rep = copy.deepcopy(GB_REPORT)
    rep["integrals"]["divergence_theorem_residual"]["value"] = 1e-6
    assert _problems(GB_ARGV, rep)


def test_checker_flags_unmet_budget():
    for key, value in (("pass", False), ("sup_error", 0.6), ("sup_error", None),
                       ("min_tangential_norm", 0.4)):
        rep = copy.deepcopy(SMOOTH_REPORT)
        rep["smoothing"][key] = value
        assert _problems(SMOOTH_ARGV, rep), key


def test_payload_ignores_timings_only():
    rep = copy.deepcopy(VERIFY_REPORT)
    rep["timings"]["total_s"] = 9.0
    assert checks.payload(rep) == checks.payload(VERIFY_REPORT)
    rep["checks"][0]["sup"] = 1.0000001e-9
    assert checks.payload(rep) != checks.payload(VERIFY_REPORT)


def test_non_identical_repeat_counts_as_failure():
    runner = run.Runner("smooth", 3)
    _, _, first = runner.session(0)
    assert runner.failed == 0
    runner.session(0, reference=first)
    assert runner.failed == 0
    runner.session(0, reference=[b"{}"] + first[1:])
    assert runner.failed == 1
    assert "differs" in runner.problems[-1]["problems"][-1]
    assert len(runner.signatures) == 1


def test_shape_signature_sees_degrees_tried():
    other = copy.deepcopy(SMOOTH_REPORT)
    other["smoothing"]["degrees_tried"] = [2, 4, 6]
    assert (checks.shape_signature([SMOOTH_REPORT])
            != checks.shape_signature([other]))


# ------------------------------------------------------------ trace and math

def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, 0, None, False)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("a.1", 1.5, 2.5, 1),
        _span("b", 2.0, 5.0, 0),      # overlaps a: the union is counted once
        _span("c", 7.0, 11.0, 0),     # runs past the parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 3.0, 4.0])


def test_tail_has_ten_sessions_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(20, 0, -1)])
    assert (value, pct, n) == (10.0, 50.0, 20)
    value, pct, n = run.tail([float(i) for i in range(11)])
    assert (value, pct, n) == (0.0, 100.0 / 11, 11)


def _module_attrs():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "bochner2d" or name.startswith("bochner2d."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    from bochner2d.surfaces import SurfaceSpec
    snap.update({("SurfaceSpec", k): v for k, v in vars(SurfaceSpec).items()})
    return snap


def _traced_verify():
    import contextlib
    import io

    from bochner2d import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(VERIFY_ARGV) == 0
    return json.loads(out.getvalue())


def test_traced_run_restores_every_attribute():
    import bochner2d.bochner as bochner
    import bochner2d.operators as operators
    before = _module_attrs()
    original_jet = operators.field_jet
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bochner.field_jet is not original_jet
        assert operators.field_jet is bochner.field_jet
        _traced_verify()
    after = _module_attrs()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.cmd_verify", "surfaces.metric_data",
            "bochner.bochner_residual", "operators.field_jet"} <= names


def test_restore_happens_when_the_traced_code_raises():
    before = _module_attrs()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after = _module_attrs()
    assert all(before[k] is after[k] for k in before)


def test_verify_assembles_the_metric_44_times_per_node():
    tracer = tracing.Tracer()
    tracer.session = 7
    with tracer.installed():
        report = _traced_verify()
    spans = tracer.spans
    m = layers.session_metrics(spans, range(len(spans)), layers.annotate(spans),
                               [report])
    assert m["surfaces.metric_evals_per_node"] == 44
    assert m["stencils.calls"] == 0
    assert m["cli.cmd_verify.s"] > 0
    assert m["bochner.worst_sup_over_tol"] < 1
