"""Correctness checks on CLI reports, determinism digests and steadiness.

A command fails unless its report shows the certified outcome the
workloads are built to produce on nowhere-zero smooth fields:

* verify       -- exit 0, overall_pass, every check's sup finite and at most
                  its tolerance, n_points equal to the guarded-node count,
                  no zero-field nodes and no failed nodes;
* gauss-bonnet -- exit 0, chi determinate and equal to the declared chi,
                  and the divergence-theorem check passing when a field is
                  given;
* smooth       -- exit 0, pass, sup_error < 0.5, min_tangential_norm > 0.5.
"""

import hashlib
import json
import math

SMOOTH_BUDGET = 0.5


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _verify_problems(rep, expected_nodes):
    out = []
    if rep.get("overall_pass") is not True:
        out.append("overall_pass is not true")
    checks = rep.get("checks") or []
    if not checks:
        out.append("no checks in report")
    for c in checks:
        name = c.get("name")
        sup, tol = c.get("sup"), c.get("tolerance")
        if not (_finite(sup) and _finite(tol) and sup <= tol):
            out.append(f"{name}: sup {sup} not finite or above tolerance {tol}")
        if c.get("n_points") != expected_nodes:
            out.append(f"{name}: n_points {c.get('n_points')} != "
                       f"{expected_nodes} guarded nodes")
        if c.get("failed_nodes") or c.get("n_failed"):
            out.append(f"{name}: failed nodes reported")
    if rep.get("n_zero_field_nodes") != 0:
        out.append(f"n_zero_field_nodes is {rep.get('n_zero_field_nodes')}")
    return out


def _gauss_bonnet_problems(rep, has_field):
    out = []
    chi = rep.get("chi") or {}
    if chi.get("indeterminate") is not False:
        out.append("chi is indeterminate")
    if "declared" not in chi or chi.get("rounded") != chi.get("declared"):
        out.append(f"chi {chi.get('rounded')} != declared {chi.get('declared')}")
    if has_field:
        div = (rep.get("integrals") or {}).get("divergence_theorem_residual")
        if not div:
            out.append("divergence-theorem check missing")
        elif not (div.get("pass") is True and _finite(div.get("value"))
                  and _finite(div.get("tolerance"))
                  and abs(div["value"]) <= div["tolerance"]):
            out.append(f"divergence theorem fails: {div.get('value')} vs "
                       f"{div.get('tolerance')}")
    return out


def _smooth_problems(rep):
    out = []
    sm = rep.get("smoothing") or {}
    if sm.get("pass") is not True:
        out.append("smoothing did not pass")
    if not (_finite(sm.get("sup_error")) and sm["sup_error"] < SMOOTH_BUDGET):
        out.append(f"sup_error {sm.get('sup_error')} not below {SMOOTH_BUDGET}")
    if not (_finite(sm.get("min_tangential_norm"))
            and sm["min_tangential_norm"] > SMOOTH_BUDGET):
        out.append(f"min_tangential_norm {sm.get('min_tangential_norm')} "
                   f"not above {SMOOTH_BUDGET}")
    return out


def command_problems(argv, status, stdout, expected_nodes=None):
    """Reasons the command failed its check; an empty list means it passed.

    `expected_nodes` is the guarded-node count of a verify command's grid.
    Returns (problems, report) with report None when stdout is not JSON.
    """
    try:
        rep = json.loads(stdout)
    except ValueError:
        return [f"exit {status}, report is not JSON"], None
    problems = [] if status == 0 else [f"exit status {status}"]
    kind = argv[0]
    if rep.get("command") != kind:
        problems.append(f"report is for {rep.get('command')!r}, not {kind!r}")
    if kind == "verify":
        problems += _verify_problems(rep, expected_nodes)
    elif kind == "gauss-bonnet":
        problems += _gauss_bonnet_problems(rep, "--field" in argv)
    elif kind == "smooth":
        problems += _smooth_problems(rep)
    else:
        problems.append(f"unknown command {kind!r}")
    return problems, rep


def payload(report):
    """Canonical bytes of a report without its timings section."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def digest(payloads):
    """sha256 over a session's deterministic report payloads, in order."""
    h = hashlib.sha256()
    for p in payloads:
        h.update(p)
        h.update(b"\n")
    return h.hexdigest()


def shape_signature(reports):
    """Cost-determining shape of a session: node counts and degrees tried.

    Sessions of one workload must agree on it; otherwise a seed changed the
    amount of work and the run is unsteady.
    """
    sig = []
    for rep in reports:
        if rep is None:
            sig.append(None)
            continue
        sig.append((
            rep.get("command"),
            tuple(c.get("n_points") for c in rep.get("checks", ())),
            tuple(tuple(v.get("resolution", ()))
                  for _, v in sorted(rep.get("integrals", {}).items())),
            tuple((rep.get("smoothing") or {}).get("degrees_tried", ())),
        ))
    return tuple(sig)
