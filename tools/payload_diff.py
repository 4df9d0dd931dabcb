"""Compare the deterministic payloads of two source trees of bochner2d.

    python3 tools/payload_diff.py PARENT_SRC CHANGE_SRC

Each argument is a checkout of the repository (a directory holding
``src/bochner2d``) or its ``src`` directory.  Each tree runs in its own
subprocess, with only its own ``src`` on the import path, and runs every
command in-process through ``cli.main``:

* every command of sessions 0-3, seeds 1-3, of the benchmark's three
  workloads, as ``bench/workloads.py`` of the repository holding this script
  draws them (read only);
* ``verify`` on each of TILE_INPUTS, on both backends;
* ``verify``, ``gauss-bonnet`` and ``smooth`` at 16x16 on each of
  DEGENERATE_INPUTS, on both backends.

Each ``smooth`` command also runs with ``--coeff-out`` into a temporary
directory of the tree, so that the coefficient file is compared too.

A command's payload is its stdout without the report's ``timings`` section,
its stderr, its exit code and the text of the coefficient file it wrote, if
any.  In stdout and stderr the tree's own ``src`` path is replaced by
``<src>`` (warning lines name it) and its temporary directory by ``<tmp>``
(the report's ``coefficient_file`` names it).  Every command starts with
fresh warning registries, so a warning prints as it would in a fresh
process.  The script prints each command whose payload differs, with the
largest float difference per report key, then a summary over all differing
commands: the largest move per report key, the report keys that only one
tree writes, and the largest move of a coefficient-file entry relative to
the largest entry of its file.  It exits 1 if any payload differs, else 0.
"""

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SESSIONS, SEEDS = range(4), range(1, 4)
WORKLOADS = ("exact", "stencil", "smooth")
# verify's tile shapes that the sessions lack: a guard band that drops whole
# rows (352 of 16000 nodes), and rows of one tile plus a one-node tile
TILE_INPUTS = [
    ("--surface", "sphere:1", "--field", "dv", "--grid", "2000x8"),
    ("--surface", "torus:2,1", "--field", "dv", "--grid", "4x4097"),
]
# a metric degenerate at some or all nodes: det g below DET_MIN everywhere,
# below it near the poles, above DET_MAX, and NaN where g overflows
DEGENERATE_INPUTS = [
    ("--surface", "sphere:1e-40", "--field", "1e40,0"),
    ("--surface", "sphere:1e-38", "--field", "0,1e38"),
    ("--surface", "sphere:1e40", "--field", "du"),
    ("--surface", "torus:1e200,1e199", "--field", "du"),
]

# run in the tree's subprocess: argv lists as JSON on stdin, one
# {"stdout", "stderr", "code"} per command as JSON on stdout
_WORKER = r"""
import contextlib, io, json, sys, warnings
from bochner2d import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code})
json.dump(results, sys.__stdout__)
"""


def commands():
    """The argv lists compared, in a fixed order."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for workload in WORKLOADS for seed in SEEDS for session in SESSIONS
             for argv in workloads.session_commands(workload, seed, session)]
    for inputs in TILE_INPUTS:
        for backend in ("analytic", "fd"):
            argvs.append(["verify", *inputs, "--backend", backend])
    for inputs in DEGENERATE_INPUTS:
        for command in ("verify", "gauss-bonnet", "smooth"):
            for backend in ("analytic", "fd"):
                argvs.append([command, *inputs, "--grid", "16x16", "--backend", backend])
    return argvs


def source_dir(tree):
    """The directory that holds the package `bochner2d` of a tree."""
    tree = Path(tree).resolve()
    src = tree / "src" if (tree / "src" / "bochner2d").is_dir() else tree
    if not (src / "bochner2d").is_dir():
        raise SystemExit(f"no bochner2d package under {tree}")
    return src


def run_tree(src, argvs):
    """One payload per argv, from a subprocess that imports bochner2d from src;
    a `smooth` command writes its coefficient file into a temporary directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        coeff = [Path(tmp, f"{i}.txt") if argv[0] == "smooth" else None
                 for i, argv in enumerate(argvs)]
        runs = [argv + ["--coeff-out", str(path)] if path else argv
                for argv, path in zip(argvs, coeff)]
        proc = subprocess.run([sys.executable, "-c", _WORKER], input=json.dumps(runs),
                              capture_output=True, text=True, env=env, check=True)
        results = json.loads(proc.stdout)
        for result, path in zip(results, coeff):
            result["coeff"] = path.read_text() if path and path.exists() else None
    return [payload(r, str(src), tmp) for r in results]


def payload(result, src, tmp):
    """A command's payload: its report without `timings` (its stdout when that
    is not a JSON object), its stderr, both without the source path and the
    temporary directory, its exit code and its coefficient file's text."""
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("timings", None)
        out = json.dumps(report, indent=2)
    else:
        out = result["stdout"]
    def mask(text):
        return text.replace(src, "<src>").replace(tmp, "<tmp>")

    return {"stdout": mask(out), "stderr": mask(result["stderr"]), "code": result["code"],
            "coeff": result.get("coeff")}


def float_differences(a, b, key="", into=None, only=None):
    """{report key: largest |a - b|} over the numbers at the same place of two
    JSON values; list entries are keyed by their "name" where they have one.
    A number against a non-number, NaN against a number, or inf against a
    different number counts as an infinite difference.  Given a set `only`,
    a dict key that one value lacks is added to it, "+key" where a lacks it
    and "-key" where b does, instead of being compared."""
    into = {} if into is None else into
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() | b.keys():
            path = f"{key}.{k}" if key else k
            if only is not None and (k in a) != (k in b):
                only.add(("+" if k in b else "-") + path)
                continue
            float_differences(a.get(k), b.get(k), path, into, only)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            x, y = (c[i] if i < len(c) else None for c in (a, b))
            name = x.get("name", i) if isinstance(x, dict) else i
            float_differences(x, y, f"{key}[{name}]", into, only)
    elif _number(a) or _number(b):
        diff = _difference(a, b)
        if diff:
            into[key] = max(into.get(key, 0.0), diff)
    return into


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _difference(a, b):
    if not (_number(a) and _number(b)):
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b)
    return math.inf if math.isnan(diff) else diff


def compare(parent, change):
    """One line per differing part of a payload pair, empty when they are identical."""
    lines = []
    for part in ("stdout", "stderr", "code", "coeff"):
        if parent[part] == change[part]:
            continue
        lines.append(f"  {part} differs")
        if part == "stdout":
            try:
                diffs = float_differences(json.loads(parent[part]), json.loads(change[part]))
            except ValueError:
                continue
            lines += [f"    {k}: {d:.3g}" for k, d in sorted(diffs.items())]
    return lines


def _coefficients(text):
    """The header lines and the entries of a coefficient file's text."""
    lines = text.splitlines()
    return lines[:5], [[float(x) for x in line.split()] for line in lines[5:]]


def coefficient_move(a, b):
    """The largest |a - b| over the entries of two coefficient files' texts,
    relative to the largest entry of a; inf where a file is missing, or
    their headers or shapes differ."""
    if a is None or b is None:
        return math.inf
    (head_a, rows_a), (head_b, rows_b) = _coefficients(a), _coefficients(b)
    if head_a != head_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    pairs = [(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)]
    top = max((abs(x) for x, _ in pairs), default=0.0)
    move = max((_difference(x, y) for x, y in pairs), default=0.0)
    return move / top if top else (math.inf if move else 0.0)


def summary(pairs):
    """Lines that sum up the differing (parent, change) payload pairs: the
    largest move per report key over all of them, the report keys that only
    one side writes, and the largest relative move of a coefficient-file
    entry (``coefficient_move``)."""
    moves, only, coeff = {}, set(), 0.0
    for a, b in pairs:
        if a["stdout"] != b["stdout"]:
            try:
                reports = json.loads(a["stdout"]), json.loads(b["stdout"])
            except ValueError:
                reports = None
            if reports:
                for k, d in float_differences(*reports, only=only).items():
                    moves[k] = max(moves.get(k, 0.0), d)
        if a["coeff"] != b["coeff"]:
            coeff = max(coeff, coefficient_move(a["coeff"], b["coeff"]))
    lines = [f"largest moves over {len(pairs)} differing commands:"]
    lines += [f"  {k}: {d:.3g}" for k, d in sorted(moves.items())]
    lines += [f"  {k}" for k in sorted(only, key=lambda k: (k[1:], k))]
    lines.append(f"  coefficient files: {coeff:.3g} relative to the largest entry")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent checkout, or its src directory")
    parser.add_argument("change", help="the changed checkout, or its src directory")
    args = parser.parse_args(argv)
    argvs = commands()
    parent = run_tree(source_dir(args.parent), argvs)
    change = run_tree(source_dir(args.change), argvs)
    differing = []
    for argv, a, b in zip(argvs, parent, change):
        lines = compare(a, b)
        if lines:
            differing.append((a, b))
            print(" ".join(argv))
            print("\n".join(lines))
    print("\n".join(summary(differing)))
    print(f"{len(differing)} of {len(argvs)} commands differ")
    return int(bool(differing))


if __name__ == "__main__":
    sys.exit(main())
