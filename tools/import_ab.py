"""Paired fresh-interpreter import times of two source trees of bochner2d.

    python3 tools/import_ab.py PARENT_SRC CHANGE_SRC [--pairs N]

Each argument is a checkout of the repository (a directory holding
``src/bochner2d``) or its ``src`` directory.  Each pair starts one fresh
interpreter per tree, with only that tree's ``src`` on the import path, and
runs ``SETUP_CODE`` of ``bench/run.py`` of the repository holding this
script (read only, not imported): the time of ``import bochner2d.cli`` plus
``build_parser()``, as the benchmark's ``setup_s`` takes it.  The tree that
runs first alternates from pair to pair, the parent first in pair 1.

The script prints the seconds of each pair, each tree's median and
quartiles, and in how many pairs the change read lower.
"""

import argparse
import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

from payload_diff import source_dir

REPO = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def setup_code(path=REPO / "bench" / "run.py"):
    """The string SETUP_CODE that the benchmark's runner assigns, read from its
    source."""
    for node in ast.parse(Path(path).read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_CODE in {path}")


def time_import(src, code):
    """The seconds that `code` prints, run in a fresh interpreter with only
    `src` on the import path; it prints them and the imported module's file,
    which must lie under `src`."""
    env = {k: v for k, v in os.environ.items() if k not in ("BOCHNER_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src.parent, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if src.resolve() not in Path(path).resolve().parents:
        raise SystemExit(f"the set-up code imported bochner2d from {path}, not {src}")
    return float(seconds)


def measure(pairs, run):
    """[(parent seconds, change seconds)] of `pairs` pairs, run(k) timing tree
    k of TREES once; pair n runs the parent first when n is even."""
    times = []
    for n in range(pairs):
        first = n % 2
        pair = {k: run(k) for k in (first, 1 - first)}
        times.append((pair[0], pair[1]))
    return times


def summary(times):
    """Each tree's (first quartile, median, third quartile) of `times`, and the
    number of pairs in which the change read lower than the parent."""
    spread = {}
    for k, tree in enumerate(TREES):
        q1, _, q3 = statistics.quantiles([t[k] for t in times], n=4, method="inclusive")
        spread[tree] = (q1, statistics.median(t[k] for t in times), q3)
    return spread, sum(change < parent for parent, change in times)


def report(times):
    """The printed lines: one per pair, then the summary."""
    lines = [f"pair {n + 1:3d}  first {TREES[n % 2]:6s}  parent {p:.4f} s  change {c:.4f} s"
             for n, (p, c) in enumerate(times)]
    spread, lower = summary(times)
    lines += [f"{tree}: median {med:.4f} s [{q1:.4f}, {q3:.4f}]"
              for tree, (q1, med, q3) in spread.items()]
    lines.append(f"change lower in {lower}/{len(times)} pairs")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent checkout, or its src directory")
    parser.add_argument("change", help="the changed checkout, or its src directory")
    parser.add_argument("--pairs", type=int, default=40,
                        help="interpreter pairs, at least 2 (default 40)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    srcs, code = [source_dir(args.parent), source_dir(args.change)], setup_code()
    times = measure(args.pairs, lambda k: time_import(srcs[k], code))
    print("\n".join(report(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
