"""Paired session times of two source trees of bochner2d on one benchmark workload.

    python3 tools/ab.py PARENT CHANGE --workload W [--pairs N] [--seconds S] [--seed K]

Each argument is a checkout of the repository (a directory holding
``src/bochner2d``) or its ``src`` directory.  Each pair starts one fresh
interpreter per tree, with only that tree's ``src`` and the repository
holding this script on the import path, and runs the benchmark's own
session loop there: ``Runner`` of ``bench/run.py`` of this repository
(imported, not modified) runs session 0 as an untimed warm-up, then timed
sessions for S seconds and at least ``MIN_SESSIONS``, as ``bench/run.py
--trace 0`` does.  Both trees of pair n draw their sessions from seed
K + n; the tree that runs first alternates from pair to pair, the parent
first in pair 1.  A failed command stops the tool.

The tool prints, for the session p50, the session tail and the peak RSS of
the interpreter, the value of each tree in each pair, each tree's median and
quartiles, and in how many pairs the change read lower, by the summary
helpers of ``paired`` that ``import_ab.py`` uses too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import paired
from payload_diff import source_dir

REPO = Path(__file__).resolve().parent.parent
# metric key of the child's output -> (printed name, unit, decimals, scale)
METRICS = {"session_p50": ("session_s_p50", "ms", 3, 1e3),
           "session_tail": ("session_s_tail", "ms", 3, 1e3),
           "peak_rss_mb": ("peak_rss_mb", "MB", 1, 1.0)}
CHILD = """\
import json, resource, statistics, sys
src, repo, workload, seed, seconds = sys.argv[1:]
sys.path[:0] = [src, repo]
import bochner2d
from bench.run import MIN_SESSIONS, Runner, tail
runner = Runner(workload, int(seed))
runner.session(0)
times = [sum(c) for c in runner.timed(float(seconds), MIN_SESSIONS)]
print(json.dumps({"module": bochner2d.__file__, "failed": runner.failed,
                  "problems": runner.problems[:3],
                  "session_p50": statistics.median(times), "session_tail": tail(times)[0],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_sessions(src, workload, seed, seconds):
    """The metrics of one tree's timed sessions, from a fresh interpreter that
    imports bochner2d from `src`."""
    env = {k: v for k, v in os.environ.items() if k not in ("BOCHNER_THREADS", "PYTHONPATH")}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), str(REPO), workload,
                           str(seed), str(seconds)],
                          cwd=REPO, env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    if src.resolve() not in Path(out["module"]).resolve().parents:
        raise SystemExit(f"the sessions imported bochner2d from {out['module']}, not {src}")
    if out["failed"]:
        raise SystemExit(f"{out['failed']} failed command(s) on {src}: {out['problems']}")
    return out


def report(results):
    """The printed lines: for each of METRICS, the pairs and their summary;
    `results` holds one (parent metrics, change metrics) per pair."""
    lines = []
    for key, (name, unit, digits, scale) in METRICS.items():
        values = [(p[key] * scale, c[key] * scale) for p, c in results]
        lines += [f"{name}:", *("  " + line for line in paired.report(values, unit, digits))]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent checkout, or its src directory")
    parser.add_argument("change", help="the changed checkout, or its src directory")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interpreter pairs, at least 2 (default 10)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per tree and pair (default 25)")
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of pair 1; pair n takes seed + n - 1 (default 1000)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    srcs = [source_dir(args.parent), source_dir(args.change)]
    results = paired.measure(args.pairs, lambda k, n: run_sessions(
        srcs[k], args.workload, args.seed + n, args.seconds))
    print("\n".join(report(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
