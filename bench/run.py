"""Run one benchmark workload of the bochner2d CLI and print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

One single-threaded, closed-loop client sends each session's commands as
``bochner2d.cli.main(argv)`` in-process with stdout captured, and starts the
next session only when the previous one ends.  Every session draws fresh
inputs from the seed (see ``workloads``), so no result can be reused.

A run first executes session 0 as an untimed warm-up, then timed sessions
for ``--seconds``, then session 0 again: its reports without ``timings``
must be byte-identical to the warm-up's.  Every report is checked (see
``checks``); a failed check or a non-identical repeat is a failed command.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics (see ``layers``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric by name with its unit.  A summary, and for traced runs the spans,
are written under ``bench/results/``.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

SETUP_PROCESSES = 5
TAIL_BEYOND = 10             # sessions that must lie beyond the tail value
MIN_SESSIONS = TAIL_BEYOND + 1
MIN_TRACE_SESSIONS = 3
MAX_PROBLEMS = 50            # failed commands kept for the report
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import bochner2d.cli as cli
cli.build_parser()
t1 = time.perf_counter()
print(repr(t1 - t0), cli.__file__)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _inside_src(path):
    return SRC.resolve() in Path(path).resolve().parents


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(bochner_threads):
    import numpy
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "BOCHNER_THREADS": bochner_threads}


def measure_setup():
    """Median time for `import bochner2d.cli` + `build_parser()` in fresh
    interpreters, timed inside each child so interpreter start is excluded."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BOCHNER_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, path = proc.stdout.split()
        if not _inside_src(path):
            raise RuntimeError(f"set-up imported bochner2d from {path}")
        times.append(float(seconds))
    return statistics.median(times), times


class Runner:
    """Runs sessions, checks their reports and keeps the failure tally."""

    def __init__(self, workload, seed):
        from bochner2d import cli, surfaces
        from . import checks, workloads
        self.cli, self.checks = cli, checks
        self.workload, self.seed = workload, seed
        self._commands = workloads.session_commands
        # captured now, so later tracing of the module attributes skips them
        self._make_surface = surfaces.make_surface
        self._chart_grid = surfaces.chart_grid
        self._guarded_mask = surfaces.guarded_mask
        self.attempted = self.failed = 0
        self.problems = []
        self.signatures = set()
        self.digests = {}
        self._next = 1

    def next_index(self):
        self._next += 1
        return self._next - 1

    def expected_nodes(self, argv):
        """Guarded-node count of a verify command's grid."""
        if argv[0] != "verify":
            return None
        opts = dict(zip(argv[1::2], argv[2::2]))
        kind, _, params = opts["--surface"].partition(":")
        surface = self._make_surface(kind, [float(p) for p in params.split(",")])
        nu, nv = (int(n) for n in opts["--grid"].split("x"))
        grid = self._chart_grid(surface, nu, nv)
        return int(self._guarded_mask(surface, grid.U, grid.V).sum())

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception:
            status = None
            err.write(traceback.format_exc())
        return status, out.getvalue(), err.getvalue()

    def session(self, index, reference=None):
        """Run and check one session.

        Returns (seconds of each command, reports, payloads).
        With `reference` (payloads of an earlier run of the same session),
        a report that differs from it counts as a failed command.
        """
        commands = self._commands(self.workload, self.seed, index)
        expected = [self.expected_nodes(argv) for argv in commands]
        stamps, outputs = [time.perf_counter()], []
        for argv in commands:
            outputs.append(self._call(argv))
            stamps.append(time.perf_counter())
        seconds = [b - a for a, b in zip(stamps, stamps[1:])]
        reports, payloads = [], []
        for k, (argv, nodes, (status, out, err)) in enumerate(
                zip(commands, expected, outputs)):
            problems, rep = self.checks.command_problems(argv, status, out, nodes)
            payload = self.checks.payload(rep) if rep is not None else b""
            if reference is not None and payload != reference[k]:
                problems.append("report differs from the first run of this session")
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append({"session": index, "argv": argv,
                                          "problems": problems,
                                          "stderr": err[-2000:]})
            reports.append(rep)
            payloads.append(payload)
        self.signatures.add(self.checks.shape_signature(reports))
        self.digests[index] = self.checks.digest(payloads)
        return seconds, reports, payloads

    def timed(self, seconds, minimum):
        """Per-command seconds of a closed loop of fresh sessions that runs
        for `seconds` and at least `minimum` sessions."""
        times = []
        start = time.perf_counter()
        while len(times) < minimum or time.perf_counter() - start < seconds:
            times.append(self.session(self.next_index())[0])
        return times


def tail(times):
    """Highest order statistic with TAIL_BEYOND sessions beyond it.

    Returns (value, percentile, sample count)."""
    xs = sorted(times)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(runner, seconds):
    setup, setup_all = measure_setup()
    command_s = runner.timed(seconds, MIN_SESSIONS)
    times = [sum(c) for c in command_s]
    value, pct, n = tail(times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"session_s_p50": statistics.median(times), "session_s_tail": value,
               "setup_s": setup, "peak_rss_mb": peak}
    notes = {"session_s_tail": f"p{pct:.1f} of {n} sessions, "
                               f"{TAIL_BEYOND} beyond it",
             "setup_s": f"median of {len(setup_all)} fresh interpreters"}
    return metrics, notes, {"command_s": command_s, "setup_s": setup_all}


def per_layer(runner, seconds):
    """Alternate untraced and traced sessions for `seconds`.

    Alternating keeps host-speed drift out of the tracing overhead."""
    from . import layers, tracing
    tracer = tracing.Tracer()
    untraced, traced, sessions = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACE_SESSIONS
           or time.perf_counter() - start < seconds):
        command_s, _, _ = runner.session(runner.next_index())
        untraced.append(sum(command_s))
        index = tracer.session = runner.next_index()
        with tracer.installed():
            command_s, reports, _ = runner.session(index)
        traced.append(sum(command_s))
        sessions.append((index, reports))
    spans = tracer.spans
    annotations = layers.annotate(spans)
    by_session = {}
    for i, span in enumerate(spans):
        by_session.setdefault(span.session, []).append(i)
    rows = [layers.session_metrics(spans, by_session.get(index, []), annotations,
                                   [r for r in reports if r is not None])
            for index, reports in sessions]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    notes = {"trace.overhead_s": f"{len(traced)} traced sessions alternating "
                                 f"with {len(untraced)} untraced"}
    return metrics, notes, {"session_s": untraced, "traced_session_s": traced,
                            "per_session": rows}, spans


def _write_results(name, summary, spans):
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans is not None:
        with open(RESULTS / f"{name}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def main(argv=None):
    args = _parse_args(argv)
    from .workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    if not (SRC / "bochner2d" / "cli.py").is_file():
        sys.stderr.write(f"bench: no program source at {SRC / 'bochner2d'}\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bochner2d
    if not _inside_src(bochner2d.__file__):
        sys.stderr.write(f"bench: bochner2d imported from {bochner2d.__file__}, "
                         f"not from {SRC}\n")
        return 2
    from .metrics import UNITS
    bochner_threads = os.environ.pop("BOCHNER_THREADS", "unset")
    env = environment(bochner_threads)

    runner = Runner(args.workload, args.seed)
    _, _, first = runner.session(0)                   # warm-up
    spans = None
    if args.trace:
        metrics, notes, samples, spans = per_layer(runner, args.seconds)
    else:
        metrics, notes, samples = end_to_end(runner, args.seconds)
    runner.session(0, reference=first)                # determinism repeat

    steady = len(runner.signatures) == 1
    fail_rate = runner.failed / runner.attempted
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {UNITS[name]}{note}")
    print(f"fail_rate = {fail_rate!r} ratio  ({runner.failed} failed / "
          f"{runner.attempted} attempted commands)")
    if not steady:
        print(f"UNSTEADY: sessions differ in node counts or degrees tried: "
              f"{sorted(map(repr, runner.signatures))}")
    for p in runner.problems[:10]:
        print(f"FAILED session {p['session']} {' '.join(p['argv'])}: "
              f"{'; '.join(p['problems'])}")
    print(f"session 0 digest {runner.digests[0]}")
    print(f"environment {json.dumps(env)}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_results(name, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "notes": notes,
        "fail_rate": fail_rate, "steady": steady, "environment": env,
        "samples": samples, "digests": runner.digests,
        "problems": runner.problems}, spans)

    result = {"correct": runner.failed == 0 and steady,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    from bench.run import main as _main
    sys.exit(_main())
