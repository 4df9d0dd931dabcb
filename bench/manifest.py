"""Write BENCHMARK.json and summarize benchmark runs.

    python3 bench/manifest.py                 # write BENCHMARK.json
    python3 bench/manifest.py --summary       # print medians and spreads
    python3 bench/manifest.py --baseline      # also write bench/baseline.json

``--summary`` and ``--baseline`` read every ``bench/results/*.json`` summary
that ``run.py`` wrote.  For each workload and metric they give the median
over runs and the spread: the distance between the first and third
quartile as a share of the median, as ``statistics.quantiles(n=4)`` gives
them.  ``bench/baseline.json`` holds that baseline together with the
environment it was measured in and the map from each per-layer metric to
the end-to-end metric it should move.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def manifest():
    from bench import metrics, workloads
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": metrics.RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.WORKLOADS.items()],
        "end_to_end": metrics.END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, *_ in metrics.PER_LAYER],
    }


def _load_results():
    runs = []
    for path in sorted(RESULTS.glob("*.json")):
        runs.append(json.loads(path.read_text()))
    return runs


def summarize(runs):
    """{workload: {"trace0"/"trace1": {metric: stats}}} over the given runs."""
    out = {}
    for run in runs:
        key = f"trace{run['trace']}"
        slot = out.setdefault(run["workload"], {}).setdefault(key, {})
        for name, value in run["metrics"].items():
            slot.setdefault(name, []).append(value)
    for per_mode in out.values():
        for mode, values in per_mode.items():
            per_mode[mode] = {name: _stats(vals) for name, vals in values.items()}
    return out


def _stats(values):
    med = statistics.median(values)
    stats = {"median": med, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        stats.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return stats


def baseline(runs):
    from bench import metrics
    envs = {json.dumps(r["environment"], sort_keys=True) for r in runs}
    return {
        "environment": [json.loads(e) for e in sorted(envs)],
        "run_seconds": sorted({r["seconds"] for r in runs}),
        "seeds": sorted({r["seed"] for r in runs}),
        "all_correct": all(r["fail_rate"] == 0 and r["steady"] for r in runs),
        "layer_map": [{"name": name, "moves": list(moves), "on": list(on)}
                      for name, _, _, moves, on in metrics.PER_LAYER],
        "workloads": summarize(runs),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--summary", action="store_true")
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    if args.summary or args.baseline:
        from bench import metrics
        bounds = {m["name"]: m["bound"] for m in metrics.END_TO_END}
        runs = _load_results()
        for workload, modes in summarize(runs).items():
            for name, st in modes.get("trace0", {}).items():
                spread = st.get("spread")
                print(f"{workload:8s} {name:16s} median {st['median']:.5g} "
                      f"spread {spread if spread is None else round(spread, 4)} "
                      f"bound/3 {bounds[name] / 3:.4f} runs {st['runs']}")
        if args.baseline:
            (ROOT / "bench" / "baseline.json").write_text(
                json.dumps(baseline(runs), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
