"""Alternating parent/change pairs and their summary, for the A/B tools.

``measure`` runs the pairs, the tree that runs first alternating from pair
to pair; ``summary`` and ``report`` give each tree's median and quartiles
and the number of pairs in which the change read lower.
"""

import statistics

TREES = ("parent", "change")


def measure(pairs, run):
    """[(parent value, change value)] of `pairs` pairs, run(k, n) measuring tree
    k of TREES once in pair n; pair n runs the parent first when n is even."""
    values = []
    for n in range(pairs):
        first = n % 2
        pair = {k: run(k, n) for k in (first, 1 - first)}
        values.append((pair[0], pair[1]))
    return values


def summary(values):
    """Each tree's (first quartile, median, third quartile) of `values`, and the
    number of pairs in which the change read lower than the parent."""
    spread = {}
    for k, tree in enumerate(TREES):
        q1, _, q3 = statistics.quantiles([t[k] for t in values], n=4, method="inclusive")
        spread[tree] = (q1, statistics.median(t[k] for t in values), q3)
    return spread, sum(change < parent for parent, change in values)


def report(values, unit="s", digits=4):
    """The printed lines: one per pair, then the summary, each value with
    `digits` decimals and its `unit`."""
    f = f"{{:.{digits}f}} {unit}"
    lines = [f"pair {n + 1:3d}  first {TREES[n % 2]:6s}  "
             f"parent {f.format(p)}  change {f.format(c)}"
             for n, (p, c) in enumerate(values)]
    spread, lower = summary(values)
    lines += [f"{tree}: median {f.format(med)} [{q1:.{digits}f}, {q3:.{digits}f}]"
              for tree, (q1, med, q3) in spread.items()]
    lines.append(f"change lower in {lower}/{len(values)} pairs")
    return lines
