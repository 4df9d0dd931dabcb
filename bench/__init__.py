"""Benchmark of the bochner2d certification chain.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs closed-loop CLI sessions of one workload and prints its metrics;
``python3 bench/manifest.py`` writes the repository's ``BENCHMARK.json``.
"""
