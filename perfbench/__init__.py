"""ratekit performance benchmark: offline tables, online loop and synthesis queries.

Run ``python3 perfbench/run.py --workload <offline|online|synthesis> --seed N
--seconds S --trace 0|1`` from the repository root.  See ``PREDICTIONS.md``
for what each workload stresses and which metric each layer should move.
"""
