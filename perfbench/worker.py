"""Run one workload in a fresh interpreter and print its result as one JSON line.

Started by ``run.py`` from the repository root as ``python3 -m perfbench.worker``.
``--t0-ns`` is the parent's CLOCK_MONOTONIC reading just before the start,
so ``setup_s`` covers interpreter start, ``import ratekit``, config loading
and the workload's prerequisite tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter, perf_counter_ns

MAX_MEASURE_S = 75.0   # never start another round after this long


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    t_import = perf_counter_ns()
    import ratekit
    t_imported = perf_counter_ns()
    import ratekit.config  # noqa: F401  (not imported by the package itself)
    if not Path(ratekit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported ratekit from {ratekit.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    import numpy
    import scipy

    from perfbench import metrics, tracing, workloads

    traced = args.mode == "trace"
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracing.instrument(tracer)
        tracer.record("import.ratekit", t_import, t_imported)

    workdir = root / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](ratekit, args.seed, workdir, tracer)
        wl.checkpoint()
        wl.setup()
        wl.checkpoint()
        setup_raw_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        setup_s = wl.norm_setup_s(setup_raw_s)
        if args.mode == "setup":
            _emit({"setup_s": setup_s, "setup_raw_s": setup_raw_s})
            return 0
        t0 = perf_counter()
        while True:
            tracer.run_id = f"round{wl.rounds}"
            wl.run_round()
            wl.rounds += 1
            elapsed = perf_counter() - t0
            if (elapsed >= args.seconds and wl.enough()) or elapsed >= MAX_MEASURE_S:
                break
        measured_s = perf_counter() - t0
        results = wl.results()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import_s = (t_imported - t_import) / 1e9
        out = {
            "setup_s": setup_s, "setup_raw_s": setup_raw_s, "import_s": import_s,
            "peak_rss_mb": peak_mb,
            "calibration_ms": {"reference": 1e3 * workloads.CALIBRATION_REF_S,
                               "setup_mean": 1e3 * float(numpy.mean(wl.setup_kernel_s)),
                               "run_mean": 1e3 * float(numpy.mean(wl.kernel_samples))},
            "attempted": wl.attempted, "failed": wl.failed, "causes": wl.causes,
            "rounds": wl.rounds, "measured_s": measured_s,
            "e2e": metrics.end_to_end(setup_s, peak_mb, wl.attempted, wl.failed, results),
            "named": results["named"], "samples": results["samples"], "counts": wl.counts,
            "facts": {"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__,
                      "ratekit_default_backend": ratekit.DEFAULT_BACKEND,
                      "has_numba": bool(ratekit.HAS_NUMBA)},
        }
        if traced:
            out["per_layer"] = metrics.per_layer(tracer.spans, wl.rounds, wl.counts,
                                                 import_s, results)
            spans_dir = root / ".perfbench" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_file)
            out["spans_file"] = str(spans_file.relative_to(root))
            out["spans"] = len(tracer.spans)
        _emit(out)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
