"""Benchmark entry point.

    python3 perfbench/run.py --workload offline|online|synthesis|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload runs in fresh interpreters:
with ``--trace 0``, two set-up-only probes and one measured run (``setup_s``
is the median of the three set-ups) and the last stdout line holds the
end-to-end metrics; with ``--trace 1``, one untraced and one traced run of
half the seconds each, and the last line holds the per-layer metrics,
including the tracing overhead (traced minus untraced).  ``--workload all``
runs the three workloads in turn and prints the per-workload metrics by name.
Details (run facts, exact counts, failure causes) go to stderr and to
``.perfbench/results/``; spans of traced runs go to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402  (needs ROOT on sys.path)

WORKLOADS = ("offline", "online", "synthesis")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one fresh worker process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("time limit reached before all runs finished")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--mode", mode,
           "--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} run exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _declared_values(values: dict, units: dict, kind: str) -> dict:
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Returns (result line, detail record) for one workload."""
    e2e_units, layer_units = metrics.declared(ROOT)
    if trace:
        base = _worker(workload, seed, seconds / 2, "measure", deadline)
        main = _worker(workload, seed, seconds / 2, "trace", deadline)
        values = dict(main["per_layer"])
        values.update(metrics.overhead(main["e2e"], base["e2e"]))
        result_metrics = _declared_values(values, layer_units, "per-layer")
        runs = [base, main]
        setups = [base, main]
    else:
        setups = [_worker(workload, seed, seconds, "setup", deadline)
                  for _ in range(SETUP_PROBES)]
        main = _worker(workload, seed, seconds, "measure", deadline)
        setups.append(main)
        runs = [main]
        values = dict(main["e2e"])
        values["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        result_metrics = _declared_values(values, e2e_units, "end-to-end")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": result_metrics}
    named = {name: {"value": v, "unit": u} for name, (v, u) in main["named"].items()}
    named["setup_s"] = {"value": statistics.median(r["setup_raw_s"] for r in setups), "unit": "s"}
    named["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
    named["failed_frac"] = {"value": failed / attempted if attempted else 1.0, "unit": "frac"}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": {**main["facts"], "nproc": os.cpu_count(),
                  "RATEKIT_PURE_NUMPY": os.environ.get("RATEKIT_PURE_NUMPY"),
                  "RATEKIT_THREADS": os.environ.get("RATEKIT_THREADS"),
                  "git_commit": _git_commit(ROOT)},
        "setup_samples_s": {"normalized": [r["setup_s"] for r in setups],
                            "as_measured": [r["setup_raw_s"] for r in setups]},
        "calibration_ms": main["calibration_ms"],
        "rounds": main["rounds"], "measured_s": main["measured_s"],
        "samples": main["samples"], "counts": main["counts"], "named": named,
        "causes": [c for r in runs for c in r["causes"]],
        "spans_file": main.get("spans_file"), "result": line,
    }
    return line, detail


def _report(detail: dict) -> None:
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{int(detail['trace'])}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=2) + "\n")
    print(f"[{detail['workload']}] seed {detail['seed']}, {detail['rounds']} rounds in "
          f"{detail['measured_s']:.1f} s, facts {json.dumps(detail['facts'])}", file=sys.stderr)
    print(f"[{detail['workload']}] counts {json.dumps(detail['counts'])}", file=sys.stderr)
    for name, m in detail["named"].items():
        print(f"[{detail['workload']}]   {name:<26} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    for cause in detail["causes"]:
        print(f"[{detail['workload']}] FAILED {json.dumps(cause)}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ratekit" / "__init__.py").is_file():
        print(f"perfbench: no ratekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = {}
        for name in names:
            line, detail = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            _report(detail)
            lines[name] = (line, detail)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload][0]))
        return 0
    print(f"{'workload':<10} {'metric':<26} {'value':>14}  unit")
    merged = {}
    for name, (line, detail) in lines.items():
        for metric, m in detail["named"].items():
            print(f"{name:<10} {metric:<26} {m['value']:>14.6g}  {m['unit']}")
        merged.update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps({"correct": all(line["correct"] for line, _ in lines.values()),
                      "attempted": sum(line["attempted"] for line, _ in lines.values()),
                      "failed": sum(line["failed"] for line, _ in lines.values()),
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
