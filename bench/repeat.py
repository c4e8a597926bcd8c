"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --workloads enumerate iso --seeds 1 2 3 4 5

Runs `bench/run.py --trace 0` for BENCHMARK.json's run_seconds once per
(workload, seed), one after another, and prints per metric the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median.  The last line of stdout is the same summary as one JSON object,
with the Python version and the processor count; baseline.json's
end-to-end figures are two of these.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    summary = {"python": platform.python_version(), "nproc": os.cpu_count(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run reported incorrect output", file=sys.stderr)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        summary["workloads"][workload] = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs), "end_to_end": metrics}
        for name, s in metrics.items():
            print(f"{workload:15s} {name:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
