"""End-to-end and per-layer benchmark of the rkdist command line.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from a source checkout; rkdist is imported from its `src/`.  One client
in one process runs `rkdist.cli.run` commands one after another (a closed
loop, no threads).  It makes full rounds over the workload's ops, in a
seeded order, until `--seconds` of ops have run and at least MIN_ROUNDS
rounds are done.  Every output is checked against the independent
reference after each round, outside the timed section.

Times are calibrated (see calibration.py): each op's time is scaled by a
power of the reference time of a fixed kernel over the kernel's time
around and inside the op.  wall_s is the time of one pass over every op,
each op at its median over the rounds, so that a spike in one round does
not move it.  op_p50_ms is taken over every op run of every round, so
each op weighs the same.  op_tail_ms is taken over the op runs of the
first MIN_ROUNDS rounds, so that its percentile does not change with the
number of rounds that fit.  The measured figures are printed beside the
JSON line.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; set-up time is
the median over SETUP_PROBES fresh interpreters that each import rkdist,
make the inputs and run the warm-up.  --trace 1 runs full rounds untraced,
then traced, and prints the per-layer metrics: calls and self time of each
function in `tracing.FUNCTIONS` per round, the enumeration yield at t = 9,
and the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 4
SETUP_PROBES = 3
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples above it; None with too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based; exactly TAIL_BEYOND samples rank above it
    return sorted(values)[rank - 1], 100.0 * rank / n


def load_rkdist():
    src = ROOT / "src"
    if not (src / "rkdist" / "__init__.py").is_file():
        raise SystemExit(f"error: no rkdist sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import rkdist.cli

    if Path(rkdist.cli.__file__).resolve().parent != src / "rkdist":
        raise SystemExit(f"error: imported rkdist from {rkdist.cli.__file__}, not from {src}")
    return rkdist.cli


def metric_specs(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def set_up(name: str, seed: int, workdir: Path, cli) -> workloads.Workload:
    wl = workloads.build(name, seed, workdir, cli.run)
    for argv in wl.warmup:
        try:
            cli.run(argv)
        except Exception:  # the same op fails again, and is counted, in the timed rounds
            pass
    return wl


class Runner:
    """Runs rounds of one workload's ops and checks their outputs."""

    def __init__(self, wl: workloads.Workload, cli, tracer: tracing.Tracer | None = None):
        self.wl = wl
        self.cli = cli
        self.tracer = tracer
        self.measured: list[list[float]] = [[] for _ in wl.ops]  # per op, one per round, in seconds
        self.scaled: list[list[float]] = [[] for _ in wl.ops]  # the same, calibrated
        self.rounds = 0
        self.spent = 0.0
        self.requests = 0
        self.last_request: dict[int, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.first_line: dict[int, bytes] = {}  # of each op's last stdout
        self._good: dict[int, int] = {}  # hash of each op's last checked result
        self.calibrator = calibration.Calibrator()

    def run_round(self) -> None:
        """Run every op once, in the seeded order, then check the outputs."""
        results = {}
        for i in self.wl.order:
            if self.tracer is not None:
                self.tracer.request = self.requests
            self.last_request[i] = self.requests
            self.requests += 1
            timing, results[i] = self.calibrator.time(lambda: self._call(i))
            self.measured[i].append(timing.measured)
            self.scaled[i].append(timing.calibrated)
            self.spent += timing.measured
        self.rounds += 1
        self._verify(results)

    def _call(self, i: int) -> tuple[bytes, bytes, int]:
        try:
            return self.cli.run(self.wl.ops[i].argv)
        except Exception:  # a traceback from the program is a failed op, not a benchmark crash
            return b"", traceback.format_exc().encode(), -1

    def _verify(self, results: dict) -> None:
        for i, (out, err, code) in sorted(results.items()):
            op = self.wl.ops[i]
            written = None
            if op.out_path is not None and op.out_path.exists():
                written = op.out_path.read_bytes()
                op.out_path.unlink()
            r = workloads.Result(out, err, code, written)
            self.attempted += 1
            self.first_line[i] = out.split(b"\n", 1)[0]
            digest = hash(r)  # 64-bit SipHash; not hashlib, whose OpenSSL library adds 3.6 MB to peak_rss_mb
            if self._good.get(i) == digest:
                continue
            why = op.check(r)
            if why is None:
                self._good[i] = digest
            else:
                self.failures.append(f"{' '.join(op.argv)}: {why}")

    def run_for(self, seconds: float, min_rounds: int = 1) -> None:
        """Full rounds until `seconds` of ops are spent and `min_rounds` are done."""
        while self.rounds < min_rounds or self.spent < seconds:
            self.run_round()


def pass_time(samples: list[list[float]]) -> float:
    """One pass over every op, each op at its median."""
    return sum(statistics.median(v) for v in samples)


def op_runs(samples: list[list[float]], rounds: int | None = None) -> list[float]:
    """Every op run of the first `rounds` rounds (all by default)."""
    return [t for v in samples for t in v[:rounds]]


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(measured, calibrated) time of one set-up in a fresh interpreter, which
    reports the kernel time it saw and the time it spent running the kernel."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    took = time.perf_counter() - t0
    child = json.loads(proc.stdout)
    took -= child["overhead"]
    return took, calibration.scale(took, child["kernel"])


def end_to_end(args, wl, cli) -> tuple[dict[str, float], Runner, list[str]]:
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    runner = Runner(wl, cli)
    runner.run_for(args.seconds, MIN_ROUNDS)
    first = op_runs(runner.scaled, MIN_ROUNDS)
    found = tail(first)
    if found is None:
        raise SystemExit(f"error: {len(first)} op runs are too few for a tail latency")
    tail_s, pct = found
    values = {
        "wall_s": pass_time(runner.scaled),
        "setup_s": statistics.median(c for _, c in probes),
        "op_p50_ms": 1000 * statistics.median(op_runs(runner.scaled)),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_tail_ms is p{pct:.1f} of {len(first)} op runs: {MIN_ROUNDS} rounds of {len(wl.ops)} ops;"
        f" wall_s and op_p50_ms are over all {runner.rounds} rounds",
        f"setup_s is the median of {SETUP_PROBES} fresh processes",
        f"measured, not calibrated: wall_s {pass_time(runner.measured)}"
        f" setup_s {statistics.median(m for m, _ in probes)}"
        f" op_p50_ms {1000 * statistics.median(op_runs(runner.measured))}",
    ]
    return values, runner, notes


def per_layer(args, wl, cli) -> tuple[dict[str, float], Runner, list[str]]:
    plain = Runner(wl, cli)
    plain.run_for(args.seconds / 2)
    tracer = tracing.Tracer()
    traced = Runner(wl, cli, tracer)
    totals = []  # (calls, self time) per traced round
    tracer.install()
    try:
        while not totals or traced.spent < args.seconds / 2:
            tracer.clear()
            traced.run_round()
            last = tracer.records()
            totals.append(tracing.layer_totals(last))
    finally:
        tracer.remove()
    values: dict[str, float] = {}
    for fid, name in enumerate(tracing.NAMES):
        values[f"{name}.calls"] = totals[-1][0][fid]
        values[f"{name}.self_s"] = statistics.median(t[1][fid] for t in totals) / 1e9
    candidates = profiles = 0
    if wl.top_enumerate is not None:
        request = traced.last_request[wl.top_enumerate]
        candidates = tracing.count_under(last, request, "core.make_profile", "enumeration.enumerate_profiles")
        profiles = int(traced.first_line[wl.top_enumerate])
    values["enumeration.candidates"] = candidates
    values["enumeration.profiles"] = profiles
    values["enumeration.yield"] = profiles / candidates if candidates else 0.0
    values["trace.overhead_ratio"] = pass_time(traced.scaled) / pass_time(plain.scaled)
    trace_file = ROOT / ".bench_work" / f"trace-{args.workload}.tsv"
    tracer.write(trace_file)
    notes = [f"per-layer figures are per round, over {len(totals)} traced rounds; last round's spans in {trace_file.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("not found in rkdist: " + ", ".join(tracer.missing))
    plain.attempted += traced.attempted
    plain.failures += traced.failures
    return values, plain, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_only:
        try:
            timing, _ = calibration.Calibrator().time(lambda: set_up(args.workload, args.seed, workdir, load_rkdist()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"kernel": timing.kernel, "overhead": timing.overhead}))
        return 0
    cli = load_rkdist()
    specs = metric_specs(args.trace)
    try:
        wl = set_up(args.workload, args.seed, workdir, cli)
        values, runner, notes = (per_layer if args.trace else end_to_end)(args, wl, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in specs}:
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    for line in notes:
        print(line)
    print(f"fail_ratio {failed}/{runner.attempted} = {failed / runner.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
