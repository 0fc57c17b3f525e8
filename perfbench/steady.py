"""Repeat the benchmark and report each end-to-end metric's run-to-run spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds 20]

Runs every workload of BENCHMARK.json --runs times, each in a fresh
process with its own seed, then prints per workload and metric the
median, the quartiles, the spread (q3 - q1) / median as
statistics.quantiles(values, n=4) gives it, and the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged.  The
latencies and throughput in seconds and the reference time ref_ms, from
run.py's '#' lines, are shown the same way, without a bound.
failed_frac is failed / attempted over all runs, and train-lossy's
final_loss is the median over runs.  Each workload also gets one traced
run, which reports trace.overhead and the largest per-layer shares.
With --runs 1 this is the one command that prints every end-to-end
metric for every workload.  All values are also written to
.perfbench_out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
UNGATED = ("call_s.p50", "call_s.p90", "calls_per_s", "ref_ms")  # run.py '#' lines


def run_once(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr}")
    notes = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            name, _, value = line[2:].partition(" = ")
            notes[name.split(" ", 1)[1]] = float(value)
    return proc.returncode, json.loads(lines[-1]), notes


def spread(values) -> tuple[float, float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in (*bounds, *UNGATED)}
        attempted = failed = 0
        losses = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, result, notes = run_once(workload, seed, args.seconds, 0)
            status |= code
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in UNGATED:
                values[name].append(notes[name])
            if "final_loss" in notes:
                losses.append(notes["final_loss"])
        record[workload] = {"values": values, "attempted": attempted, "failed": failed}
        print(f"== {workload}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"   {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in values:
            median, q1, q3, rel = spread(values[name])
            bound = bounds.get(name)
            if bound is None:
                limit, flag = "     -", ""
            else:
                limit = f"{bound:6.3f}"
                flag = "" if rel <= bound / 3 else "  > bound/3" if rel <= bound else "  > bound"
            print(f"   {name:<14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {limit}{flag}")
        print(f"   failed_frac  {failed / attempted:.6g} ({failed}/{attempted})")
        if losses:
            print(f"   final_loss   {statistics.median(losses):.12g} (median over runs)")
        code, result, _ = run_once(workload, args.first_seed, args.seconds, 1)
        status |= code
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        record[workload]["traced"] = metrics
        shares = sorted(((v, k) for k, v in metrics.items() if k.endswith(".share")),
                        reverse=True)[:4]
        print(f"   trace.overhead {metrics['trace.overhead']:.4f}; top shares: "
              + ", ".join(f"{k} {v:.3f}" for v, k in shares))
        sys.stdout.flush()

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
