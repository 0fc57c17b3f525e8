"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 perfbench/run.py --workload eval-lossy --seed 1 --seconds 20 --trace 0

The load is a closed loop: one client makes one call at a time, with
fresh seeded inputs per call, until the timed calls add up to --seconds
(and number at least 100, within twice --seconds).
Every output is checked outside the timed region; a call that raises or
fails its check counts as failed, and the run then exits with code 1.

Before each call and after the last one the run times a fixed reference
computation (`workloads.reference_seconds`), and divides each call's
time by the mean of the two references around it.  The shared host's
speed swings about 2x over seconds; the quotient, in units of "ref",
cancels that swing, while the plain seconds measure the host as much as
the program.

--trace 0 prints the end-to-end metrics: set-up time (median of ten
fresh processes that import, build inputs and make one warm-up call,
five before and five after the calls), call latency p50 and p90 in ref,
calls per thousand ref and peak RSS; `#` lines add the sample count, the
failed fraction, the same latencies and throughput in seconds, and the
median reference time.  --trace 1 runs the same calls untraced for half
of --seconds, replays them under the span tracer, and prints per-layer
calls, self time and share of the traced wall time, the layer counters,
the permanent kernel ladder and the tracing overhead.  The spans go to
.perfbench_out/spans-<workload>.csv.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without the package sources under src/ the run exits with
code 2 and prints no result.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, NAMES, Tracer

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # before the calls, and as many again after them
MIN_CALLS = 100  # p90 needs ten samples beyond it
PROBE_TIMEOUT_S = 60.0
READY = "ready"


def import_boskit() -> float:
    """Import boskit from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import boskit
    elapsed = time.perf_counter() - start
    if Path(boskit.__file__).resolve().parent != src / "boskit":
        raise ImportError(f"boskit resolved to {boskit.__file__}, not under {src}")
    return elapsed


def setup_seconds(args) -> list:
    """Times from process start to ready-for-the-first-timed-call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline().decode().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe exited with {code} before it was ready")
        samples.append(elapsed)
    return samples


def run_calls(workload, seconds=None, count=None, tracer=None, min_calls=1):
    """Closed loop of timed calls; returns (durations, refs, error messages).

    Stops once the timed calls add up to `seconds` and number at least
    `min_calls`, though never past twice `seconds`; or, given `count`,
    after that many calls.  Call i always gets input `workload.make(i)`,
    so a replay with `count` repeats the same inputs.  refs[i] is the
    mean of the reference times taken just before and just after call i.
    """
    from workloads import reference_seconds

    durations, refs, errors = [], [], []
    spent = 0.0

    def more() -> bool:
        if count is not None:
            return len(durations) < count
        return spent < seconds or (len(durations) < min_calls and spent < 2 * seconds)

    while more():
        i = len(durations)
        x = workload.make(i)
        refs.append(reference_seconds())
        with tracer.call(i) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out, error = workload.call(x), None
            except Exception as exc:  # a failed call is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if error is None:
            error = workload.check(i, x, out)
        if error is not None:
            errors.append(f"call {i}: {error}")
        durations.append(elapsed)
        spent += elapsed
    refs.append(reference_seconds())
    refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return durations, refs, errors


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, workload):
    setup = setup_seconds(args)
    durations, refs, errors = run_calls(workload, seconds=args.seconds,
                                        min_calls=MIN_CALLS)
    setup += setup_seconds(args)
    in_refs = [d / r for d, r in zip(durations, refs)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_ref.p50": (statistics.median(in_refs), "ref"),
        "call_ref.p90": (p90(in_refs), "ref"),
        "calls_per_kref": (1e3 * len(in_refs) / sum(in_refs), "1/kref"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = {"call_s.samples": len(durations),
             "call_s.p50": statistics.median(durations),
             "call_s.p90": p90(durations),
             "calls_per_s": len(durations) / sum(durations),
             "ref_ms": statistics.median(refs) * 1e3,
             "failed_frac": len(errors) / len(durations)}
    return len(durations), errors, metrics, notes


def per_layer(args, workload, import_s):
    from workloads import kernel_ladder

    untraced, _, errors = run_calls(workload, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_errors = run_calls(workload, count=len(untraced),
                                            tracer=tracer)
    finally:
        tracer.uninstall()
    errors += traced_errors
    wall_s = sum(traced)
    n_calls = len(traced)
    totals = tracer.layer_totals()

    # Counts and self times are per workload call, so that they compare
    # across versions that fit different numbers of calls into a run.
    metrics = {}
    for name in LAYERS:
        entry = totals[name]
        metrics[f"{name}.calls"] = (entry["calls"] / n_calls, "1/call")
        metrics[f"{name}.self_s"] = (entry["self_s"] / n_calls, "s/call")
        metrics[f"{name}.share"] = (entry["self_s"] / wall_s, "ratio")

    metrics["cli.import_s"] = (import_s, "s")
    metrics["dslio.bytes_written"] = (
        sum(totals["dslio.serialize"]["values"]) / n_calls, "bytes/call")
    extended = sum(totals["fock.enumerate"]["values"])
    observed = sum(totals["engine.prob_fn"]["values"])
    metrics["fock.extended_states"] = (extended / n_calls, "1/call")
    metrics["engine.observed_states"] = (observed / n_calls, "1/call")
    metrics["engine.observed_per_extended"] = (observed / extended if extended else 0.0,
                                               "ratio")
    sizes = totals["engine.permanent"]["values"]
    terms = sum(2 ** n - 1 for n in sizes)
    metrics["engine.permanent.mean_n"] = (sum(sizes) / len(sizes) if sizes else 0.0, "rows")
    metrics["engine.permanent.terms"] = (terms / n_calls, "1/call")
    metrics["engine.permanent.ns_per_term"] = (
        totals["engine.permanent"]["self_s"] / terms * 1e9 if terms else 0.0, "ns")
    metrics["sampler.shots"] = (sum(totals["sampler.sample"]["values"]) / n_calls, "1/call")
    metrics.update(optimizer_counters(tracer, totals, n_calls))
    for n, seconds in kernel_ladder(args.seed).items():
        metrics[f"engine.kernel.n{n}_s"] = (seconds, "s")
    metrics["trace.calls"] = (n_calls, "count")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.overhead"] = (wall_s / sum(untraced), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(OUT_DIR / f"spans-{args.workload}.csv")
    notes = {"spans": len(tracer)}
    return len(untraced) + len(traced), errors, metrics, notes


def optimizer_counters(tracer, totals, n_calls: int) -> dict:
    """Objective evaluations, iterations and accepted steps of `opt_config`.

    An objective evaluation is one distance per training pair, counted
    inside `opt_config`; evals_per_iter leaves out the evaluation of the
    starting point that each call makes before its first iteration.
    """
    distance = NAMES.index("engine.distance")
    runs = {}
    for index, name in enumerate(tracer.names):
        if name == distance:
            owner = tracer.ancestor(index, "optimizer.opt_config")
            if owner >= 0:
                runs[owner] = runs.get(owner, 0) + 1
    evals = sum(count / tracer.details[owner][0] for owner, count in runs.items())
    histories = [history for _, history in totals["optimizer.opt_config"]["values"]]
    iters = sum(len(h) - 1 for h in histories)
    improved = sum(b < a for h in histories for a, b in zip(h, h[1:]))
    calls = totals["optimizer.opt_config"]["calls"]
    return {
        "optimizer.objective_evals": (evals / n_calls, "1/call"),
        "optimizer.iters": (iters / n_calls, "1/call"),
        "optimizer.evals_per_iter": ((evals - calls) / iters if iters else 0.0, "evals/iter"),
        "optimizer.improve_ratio": (improved / iters if iters else 0.0, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set-up probe: get ready for the first timed call, then exit")
    args = parser.parse_args()
    args.seed %= 2 ** 63

    # Before numpy loads; the set-up probes inherit the environment.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        import_s = import_boskit()
        from workloads import WARMUP, WORKLOADS
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        OUT_DIR.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR)
        workload.call(workload.make(WARMUP))  # untimed warm-up
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        print(READY, flush=True)
        return 0

    try:
        attempted, errors, metrics, notes = (per_layer(args, workload, import_s)
                                             if args.trace else end_to_end(args, workload))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in errors[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in {**notes, **workload.report()}.items():
        print(f"# {args.workload} {name} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
