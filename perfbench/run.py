"""Benchmark of the biphoton toolkit, driven through its public functions.

Run from the repository root:

    python3 perfbench/run.py --workload ring_verbs --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Workloads (see perfbench/NOTES.md): table1, ring_verbs, photon_stats. Each
is a closed loop with one client in one process. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it runs every
request twice, without and with timing wrappers, and reports per-layer
metrics from the spans. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Spans and a
full result record with the machine provenance go to .perfbench/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("table1", "ring_verbs", "photon_stats")
SETUP_REPEATS = 10  # fresh processes before the run, and as many after it
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
PROBE_TIMEOUT_S = 60

# ROADMAP baseline at the re-anchor: (label, span, grid points, ROADMAP figure)
ROADMAP_BASELINE = (
    ("waveguide JSA build (257 nodes x 401^2)", "sources.build_waveguide_jsa", 401, "3.9-4.8 s"),
    ("ring JSA build (257 nodes x 401^2)", "sources.build_ring_jsa", 401, "1.2-1.3 s"),
    ("apply_filter", "sources.apply_filter", None, "4-6 ms"),
    ("schmidt_decompose (full 401^2 SVD)", "schmidt.schmidt_decompose", 401, "~85 ms"),
    ("purity() (values-only SVD)", "schmidt.purity", 401, "~45 ms"),
    ("table1 request", "cli.cmd_table1", None, "16.5 s"),
)


def configure_threads():
    """Cap OpenBLAS at two threads (or nproc, if smaller) before numpy loads."""
    cap = min(2, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def import_biphoton():
    """Import biphoton from this checkout's src/, never from anywhere else."""
    if not (SRC / "biphoton" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no biphoton package under {SRC}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import biphoton

    if Path(biphoton.__file__).resolve().parent != (SRC / "biphoton").resolve():
        raise SystemExit(f"perfbench: imported biphoton from {biphoton.__file__}, not from {SRC}")
    return biphoton


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="run only the checks' self-test")
    p.add_argument("--record-reference", action="store_true", help="re-record reference purities")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.self_test or args.record_reference or args.workload):
        p.error("--workload is required")
    return args


# ------------------------------------------------------------------- set-up


def probe_setup(workload, seed):
    """Child process: time importing biphoton and loading the workload's scenarios."""
    t0 = perf_counter()
    import_biphoton()
    import biphoton.cli  # noqa: F401  (the verbs the workloads call)
    import decks

    decks.PLANS[workload](seed, OUT)  # plans only parse; request files are written later
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload, seed, times):
    """Append the set-up times of SETUP_REPEATS fresh processes to ``times``."""
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{out.stderr}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# -------------------------------------------------------------- measurement


class Run:
    """Latencies and outcomes of one measured run."""

    def __init__(self):
        self.latencies = []  # untraced request latencies
        self.traced = []  # traced latencies (trace mode)
        self.wall_s = 0.0  # wall time of the measured run, prologue included
        self.attempted = 0
        self.failures = []  # (kind, problem) for every failed request
        self.numeric_failures = 0
        self.error_outcomes = []  # True where an error-path request ended correctly
        self.warnings = 0
        self.blocks = 0

    def time(self, decks, request, tracer, rid):
        """Run one request, with the wrappers when a tracer is given, then check it."""
        with tracer.request(rid) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            outcome = decks.run_request(request)
            elapsed = perf_counter() - t0
        (self.traced if tracer else self.latencies).append(elapsed)
        problems = request.check(outcome)
        self.attempted += 1
        self.warnings += outcome.warnings_seen
        if request.error_path:
            self.error_outcomes.append(not problems)
        if problems:
            self.failures.append((request.kind, problems[0]))
            if not request.error_path:
                self.numeric_failures += 1

    @property
    def completed(self):
        """Requests that returned a result that passed its checks."""
        return self.attempted - len(self.failures)


def measure(decks, workload, seed, seconds, tracer=None):
    """Closed loop over whole request blocks until the next block would overrun.

    A latency covers only the request's call; writing its input file and
    checking its output happen outside; the run's wall time covers them
    too. In a traced run every request runs twice, without and with the
    wrappers, alternating which goes first.
    """
    run = Run()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            prologue, blocks = decks.PLANS[workload](seed, workdir)
            start = perf_counter()
            state = prologue()
        block_times = []
        rid = 0
        for block in blocks(state):
            if block_times and perf_counter() - start + statistics.median(block_times) > seconds:
                break
            b0 = perf_counter()
            for request in block:
                rid += 1
                request.prepare()
                modes = (None,) if tracer is None else ((None, tracer) if rid % 2 else (tracer, None))
                for mode in modes:
                    run.time(decks, request, mode, rid)
                request.cleanup()
            block_times.append(perf_counter() - b0)
            run.blocks += 1
        run.wall_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, or None."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "request_s_p50": {"value": statistics.median(run.latencies), "unit": "s"},
        "requests_per_s": {"value": run.completed / run.wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


# ------------------------------------------------------------------ reports


def print_failures(run):
    fail_frac = len(run.failures) / run.attempted
    print(f"  fail_frac = {fail_frac:.6g} frac ({len(run.failures)}/{run.attempted}; "
          f"{run.numeric_failures} from output checks, {len(run.failures) - run.numeric_failures} from error paths)")
    seen = {}
    for kind, problem in run.failures:
        seen.setdefault((kind, problem.split(":")[0]), problem)
    for (kind, _), problem in seen.items():
        print(f"  failed: {kind}: {problem}")


def print_end_to_end(run, metrics, setup_times):
    n = len(run.latencies)
    print(f"  setup_s = {metrics['setup_s']['value']:.6g} s (median of {len(setup_times)} fresh processes)")
    print(f"  request_s_p50 = {metrics['request_s_p50']['value']:.6g} s (n={n})")
    t = tail(run.latencies)
    if t is None:
        print(f"  request_s_tail = not reported: {n} requests, a tail needs >= {2 * TAIL_BEYOND}")
    else:
        print(f"  request_s_tail = {t[0]:.6g} s at p{t[1]:.4g} (n={n}, {TAIL_BEYOND} beyond)")
    print(f"  requests_per_s = {metrics['requests_per_s']['value']:.6g} 1/s "
          f"({run.completed} of {run.attempted} requests completed in {run.wall_s:.4g} s)")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB")


def print_layers(spans, tracer, run, metrics):
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if tracer.absent or tracer.broken_counters:
        print(f"  absent spans: {sorted(tracer.absent)}; counters that no longer fit: "
              f"{sorted(tracer.broken_counters)}")
    traced_p50 = statistics.median(run.traced)
    untraced_p50 = statistics.median(run.latencies)
    share = metrics["sources.builders.request_share"]["value"]
    print(f"  the two JSA builders take {100 * share:.4g}% of traced request time "
          f"(traced request_s_p50 {traced_p50:.6g} s, untraced {untraced_p50:.6g} s)")
    outside = metrics["trace.unattributed_frac"]["value"]
    print(f"  self times of the layer spans add up to {100 * (1 - outside):.4g}% of traced request "
          f"time; {100 * outside:.3g}% is in no layer span; tracing adds "
          f"{100 * metrics['trace_overhead_frac']['value']:+.3g}% to a request (trace_overhead_frac)")
    means = spans.per_call_means(tracer)
    print("  ROADMAP re-anchor baseline vs this run (mean per call):")
    for label, span, n, figure in ROADMAP_BASELINE:
        value = means.get((span, n))
        if span == "cli.cmd_table1" and value is not None:
            value = untraced_p50
        shown = "not called in this workload" if value is None else f"{value:.4g} s"
        print(f"    {label:<42} ROADMAP {figure:<10} this run {shown}")


def run_all(args):
    """Run every workload, each in its own process, and print every metric."""
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    print("summary:")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"  {workload:<13} {name:<40} {m['value']:.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    configure_threads()
    sys.path.insert(0, str(HERE))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_biphoton()
    import checks
    import decks
    import machine
    import spans

    if args.record_reference:
        decks.record_reference()
        return 0
    problems = checks.self_test() + spans.self_test()
    if args.self_test or problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print("self-test passed" if not problems else "self-test FAILED")
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    # set-up is timed before and after the run, so that its median spans the
    # machine's state over the whole run rather than one moment of it
    setup_times = []
    if not args.trace:
        measure_setup(args.workload, args.seed, setup_times)
    tracer = spans.Tracer() if args.trace else None
    run = measure(decks, args.workload, args.seed, args.seconds, tracer)
    if not args.trace:
        measure_setup(args.workload, args.seed, setup_times)
    info = machine.provenance(ROOT, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blocks={run.blocks} requests={run.attempted} warnings={run.warnings}")
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = spans.layer_metrics(tracer, run.latencies, run.traced, run.error_outcomes)
        print_layers(spans, tracer, run, metrics)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(run, statistics.median(setup_times))
        print_end_to_end(run, metrics, setup_times)
    print_failures(run)
    result = {
        "correct": run.numeric_failures == 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    record = dict(result, provenance=info, workload=args.workload, trace=args.trace,
                  setup_times=setup_times, latencies=run.latencies, traced_latencies=run.traced,
                  tail=tail(run.latencies), failures=run.failures, wall_s=run.wall_s)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
