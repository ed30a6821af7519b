"""tsinorm benchmark runner (stdlib only).

Usage, from the root of a checkout:

    python3 bench/run.py --workload primal --seed 0 --seconds 30 --trace 0

Each workload is a seeded closed loop: one caller sends its next request
only after the previous one returned.  A run is a series of passes; every
pass starts a fresh interpreter (bench/worker.py), which imports tsinorm
from src/, sends one corpus of at least 100 requests and checks every
answer.  Every pass of a run sends the same corpus, the one the seed
gives.  Passes start until --seconds have gone by, and at least MIN_PASSES
of them.

--trace 0 reports the end-to-end metrics.  --trace 1 instead sends the
corpus once untraced and once traced, in fresh interpreters, until
--seconds have gone by, checks that both produced identical output, and
reports the per-layer metrics.

On a shared machine other tenants slow the host by up to 2x, in bursts of
a fraction of a second and in stretches of minutes.  Two measures take
that out of the figures:

* Per request, the time kept is the best over the passes, which drops
  the bursts.  requests_per_s is the corpus size over the sum of these
  best times: the timed loop, which adds nothing between requests.
* After every request the worker times a fixed stdlib loop that never
  touches tsinorm (worker.time_host_kernel).  Its 10th percentile over the
  run, over NOMINAL_HOST_MS, is the host's slowness during the run; every
  reported time is divided by it (rates multiplied).  The figures as
  measured are printed alongside.

Human-readable lines come first; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import corpus  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import tracing  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 170  # every run must end within 180 s
# The host kernel's (worker.time_host_kernel) 10th-percentile time on a
# quiet 2-core x86 box; reported times are scaled to a host this fast.
NOMINAL_HOST_MS = 1.25

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(Exception):
    pass


def percentile(values, q: int) -> float:
    """The q-th percentile (1 <= q <= 99), interpolated between order
    statistics as statistics.quantiles(method="inclusive") does."""
    if len(values) < 2:
        raise ValueError("a percentile needs at least two samples")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def samples_beyond(n: int, q: int) -> int:
    """Samples strictly above the q-th percentile's position among n."""
    return n - math.ceil(n * q / 100)


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its summary."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the pass started")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {workload} ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"a pass of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["setup_s"] = summary["first_request_at"] - spawned_at
    return summary


def host_slowness(passes) -> float:
    """How much slower than nominal the host ran during these passes: the
    10th percentile of the host kernel's times over NOMINAL_HOST_MS."""
    samples = [ms for p in passes for ms in p["host_ms"]]
    return statistics.quantiles(samples, n=10)[0] / NOMINAL_HOST_MS


def best_latencies(passes):
    """Per request, the best latency over passes of one corpus."""
    return [min(times) for times in zip(*(p["latencies_ms"] for p in passes))]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(spawn(workload, seed, False, deadline))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    best = best_latencies(passes)
    slowness = host_slowness(passes)
    raw = {
        "requests_per_s": len(best) / (sum(best) / 1e3),
        "latency_p50_ms": percentile(best, 50),
        "latency_p90_ms": percentile(best, 90),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    metrics = {name: value / slowness for name, value in raw.items()}
    metrics["requests_per_s"] = raw["requests_per_s"] * slowness
    metrics["peak_rss_mib"] = statistics.median(p["rss_kib"] for p in passes) / 1024
    n = len(best)
    notes = [f"passes of one corpus: {len(passes)}",
             f"host slowness: {slowness:.4f} (times below are divided by it)",
             "as measured: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()),
             f"latency_p50_ms: n={n} requests, best of {len(passes)} passes each, "
             f"{samples_beyond(n, 50)} beyond",
             f"latency_p90_ms: n={n} requests, {samples_beyond(n, 90)} beyond",
             f"setup_s and peak_rss_mib: median of {len(passes)} passes",
             f"failed_ratio = {failed / attempted} ({failed} of {attempted})"]
    failures = [f for p in passes for f in p["failures"]]
    return _result(attempted, failed, metrics, dict(END_TO_END), notes, failures)


def trace_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    pairs = []
    while not pairs or time.monotonic() - start < seconds:
        plain = spawn(workload, seed, False, deadline)
        traced = spawn(workload, seed, True, deadline)
        pairs.append((plain, traced))
    plains = [p for p, _ in pairs]
    traces = [t for _, t in pairs]
    attempted = sum(p["attempted"] for p in plains + traces)
    failed = sum(p["failed"] for p in plains + traces)
    failures = [f for p in plains + traces for f in p["failures"]]
    for plain, traced in pairs:
        for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            if a != b:
                failed += 1
                failures.append(f"request {i}: traced output differs from untraced")

    slowness = host_slowness(traces)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    layers = [t["layers"] for t in traces]
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_ratio":
            metrics[name] = (sum(best_latencies(traces)) / slowness) / \
                (sum(best_latencies(plains)) / host_slowness(plains))
        elif unit == "ms":
            metrics[name] = min(layer[name] for layer in layers) / slowness
        else:
            metrics[name] = layers[0][name]
            if any(layer[name] != metrics[name] for layer in layers):
                failures.append(f"{name} differs between repetitions of one corpus")
    notes = [f"traced repetitions of the corpus: {len(pairs)}",
             f"host slowness: {slowness:.4f}; times are the best over repetitions, "
             "divided by it; counts must repeat exactly",
             f"failed_ratio = {failed / attempted} ({failed} of {attempted})"]
    return _result(attempted, failed, metrics, units, notes, failures)


def _result(attempted, failed, metrics, units, notes, failures) -> dict:
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": units, "notes": notes, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tsinorm benchmark runner")
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsinorm" / "__init__.py").is_file():
        print(f"error: no tsinorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = trace_run if args.trace else timed_run
    try:
        res = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value} {res['units'][name]}")
    for note in res["notes"]:
        print(f"  {note}")
    for failure in res["failures"][:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
