"""Benchmark of the turning-frame package: seeded workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py                              # every workload
    python3 perfbench/run.py --workload shift_sweep --seed 3 --seconds 30
    python3 perfbench/run.py --workload snapshot_render --trace 1

Each workload run uses one worker process (``worker.py``) with BLAS/OpenMP
threads pinned to one, and one closed-loop client inside it.  Set-up time is
measured in that worker and in more workers that only set up, started while
it pauses between passes; the median is reported.  Timings are scaled to a
reference machine speed by a calibration timed between requests (see
``worker.py``); the times as measured are printed too.
The program is imported from ``src/`` of the checkout, never installed.

Prints every metric by name and unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.  Exits
non-zero when a check fails or the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("shift_sweep", "snapshot_render", "spectral_roundtrip")
# One BLAS/OpenMP thread (at most the two cores of the machine measured):
# with two, numpy's import took either 0.09 s or 0.16 s depending on when
# OpenBLAS's second thread got a core, and the small matrix-vector products
# of spectral_roundtrip doubled CPU time per request with no gain in wall time.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [("setup_s", "s"), ("requests_per_s", "1/s"), ("request_p50_s", "s"),
              ("cpu_s_per_request", "s"), ("peak_rss_mb", "MB")]


def layer_metrics():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    units = {"calls": "count", "self_s": "s", "taus": "count",
             "terms_computed": "count", "bytes_computed": "B", "bytes": "B"}
    names = []
    for layer, *_ in TARGETS:
        for key in ("calls", "self_s") + COUNTERS.get(layer, ()):
            names.append((f"{layer}.{key}", units[key]))
        if layer == "kernels.derivative":
            names.append(("kernels.derivative.calls_per_tau", "count"))
    names += [("request.self_s", "s"), ("trace.requests_per_pass", "count"),
              ("trace.requests_per_s_untraced", "1/s"),
              ("trace.requests_per_s_traced", "1/s"), ("trace.overhead", "ratio")]
    return names


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion; return its last-line JSON."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail_percentile(times: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(times)
    best = None
    for q in (0.9, 0.99, 0.999):
        if len(ordered) * (1.0 - q) >= 10.0:
            best = (q, ordered[math.ceil(q * len(ordered)) - 1])
    return best


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", str(workdir)]
    try:
        if trace:
            trace_file = OUT / f"trace-{workload}-seed{seed}.json"
            result = run_worker(common + ["--trace", "1", "--trace-file", str(trace_file)],
                                deadline)
            result["trace_file"] = str(trace_file.relative_to(ROOT))
            return result
        return run_worker(common, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(result: dict) -> dict:
    times = result["request_times_s"]
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "requests_per_s": result["requests_per_s"],
        "request_p50_s": statistics.median(times),
        "cpu_s_per_request": result["cpu_s_per_request"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metric_values(result: dict) -> dict:
    passes = result["traced_passes"]
    layers = result["layers"]
    values = {}
    for layer, totals in layers.items():
        for key, total in totals.items():
            values[f"{layer}.{key}"] = total / passes
    taus = layers["quantum.expectation_series"]["taus"]
    values["kernels.derivative.calls_per_tau"] = (
        layers["kernels.derivative"]["calls"] / taus if taus else 0.0)
    values["trace.requests_per_pass"] = layers["request"]["calls"] / passes
    values["trace.requests_per_s_untraced"] = result["requests_per_s_untraced"]
    values["trace.requests_per_s_traced"] = result["requests_per_s_traced"]
    values["trace.overhead"] = (result["requests_per_s_untraced"]
                                / result["requests_per_s_traced"] - 1.0)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in layer_metrics()}


def report(workload: str, result: dict, metrics: dict) -> None:
    print(f"== {workload}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for key, value in sorted(result.get("facts", {}).items()):
        print(f"{key}: {value}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"requests: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.6g}")
    if "request_times_s" in result:
        times = result["request_times_s"]
        print(f"request samples: {len(times)} over {result['passes']} passes")
        tail = tail_percentile(times)
        if tail:
            print(f"request_p{tail[0] * 100:g}_s {tail[1]:.6g} s")
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
        print(f"as measured, before scaling to the reference speed: "
              f"setup_s {statistics.median(result['raw_setup_samples_s']):.6g} s, "
              f"requests_per_s {result['raw_requests_per_s']:.6g} 1/s, "
              f"request_p50_s {statistics.median(result['raw_request_times_s']):.6g} s, "
              f"cpu_s_per_request {result['raw_cpu_s_per_request']:.6g} s")
        calibrations = result["calibration_s"]
        print(f"calibration: median {statistics.median(calibrations):.6g} s, "
              f"min {min(calibrations):.6g} s, max {max(calibrations):.6g} s "
              f"(reference {result['calibration_reference_s']:g} s)")
    if result.get("absent"):
        print("absent (wrapped names no longer in the package): "
              + ", ".join(result["absent"]))
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def check_layout() -> str | None:
    for path in (ROOT / "src" / "turning_frame" / "__init__.py",
                 ROOT / "configs" / "shift_reference.json"):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}: run from a checkout of the repository"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = check_layout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        # set-up probes and the run, which ends at most one pass past
        # --seconds (two in a traced run), fit well inside this limit
        deadline = time.monotonic() + 2.0 * args.seconds + 60.0
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = layer_metric_values(result) if args.trace else end_to_end_metrics(result)
        report(name, result, metrics)
        summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": metrics}
        if len(names) > 1:
            print(json.dumps(summary))
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
