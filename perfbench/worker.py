"""One workload run in its own process: set up, then a closed loop of requests.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
single client issues the next request only after the previous one and its
check complete.  Requests come in whole passes, each with fresh seeded
parameters and the same design of sizes, until ``--seconds`` have elapsed,
so every run covers the same mix of sizes.

Between requests, at least every ``CALIBRATION_INTERVAL_S``, the worker
times a fixed reference computation (``Calibration``) and scales each
request's wall and CPU time by ``CALIBRATION_REFERENCE_S`` over the mean of
the calibrations just before and after it.  The machine measured runs in
fast and slow phases of seconds to minutes that slow every computation on
it alike; the scaled times report what a request would take at the
reference speed, and the raw times are reported alongside.

With ``--setup-only`` the worker stops after set-up and reports only its
set-up time.  Otherwise, with ``--trace 0``, it pauses the run between passes
at ``SETUP_GAPS`` evenly spaced points and starts ``PROBES_PER_GAP`` workers
with ``--setup-only`` at each, so the set-up samples come from the same
stretch of machine load as the requests.  With ``--trace 1`` it runs half the
time untraced and half traced, and reports per-layer totals per pass plus
both request rates.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# the machine measured runs in fast and slow phases of several seconds, so
# set-up is sampled throughout the run: 15 probes plus the worker's own
SETUP_GAPS = 5
PROBES_PER_GAP = 3
# wall time of one Calibration() on a 2-vCPU x86_64 virtual machine
# (Python 3.11.7, NumPy 2.4.6, one BLAS thread): the middle of the three
# workloads' medians (0.0295, 0.0320 and 0.0341 s) of calibrations between
# requests.  A fixed constant, so scaled times compare across runs and
# commits.
CALIBRATION_REFERENCE_S = 0.0320
CALIBRATION_INTERVAL_S = 0.25


class Calibration:
    """A fixed mix of the kinds of work the package does, timed as a whole.

    Vectorised transcendental functions on an L2-sized array, a complex
    phase block like one of ``position_transform`` followed by a
    matrix-vector product, elementwise arithmetic on 4096-node arrays, a
    pure Python loop, and a small CSV file written and read back at 17
    digits.  It uses NumPy and the interpreter only, never the package, so
    no change to the package can change its cost.
    """

    def __init__(self, workdir: Path):
        self.csv = workdir / "calibration.csv"
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=20000)
        self.p = np.linspace(-2.5, 5.5, 4096)
        self.q = np.linspace(-2.0, 12.0, 64)
        self.a = rng.normal(size=4096)
        self.b = rng.normal(size=4096)
        self.amps = self.a + 1j * self.b
        self.table = rng.normal(size=(64, 3))
        self()  # the first call pays one-time set-up inside NumPy

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            np.sin(self.x).sum()
        np.exp(1j * np.outer(self.q, self.p)) @ self.amps
        for _ in range(300):
            (self.a * self.b + self.a).sum()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(4):
            np.savetxt(self.csv, self.table, fmt="%.17g", delimiter=",")
            np.loadtxt(self.csv, delimiter=",")
        return time.perf_counter() - start


def machine_facts() -> dict:
    import turning_frame as tf

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "turning_frame": getattr(tf, "__version__", "?"),
    }
    if callable(getattr(tf, "backend", None)):
        facts["kernel_backend"] = tf.backend()
    return facts


def run_passes(workload, seconds, calibration, tracer=None, first_request=0, probe=None):
    """Closed loop over whole passes; returns per-request samples.

    A calibration runs before the first request, after the last, and
    between requests whenever ``CALIBRATION_INTERVAL_S`` have passed since
    the previous one; each sample records the calibration before it.
    ``probe`` is called between passes at ``SETUP_GAPS`` evenly spaced points
    of the run (any left over at its end); time in it is not run time, and a
    calibration follows it.
    """
    samples, failures = [], []
    passes = gaps = 0
    paused = 0.0
    start = time.perf_counter()
    calibrations = [calibration()]
    calibrated_at = time.perf_counter()
    request_id = first_request
    while True:
        for request in workload.new_pass():
            span = tracer.begin_request(request_id) if tracer else None
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                output = workload.run(request)
                error = None
            except Exception:  # a failed request is counted, not fatal
                output, error = None, traceback.format_exc()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.end_request(span)
            if error is None:
                try:
                    workload.check(request, output)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failures.append(error)
                print(f"request {request_id} failed:\n{error}", file=sys.stderr)
            samples.append({"wall": wall1 - wall0, "cpu": cpu1 - cpu0,
                            "calibration": len(calibrations) - 1})
            request_id += 1
            if time.perf_counter() - calibrated_at >= CALIBRATION_INTERVAL_S:
                calibrations.append(calibration())
                calibrated_at = time.perf_counter()
        passes += 1
        elapsed = time.perf_counter() - start - paused
        while probe and gaps < SETUP_GAPS and (
                elapsed >= seconds * (gaps + 1) / (SETUP_GAPS + 1) or elapsed >= seconds):
            pause = time.perf_counter()
            probe()
            paused += time.perf_counter() - pause
            gaps += 1
            calibrations.append(calibration())
            calibrated_at = time.perf_counter()
        if elapsed >= seconds:
            if samples[-1]["calibration"] == len(calibrations) - 1:
                calibrations.append(calibration())
            return scaled(samples, calibrations), failures, passes


def scaled(samples, calibrations):
    """Samples with ``wall`` and ``cpu`` scaled to the reference speed.

    A request's speed factor is ``CALIBRATION_REFERENCE_S`` over the mean
    of the calibrations just before and just after it; ``raw_wall`` and
    ``raw_cpu`` keep the times as measured.
    """
    out = []
    for s in samples:
        before = calibrations[s["calibration"]]
        after = calibrations[s["calibration"] + 1]
        factor = CALIBRATION_REFERENCE_S / ((before + after) / 2.0)
        out.append({"wall": s["wall"] * factor, "cpu": s["cpu"] * factor,
                    "raw_wall": s["wall"], "raw_cpu": s["cpu"],
                    "calibration_s": (before + after) / 2.0})
    return out


def per_request(samples, key):
    """Mean of ``key`` over the run's requests.

    Machine speed drifts between slow and fast phases of several seconds;
    the mean moves in proportion to the share of slow time in a run, where a
    median jumps when that share passes one half.
    """
    return sum(s[key] for s in samples) / len(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import turning_frame

    package_dir = (ROOT / "src" / "turning_frame").resolve()
    if Path(turning_frame.__file__).resolve().parent != package_dir:
        print(f"imported {turning_frame.__file__}, not the package in {package_dir}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        workload.warmup()
    except Exception:  # the timed requests fail the same way and are counted
        traceback.print_exc()
    setup_s = time.perf_counter() - STARTED
    calibration = Calibration(workdir)
    setup = {"setup_s": setup_s, "calibration_s": calibration()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = {"machine": machine_facts(), "calibration_reference_s": CALIBRATION_REFERENCE_S}
    if not args.trace:
        probe_dir = workdir / "probe"
        probe_dir.mkdir(exist_ok=True)
        probe_argv = [sys.executable, __file__, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--workdir", str(probe_dir), "--setup-only"]
        setups = [setup]

        def probe():
            for _ in range(PROBES_PER_GAP):
                out = subprocess.run(probe_argv, stdout=subprocess.PIPE, text=True,
                                     check=True, timeout=60)
                setups.append(json.loads(out.stdout.strip().splitlines()[-1]))

        samples, failures, passes = run_passes(workload, args.seconds, calibration,
                                               probe=probe)
        result.update(
            # set-up is scaled by the one calibration its process runs after it
            setup_samples_s=[s["setup_s"] * CALIBRATION_REFERENCE_S / s["calibration_s"]
                             for s in setups],
            raw_setup_samples_s=[s["setup_s"] for s in setups],
            attempted=len(samples),
            failed=len(failures),
            passes=passes,
            requests_per_s=1.0 / per_request(samples, "wall"),
            cpu_s_per_request=per_request(samples, "cpu"),
            request_times_s=[s["wall"] for s in samples],
            raw_requests_per_s=1.0 / per_request(samples, "raw_wall"),
            raw_cpu_s_per_request=per_request(samples, "raw_cpu"),
            raw_request_times_s=[s["raw_wall"] for s in samples],
            calibration_s=[s["calibration_s"] for s in samples],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        from tracer import Tracer

        plain, plain_failures, plain_passes = run_passes(workload, args.seconds / 2,
                                                         calibration)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failures, traced_passes = run_passes(
                workload, args.seconds / 2, calibration, tracer, first_request=len(plain))
        finally:
            tracer.uninstall()
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": result["machine"], "absent": tracer.absent,
                       "fields": ["name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)
        result.update(
            attempted=len(plain) + len(traced),
            failed=len(plain_failures) + len(traced_failures),
            traced_passes=traced_passes,
            layers=tracer.layer_totals(),
            absent=tracer.absent,
            requests_per_s_untraced=1.0 / per_request(plain, "wall"),
            requests_per_s_traced=1.0 / per_request(traced, "wall"),
        )
    result["facts"] = workload.facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
