"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload shift_sweep --seeds 1-10 --seconds 10

For every end-to-end metric prints the median over the runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound from BENCHMARK.json.  With
``--out FILE`` the per-run values and the summary are also written as JSON.
Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=200)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values),
                         "bound": bounds.get(name)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: checks failed", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = summarize(runs, bounds)
    for name, s in summary.items():
        flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  (>= bound/3)"
        print(f"{name:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
