"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/trajectory.py --seeds 1-10 --out bench/trajectory/<name>.json
    python3 bench/trajectory.py --workloads offline-flood --seeds 1-5

For every workload, one run per seed with tracing off, then (with
``--traced-seed``) one traced run.  Each end-to-end metric gets its values,
median, min, quartiles and spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Runs happen one after another; the file records the git SHA, Python version,
CPU count and load average of each run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("offline-normal", "offline-flood", "realtime-ingest")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a fresh process: its meta line and its result."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "exit": done.returncode, "stderr": done.stderr[-2000:]}
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
    return {
        "seed": seed, "exit": 0, "wall_s": time.monotonic() - start,
        "meta": meta, "result": json.loads(lines[-1]),
    }


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {
            "unit": units[name], "median": median, "min": min(vals), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": vals,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "seconds": seconds, "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [bench_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        entry = {"runs": runs, "end_to_end": summarise(runs)}
        if args.traced_seed is not None:
            traced = bench_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = traced
        report["workloads"][workload] = entry
        report["git_sha"] = next(
            (r["meta"].get("git_sha") for r in runs if r.get("meta")), None
        )
        print(f"== {workload}: {sum(r['exit'] == 0 for r in runs)}/{len(runs)} runs ok, "
              f"{sum(r.get('result', {}).get('failed', 0) for r in runs)} failed ops",
              flush=True)
        for name, s in entry["end_to_end"].items():
            print(f"  {name:24} median {s['median']:.6g} {s['unit']:6} "
                  f"spread {s['spread']:.3f}  min {s['min']:.6g}", flush=True)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
