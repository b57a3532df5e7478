"""Benchmark of the aisd package: one workload, one seed, one result.

    python3 bench/run.py --workload offline-normal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: offline-normal, offline-flood, realtime-ingest (see workloads.py).
With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run, which also reports its own overhead.
The timed end-to-end metrics measured while the host's speed is gauged
are scaled to a fixed host speed (see ``workloads.Gauge``); the raw values
are in the meta line's details.

Output, on stdout: a ``meta`` line (git SHA, dirty flag, Python version, CPU
count, 1-minute load average at start and end), one line per metric
(``metric <name> <value> <unit>``), and last a JSON object with the keys
correct, attempted, failed and metrics.  A run that measured the load
generator rather than the package exits with code 3 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("offline-normal", "offline-flood", "realtime-ingest")


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is absent."""
    if not (SRC / "aisd" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'aisd'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import aisd

    if Path(aisd.__file__).resolve().parent != SRC / "aisd":
        sys.exit(f"error: imported aisd from {aisd.__file__}, not from {SRC}")


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    sha, dirty = git_state()
    meta = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "dirty": dirty,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run_workload(
            args.workload, seed, args.seconds, bool(args.trace), work
        )
    except workloads.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["loadavg_1m_end"] = os.getloadavg()[0]
    meta["details"] = outcome.details
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        values, units = outcome.layers or {}, workloads.PER_LAYER
    else:
        values, units = outcome.e2e or {}, workloads.END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    missing = [name for name in units if name not in values]
    if missing:
        print(f"warning: metrics missing: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct and not (missing and not args.trace),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
