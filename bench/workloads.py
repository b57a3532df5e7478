"""The benchmark's workloads: inputs made from a seed, timed calls into the
package's public functions, and checks that the outputs are correct.

offline-normal   ``run_offline`` over bundled normal1 and normal2, 20 runs
                 each, tail 30 s: the acceptance-criterion-3 experiment.  It
                 is bound by the detector cycle (``type2_cycle``); the store
                 stays small and there is nothing to evaluate.
offline-flood    ``run_offline`` over three generated 20 s logs of 85-105k
                 events (one normal, one success, one failure), bursts of
                 40-55k events/s, 3 runs each, tail 5 s.  It is bound by the
                 data path: log parsing, ``add_antigen`` at capacity, dataset
                 statistics and ``evaluate`` over 10^5 events.
realtime-ingest  a ``TissueServer`` in this process, pacer at 10 cycles/s,
                 fed over loopback by a generator process (see generator.py):
                 first an open-loop schedule of 0.2 s bursts at 40k frames/s
                 once a second, then closed-loop batches sent back to back.
                 Wire sessions write the store while the pacer's cycles read
                 it, under the compartment lock.

Every end-to-end metric is reported on every workload:

    metric                 offline-*                      realtime-ingest
    setup_s                fresh-interpreter import + generating the inputs
                           (+ starting the server, realtime); median of at
                           least 5 set-ups spanning at least 3 s
    peak_rss_mb            high-water RSS of this process
    experiment_s           one run_offline experiment     one closed-loop batch,
                                                          first send to last accept
    ingest_msgs_per_s      antigen fed per experiment     batch frames / experiment_s
                           second
    ingest_cpu_us_per_msg  process CPU per antigen fed    server CPU per frame in
                                                          the open-loop phase

experiment_s and ingest_msgs_per_s are one timing gated twice: on every
workload one is the other's inverse times a constant, so a noisy run counts
against both.  The pair is kept because every end-to-end metric must be
reported on every workload, and each is the natural figure for one kind of
workload.

experiment_s and ingest_msgs_per_s are reported at a fixed host speed (see
Gauge); so is ingest_cpu_us_per_msg offline.  On realtime-ingest,
ingest_cpu_us_per_msg is raw: it is taken in the open-loop phase, and the
gauge is sampled only in the closed-loop phase.  setup_s is raw: the gauge,
sampled between set-ups that spawn interpreters and servers, tracked the
set-up's speed worse than the raw median did.  Per-layer metrics are
raw.

Offline, the attempts are single runs; a run fails if it failed or if the
sha256 of its experiment's artifact tree differs from the pinned digest (the
default seed) or from the first experiment of the same run (other seeds).
Realtime, the attempts are frames; a frame fails if it was sent and never
accepted by the compartment.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import select
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import aisd.harness
import aisd.trace_model
import aisd.twocell
import aisd.wire
from aisd.harness import ExperimentPlan, PlanDataset
from aisd.scenarios import BUNDLED_PROFILES, ScenarioKind, ScenarioProfile, synthesize_scenario
from aisd.tissue import TissueParams, create_compartment
from aisd.trace_model import write_replay_log
from aisd.twocell import TwocellParams, attach_twocell
from aisd.wire import TissueServer, WireMessage, encode

import generator
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
# Set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S:
# the host slows for a second or so at a time, and a median of set-ups
# spread over a few seconds rides that out.
SETUP_REPS = 5
SETUP_MIN_S = 3.0
TICK_S = 0.001
SPEEDUP = 5          # realtime replay rate: a 1 s scenario burst lasts 0.2 s
FIXED_SHARE = 0.3    # share of a realtime session spent in the open-loop phase
BATCH = 16_000       # frames per closed-loop batch
# Median time of reference_loop on the host the benchmark was defined on (a
# 2-core Intel Xeon; per-run medians of 0.012-0.014 s over the seed commit's
# trajectory); gauged metrics are reported as if the host always ran at
# that speed.
REFERENCE_ITERATIONS = 8_000
REFERENCE_S = 0.013

# The acceptance suite's parameter set.
TISSUE = TissueParams(signals=("cpu",), antigen_capacity=10_000, cycles_per_second=10.0)
TWOCELL = TwocellParams(
    n_type1=10, n_type2=20,
    antigen_receptors_per_t1=2, antigen_producers_per_t1=3,
    vr_receptors_per_t2=4, cell_receptors_per_t2=3,
    cell_lifespan=100, min_presentation=5, max_presentation=50,
    bind_attempts_per_cycle=3,
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "experiment_s": "s",
    "ingest_msgs_per_s": "1/s",
    "ingest_cpu_us_per_msg": "us",
}

LAYERS = ("trace_model", "tissue", "twocell", "policy", "harness", "wire")

PER_LAYER = {
    "trace_model.parse_us_per_record": "us",
    "trace_model.stats_us_per_record": "us",
    "trace_model.records": "count",
    "scenarios.synth_s": "s",
    "tissue.cycle_us_p50": "us",
    "tissue.cycle_us_p99": "us",
    "tissue.cycles": "count",
    "tissue.add_antigen_us": "us",
    "tissue.antigen_added": "count",
    "tissue.antigen_dropped": "count",
    "tissue.store_max": "count",
    "tissue.consumed": "count",
    "tissue.responses": "count",
    "twocell.type1_us_per_cycle": "us",
    "twocell.type2_us_per_cycle": "us",
    "twocell.responses_per_bind": "ratio",
    "policy.evaluate_us_per_event": "us",
    "policy.from_run_ms": "ms",
    "policy.naive_ms": "ms",
    "policy.average_ms": "ms",
    "harness.run_ms_p50": "ms",
    "harness.run_ms_p90": "ms",
    "harness.load_ms": "ms",
    "harness.write_ms": "ms",
    "harness.runs_failed": "count",
    "wire.decode_us": "us",
    "wire.accepted": "count",
    "wire.lost": "count",
    "wire.frames_rejected": "count",
    "wire.backlog_max_msgs": "count",
    "wire.ingest_lag_p50_ms": "ms",
    "wire.ingest_lag_p99_ms": "ms",
    "wire.generator_late_ms": "ms",
    "wire.pacer_lag_p99_ms": "ms",
    "wire.cycles_skipped": "count",
    "wire.responses_forwarded": "count",
    "wire.response_latency_p50_ms": "ms",
    "cli.import_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Which traced spans each per-layer metric is computed from.  A metric whose
# span could not be hooked is left out of the result.
NEEDS = {
    "trace_model.parse_us_per_record": ("trace_model.parse",),
    "trace_model.stats_us_per_record": ("trace_model.stats",),
    "trace_model.records": ("trace_model.parse",),
    "tissue.cycle_us_p50": ("tissue.cycle",),
    "tissue.cycle_us_p99": ("tissue.cycle",),
    "tissue.cycles": ("tissue.cycle",),
    "tissue.add_antigen_us": ("tissue.add_antigen",),
    "tissue.antigen_added": ("tissue.add_antigen",),
    "tissue.antigen_dropped": ("tissue.cycle",),
    "tissue.store_max": ("tissue.add_antigen",),
    "tissue.consumed": ("tissue.cycle",),
    "tissue.responses": ("tissue.cycle",),
    "twocell.type1_us_per_cycle": ("twocell.type1", "tissue.cycle"),
    "twocell.type2_us_per_cycle": ("twocell.type2", "tissue.cycle"),
    "twocell.responses_per_bind": ("twocell.type2", "tissue.cycle"),
    "policy.evaluate_us_per_event": ("policy.evaluate",),
    "policy.from_run_ms": ("policy.from_run",),
    "policy.naive_ms": ("policy.naive",),
    "policy.average_ms": ("policy.average",),
    "harness.run_ms_p50": ("harness.run",),
    "harness.run_ms_p90": ("harness.run",),
    "harness.load_ms": ("harness.load",),
    "wire.decode_us": ("wire.decode",),
    "wire.frames_rejected": ("wire.decode",),
    "wire.pacer_lag_p99_ms": ("tissue.cycle",),
    "wire.cycles_skipped": ("tissue.cycle",),
}


class InvalidRun(RuntimeError):
    """The run measured the load generator rather than the program."""


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OfflineConfig:
    profiles: tuple[ScenarioProfile, ...]
    runs_per_dataset: int
    tail_time: float
    seed_base: int


@dataclass(frozen=True)
class RealtimeConfig:
    burst: int = 8_000        # antigen per scenario burst
    min_batches: int = 3
    max_late_s: float = 0.005  # generator lateness p90 above this invalidates a phase
    fixed_attempts: int = 3
    stall_s: float = 3.0      # no frame accepted for this long ends a phase


FLOOD_PROFILES = (
    ScenarioProfile(
        "flood-normal", ScenarioKind.NORMAL, startup_burst=50_000, shutdown_burst=25,
        attack_bursts=(), interaction_events=40_000, duration=20, seed=201,
    ),
    ScenarioProfile(
        "flood-success", ScenarioKind.SUCCESS, startup_burst=45_000, shutdown_burst=None,
        attack_bursts=((55_000, 5), (3_000, 12)), interaction_events=2_000, duration=20,
        seed=202, attack_novel_fraction=0.125,
    ),
    ScenarioProfile(
        "flood-failure", ScenarioKind.FAILURE, startup_burst=40_000, shutdown_burst=20,
        attack_bursts=((45_000, 8),), interaction_events=0, duration=20, seed=203,
    ),
)

CONFIGS = {
    "offline-normal": OfflineConfig(
        (BUNDLED_PROFILES["normal1"], BUNDLED_PROFILES["normal2"]),
        runs_per_dataset=20, tail_time=30.0, seed_base=1000,
    ),
    "offline-flood": OfflineConfig(FLOOD_PROFILES, runs_per_dataset=3, tail_time=5.0, seed_base=5000),
    "realtime-ingest": RealtimeConfig(),
}


def pinned_digests() -> dict[str, str]:
    """Artifact digests of the default seed, keyed by workload."""
    return json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import aisd.cli; print(time.perf_counter() - t)"
)


def fresh_import_s() -> float:
    """Seconds to import the whole package in a fresh interpreter."""
    src = Path(aisd.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


@dataclass
class OfflineInputs:
    plan: ExperimentPlan
    antigen_per_experiment: int


def make_offline_inputs(cfg: OfflineConfig, seed: int, work: Path) -> tuple[OfflineInputs, float]:
    """Write the seeded logs and the plan; returns them and the synth time."""
    shift = seed - DEFAULT_SEED
    datasets = []
    antigen = 0
    synth_s = 0.0
    for profile in cfg.profiles:
        profile = replace(profile, seed=profile.seed + 1000 * shift)
        start = time.perf_counter()
        log = synthesize_scenario(profile)
        synth_s += time.perf_counter() - start
        path = work / f"{profile.name}.tcr"
        write_replay_log(log, path)
        datasets.append(PlanDataset(str(path), profile.kind))
        antigen += len(log.syscall_events()) * cfg.runs_per_dataset
    plan = ExperimentPlan(
        datasets=tuple(datasets),
        runs_per_dataset=cfg.runs_per_dataset,
        tail_time=cfg.tail_time,
        seed_base=cfg.seed_base + 100 * shift,
    )
    return OfflineInputs(plan, antigen), synth_s


@dataclass
class RealtimeInputs:
    due: list[float]      # seconds after the phase start
    frames: list[bytes]   # encoded ANTIGEN lines
    numbers: frozenset[int]


def make_realtime_inputs(
    cfg: RealtimeConfig, seed: int, phase_s: float
) -> tuple[RealtimeInputs, float]:
    """A bursty scenario replayed ``SPEEDUP`` times faster, one burst a second."""
    bursts = max(1, round(phase_s))
    profile = ScenarioProfile(
        "realtime", ScenarioKind.SUCCESS, startup_burst=cfg.burst, shutdown_burst=None,
        attack_bursts=tuple((cfg.burst, k * SPEEDUP) for k in range(1, bursts)),
        interaction_events=0, duration=bursts * SPEEDUP, seed=seed,
        attack_novel_fraction=0.125,
    )
    start = time.perf_counter()
    events = synthesize_scenario(profile).syscall_events()
    synth_s = time.perf_counter() - start
    frames = [
        (encode(WireMessage.antigen(e.syscall_number, e.label)) + "\n").encode("ascii")
        for e in events
    ]
    # Frames are due on 1 ms ticks, so each send carries the same few dozen
    # frames whatever the generator's wake-up jitter.
    due = [math.ceil(e.timestamp / SPEEDUP / TICK_S) * TICK_S for e in events]
    return RealtimeInputs(due, frames, frozenset(e.syscall_number for e in events)), synth_s


def _new_compartment(seed: int):
    compartment = create_compartment(TISSUE, seed)
    attach_twocell(compartment, TWOCELL)
    return compartment


def _start_server(compartment) -> TissueServer:
    server = TissueServer(
        compartment, host=generator.HOST, port=0,
        cycles_per_second=TISSUE.cycles_per_second,
    )
    server.start()
    return server


def setup(cfg, seed: int, phase_s: float, work: Path):
    """Set up repeatedly (see SETUP_REPS); returns the last inputs and median timings.

    One set-up is a fresh-interpreter import of the package, generating the
    inputs and, for realtime, creating and starting a server.
    """
    totals, synths, imports = [], [], []
    began = time.perf_counter()
    while len(totals) < SETUP_REPS or time.perf_counter() - began < SETUP_MIN_S:
        import_s = fresh_import_s()
        start = time.perf_counter()
        if isinstance(cfg, OfflineConfig):
            inputs, synth_s = make_offline_inputs(cfg, seed, work)
            elapsed = time.perf_counter() - start
        else:
            inputs, synth_s = make_realtime_inputs(cfg, seed, phase_s)
            server = _start_server(_new_compartment(seed))
            elapsed = time.perf_counter() - start
            server.stop()
        totals.append(import_s + elapsed)
        synths.append(synth_s)
        imports.append(import_s)
    timings = {
        "setup_s": statistics.median(totals),
        "scenarios.synth_s": statistics.median(synths),
        "cli.import_ms": statistics.median(imports) * 1e3,
    }
    return inputs, timings


# ---------------------------------------------------------------------------
# Correctness oracle: the artifact tree digest
# ---------------------------------------------------------------------------

DIGESTED = frozenset({
    "responses.csv", "policy.txt", "naive-policy.txt", "average-policy.txt",
    "twocell-policy.txt", "report.txt", "report.csv",
})


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every digested artifact, by relative path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.name in DIGESTED):
        data = path.read_bytes()
        name = path.relative_to(out_dir).as_posix().encode()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Tracing hooks
# ---------------------------------------------------------------------------

def _hook_twocell(tracer: Tracer) -> None:
    tracer.hook(aisd.twocell, "type1_cycle", "twocell.type1")
    type2 = tracer.hook(aisd.twocell, "type2_cycle", "twocell.type2")
    if type2 is not None:
        def type2_counting(cell, compartment, params, *rest):
            type2(cell, compartment, params, *rest)
            tracer.count(
                "twocell.binds",
                min(params.bind_attempts_per_cycle, params.cell_receptors_per_t2),
            )
        tracer.rebind(aisd.twocell, "type2_cycle", type2_counting)


def instrument_compartment(tracer: Tracer, compartment, seen: list):
    """Trace ``cycle`` and ``add_antigen`` on one compartment instance.

    The store's high-water mark is sampled before each cycle, when it peaks
    offline; drops at capacity follow from conservation once runs are over.
    """
    seen.append(compartment)
    cycle = tracer.lookup(compartment, "cycle", "tissue.cycle")
    if cycle is not None:
        traced_cycle = tracer.wrap("tissue.cycle", cycle)
        count = compartment.antigen_count

        def cycle_counting():
            tracer.peak("tissue.store_max", count())
            report = traced_cycle()
            tracer.count("tissue.consumed", report.antigen_consumed)
            tracer.count("tissue.responses", report.responses_emitted)
            return report
        compartment.cycle = cycle_counting
    add = tracer.lookup(compartment, "add_antigen", "tissue.add_antigen")
    if add is not None:
        compartment.add_antigen = tracer.wrap("tissue.add_antigen", add)
    return compartment


def _hook_offline(tracer: Tracer, seen: list) -> None:
    harness = aisd.harness
    parse = tracer.hook(aisd.trace_model, "parse_replay_log", "trace_model.parse")
    if parse is not None:
        def parse_counting(*args, **kwargs):
            log = parse(*args, **kwargs)
            tracer.count("trace_model.records", len(log.records))
            return log
        tracer.rebind(aisd.trace_model, "parse_replay_log", parse_counting)
    tracer.hook(harness, "read_replay_log", "harness.load")
    stats = tracer.hook(harness, "dataset_stats", "trace_model.stats")
    if stats is not None:
        def stats_counting(log):
            tracer.count("trace_model.stats_records", len(log.records))
            return stats(log)
        tracer.rebind(harness, "dataset_stats", stats_counting)
    tracer.hook(harness, "run_single_offline", "harness.run")
    evaluate = tracer.hook(harness, "evaluate", "policy.evaluate")
    if evaluate is not None:
        def evaluate_counting(*args, **kwargs):
            row = evaluate(*args, **kwargs)
            tracer.count("policy.events", row.total)
            return row
        tracer.rebind(harness, "evaluate", evaluate_counting)
    tracer.hook(harness, "policy_from_run", "policy.from_run")
    tracer.hook(harness, "naive_policy", "policy.naive")
    tracer.hook(harness, "average_policy", "policy.average")
    _hook_twocell(tracer)
    create = tracer.lookup(harness, "create_compartment", "tissue.cycle")
    if create is None:
        tracer.missing_spans.add("tissue.add_antigen")
    else:
        tracer.rebind(
            harness, "create_compartment",
            lambda *args, **kwargs: instrument_compartment(tracer, create(*args, **kwargs), seen),
        )


def _hook_realtime(tracer: Tracer, compartment, seen: list) -> None:
    decode = tracer.hook(aisd.wire, "decode", "wire.decode")
    if decode is not None:
        def decode_counting(line):
            try:
                return decode(line)
            except aisd.wire.ProtocolError:
                tracer.count("wire.frames_rejected")
                raise
        tracer.rebind(aisd.wire, "decode", decode_counting)
    _hook_twocell(tracer)
    instrument_compartment(tracer, compartment, seen)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _per_call(total: tuple[int, float, float], scale: float) -> float:
    calls, seconds, _ = total
    return seconds / calls * scale if calls else 0.0


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    e2e: dict | None = None
    layers: dict | None = None
    details: dict | None = None


def reference_loop() -> list:
    """Fixed pure-Python work that uses nothing from aisd (see Gauge)."""
    rng = random.Random(7)
    counts: dict[int, int] = {}
    window: list[tuple[int, int]] = []
    for i in range(REFERENCE_ITERATIONS):
        key = rng.randrange(512)
        counts[key] = counts.get(key, 0) + 1
        window.append((key, i))
        if len(window) > 64:
            window.pop(rng.randrange(len(window)))
    return sorted(counts.items())


class Gauge:
    """Tracks the host's speed by timing ``reference_loop`` between measurements.

    On a shared host the same experiment runs 20-30% slower for minutes at a
    time, and the reference loop slows with it: over 10 s windows of
    alternating detector runs and reference loops, the runs' time varied by
    +-20% while its ratio to the loop's time varied by +-5% (less tightly on
    the memory-bound flood).  The timed metrics of the measured work are
    therefore reported at a fixed host speed: times are multiplied by
    ``REFERENCE_S / median(loop time)`` and rates divided by it.  The loop
    runs between the units of work (single runs offline, closed-loop batches
    realtime) and its time is taken out of theirs.  Offline, each experiment
    is scaled by the samples taken during it; realtime, the batches by all
    samples of the phase.  Only metrics measured while the gauge is sampled
    are scaled.  The raw values stay in the
    result's details.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference_loop()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def scale(self, since: int = 0) -> float:
        """The speed factor from the samples taken since sample ``since``."""
        return REFERENCE_S / statistics.median(self.samples[since:])


def measure_offline(
    inputs: OfflineInputs, seconds: float, work: Path,
    expected: str | None, tracer: Tracer | None = None, min_reps: int = 2,
) -> Outcome:
    """Repeat the experiment for ``seconds`` (at least ``min_reps`` times).

    ``expected`` is the pinned digest, or None to compare every experiment
    with the first.
    """
    outcome = Outcome()
    walls, cpus, scales, digests = [], [], [], []
    run_offline = aisd.harness.run_offline
    gauge = Gauge()
    # Untraced, the gauge runs before every single run; traced, only between
    # experiments, so that no gauge time lands in a traced span.
    single = getattr(aisd.harness, "run_single_offline", None) if tracer is None else None
    if tracer is not None:
        run_offline = tracer.wrap("harness.run_offline", run_offline)
    elif single is not None:
        def gauged(*args, **kwargs):
            gauge.sample()
            return single(*args, **kwargs)
        aisd.harness.run_single_offline = gauged
    deadline = time.monotonic() + seconds
    try:
        while len(walls) < min_reps or time.monotonic() + statistics.median(walls) <= deadline:
            first = len(gauge.samples)
            gauge.sample()
            out = work / f"experiment-{len(walls)}"
            cpu0 = time.process_time()
            spent0 = gauge.spent
            start = time.perf_counter()
            result = run_offline(inputs.plan, out, TISSUE, TWOCELL)
            gauge_s = gauge.spent - spent0
            walls.append(time.perf_counter() - start - gauge_s)
            cpus.append(time.process_time() - cpu0 - gauge_s)
            scales.append(gauge.scale(first))
            digest = artifact_digest(out)
            shutil.rmtree(out)
            digests.append(digest)
            reference = expected if expected is not None else digests[0]
            runs_failed = sum(1 for run in result.runs if run.failed)
            outcome.attempted += len(result.runs)
            outcome.failed += len(result.runs) if digest != reference else runs_failed
            if tracer is not None:
                tracer.count("harness.runs_failed", runs_failed)
    finally:
        if single is not None:
            aisd.harness.run_single_offline = single
    outcome.correct = outcome.failed == 0
    antigen = inputs.antigen_per_experiment

    def figures(walls, cpus) -> dict:
        experiment_s = statistics.median(walls)
        return {
            "experiment_s": experiment_s,
            "ingest_msgs_per_s": antigen / experiment_s,
            "ingest_cpu_us_per_msg": statistics.median(cpus) / antigen * 1e6,
        }
    raw = figures(walls, cpus)
    outcome.e2e = figures(
        [w * k for w, k in zip(walls, scales)], [c * k for c, k in zip(cpus, scales)]
    )
    outcome.details = {
        "experiments": len(walls), "experiment_s": [round(w, 4) for w in walls],
        "digests": list(dict.fromkeys(digests)), "raw": raw,
        "reference_s": statistics.median(gauge.samples),
    }
    return outcome


class _Acceptances:
    """Counts the frames a compartment accepts, timing each while ``times`` is set.

    Only the open-loop phase keeps per-frame times, so memory does not grow
    with the number of closed-loop batches a fast server gets through.
    """

    def __init__(self) -> None:
        self.count = 0
        self.target = 0
        self.times: array | None = None
        self.reached_at = 0.0
        self.reached = threading.Event()

    def wrap(self, add):
        mono = time.monotonic

        def add_recording(*args, **kwargs):
            add(*args, **kwargs)
            now = mono()
            self.count += 1
            if self.times is not None:
                self.times.append(now)
            if self.count == self.target:
                self.reached_at = now
                self.reached.set()
        return add_recording

    def expect(self, count: int) -> None:
        """Arm the wait for ``count`` frames; call before sending them."""
        self.target = count
        self.reached.clear()

    def wait(self, stall_s: float) -> bool:
        """Block until the expected frames are in; False once none arrive for ``stall_s``."""
        last = self.count
        while last < self.target and not self.reached.wait(stall_s):
            if self.count == last:
                return False
            last = self.count
        return True


class _Generator:
    """The load generator process (generator.py), driven over its stdio."""

    def __init__(self, port: int, server_t0: float, inputs: RealtimeInputs,
                 batch: int, core: int | None):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "generator.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        blob = b"".join(inputs.frames)
        config = {"port": port, "server_t0": server_t0, "batch": batch, "core": core,
                  "due": inputs.due, "size": len(blob)}
        self.proc.stdin.write(json.dumps(config).encode() + b"\n" + blob)
        self.proc.stdin.flush()

    def send(self, *command) -> None:
        self.proc.stdin.write(" ".join(map(str, command)).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self, timeout: float | None = None) -> list:
        if timeout is not None:
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            if not ready:
                raise RuntimeError(f"load generator silent for {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited")
        return json.loads(line)

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_session(
    inputs: RealtimeInputs, cfg: RealtimeConfig, seconds: float, seed: int,
    tracer: Tracer | None = None, seen: list | None = None,
) -> Outcome:
    """One server and one generator: the open-loop phase, then closed-loop batches."""
    outcome = Outcome()
    compartment = _new_compartment(seed)
    if tracer is not None:
        _hook_realtime(tracer, compartment, seen)
    acc = _Acceptances()
    compartment.add_antigen = acc.wrap(compartment.add_antigen)
    mono = time.monotonic
    n = len(inputs.frames)
    batch = min(BATCH, n)

    # The server's threads and the generator each get a core of their own
    # when there are two.  The server takes the last one: on the machines
    # measured so far, core 0 also serves interrupts.
    main_cores = os.sched_getaffinity(0)
    cores = sorted(main_cores)
    server_core, generator_core = (cores[-1], cores[0]) if len(cores) > 1 else (None, None)
    if server_core is not None:
        os.sched_setaffinity(0, {server_core})  # inherited by the server's threads
    server = _start_server(compartment)
    server_t0 = mono() - compartment.wall_time()
    details: dict = {}
    gauge = Gauge()
    late: list[float] = []
    fixed = None
    batches: list[float] = []
    stopped = None
    gen = None
    try:
        gen = _Generator(server.port, server_t0, inputs, batch, generator_core)
        if gen.recv(timeout=60) != ["ready"]:
            raise RuntimeError("load generator did not start")
        healthy = True

        # Open loop: the frames at their due times, timed from the due time.
        bursts = int(inputs.due[-1]) + 1
        invalid = 0
        for _ in range(cfg.fixed_attempts):
            base = acc.count
            acc.times = times = array("d")
            t0 = mono() + 0.05
            marks = [(time.process_time(), base)]
            acc.expect(base + n)
            gen.send("fixed", repr(t0))
            # CPU per frame is taken burst by burst, in the quiet gap after
            # each burst (due in [k, k + 0.2) s), and the median reported.
            for k in range(bursts):
                time.sleep(max(0.0, t0 + k + 0.6 - mono()))
                marks.append((time.process_time(), acc.count))
            healthy = acc.wait(cfg.stall_s)
            marks.append((time.process_time(), acc.count))  # frames queued past the last gap
            per_frame = [
                (c1 - c0) / (a1 - a0) for (c0, a0), (c1, a1) in zip(marks, marks[1:]) if a1 > a0
            ]
            acc.times = None
            reply = gen.recv()
            if not healthy or reply[0] != "fixed_done":
                healthy = False
                break
            late = reply[1]
            details.setdefault("late_ms", []).append(
                [round(_quantile(late, q) * 1e3, 3) for q in (0.5, 0.9, 0.99, 1.0)]
            )
            if _quantile(late, 0.9) > cfg.max_late_s:
                invalid += 1
                continue
            fixed = (times, t0, statistics.median(per_frame))
            break
        details["invalid_phases"] = invalid
        if healthy and fixed is None:
            raise InvalidRun(
                f"the load generator missed its schedule in {invalid} open-loop phases "
                f"(lateness p90 above {cfg.max_late_s * 1e3:.1f} ms)"
            )

        # Closed loop: one batch at a time, each sent when the last is in.
        deadline = mono() + seconds * (1 - FIXED_SHARE)
        while healthy and (len(batches) < cfg.min_batches or mono() < deadline):
            gauge.sample()
            acc.expect(acc.count + batch)
            gen.send("batch")
            healthy = acc.wait(cfg.stall_s)
            reply = gen.recv()
            if not healthy or reply[0] != "batch_sent":
                healthy = False
                break
            batches.append(acc.reached_at - reply[1])

        emitted_before_bye = len(compartment.response_log)
        gen.send("bye")
        reply = gen.recv()
        while reply[0] != "bye_done":
            reply = gen.recv()
        sent = reply[1]
        time.sleep(0.2)  # responses in flight reach the subscriber
        server.stop()
        stopped = mono()
        gen.send("collect")
        received = gen.recv(timeout=30)[1]
    finally:
        if stopped is None:
            server.stop()
        os.sched_setaffinity(0, main_cores)
        if gen is not None:
            gen.close()

    outcome.attempted = sent
    outcome.failed = sent - acc.count
    responses_ok = len(received) >= emitted_before_bye and all(
        number in inputs.numbers for number, _ in received
    )
    outcome.correct = healthy and outcome.failed == 0 and responses_ok
    details.update(
        sent=sent, accepted=acc.count, batch_s=[round(b, 4) for b in batches],
        gauge_s=gauge.spent,
        responses_emitted=len(compartment.response_log), responses_received=len(received),
    )
    outcome.details = details
    outcome.layers = {
        "wire.accepted": acc.count,
        "wire.lost": outcome.failed,
        "wire.responses_forwarded": len(received),
        "wire.response_latency_p50_ms": _quantile([lat for _, lat in received], 0.5) * 1e3,
        "session_s": stopped - server_t0,
    }
    if fixed is None or not batches:
        return outcome

    times, t0, cpu_per_frame = fixed
    due_abs = [t0 + d for d in inputs.due]
    lags = [accepted - due for accepted, due in zip(times, due_abs)]
    backlog = max(
        bisect.bisect_right(due_abs, accepted) - (k + 1) for k, accepted in enumerate(times)
    )
    experiment_s = statistics.median(batches)
    raw = {
        "experiment_s": experiment_s,
        "ingest_msgs_per_s": batch / experiment_s,
        "ingest_cpu_us_per_msg": cpu_per_frame * 1e6,
    }
    scale = gauge.scale()
    # The CPU figure comes from the open-loop phase, where the gauge is not
    # sampled, so it stays raw.
    outcome.e2e = {
        **raw,
        "experiment_s": experiment_s * scale,
        "ingest_msgs_per_s": batch / experiment_s / scale,
    }
    details.update(raw=raw, reference_s=statistics.median(gauge.samples))
    outcome.layers.update({
        "wire.backlog_max_msgs": max(0, backlog),
        "wire.ingest_lag_p50_ms": _quantile(lags, 0.5) * 1e3,
        "wire.ingest_lag_p99_ms": _quantile(lags, 0.99) * 1e3,
        "wire.generator_late_ms": _quantile(late, 0.99) * 1e3,
    })
    return outcome


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def layer_metrics(
    tracer: Tracer, per: float, compartments: list, busy_s: float | None = None
) -> dict:
    """Per-layer metrics of the traced part, counts divided by ``per``.

    ``compartments`` are the traced compartments, after their last cycle.

    ``busy_s`` is the process CPU time of a realtime session; the wire
    layer's self time is what is left of it outside the tissue and twocell
    spans, because the session threads have no public name to hook.  The
    tracer's bookkeeping outside its spans is taken out of ``busy_s`` first;
    the wrappers that count accepted frames and rejected decodes are not,
    so the wire share includes them.
    """
    totals = tracer.totals()
    counts = tracer.counts()

    def total(span: str) -> tuple[int, float, float]:
        return totals.get(span, (0, 0.0, 0.0))

    def own(*spans: str) -> float:
        return sum(total(span)[2] for span in spans)

    cycles = total("tissue.cycle")[0]
    cycle_us = [d * 1e6 for d in tracer.durations("tissue.cycle")]
    run_ms = [d * 1e3 for d in tracer.durations("harness.run")]
    records = counts.get("trace_model.records", 0)
    stats_records = counts.get("trace_model.stats_records", 0)
    events = counts.get("policy.events", 0)
    binds = counts.get("twocell.binds", 0)
    m = {
        "trace_model.parse_us_per_record":
            total("trace_model.parse")[1] / records * 1e6 if records else 0.0,
        "trace_model.stats_us_per_record":
            total("trace_model.stats")[1] / stats_records * 1e6 if stats_records else 0.0,
        "trace_model.records": records / per,
        "tissue.cycle_us_p50": _quantile(cycle_us, 0.5),
        "tissue.cycle_us_p99": _quantile(cycle_us, 0.99),
        "tissue.cycles": cycles / per,
        "tissue.add_antigen_us": _per_call(total("tissue.add_antigen"), 1e6),
        "tissue.antigen_added": total("tissue.add_antigen")[0] / per,
        "tissue.antigen_dropped": (
            sum(c.antigen_added_total - c.antigen_count() for c in compartments)
            - counts.get("tissue.consumed", 0)
        ) / per,
        "tissue.store_max": tracer.peak_of("tissue.store_max"),
        "tissue.consumed": counts.get("tissue.consumed", 0) / per,
        "tissue.responses": counts.get("tissue.responses", 0) / per,
        "twocell.type1_us_per_cycle": total("twocell.type1")[1] / cycles * 1e6 if cycles else 0.0,
        "twocell.type2_us_per_cycle": total("twocell.type2")[1] / cycles * 1e6 if cycles else 0.0,
        "twocell.responses_per_bind": counts.get("tissue.responses", 0) / binds if binds else 0.0,
        "policy.evaluate_us_per_event":
            total("policy.evaluate")[1] / events * 1e6 if events else 0.0,
        "policy.from_run_ms": _per_call(total("policy.from_run"), 1e3),
        "policy.naive_ms": _per_call(total("policy.naive"), 1e3),
        "policy.average_ms": _per_call(total("policy.average"), 1e3),
        "harness.run_ms_p50": _quantile(run_ms, 0.5),
        "harness.run_ms_p90": _quantile(run_ms, 0.9),
        "harness.load_ms": total("harness.load")[1] * 1e3 / per,
        # run_offline time outside every traced call: artifact writing and
        # the loop that drives the runs.
        "harness.write_ms": own("harness.run_offline") * 1e3 / per,
        "harness.runs_failed": counts.get("harness.runs_failed", 0) / per,
        "wire.decode_us": _per_call(total("wire.decode"), 1e6),
        "wire.frames_rejected": counts.get("wire.frames_rejected", 0),
    }
    layer_s = {
        "trace_model": own("trace_model.parse", "trace_model.stats"),
        "tissue": own("tissue.cycle", "tissue.add_antigen"),
        "twocell": own("twocell.type1", "twocell.type2"),
        "policy": own("policy.evaluate", "policy.from_run", "policy.naive", "policy.average"),
        "harness": own("harness.run_offline", "harness.run", "harness.load"),
        "wire": own("wire.decode"),
    }
    if busy_s is not None:
        busy_s = max(0.0, busy_s - tracer.untimed_cost())
        layer_s["wire"] = max(0.0, busy_s - layer_s["tissue"] - layer_s["twocell"])
    whole = busy_s if busy_s is not None else sum(layer_s.values())
    for layer, seconds in layer_s.items():
        m[f"{layer}.self_share"] = seconds / whole if whole else 0.0
    for name in list(m):
        if any(span in tracer.missing_spans for span in NEEDS.get(name, ())):
            del m[name]
    return m


def pacer_metrics(tracer: Tracer, session_s: float) -> dict:
    starts = tracer.starts("tissue.cycle")
    interval = 1.0 / TISSUE.cycles_per_second
    lags = [max(0.0, b - a - interval) for a, b in zip(starts, starts[1:])]
    expected = int(session_s * TISSUE.cycles_per_second) + 1
    return {
        "wire.pacer_lag_p99_ms": _quantile(lags, 0.99) * 1e3,
        "wire.cycles_skipped": max(0, expected - len(starts)),
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work: Path, cfg=None
) -> Outcome:
    """Set up, measure and check one workload.

    With ``trace`` the first half of the time is measured untraced and the
    second half traced; the end-to-end metrics come from the untraced half
    and the difference between the halves is the tracing overhead.  ``cfg``
    defaults to the workload's registered config; only that config, on the
    default seed, has pinned digests.
    """
    expected = None
    if cfg is None:
        cfg = CONFIGS[name]
        if seed == DEFAULT_SEED:
            expected = pinned_digests().get(name)
    realtime = isinstance(cfg, RealtimeConfig)
    span_s = seconds / 2 if trace else seconds
    phase_s = span_s * FIXED_SHARE if realtime else 0.0
    inputs, timings = setup(cfg, seed, phase_s, work)

    seen: list = []

    def measure(tracer: Tracer | None, reference: str | None) -> Outcome:
        if realtime:
            return run_session(inputs, cfg, span_s, seed, tracer, seen)
        return measure_offline(
            inputs, span_s, work, reference, tracer, min_reps=1 if tracer else 2
        )

    outcome = measure(None, expected)
    if trace:
        tracer = Tracer(keep=("tissue.cycle", "harness.run"))
        if not realtime:
            _hook_offline(tracer, seen)
            if expected is None:
                expected = outcome.details["digests"][0]
        cpu0 = time.process_time()
        try:
            traced = measure(tracer, expected)
        finally:
            tracer.unhook()
        busy_s = time.process_time() - cpu0 - traced.details.get("gauge_s", 0.0)
        layers = _traced_layers(
            tracer, outcome, traced, timings, seen, busy_s if realtime else None
        )
        outcome = Outcome(
            attempted=outcome.attempted + traced.attempted,
            failed=outcome.failed + traced.failed,
            correct=outcome.correct and traced.correct,
            e2e=outcome.e2e if traced.e2e is not None else None,
            layers=layers,
            details={"untraced": outcome.details, "traced": traced.details},
        )
    if outcome.e2e is not None:
        outcome.e2e.update(setup_s=timings["setup_s"], peak_rss_mb=peak_rss_mb())
    outcome.details = {**(outcome.details or {}), "setup": timings}
    return outcome


def _traced_layers(
    tracer: Tracer, untraced: Outcome, traced: Outcome, timings: dict,
    compartments: list, busy_s: float | None,
) -> dict:
    """Every per-layer metric that could be traced; 0 for a layer not exercised."""
    per = traced.details.get("experiments", 1)
    layers = layer_metrics(tracer, per, compartments, busy_s)
    realtime_layers = dict(traced.layers or {})
    session_s = realtime_layers.pop("session_s", None)
    layers.update(realtime_layers)
    if session_s is not None and "tissue.cycle" not in tracer.missing_spans:
        layers.update(pacer_metrics(tracer, session_s))
    layers["scenarios.synth_s"] = timings["scenarios.synth_s"]
    layers["cli.import_ms"] = timings["cli.import_ms"]
    if untraced.e2e is not None and traced.e2e is not None:
        # Raw times: the halves run back to back, and only the untraced one
        # interleaves the gauge with single runs.
        base = untraced.details["raw"]["experiment_s"]
        overhead = traced.details["raw"]["experiment_s"] - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / base
    for metric in PER_LAYER:
        if not any(span in tracer.missing_spans for span in NEEDS.get(metric, ())):
            layers.setdefault(metric, 0.0)
    return layers
