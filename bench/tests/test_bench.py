"""The benchmark's own tests, at a tiny size.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

import aisd.harness
import workloads
from tracer import Tracer
from workloads import CONFIGS, END_TO_END, PER_LAYER, OfflineConfig, RealtimeConfig

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "offline-normal": replace(CONFIGS["offline-normal"], runs_per_dataset=1, tail_time=1.0),
    "offline-flood": OfflineConfig(
        tuple(
            replace(
                p,
                startup_burst=p.startup_burst // 100,
                interaction_events=p.interaction_events // 100,
                attack_bursts=tuple((count // 100, at) for count, at in p.attack_bursts),
            )
            for p in workloads.FLOOD_PROFILES
        ),
        runs_per_dataset=1, tail_time=1.0, seed_base=5000,
    ),
    "realtime-ingest": RealtimeConfig(burst=300, min_batches=1, stall_s=1.0, max_late_s=0.05),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, tmp_path):
    outcome = workloads.run_workload(name, 3, 1.0, trace, tmp_path, cfg=TINY[name])
    assert outcome.correct and outcome.failed == 0 and outcome.attempted > 0
    assert set(outcome.e2e) == set(END_TO_END)
    assert all(value > 0 for value in outcome.e2e.values())
    if trace:
        assert set(outcome.layers) == set(PER_LAYER)
        assert outcome.layers["wire.lost"] == 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(CONFIGS)


def test_tampered_artifact_trips_the_digest(tmp_path):
    inputs, _ = workloads.make_offline_inputs(TINY["offline-normal"], 1, tmp_path)
    out = tmp_path / "experiment"
    aisd.harness.run_offline(inputs.plan, out, workloads.TISSUE, workloads.TWOCELL)
    digest = workloads.artifact_digest(out)
    responses = next(out.rglob("responses.csv"))
    responses.write_text(responses.read_text() + "1,0.100,0,5,open\n")
    assert workloads.artifact_digest(out) != digest

    outcome = workloads.measure_offline(inputs, 0.0, tmp_path, expected="0" * 64)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0


def test_dropped_frame_shows_up_as_lost():
    cfg = TINY["realtime-ingest"]
    inputs, _ = workloads.make_realtime_inputs(cfg, 1, 1.0)
    inputs.frames[-1] = b"ANTIGEN 5 bogus\n"  # the server rejects it and ends the session
    tracer = Tracer()
    outcome = workloads.run_session(inputs, cfg, 1.0, 1, tracer, [])
    tracer.unhook()
    assert not outcome.correct
    assert outcome.failed == 1
    assert outcome.layers["wire.lost"] == 1
    assert tracer.counts()["wire.frames_rejected"] == 1


def test_generator_that_misses_its_schedule_invalidates_the_run():
    cfg = replace(TINY["realtime-ingest"], max_late_s=-1.0, fixed_attempts=2)
    inputs, _ = workloads.make_realtime_inputs(cfg, 1, 1.0)
    with pytest.raises(workloads.InvalidRun):
        workloads.run_session(inputs, cfg, 1.0, 1)


def test_missing_hook_leaves_its_metrics_out(capsys):
    tracer = Tracer()
    module = types.SimpleNamespace(__name__="aisd.twocell")
    assert tracer.hook(module, "type2_cycle", "twocell.type2") is None
    assert "not found" in capsys.readouterr().err
    layers = workloads.layer_metrics(tracer, 1, [])
    assert "twocell.type2_us_per_cycle" not in layers
    assert "twocell.type1_us_per_cycle" in layers


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.03))

    def parent_body():
        time.sleep(0.02)
        child()
    tracer.wrap("parent", parent_body)()
    totals = tracer.totals()
    _, parent_total, parent_self = totals["parent"]
    assert parent_total >= 0.05
    assert 0.015 < parent_self < 0.03
    assert totals["child"][0] == 1
    assert tracer.untimed_cost() == tracer.span_cost  # one parentless span


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "offline-normal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
