"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""
from __future__ import annotations

import math
import random
import time
from collections import Counter

import pytest

from aisd.cli import main as cli_main
from aisd.harness import (
    ExperimentPlan,
    PlanDataset,
    offline_cycles,
    run_offline,
)
from aisd.policy import naive_policy
from aisd.scenarios import ScenarioKind, ScenarioProfile, synthesize_scenario
from aisd.tissue import TissueParams, create_compartment
from aisd.trace_model import Label, SyscallEvent, merge_to_replay_log
from aisd.twocell import TwocellParams, attach_twocell
from aisd.wire import ReplayConfig, TissueServer, WireMessage, decode, encode, replay

import invariant_checks

# The parameter set the acceptance experiments run with, pinned explicitly.
ACCEPT_TISSUE = TissueParams(signals=("cpu",), antigen_capacity=10_000,
                             cycles_per_second=10.0)
ACCEPT_TWOCELL = TwocellParams(
    n_type1=10, n_type2=20,
    antigen_receptors_per_t1=2, antigen_producers_per_t1=3,
    vr_receptors_per_t2=4, cell_receptors_per_t2=3,
    cell_lifespan=100, min_presentation=5, max_presentation=50,
    bind_attempts_per_cycle=3,
)

EXPECTED_TRIPLES = {
    "normal1": (38, 434, 405),
    "normal2": (104, 450, 405),
    "success1": (55, 1739, 1102),
    "success2": (36, 1743, 790),
    "failure1": (54, 518, 405),
    "failure2": (68, 495, 405),
}


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} PASS {description}", flush=True)


def test_criterion_1_dataset_statistics(bundled_files, capsys):
    start = time.monotonic()
    for name, path in bundled_files.items():
        assert cli_main(["stats", "--log", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        t, a, r = EXPECTED_TRIPLES[name]
        assert out == f"{name} {t} {a} {r}"
    # independent brute-force recount validates the stats operation
    from aisd.trace_model import read_replay_log

    for name, path in bundled_files.items():
        log = read_replay_log(path)
        windows = Counter(int(math.floor(e.timestamp)) for e in log.syscall_events())
        recount = (
            int(math.ceil(log.duration)),
            len(log.syscall_events()),
            max(windows.values()),
        )
        assert recount == EXPECTED_TRIPLES[name]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, f"dataset statistics exact for all six scenarios ({elapsed:.1f}s)")


def test_criterion_2_naive_policy_cardinality(bundled_logs, capsys):
    start = time.monotonic()
    policy = naive_policy([bundled_logs["normal1"], bundled_logs["normal2"]])
    assert len(policy.permitted) == 38
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, f"naive policy permits exactly 38 syscalls ({elapsed:.2f}s)")


def test_criterion_3_average_policy_coverage(bundled_files, tmp_path, capsys):
    start = time.monotonic()
    seed_bases = (1000, 11000, 21000, 31000, 41000)
    coverages = []
    for base in seed_bases:
        plan = ExperimentPlan(
            datasets=(
                PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
                PlanDataset(str(bundled_files["normal2"]), ScenarioKind.NORMAL),
            ),
            runs_per_dataset=20,
            tail_time=30.0,
            seed_base=base,
        )
        result = run_offline(plan, tmp_path / f"exp-{base}", ACCEPT_TISSUE, ACCEPT_TWOCELL)
        assert result.policies_written() == 40
        assert result.naive is not None and result.average is not None
        covered = len(result.naive.permitted & result.average.permitted)
        coverages.append(covered / len(result.naive.permitted))
    assert all(c >= 0.95 for c in coverages), coverages
    assert any(c == 1.0 for c in coverages), coverages
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report(3, f"40-run average policy coverage {coverages} ({elapsed:.0f}s)")


def test_criterion_4_baseline_ordering(bundled_files, tmp_path, capsys):
    start = time.monotonic()
    plan = ExperimentPlan(
        datasets=(
            PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
            PlanDataset(str(bundled_files["normal2"]), ScenarioKind.NORMAL),
            PlanDataset(str(bundled_files["success1"]), ScenarioKind.SUCCESS),
            PlanDataset(str(bundled_files["success2"]), ScenarioKind.SUCCESS),
            PlanDataset(str(bundled_files["failure1"]), ScenarioKind.FAILURE),
            PlanDataset(str(bundled_files["failure2"]), ScenarioKind.FAILURE),
        ),
        runs_per_dataset=1,
        tail_time=30.0,
        seed_base=7000,
    )
    result = run_offline(plan, tmp_path / "exp4", ACCEPT_TISSUE, ACCEPT_TWOCELL)
    naive_rows = result.evaluations["naive"]
    twocell_rows = result.evaluations["twocell"]
    for dataset in ("success1", "success2", "failure1", "failure2"):
        assert naive_rows[dataset].permit_pct > twocell_rows[dataset].permit_pct
        assert naive_rows[dataset].deny_pct < 15
    for dataset in ("success1", "success2"):
        assert twocell_rows[dataset].deny_pct > 40
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        summary = ", ".join(
            f"{d}: naive {naive_rows[d].permit_pct}/{naive_rows[d].deny_pct} "
            f"vs twocell {twocell_rows[d].permit_pct}/{twocell_rows[d].deny_pct}"
            for d in ("success1", "failure1")
        )
        report(4, f"baseline ordering holds ({summary}; {elapsed:.0f}s)")


def test_criterion_5_rate_response_coupling(capsys):
    start = time.monotonic()
    burst_at = 10
    profile = ScenarioProfile(
        name="coupling", kind=ScenarioKind.SUCCESS, startup_burst=0,
        shutdown_burst=None, attack_bursts=((60, burst_at),),
        interaction_events=0, duration=30, seed=202,
    )
    log = synthesize_scenario(profile)
    comp = create_compartment(ACCEPT_TISSUE, seed=55)
    attach_twocell(comp, ACCEPT_TWOCELL)
    cps = ACCEPT_TISSUE.cycles_per_second
    store_empty_time = 0.0
    for _ in offline_cycles(log, comp, tail_time=30.0):
        if comp.antigen_count() > 0:
            store_empty_time = comp.cycle_count / cps

    antigen_rate = Counter(int(e.timestamp) for e in log.syscall_events())
    response_rate = Counter(int(r.wall_time) for r in comp.response_log)
    assert comp.response_log, "no responses at all"
    # silent before the first antigen
    assert sum(v for s, v in response_rate.items() if s < burst_at) == 0
    # peak response within 5 s after peak antigen
    peak_antigen = max(antigen_rate, key=antigen_rate.get)
    peak_response = max(response_rate, key=response_rate.get)
    assert peak_antigen <= peak_response <= peak_antigen + 5
    # quiescence after the store empties and presentations expire
    quiesce_by = store_empty_time + ACCEPT_TWOCELL.max_presentation / cps + 5.0
    last_response = max(r.wall_time for r in comp.response_log)
    assert last_response <= quiesce_by
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(
            5,
            f"coupling: peak antigen s{peak_antigen} -> peak response s{peak_response}, "
            f"last response {last_response:.1f}s <= {quiesce_by:.1f}s ({elapsed:.0f}s)",
        )


def _random_message(rng: random.Random) -> WireMessage:
    kind = rng.randrange(5)
    if kind == 0:
        roles = rng.sample(["antigen", "signal", "response"], rng.randint(1, 3))
        return WireMessage.hello(tuple(roles))
    if kind == 1:
        return WireMessage.antigen(
            rng.randrange(512), Label.ATTACK if rng.random() < 0.5 else Label.NORMAL
        )
    if kind == 2:
        return WireMessage.signal("sig_" + str(rng.randrange(100)), rng.random())
    if kind == 3:
        return WireMessage.response(
            rng.randrange(512), rng.randrange(10_000), rng.random() * 1e5
        )
    return WireMessage.bye()


def test_criterion_6_protocol_and_replay(capsys):
    start = time.monotonic()
    rng = random.Random(606)
    for _ in range(10_000):
        message = _random_message(rng)
        assert decode(encode(message)) == message

    comp = create_compartment(ACCEPT_TISSUE, seed=66)
    attach_twocell(comp, ACCEPT_TWOCELL)
    with TissueServer(comp, host="127.0.0.1", port=0) as server:
        # wall-time linearity across rates on a 20 s log
        events = [SyscallEvent(i * 0.5, 5) for i in range(41)]
        log = merge_to_replay_log(events, [], "pacing")
        normalized = []
        for rate in (1.0, 2.0, 10.0):
            summary = replay(log, ReplayConfig(port=server.port, rate_multiplier=rate))
            assert summary.sent_antigen == 41
            normalized.append(summary.wall_time * rate)
        spread = max(normalized) / min(normalized)
        assert spread <= 1.15, normalized

        # peak-rate burst: 1102 messages inside one second, none dropped
        burst = merge_to_replay_log(
            [SyscallEvent(i / 1102.0 * 0.999, 5) for i in range(1102)], [], "burst"
        )
        before = comp.antigen_added_total
        summary = replay(burst, ReplayConfig(port=server.port, rate_multiplier=1.0))
        assert summary.sent_antigen == 1102
        deadline = time.monotonic() + 10
        while comp.antigen_added_total - before < 1102:
            assert time.monotonic() < deadline, "burst messages lost"
            time.sleep(0.01)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report(
            6,
            f"protocol identity x10000, rate linearity spread {spread:.3f}, "
            f"1102-burst delivered ({elapsed:.0f}s)",
        )


def test_criterion_7_offline_determinism(bundled_files, tmp_path, capsys):
    start = time.monotonic()
    plan = ExperimentPlan(
        datasets=(
            PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
            PlanDataset(str(bundled_files["failure1"]), ScenarioKind.FAILURE),
        ),
        runs_per_dataset=2,
        tail_time=10.0,
        seed_base=7777,
    )
    run_offline(plan, tmp_path / "a", ACCEPT_TISSUE, ACCEPT_TWOCELL)
    run_offline(plan, tmp_path / "b", ACCEPT_TISSUE, ACCEPT_TWOCELL)
    files_a = {
        str(p.relative_to(tmp_path / "a")): p.read_bytes()
        for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()
    }
    files_b = {
        str(p.relative_to(tmp_path / "b")): p.read_bytes()
        for p in sorted((tmp_path / "b").rglob("*")) if p.is_file()
    }
    assert files_a == files_b
    assert any(name.endswith("policy.txt") for name in files_a)
    assert "report.txt" in files_a and "report.csv" in files_a
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(7, f"byte-identical artifacts across reruns, {len(files_a)} files ({elapsed:.0f}s)")


@pytest.mark.parametrize("check", invariant_checks.ALL_CHECKS, ids=lambda f: f.__name__)
def test_criterion_8_invariant_suite(check, capsys):
    start = time.monotonic()
    rng = random.Random(hash(check.__name__) & 0xFFFFFF)
    for _ in range(1000):
        check(rng)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    with capsys.disabled():
        report(8, f"{check.__name__} holds over 1000 random instances ({elapsed:.0f}s)")
