from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import aisd.scenarios
from aisd.scenarios import (
    ATTACK_NOVEL_SYSCALLS,
    BUNDLED_PROFILES,
    DEFAULT_VOCABULARY,
    InfeasibleProfile,
    ScenarioKind,
    ScenarioProfile,
    _burst_seconds,
    _interaction_second,
    synthesize_scenario,
)
from aisd.harness import run_single_offline
from aisd.tissue import TissueParams
from aisd.trace_model import Label, dataset_stats, format_replay_log, parse_replay_log
from aisd.twocell import TwocellParams

# independently recounted target triples per scenario
EXPECTED_STATS = {
    "normal1": (38, 434, 405),
    "normal2": (104, 450, 405),
    "success1": (55, 1739, 1102),
    "success2": (36, 1743, 790),
    "failure1": (54, 518, 405),
    "failure2": (68, 495, 405),
}


def recount(log):
    """Brute-force oracle for the stats triple."""
    events = log.syscall_events()
    windows = Counter(int(math.floor(e.timestamp)) for e in events)
    return (
        int(math.ceil(log.duration)),
        len(events),
        max(windows.values()) if windows else 0,
    )


@pytest.mark.parametrize("name", sorted(BUNDLED_PROFILES))
def test_bundled_profile_statistics(name, bundled_logs):
    log = bundled_logs[name]
    assert dataset_stats(log).as_tuple() == EXPECTED_STATS[name]
    assert recount(log) == EXPECTED_STATS[name]


def test_determinism_byte_identical():
    profile = BUNDLED_PROFILES["normal1"]
    a = format_replay_log(synthesize_scenario(profile))
    b = format_replay_log(synthesize_scenario(profile))
    assert a == b


def test_different_seed_changes_event_times():
    from dataclasses import replace

    profile = BUNDLED_PROFILES["normal1"]
    a = synthesize_scenario(profile)
    b = synthesize_scenario(replace(profile, seed=profile.seed + 1))
    assert format_replay_log(a) != format_replay_log(b)
    assert dataset_stats(a).as_tuple() == dataset_stats(b).as_tuple()


def test_normal_scenarios_have_no_attack_events(bundled_logs):
    for name in ("normal1", "normal2"):
        assert all(
            e.label is Label.NORMAL for e in bundled_logs[name].syscall_events()
        )


def test_label_partition_sums(bundled_logs):
    for log in bundled_logs.values():
        events = log.syscall_events()
        by_label = Counter(e.label for e in events)
        assert by_label[Label.NORMAL] + by_label[Label.ATTACK] == len(events)


def test_success_attack_burst_structure(bundled_logs):
    log = bundled_logs["success1"]
    attack = [e for e in log.syscall_events() if e.label is Label.ATTACK]
    windows = Counter(int(math.floor(e.timestamp)) for e in attack)
    # three maximal bursts, each inside its own one-second window
    assert sorted(windows.values(), reverse=True) == [1102, 129, 98]
    assert all(98 <= c <= 1102 for c in windows.values())


def test_success_quiet_after_last_burst(bundled_logs):
    log = bundled_logs["success1"]
    last_attack = max(
        e.timestamp for e in log.syscall_events() if e.label is Label.ATTACK
    )
    after = [e for e in log.syscall_events() if e.timestamp > last_attack]
    profile = BUNDLED_PROFILES["success1"]
    assert len(after) == profile.interaction_events
    assert all(e.label is Label.NORMAL for e in after)


def test_normal_vocabulary_coverage(bundled_logs):
    distinct = {
        e.syscall_number
        for name in ("normal1", "normal2")
        for e in bundled_logs[name].syscall_events()
    }
    assert distinct == set(DEFAULT_VOCABULARY)
    assert len(distinct) == 38


def test_attack_bursts_use_novel_syscalls(bundled_logs):
    attack_numbers = {
        e.syscall_number
        for e in bundled_logs["success1"].syscall_events()
        if e.label is Label.ATTACK
    }
    assert attack_numbers & set(ATTACK_NOVEL_SYSCALLS)


def test_cpu_signal_rises_and_decays(bundled_logs):
    log = bundled_logs["normal1"]
    samples = {round(t, 1): v for t, v in zip(log.signal_times, log.signal_values)}
    assert all(0.0 <= v <= 1.0 for v in samples.values())
    # startup burst occupies [0, 1): high during, decayed long after
    assert samples[0.5] > 0.3
    assert samples[10.0] < 0.1
    assert samples[0.5] > samples[2.0] > samples[6.0]


def test_cpu_sampling_interval(bundled_logs):
    times = bundled_logs["normal2"].signal_times
    assert len(times) == 104 * 10
    assert times[0] == pytest.approx(0.1)
    assert times[-1] == pytest.approx(104.0)


def test_infeasible_attack_offset():
    profile = ScenarioProfile(
        name="bad", kind=ScenarioKind.SUCCESS, startup_burst=10,
        shutdown_burst=None, attack_bursts=((50, 99),), interaction_events=0,
        duration=20, seed=1,
    )
    with pytest.raises(InfeasibleProfile):
        synthesize_scenario(profile)


def test_colliding_bursts_rejected():
    profile = ScenarioProfile(
        name="bad", kind=ScenarioKind.SUCCESS, startup_burst=10,
        shutdown_burst=None, attack_bursts=((5, 3), (5, 3)), interaction_events=0,
        duration=20, seed=1,
    )
    with pytest.raises(InfeasibleProfile):
        synthesize_scenario(profile)


def test_profile_invariants():
    with pytest.raises(ValueError, match="shutdown"):
        ScenarioProfile(
            name="x", kind=ScenarioKind.SUCCESS, startup_burst=1,
            shutdown_burst=20, attack_bursts=(), interaction_events=0,
            duration=10, seed=1,
        )
    with pytest.raises(ValueError, match="17, 29"):
        ScenarioProfile(
            name="x", kind=ScenarioKind.NORMAL, startup_burst=1,
            shutdown_burst=30, attack_bursts=(), interaction_events=0,
            duration=10, seed=1,
        )


# sha256 of format_replay_log(synthesize_scenario(profile)), recorded before
# replay logs became per-kind columns: synthesis and the file format must
# not change a byte.
FORMATTED_LOG_DIGESTS = {
    "normal1": "08e25bfe5ecbedf6ba8b48c1d9fee50187db9c7697d718605a95d7b920c9a986",
    "normal2": "e6632723bce528c278c5910042336d2fb7f7d83104e8c4aad5fee4390ab23ad9",
    "success1": "cea53c5bab36dfa74a9581c9cb6f59338fc1dd04b938bab0151d26db7ca8278e",
    "success2": "1139730a0388851c8ab53144d0c697b4571ebf02fce658e88026315b977786b9",
    "failure1": "0babbc1fb75781dd18443cb78190f80d87f467a903bf6c09ee53fa2931c63bbf",
    "failure2": "87a767fc6cec3a13d5392a49a544f186331d3b78e30c842846ca8e3e9ee0a848",
}


@pytest.mark.parametrize("name", sorted(FORMATTED_LOG_DIGESTS))
def test_formatted_log_golden(name):
    text = format_replay_log(synthesize_scenario(BUNDLED_PROFILES[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == FORMATTED_LOG_DIGESTS[name]


# The offline-flood benchmark's success profile.  At seeds 202 and 5202 an
# event falls less than half a microsecond before the 0.3 s cycle boundary.
FLOOD_SUCCESS = ScenarioProfile(
    "flood-success", ScenarioKind.SUCCESS, startup_burst=45_000, shutdown_burst=None,
    attack_bursts=((55_000, 5), (3_000, 12)), interaction_events=2_000, duration=20,
    seed=202, attack_novel_fraction=0.125,
)
ROUND_TRIP_PROFILES = {
    **BUNDLED_PROFILES,
    "flood-success-202": FLOOD_SUCCESS,
    "flood-success-5202": dataclasses.replace(FLOOD_SUCCESS, seed=5202),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_PROFILES))
def test_written_log_is_the_log_in_memory(name):
    log = synthesize_scenario(ROUND_TRIP_PROFILES[name])
    text = format_replay_log(log)
    parsed = parse_replay_log(text)
    assert format_replay_log(parsed) == text
    assert parsed == log
    run = (TissueParams(), TwocellParams(), 4)
    assert run_single_offline(parsed, *run, tail_time=1.0) == run_single_offline(
        log, *run, tail_time=1.0
    )



def reference_synthesis(profile: ScenarioProfile) -> tuple[tuple, random.Random]:
    """The event columns of ``synthesize_scenario`` drawn through
    ``random.Random``'s public ``random``, ``choice`` and ``shuffle``, and
    the generator after the last draw."""
    rng = random.Random(profile.seed)
    events: list[tuple[float, int, Label]] = []

    def burst_times(second, count):
        return sorted(math.floor((second + rng.random()) * 1e6 + 0.5) / 1e6 for _ in range(count))

    def normal_burst(second, count, cover_vocabulary):
        times = burst_times(second, count)
        values = []
        if cover_vocabulary:
            values = list(DEFAULT_VOCABULARY[:count])
            rng.shuffle(values)
        while len(values) < count:
            values.append(rng.choice(DEFAULT_VOCABULARY))
        events.extend(zip(times, values, [Label.NORMAL] * count))

    def attack_burst(second, count):
        times = burst_times(second, count)
        values = [
            rng.choice(ATTACK_NOVEL_SYSCALLS)
            if rng.random() < profile.attack_novel_fraction
            else rng.choice(DEFAULT_VOCABULARY)
            for _ in range(count)
        ]
        events.extend(zip(times, values, [Label.ATTACK] * count))

    occupied = _burst_seconds(profile)
    if profile.startup_burst:
        normal_burst(0, profile.startup_burst, True)
    for count, at in profile.attack_bursts:
        attack_burst(at, count)
    if profile.interaction_events:
        normal_burst(_interaction_second(profile, occupied), profile.interaction_events, False)
    if profile.shutdown_burst is not None:
        normal_burst(profile.duration - 1, profile.shutdown_burst, False)
    events.sort(key=lambda event: event[0])  # stable
    return tuple(zip(*events)) or ((), (), ()), rng


DRAW_PROFILES = {
    # startup and interaction bursts larger than the vocabulary
    f"success-novel-{fraction}": ScenarioProfile(
        "draws", ScenarioKind.SUCCESS, startup_burst=100, shutdown_burst=None,
        attack_bursts=((300, 3), (40, 5)), interaction_events=60, duration=10,
        seed=7, attack_novel_fraction=fraction,
    )
    for fraction in (0.0, 0.125, 1.0)
} | {
    # a startup burst smaller than the vocabulary: a shuffled head, no fill
    "failure-small-startup": ScenarioProfile(
        "draws", ScenarioKind.FAILURE, startup_burst=10, shutdown_burst=29,
        attack_bursts=((500, 2),), interaction_events=45, duration=6, seed=8,
        attack_novel_fraction=0.125,
    ),
    "normal-no-startup": ScenarioProfile(
        "draws", ScenarioKind.NORMAL, startup_burst=0, shutdown_burst=17,
        attack_bursts=(), interaction_events=3, duration=4, seed=9,
    ),
    **BUNDLED_PROFILES,
}


@pytest.mark.parametrize("name", sorted(DRAW_PROFILES))
def test_draws_equal_public_random_methods(name, monkeypatch):
    made: list[random.Random] = []

    class RecordedRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(aisd.scenarios, "random", SimpleNamespace(Random=RecordedRandom))
    profile = DRAW_PROFILES[name]
    log = synthesize_scenario(profile)
    columns, rng = reference_synthesis(profile)
    assert (log.event_times, log.event_numbers, log.event_labels) == columns
    assert len(made) == 1
    assert made[0].getstate() == rng.getstate()
