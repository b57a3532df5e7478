"""Synthetic scenario generation.

Workloads are bursty: long quiet stretches punctuated by one-second bursts
of syscalls, a startup burst at t=0, an optional shutdown burst in the final
second, attack bursts at fixed offsets, and a small interaction cluster.
CPU samples every 0.1 s rise during bursts and decay back to baseline.

The six bundled profiles are parameterized so their statistics land exactly
on the reference triples (total seconds, total events, peak events/second)
for any seed.
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .trace_model import SYSCALL_NAMES, Label, ReplayLog, sort_by_time


class ScenarioKind(str, enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    NORMAL = "normal"


# The 38-syscall vocabulary that normal usage draws from.  Startup bursts
# cycle through all of it, so the distinct-syscall count of any normal
# scenario pair is exactly the vocabulary size.
DEFAULT_VOCABULARY: tuple[int, ...] = (
    1, 2, 3, 4, 5, 6,
    13, 19, 20, 24, 27, 33, 37, 41, 42, 45,
    54, 55, 63, 78, 90, 91,
    106, 108, 118, 122, 140, 142, 146, 168, 174, 192, 197,
    301, 302, 304, 309, 312,
)

# Syscalls an exploit payload uses that never occur in normal usage.
ATTACK_NOVEL_SYSCALLS: tuple[int, ...] = (
    11, 15, 23, 46, 60, 85, 95, 114, 120, 183, 303, 305,
)

CPU_BASELINE = 0.02
CPU_DECAY_SECONDS = 2.0


@dataclass(frozen=True)
class ScenarioProfile:
    """Shape of one synthetic scenario.

    ``attack_bursts`` is a sequence of (count, at_second) pairs; each burst
    occupies the one-second window starting at its offset.  Success
    scenarios have no shutdown burst (the monitored daemon is replaced by a
    shell); normal and failure scenarios shut down with a burst of 17-29
    syscalls.
    """

    name: str
    kind: ScenarioKind
    startup_burst: int
    shutdown_burst: int | None
    attack_bursts: tuple[tuple[int, int], ...]
    interaction_events: int
    duration: int
    seed: int
    attack_novel_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 2:
            raise ValueError("duration must be at least 2 seconds")
        if self.startup_burst < 0 or self.interaction_events < 0:
            raise ValueError("event counts must be non-negative")
        if self.kind is ScenarioKind.SUCCESS:
            if self.shutdown_burst is not None:
                raise ValueError("success scenarios have no shutdown burst")
        else:
            if self.shutdown_burst is None:
                raise ValueError(f"{self.kind.value} scenarios need a shutdown burst")
            if not 17 <= self.shutdown_burst <= 29:
                raise ValueError("shutdown burst must be within [17, 29]")
        if not 0.0 <= self.attack_novel_fraction <= 1.0:
            raise ValueError("attack_novel_fraction must be within [0, 1]")


class InfeasibleProfile(ValueError):
    """Profile geometry cannot fit inside its duration."""


def _burst_seconds(profile: ScenarioProfile) -> dict[int, str]:
    """Map occupied one-second windows to their role; validates geometry."""
    occupied: dict[int, str] = {}

    def claim(second: int, role: str) -> None:
        if second < 0 or second >= profile.duration:
            raise InfeasibleProfile(
                f"{role} burst at second {second} outside 0..{profile.duration - 1}"
            )
        if second in occupied:
            raise InfeasibleProfile(
                f"{role} burst collides with {occupied[second]} at second {second}"
            )
        occupied[second] = role

    if profile.startup_burst > 0:
        claim(0, "startup")
    if profile.shutdown_burst is not None:
        claim(profile.duration - 1, "shutdown")
    for count, at in profile.attack_bursts:
        if count <= 0:
            raise InfeasibleProfile(f"attack burst count {count} must be positive")
        claim(at, "attack")
    return occupied


def _interaction_second(profile: ScenarioProfile, occupied: dict[int, str]) -> int:
    """A quiet window for the interaction cluster.

    Success scenarios interact right after the final attack burst (the
    remote shell); otherwise the first free second from mid-run.
    """
    if profile.kind is ScenarioKind.SUCCESS and profile.attack_bursts:
        start = max(at for _, at in profile.attack_bursts) + 1
    else:
        start = profile.duration // 2
    for second in list(range(start, profile.duration)) + list(range(1, start)):
        if second not in occupied:
            return second
    raise InfeasibleProfile("no free second for interaction events")


def _cpu_level(t: float, bursts: list[tuple[int, int]]) -> float:
    """Deterministic CPU curve: plateau during a burst, exp decay after."""
    level = CPU_BASELINE
    for second, count in bursts:
        amplitude = min(0.9, 0.15 + count / 1500.0)
        if second <= t < second + 1:
            level += amplitude
        elif t >= second + 1:
            level += amplitude * math.exp(-(t - second - 1) / CPU_DECAY_SECONDS)
    return min(1.0, level)


def synthesize_scenario(profile: ScenarioProfile) -> ReplayLog:
    """Generate a labeled replay log; deterministic for a given seed.

    Events are drawn burst by burst into time, number and label columns,
    then stably sorted by time; CPU samples come out in time order.  Times
    and CPU levels lie on the microsecond grid that ``format_replay_log``
    writes, so a written log parses back to the same columns.

    The draws are those of ``random.Random`` itself: times call ``random``,
    the startup burst's head is a ``shuffle``, and each syscall is a
    ``choice`` made inline, ``getrandbits(len(seq).bit_length())`` with
    values >= ``len(seq)`` drawn again, as ``choice`` does, so the stream is
    the same draw for draw without a Python frame per draw.
    """
    occupied = _burst_seconds(profile)
    rng = random.Random(profile.seed)
    uniform = rng.random
    getrandbits = rng.getrandbits
    floor = math.floor
    times: list[float] = []
    numbers: list[int] = []
    labels: list[Label] = []
    cpu_bursts: list[tuple[int, int]] = []
    vocabulary = DEFAULT_VOCABULARY
    n_vocabulary = len(vocabulary)
    vocabulary_bits = n_vocabulary.bit_length()
    novel = ATTACK_NOVEL_SYSCALLS
    n_novel = len(novel)
    novel_bits = n_novel.bit_length()

    def burst_times(second: int, count: int) -> list[float]:
        # round(t, 6) at a third of its cost; a whole number of microseconds
        # parses back from the file unchanged
        burst = [floor((second + uniform()) * 1e6 + 0.5) / 1e6 for _ in range(count)]
        burst.sort()
        return burst

    def add_normal_burst(second: int, count: int, cover_vocabulary: bool) -> None:
        if count == 0:
            return
        times.extend(burst_times(second, count))
        fill = count
        if cover_vocabulary:
            head = list(vocabulary[:count])
            rng.shuffle(head)
            numbers.extend(head)
            fill -= len(head)
        add = numbers.append
        for _ in range(fill):
            k = getrandbits(vocabulary_bits)  # choice(vocabulary), inline
            while k >= n_vocabulary:
                k = getrandbits(vocabulary_bits)
            add(vocabulary[k])
        labels.extend([Label.NORMAL] * count)
        cpu_bursts.append((second, count))

    def add_attack_burst(second: int, count: int) -> None:
        times.extend(burst_times(second, count))
        novel_fraction = profile.attack_novel_fraction
        add = numbers.append
        for _ in range(count):
            if uniform() < novel_fraction:
                k = getrandbits(novel_bits)  # choice(novel), inline
                while k >= n_novel:
                    k = getrandbits(novel_bits)
                add(novel[k])
            else:
                k = getrandbits(vocabulary_bits)  # choice(vocabulary), inline
                while k >= n_vocabulary:
                    k = getrandbits(vocabulary_bits)
                add(vocabulary[k])
        labels.extend([Label.ATTACK] * count)
        cpu_bursts.append((second, count))

    add_normal_burst(0, profile.startup_burst, cover_vocabulary=True)
    for count, at in profile.attack_bursts:
        add_attack_burst(at, count)
    if profile.interaction_events > 0:
        second = _interaction_second(profile, occupied)
        occupied[second] = "interaction"
        add_normal_burst(second, profile.interaction_events, cover_vocabulary=False)
    if profile.shutdown_burst is not None:
        add_normal_burst(profile.duration - 1, profile.shutdown_burst, cover_vocabulary=False)

    cpu_bursts.sort()
    # one CPU sample every 0.1 s, stamped k / 10.0: k * 0.1 gives other floats
    signal_times = tuple(k / 10.0 for k in range(1, profile.duration * 10 + 1))
    return ReplayLog(
        profile.name,
        *sort_by_time(times, numbers, labels),
        signal_times,
        ("cpu",) * len(signal_times),
        tuple(round(_cpu_level(t, cpu_bursts), 6) for t in signal_times),
    )


# Parameterized to land exactly on the reference statistics:
#   normal1 (38, 434, 405)   normal2 (104, 450, 405)
#   success1 (55, 1739, 1102) success2 (36, 1743, 790)
#   failure1 (54, 518, 405)  failure2 (68, 495, 405)
BUNDLED_PROFILES: dict[str, ScenarioProfile] = {
    "normal1": ScenarioProfile(
        "normal1", ScenarioKind.NORMAL,
        startup_burst=405, shutdown_burst=17, attack_bursts=(),
        interaction_events=12, duration=38, seed=101,
    ),
    "normal2": ScenarioProfile(
        "normal2", ScenarioKind.NORMAL,
        startup_burst=405, shutdown_burst=29, attack_bursts=(),
        interaction_events=16, duration=104, seed=102,
    ),
    "success1": ScenarioProfile(
        "success1", ScenarioKind.SUCCESS,
        startup_burst=405, shutdown_burst=None,
        attack_bursts=((1102, 20), (129, 30), (98, 40)),
        interaction_events=5, duration=55, seed=103,
        attack_novel_fraction=0.125,
    ),
    "success2": ScenarioProfile(
        "success2", ScenarioKind.SUCCESS,
        startup_burst=405, shutdown_burst=None,
        attack_bursts=((790, 15), (445, 22), (98, 29)),
        interaction_events=5, duration=36, seed=104,
        attack_novel_fraction=0.125,
    ),
    "failure1": ScenarioProfile(
        "failure1", ScenarioKind.FAILURE,
        startup_burst=405, shutdown_burst=17, attack_bursts=((96, 25),),
        interaction_events=0, duration=54, seed=105,
    ),
    "failure2": ScenarioProfile(
        "failure2", ScenarioKind.FAILURE,
        startup_burst=405, shutdown_burst=28, attack_bursts=((62, 30),),
        interaction_events=0, duration=68, seed=106,
    ),
}

assert all(v in SYSCALL_NAMES for v in DEFAULT_VOCABULARY)
assert all(v in SYSCALL_NAMES for v in ATTACK_NOVEL_SYSCALLS)
assert not set(DEFAULT_VOCABULARY) & set(ATTACK_NOVEL_SYSCALLS)
