from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aisd.policy import naive_policy
from aisd.trace_model import (
    Label,
    SignalSample,
    SyscallEvent,
    dataset_stats,
    format_replay_log,
    merge_to_replay_log,
    parse_replay_log,
)
from aisd.wire import WireMessage, decode, encode

import invariant_checks

# -- wire protocol -----------------------------------------------------------

roles_strategy = st.lists(
    st.sampled_from(["antigen", "signal", "response"]), min_size=1, max_size=3, unique=True
).map(tuple)

messages = st.one_of(
    st.builds(WireMessage.hello, roles_strategy),
    st.builds(
        WireMessage.antigen,
        st.integers(min_value=0, max_value=511),
        st.sampled_from([Label.NORMAL, Label.ATTACK]),
    ),
    st.builds(
        WireMessage.signal,
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    st.builds(
        WireMessage.response,
        st.integers(min_value=0, max_value=511),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    st.just(WireMessage.bye()),
)


@given(messages)
def test_decode_encode_identity(message):
    assert decode(encode(message)) == message
    frame = (encode(message) + "\n").encode("ascii")
    assert decode(frame) == message
    assert decode(frame) == message  # a memo hit for ANTIGEN frames


# -- merging and statistics ---------------------------------------------------

timestamps = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=0, max_size=200
).map(sorted)


@given(timestamps, timestamps)
def test_merge_preserves_counts_and_order(event_times, sample_times):
    events = [SyscallEvent(t, 5) for t in event_times]
    samples = [SignalSample(t, "cpu", 0.5) for t in sample_times]
    log = merge_to_replay_log(events, samples, "prop")
    assert len(log.syscall_events()) == len(events)
    assert len(log.signal_samples()) == len(samples)
    stamps = [r.timestamp for r in log.records]
    assert stamps == sorted(stamps)
    # ties: a signal never follows an event with the same timestamp
    for first, second in zip(log.records, log.records[1:]):
        if first.timestamp == second.timestamp:
            assert not (
                isinstance(first, SyscallEvent) and isinstance(second, SignalSample)
            )


# timestamps and values that the file's six decimals keep exactly; few
# distinct ones, so equal timestamps within and across kinds are common
file_floats = st.integers(min_value=0, max_value=40).map(lambda k: k / 8)
file_events = st.lists(
    st.builds(SyscallEvent, file_floats, st.integers(min_value=0, max_value=511),
              st.none(), st.sampled_from(list(Label))),
    max_size=40,
)
file_samples = st.lists(
    st.builds(SignalSample, file_floats, st.sampled_from(["cpu", "io"]),
              st.integers(min_value=0, max_value=1000).map(lambda k: k / 1000)),
    max_size=40,
)


def stable_merge(records):
    """The merged order of a record list: stable by (timestamp, signal first)."""
    return sorted(records, key=lambda r: (r.timestamp, isinstance(r, SyscallEvent)))


def file_line(record) -> str:
    if isinstance(record, SyscallEvent):
        return f"A {record.timestamp:.6f} {record.syscall_number} {record.label.value}\n"
    return f"S {record.timestamp:.6f} {record.signal_name} {record.value:.6f}\n"


@given(file_events, file_samples, st.randoms(use_true_random=False))
def test_replay_log_columns_round_trip(events, samples, rnd):
    log = merge_to_replay_log(events, samples, "prop")
    parsed = parse_replay_log(format_replay_log(log))
    assert parsed == log  # name and every column
    assert list(parsed.records) == stable_merge([*samples, *events])
    assert len(parsed.records) == len(events) + len(samples)
    # a file in any order: parsing it equals merging its records in file order
    shuffled = [*events, *samples]
    rnd.shuffle(shuffled)
    from_file = parse_replay_log("# scenario prop\n" + "".join(map(file_line, shuffled)))
    from_records = merge_to_replay_log(
        [r for r in shuffled if isinstance(r, SyscallEvent)],
        [r for r in shuffled if isinstance(r, SignalSample)],
        "prop",
    )
    assert from_file == from_records
    assert list(from_file.records) == stable_merge(shuffled)


@given(timestamps)
def test_stats_match_brute_force(event_times):
    log = merge_to_replay_log([SyscallEvent(t, 5) for t in event_times], [], "prop")
    stats = dataset_stats(log)
    windows = Counter(int(math.floor(t)) for t in event_times)
    assert stats.total_antigen == len(event_times)
    assert stats.max_antigen_rate == (max(windows.values()) if windows else 0)
    if event_times:
        assert stats.total_time == int(math.ceil(max(event_times)))


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=511), max_size=50), max_size=4
    )
)
def test_naive_policy_idempotent(number_lists):
    logs = [
        merge_to_replay_log([SyscallEvent(i * 0.1, nr) for i, nr in enumerate(ns)], [], f"l{k}")
        for k, ns in enumerate(number_lists)
    ]
    assert naive_policy(logs).permitted == naive_policy(logs + logs).permitted


# -- simulation and policy invariants -----------------------------------------

@pytest.mark.parametrize("check", invariant_checks.ALL_CHECKS, ids=lambda f: f.__name__)
def test_invariants_random_instances(check):
    rng = random.Random(hash(check.__name__) & 0xFFFF)
    for _ in range(50):
        check(rng)
