from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain, cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aisd.trace_model
import aisd.wire
from aisd.policy import naive_policy
from aisd.trace_model import (
    Label,
    ReplayLogFormatError,
    SignalSample,
    SyscallEvent,
    dataset_stats,
    format_replay_log,
    merge_to_replay_log,
    parse_replay_log,
)
from aisd.wire import WireMessage, decode, encode

import invariant_checks
from replay_reference import parse_replay_log_per_line

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
    frame = encode(message).encode("ascii")  # as a server session splits it
    assert decode(frame + b"\n") == message
    assert decode(frame) == message
    assert aisd.wire._ANTIGEN_FRAMES.get(frame, message) == message  # the session's table


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
    assert len(log.signal_times) == len(samples)
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
              st.sampled_from(list(Label))),
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


# every line boundary of str.splitlines
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028", "\u2029"]
log_lines = st.one_of(
    file_events.map(lambda events: [file_line(e)[:-1] for e in events]),
    file_samples.map(lambda samples: [file_line(s)[:-1] for s in samples]),
    st.lists(st.sampled_from(["# scenario streamed", "#", "# note", "", "  ", "\t"]),
             max_size=3),
    # a comment that outlasts a piece
    st.integers(min_value=60_000, max_value=140_000).map(lambda n: ["# " + "x" * n]),
    # a malformed record, rejected wherever it falls
    st.sampled_from(["A 0.1 5", "Z 0.1 what 1", "A 0.1 600 normal", "S 0.1 cpu 2"]).map(
        lambda line: [line]),
)


def cut(text: str, sizes: list[int]) -> list[str]:
    """``text`` in consecutive pieces of the given sizes, taken in turn."""
    pieces = []
    start = 0
    for size in cycle(sizes):
        if start >= len(text):
            return pieces
        pieces.append(text[start:start + size])
        start += size


def parse_outcome(source):
    try:
        return parse_replay_log(source, "prop")
    except ValueError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(
    st.lists(log_lines, max_size=12).map(lambda groups: [line for g in groups for line in g]),
    st.lists(st.sampled_from(LINE_ENDS), min_size=1, max_size=8),
    st.booleans(),
    st.lists(st.one_of(st.integers(min_value=1, max_value=8),
                       st.integers(min_value=1, max_value=70_000)), min_size=1, max_size=8),
)
def test_replay_log_pieces_parse_as_whole_text(lines, ends, last_end, sizes):
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    if lines and not last_end:
        text = text[:-len(ends[(len(lines) - 1) % len(ends)])]
    pieces = cut(text, sizes)
    assert "".join(pieces) == text
    blocks = list(aisd.trace_model._line_blocks(iter(pieces)))
    assert "".join(blocks) == text
    assert all(block.endswith("\n") for block in blocks[:-1])
    lines_read = chain.from_iterable(block.splitlines() for block in blocks)
    assert list(lines_read) == text.splitlines()
    assert parse_outcome(iter(pieces)) == parse_outcome(text)


# event lines as write_replay_log writes them, in time order, so that runs
# of them are converted in bulk
event_runs = st.lists(
    st.tuples(file_floats, st.integers(min_value=0, max_value=511), st.sampled_from(list(Label))),
    min_size=1, max_size=20,
).map(lambda rows: [f"A {t:.6f} {n} {label.value}" for t, n, label in sorted(rows)])
# spellings of each event field that the bulk conversion must hand to the
# per-line checks, which accept some and reject the rest: times, numbers, labels
ODD_FIELDS = (
    ["1e-3", "nan", "inf", "-0.0", "1_0", "9" * 400],
    ["007", "+5", "512", "-1", "\u0665"],
    ["Normal", "bogus"],
)


def odd_event(t: str, n: str, label: str, odd: tuple[int, str] | None) -> list[str]:
    """An event line of the given fields, each after a single space but for
    ``odd``'s gap, which takes ``odd``'s separator."""
    seps = [" "] * 3
    if odd is not None:
        gap, sep = odd
        seps[gap] = sep
    return ["A" + "".join(map(str.__add__, seps, [t, n, label]))]


odd_events = st.builds(
    odd_event,
    st.sampled_from(ODD_FIELDS[0]) | file_floats.map("{:.6f}".format),
    st.sampled_from(ODD_FIELDS[1]) | st.integers(min_value=0, max_value=511).map(str),
    st.sampled_from(ODD_FIELDS[2]) | st.sampled_from(["normal", "attack"]),
    # mostly the writer's single spaces, so that the line joins a run; else
    # another separator in one gap, or a line boundary next to a space at a
    # time token's edge, where float() would strip it from the token
    st.none()
    | st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(["  ", "\t", " \t "]))
    | st.sampled_from([(0, " \x0c"), (0, " \n"), (0, " \r"), (0, " \x85"),
                       (1, "\x0c "), (1, "\n "), (1, "\r "), (1, "\x85 ")]),
)
# mostly runs and other valid lines, so that most texts parse to a log
mixed_lines = st.one_of(
    event_runs,
    event_runs,
    odd_events,
    file_samples.map(lambda samples: [file_line(s)[:-1] for s in samples]),
    st.lists(st.sampled_from(["# scenario mixed", "#", "", "  ", "A", "A 1 2"]), max_size=3),
)


def reference_outcome(text: str):
    try:
        return parse_replay_log_per_line(text, "prop")
    except ValueError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(mixed_lines, max_size=12).map(lambda groups: [line for g in groups for line in g]),
    # mostly "\n", the only end an event run takes
    st.lists(st.just("\n") | st.sampled_from(LINE_ENDS), min_size=1, max_size=8),
    st.lists(st.one_of(st.integers(min_value=1, max_value=40),
                       st.integers(min_value=1, max_value=5_000)), min_size=1, max_size=8),
)
def test_replay_log_matches_per_line_reference(lines, ends, sizes):
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    expected = reference_outcome(text)
    for source in (text, iter(cut(text, sizes))):
        outcome = parse_outcome(source)
        assert outcome == expected
        # repr tells -0.0 from 0.0, which == does not
        assert repr(outcome) == repr(expected)


@settings(deadline=None)
@given(
    event_runs, st.integers(min_value=0),
    st.sampled_from([*LINE_ENDS, "\t", "\x1f"]), st.booleans(), st.booleans(),
)
def test_boundary_at_a_time_token_edge_matches_per_line_reference(
        lines, k, boundary, after, last_end):
    # the one odd spot of an otherwise written run: the text parses, or its
    # first error is the line the boundary splits
    k %= len(lines)
    _, time, rest = lines[k].split(" ", 2)
    lines[k] = f"A {time}{boundary} {rest}" if after else f"A {boundary}{time} {rest}"
    text = "\n".join(lines) + "\n" * last_end
    expected = reference_outcome(text)
    assert repr(parse_outcome(text)) == repr(expected)
    assert repr(parse_outcome(iter(cut(text, [k + 1])))) == repr(expected)


@pytest.mark.parametrize("previous", ["0.000000", "0.400000"])
@pytest.mark.parametrize(
    "field, token", [(k, token) for k, tokens in enumerate(ODD_FIELDS) for token in tokens]
)
def test_odd_field_in_an_event_run_matches_per_line_reference(field, token, previous):
    # the odd line sits inside a run, after an event at `previous`
    fields = ["0.200000", "5", "normal"]
    fields[field] = token
    text = (f"A {previous} 7 attack\nS 0.0 cpu 0.5\nA 0.100000 5 normal\n"
            f"A {' '.join(fields)}\nA 0.300000 9 normal\n")
    expected = reference_outcome(text)
    for k in range(len(text) + 1):
        outcome = parse_outcome([text[:k], text[k:]])
        assert outcome == expected
        assert repr(outcome) == repr(expected)


# texts where a run split on spaces could misread its lines: a line boundary
# that float() strips from a time token, or a line with more or fewer tokens
RUN_HAZARDS = [
    "A 0.100000 5 normal\nA 0.2\n 5 normal\n",
    "A 0.1\n 5 normal\n",
    *(f"A 0.100000 5 normal\nA {sep}0.200000 5 normal\nA 0.300000 9 attack\n"
      for sep in [*LINE_ENDS, "\t", "\x1f"]),
    *(f"A 0.100000 5 normal\nA 0.200000{sep} 5 normal\nA 0.300000 9 attack\n"
      for sep in [*LINE_ENDS, "\t", "\x1f"]),
    "A 0.100000 5 normal\nA 0.200000 5 normal 0.250000 6 attack\nA 0.300000 9 attack\n",
    "A 0.100000 5 normal\nA 0.200000  5 normal\nA 0.300000 9 attack\n",
    "A 0.100000 5 normal\nA 0.200000 5 normal \nA 0.300000 9 attack\n",
    "A 0.100000 5 normal\r\nA 0.200000 5 normal\r\nS 0.2 cpu 0.5\r\nA 0.3 9 attack\r\n",
    "A 0.100000 5 normal\nA 0.200000 5 normal\nA 0.300000 9 attack",
    "A 0.100000 5 normal\nA 0.200000 5 normal\nA 0.300000 9 attacks",
]


@pytest.mark.parametrize("text", RUN_HAZARDS, ids=repr)
def test_run_hazard_matches_per_line_reference(text):
    expected = reference_outcome(text)
    for source in (text, *([text[:k], text[k:]] for k in range(len(text) + 1))):
        assert repr(parse_outcome(source)) == repr(expected)


# spellings of a signal's time or value, each accepted or rejected by
# SignalSample's own checks
ODD_SIGNAL_TOKENS = ["nan", "inf", "-1", "-0.0", "1.5", "1e-9"]


@pytest.mark.parametrize("field", [1, 3], ids=["time", "value"])
@pytest.mark.parametrize("token", ODD_SIGNAL_TOKENS)
def test_odd_field_in_a_signal_line_matches_per_line_reference(field, token):
    # the odd line follows a signal at 0.1, between two event runs
    fields = ["S", "0.200000", "cpu", "0.500000"]
    fields[field] = token
    text = (f"A 0.100000 5 normal\nS 0.100000 cpu 0.250000\n{' '.join(fields)}\n"
            f"A 0.300000 9 normal\nS 0.300000 io 0.750000\n")
    expected = reference_outcome(text)
    for k in range(len(text) + 1):
        outcome = parse_outcome([text[:k], text[k:]])
        assert outcome == expected
        assert repr(outcome) == repr(expected)
    try:
        SignalSample(float(fields[1]), fields[2], float(fields[3]))
    except ValueError as exc:
        assert expected == (ReplayLogFormatError, f"line 3: {exc}")
    else:
        assert float(token) in (expected.signal_times + expected.signal_values)


@given(timestamps)
def test_stats_match_brute_force(event_times):
    log = merge_to_replay_log([SyscallEvent(t, 5) for t in event_times], [], "prop")
    stats = dataset_stats(log)
    windows = Counter(int(math.floor(t)) for t in event_times)
    assert stats.total_antigen == len(event_times)
    assert stats.max_antigen_rate == (max(windows.values()) if windows else 0)
    if event_times:
        assert stats.total_time == int(math.ceil(max(event_times)))


# whole seconds near 0, so many events share a window, or far apart, so
# windows are many seconds apart; a fraction of 0 puts a time exactly on
# the second, one just below 1 puts it at the window's end
second_times = st.lists(
    st.builds(
        lambda second, fraction: second + fraction,
        st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0)])
        | st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
    max_size=200,
)


@given(second_times, st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=3))
def test_stats_peak_matches_counter_reference(event_times, signal_times):
    log = merge_to_replay_log(
        [SyscallEvent(t, 5) for t in event_times],
        [SignalSample(t, "cpu", 0.5) for t in signal_times],
        "prop",
    )
    per_second = Counter(map(math.floor, log.event_times))
    stats = dataset_stats(log)
    assert stats.max_antigen_rate == max(per_second.values(), default=0)
    assert stats.total_antigen == len(event_times)


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
