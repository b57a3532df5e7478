from __future__ import annotations

import dataclasses
import gc
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import aisd.trace_model
from aisd.scenarios import BUNDLED_PROFILES, ScenarioKind, ScenarioProfile, synthesize_scenario
from aisd.trace_model import (
    SYSCALL_NAMES,
    Label,
    MonitorParseError,
    ReplayLog,
    ReplayLogFormatError,
    SignalSample,
    StraceParseError,
    SyscallEvent,
    check_finite,
    dataset_stats,
    format_replay_log,
    merge_to_replay_log,
    parse_monitor_log,
    parse_replay_log,
    parse_strace_log,
    read_replay_log,
    syscall_name,
    syscall_number,
    write_replay_log,
)

STRACE_FIXTURE = """\
0.000000 open("/var/lib/nfs/state", O_RDWR) = 3
0.000210 read(3, "\\1", 1) = 1
--- SIGCHLD (Child exited) ---
"""


def brute_force_max_rate(log: ReplayLog) -> int:
    """Independent recount: events per integer-aligned 1 s window."""
    counts = Counter(int(math.floor(e.timestamp)) for e in log.syscall_events())
    return max(counts.values()) if counts else 0


class TestSyscallTable:
    def test_reference_names(self):
        # 1 exit, 2 fork, 5 open, 301 socket, 303 connect
        assert syscall_name(1) == "exit"
        assert syscall_name(2) == "fork"
        assert syscall_name(5) == "open"
        assert syscall_name(301) == "socket"
        assert syscall_name(303) == "connect"
        assert syscall_name(90) == "old_mmap"

    def test_unknown_number_fallback(self):
        assert syscall_name(999) == "unknown(999)"

    def test_reverse_lookup(self):
        assert syscall_number("open") == 5
        assert syscall_number("recvfrom") == 312
        assert syscall_number("nosuchcall") is None

    @pytest.mark.parametrize(
        "alias, number", [("mmap", 90), ("_newselect", 142), ("oldselect", 142), ("fcntl64", 221)]
    )
    def test_strace_aliases(self, alias, number):
        assert syscall_number(alias) == number

    def test_every_table_name_round_trips(self):
        # no alias shadows a table name
        for number, name in SYSCALL_NAMES.items():
            assert syscall_number(name) == number
            assert syscall_name(number) == name


class TestStraceParser:
    def test_open_line(self):
        result = parse_strace_log('0.000000 open("/etc/passwd", O_RDONLY) = 3\n')
        assert len(result.events) == 1
        event = result.events[0]
        assert event.timestamp == 0.0
        assert event.syscall_number == 5

    def test_empty_input(self):
        assert parse_strace_log("").events == ()

    def test_fixture_counts(self):
        # hand count: two syscall lines, one SIGCHLD notice
        result = parse_strace_log(STRACE_FIXTURE)
        assert len(result.events) == 2
        assert result.skipped == 1
        assert [e.syscall_number for e in result.events] == [5, 3]

    def test_pid_prefix(self):
        result = parse_strace_log("712 1.5 close(3) = 0\n")
        assert result.events[0].syscall_number == 6
        assert result == parse_strace_log("1.5 close(3) = 0\n")

    def test_malformed_timestamp_raises_with_line(self):
        with pytest.raises(StraceParseError, match="line 2"):
            parse_strace_log("0.1 open(x) = 0\n0.1.2 open(x) = 0\n")

    def test_unknown_name_skipped_by_default(self):
        result = parse_strace_log("0.1 frobnicate(1) = 0\n")
        assert result.events == ()
        assert result.unknown == 1

    def test_unknown_name_strict(self):
        with pytest.raises(StraceParseError, match="frobnicate"):
            parse_strace_log("0.1 frobnicate(1) = 0\n", strict=True)


class TestMonitorParser:
    def test_normalization(self):
        samples = parse_monitor_log("0.1 rpc.statd 1 50.0 1234\n")
        assert samples == [SignalSample(0.1, "cpu", 0.5)]

    def test_empty(self):
        assert parse_monitor_log("") == []

    def test_ten_records(self):
        text = "".join(f"{(k + 1) / 10:.1f} statd 1 {k}.0 100\n" for k in range(10))
        samples = parse_monitor_log(text)
        assert len(samples) == 10
        assert samples[0].timestamp == pytest.approx(0.1)
        assert samples[-1].timestamp == pytest.approx(1.0)

    def test_clamps_out_of_range(self, caplog):
        samples = parse_monitor_log("0.1 statd 1 150.0 1\n")
        assert samples[0].value == 1.0

    def test_non_monotone_rejected(self):
        with pytest.raises(MonitorParseError, match="line 2"):
            parse_monitor_log("0.2 s 1 10 1\n0.1 s 1 10 1\n")


class TestMerge:
    def test_distinct_timestamps(self):
        events = [SyscallEvent(0.5, 5), SyscallEvent(1.5, 6)]
        samples = [SignalSample(0.1, "cpu", 0.2), SignalSample(1.0, "cpu", 0.3)]
        log = merge_to_replay_log(events, samples, "t")
        assert [r.timestamp for r in log.records] == [0.1, 0.5, 1.0, 1.5]

    def test_tie_puts_signal_first(self):
        log = merge_to_replay_log(
            [SyscallEvent(1.0, 5)], [SignalSample(1.0, "cpu", 0.4)], "t"
        )
        assert isinstance(log.records[0], SignalSample)
        assert isinstance(log.records[1], SyscallEvent)

    def test_startup_burst_shape(self):
        # echoes the first reference scenario: 405 events inside [0, 1),
        # samples every 0.1 s across 38 s
        events = [SyscallEvent(i / 405.0 * 0.999, 5) for i in range(405)]
        samples = [SignalSample(k / 10.0, "cpu", 0.1) for k in range(1, 381)]
        log = merge_to_replay_log(events, samples, "normal1-like")
        assert 37.9 <= log.duration <= 38.0
        assert len(log.syscall_events()) == 405
        assert len(log.signal_times) == 380
        assert dataset_stats(log).max_antigen_rate == 405


def test_parse_then_merge_preserves_counts():
    strace_text = (
        "0.00 open(f) = 3\n"
        "0.40 read(3) = 1\n"
        "--- SIGCHLD ---\n"
        "0.90 close(3) = 0\n"
    )
    monitor_text = "0.1 statd 1 20 5\n0.2 statd 1 30 5\n0.3 statd 1 10 5\n"
    parsed = parse_strace_log(strace_text)
    samples = parse_monitor_log(monitor_text)
    log = merge_to_replay_log(parsed.events, samples, "roundtrip")
    assert len(log.syscall_events()) == len(parsed.events) == 3
    assert len(log.signal_times) == len(samples) == 3


class TestDatasetStats:
    def test_empty(self):
        assert dataset_stats(ReplayLog("x", (), (), (), (), (), ())).as_tuple() == (0, 0, 0)

    def test_matches_brute_force(self):
        events = [SyscallEvent(t, 5) for t in (0.1, 0.2, 0.9, 1.1, 2.5, 2.6, 2.7)]
        log = merge_to_replay_log(events, [], "t")
        stats = dataset_stats(log)
        assert stats.max_antigen_rate == brute_force_max_rate(log) == 3
        assert stats.total_antigen == 7
        assert stats.total_time == 3

    def test_total_time_is_ceiling(self):
        log = merge_to_replay_log([SyscallEvent(4.2, 5)], [], "t")
        assert dataset_stats(log).total_time == 5


class TestReplayLogFormat:
    def test_round_trip(self):
        events = [SyscallEvent(0.25, 5, label=Label.ATTACK), SyscallEvent(1.0, 6)]
        samples = [SignalSample(0.1, "cpu", 0.5)]
        log = merge_to_replay_log(events, samples, "demo")
        parsed = parse_replay_log(format_replay_log(log))
        assert parsed.scenario_name == "demo"
        assert len(parsed.syscall_events()) == 2
        assert len(parsed.signal_times) == 1
        assert parsed.syscall_events()[0].label is Label.ATTACK

    def test_rejects_garbage(self):
        with pytest.raises(ReplayLogFormatError, match="line 1"):
            parse_replay_log("Z 0.1 what 1\n")

    def test_bad_label_message(self):
        with pytest.raises(
            ReplayLogFormatError, match="^line 2: 'bogus' is not a valid Label$"
        ):
            parse_replay_log("# scenario demo\nA 0.1 5 bogus\n")

    def test_out_of_order_file_equals_sorted_merge(self):
        events = [
            SyscallEvent(0.25 * k, k % 7, label=Label.ATTACK if k % 3 else Label.NORMAL)
            for k in range(40)
        ]
        # every fourth sample shares its timestamp with an event; all values
        # survive the file's six decimals exactly
        samples = [SignalSample(0.25 * k + (0.0 if k % 4 == 0 else 0.125), "cpu", k / 40)
                   for k in range(40)]
        expected = merge_to_replay_log(events, samples, "demo")
        lines = format_replay_log(expected).splitlines()
        body = lines[1:]
        random.Random(7).shuffle(body)
        # antigen ahead of the signal it ties with, as a foreign writer might put it
        body.sort(key=lambda line: line.startswith("S"))
        text = "\n".join([lines[0], *body]) + "\n"
        parsed = parse_replay_log(text)
        assert parsed.records == expected.records
        ties = [(a, b) for a, b in zip(parsed.records, parsed.records[1:])
                if a.timestamp == b.timestamp]
        assert ties and all(
            isinstance(a, SignalSample) and isinstance(b, SyscallEvent) for a, b in ties
        )

    def test_antigen_before_signal_on_tie_is_sorted(self):
        parsed = parse_replay_log("A 0.5 4 normal\nA 1.0 5 normal\nS 1.0 cpu 0.5\n")
        assert [type(r) for r in parsed.records] == [SyscallEvent, SignalSample, SyscallEvent]

    def test_in_order_file_keeps_file_order_of_equal_keys(self):
        parsed = parse_replay_log("A 1.0 7 normal\nA 1.0 5 normal\nA 1.0 6 attack\n")
        assert [r.syscall_number for r in parsed.records] == [7, 5, 6]


class TestColumns:
    def log(self):
        events = [SyscallEvent(1.0, 7), SyscallEvent(0.5, 4, label=Label.ATTACK),
                  SyscallEvent(1.0, 5)]
        samples = [SignalSample(1.0, "cpu", 0.25), SignalSample(0.0, "cpu", 0.5)]
        return merge_to_replay_log(events, samples, "cols")

    def test_each_kind_sorted_stably(self):
        log = self.log()
        assert log.event_times == (0.5, 1.0, 1.0)
        assert log.event_numbers == (4, 7, 5)
        assert log.event_labels == (Label.ATTACK, Label.NORMAL, Label.NORMAL)
        assert (log.signal_times, log.signal_values) == ((0.0, 1.0), (0.5, 0.25))
        assert log.duration == 1.0
        assert len(log) == 5

    def test_records_view(self):
        log = self.log()
        records = log.records
        assert log.merged_order == [-1, 0, -2, 1, 2]
        assert [(type(r), r.timestamp) for r in records] == [
            (SignalSample, 0.0), (SyscallEvent, 0.5), (SignalSample, 1.0),
            (SyscallEvent, 1.0), (SyscallEvent, 1.0)]
        assert records[-1] == SyscallEvent(1.0, 5)
        assert records[1:3] == (SyscallEvent(0.5, 4, label=Label.ATTACK),
                                SignalSample(1.0, "cpu", 0.25))
        assert records == list(records) and records != list(records)[:-1]
        with pytest.raises(IndexError):
            records[5]
        assert log.syscall_events() == [r for r in records if isinstance(r, SyscallEvent)]
        assert list(map(SignalSample, log.signal_times, log.signal_names, log.signal_values)) == [
            r for r in records if isinstance(r, SignalSample)]

    def test_len_builds_no_record(self, monkeypatch):
        log = parse_replay_log("S 0.0 cpu 0.5\nA 0.5 4 normal\n")

        def no_records(*args):
            raise AssertionError("record built")
        monkeypatch.setattr(aisd.trace_model, "SyscallEvent", no_records)
        monkeypatch.setattr(aisd.trace_model, "SignalSample", no_records)
        assert len(log.records) == len(log) == 2
        assert dataset_stats(log).as_tuple() == (1, 1, 1)
        with pytest.raises(AssertionError, match="record built"):
            log.records[0]

    def test_antigen_counts(self):
        counts = dict(self.log().antigen_counts)
        assert counts == {(4, Label.ATTACK): 1, (7, Label.NORMAL): 1, (5, Label.NORMAL): 1}

    def test_column_lengths_checked(self):
        with pytest.raises(ValueError, match="event columns"):
            ReplayLog("x", (0.0,), (), (), (), (), ())
        with pytest.raises(ValueError, match="signal columns"):
            ReplayLog("x", (), (), (), (0.0,), ("cpu",), ())

    def test_out_of_order_kind_sorted_alone(self):
        parsed = parse_replay_log(
            "S 2.0 cpu 0.5\nA 1.0 7 normal\nS 1.0 cpu 0.25\nA 3.0 5 attack\n"
        )
        assert parsed.signal_times == (1.0, 2.0) and parsed.signal_values == (0.25, 0.5)
        assert parsed.event_times == (1.0, 3.0)
        assert [r.timestamp for r in parsed.records] == [1.0, 1.0, 2.0, 3.0]
        assert isinstance(parsed.records[0], SignalSample)

    @pytest.mark.parametrize("line, message", [
        ("A 0.1 512 normal", r"syscall number 512 outside \[0, 512\)"),
        ("A 0.1 -1 normal", r"syscall number -1 outside \[0, 512\)"),
        ("A 0.1 x normal", "invalid literal for int"),
        ("A zz 5 normal", "could not convert string to float"),
        ("S 0.1 cpu 1.5", r"signal value 1.5 outside \[0, 1\]"),
        ("S 0.1 cpu nan", r"signal value nan outside \[0, 1\]"),
        ("A 0.1 5", "unrecognized record"),
    ])
    def test_line_checks(self, line, message):
        with pytest.raises(ReplayLogFormatError, match=f"^line 3: .*{message}"):
            parse_replay_log(f"# scenario x\nS 0.0 cpu 0.5\n{line}\n")


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-0.5"])
    def test_replay_log(self, token):
        with pytest.raises(ReplayLogFormatError, match="^line 3: timestamp must be finite"):
            parse_replay_log(f"# scenario x\nA 0.0 5 normal\nA {token} 6 normal\n")
        with pytest.raises(ReplayLogFormatError, match="^line 2: timestamp must be finite"):
            parse_replay_log(f"S 0.0 cpu 0.5\nS {token} cpu 0.5\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-1.0"])
    def test_strace(self, token):
        text = f'0.000000 open("/etc/passwd", O_RDONLY) = 3\n{token} close(3) = 0\n'
        with pytest.raises(StraceParseError, match="^line 2: timestamp must be finite"):
            parse_strace_log(text)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_monitor(self, token):
        with pytest.raises(MonitorParseError, match="^line 2: timestamp must be finite"):
            parse_monitor_log(f"0.0 proc 1 5.0 100\n{token} proc 1 5.0 100\n")
        with pytest.raises(MonitorParseError, match="^line 1: cpu reading must be finite"):
            parse_monitor_log(f"0.0 proc 1 {token} 100\n")


PIECE = 64 * 1024  # the parser's piece size, in characters


def long_log(min_chars: int) -> ReplayLog:
    """A log whose file text is at least ``min_chars`` long."""
    count = min_chars // 20 + 1  # each event line is over 20 characters
    events = [SyscallEvent(k / 1000, k % 512, Label.ATTACK if k % 7 == 0 else Label.NORMAL)
              for k in range(count)]
    samples = [SignalSample(k / 10, "cpu", (k % 11) / 10) for k in range(count // 100)]
    return merge_to_replay_log(events, samples, "long")


class TestStreamedParse:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_file_read_equals_text_parse(self, tmp_path, newline):
        log = long_log(4 * PIECE + 1)
        text = format_replay_log(log)
        assert len(text) > 4 * PIECE
        path = tmp_path / "long.tcr"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        parsed = read_replay_log(path)
        assert parsed == parse_replay_log(path.read_text(encoding="utf-8"))
        assert parsed == log

    def test_default_name_is_file_stem(self, tmp_path):
        path = tmp_path / "plain.tcr"
        path.write_text("A 0.5 4 normal\n", encoding="utf-8")
        assert read_replay_log(path).scenario_name == "plain"

    @pytest.mark.parametrize("head_lines", [0, 5000])
    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_separator_inside_record_splits_it(self, tmp_path, separator, head_lines):
        # "A 1.0 5<sep>normal" is two lines, as str.splitlines reads it: the
        # first has three fields and is rejected
        head = "A 0.000000 5 normal\n" * head_lines
        text = f"# scenario x\n{head}S 0.0 cpu 0.5\nA 1.0 5{separator}normal\n"
        message = f"^line {head_lines + 3}: unrecognized record 'A 1.0 5'$"
        with pytest.raises(ReplayLogFormatError, match=message):
            parse_replay_log(text)
        path = tmp_path / "sep.tcr"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ReplayLogFormatError, match=message):
            read_replay_log(path)

    def test_every_cut_into_two_pieces_reads_as_the_whole_text(self):
        # a cut between "\r" and "\n" must not add a line
        text = "# scenario x\r\nA 0.1 5 normal\r\rS 0.2 cpu 0.5\n\x85\r\nA 0.3 7 attack\u2028Z bad\r\n"
        message = "^line 8: unrecognized record 'Z bad'$"
        with pytest.raises(ReplayLogFormatError, match=message):
            parse_replay_log(text)
        for k in range(len(text) + 1):
            with pytest.raises(ReplayLogFormatError, match=message):
                parse_replay_log([text[:k], text[k:]])

    def test_error_after_first_piece_has_true_line_number(self, tmp_path):
        lines = format_replay_log(long_log(PIECE + 1)).splitlines(keepends=True)
        assert sum(map(len, lines)) > PIECE
        text = "".join(lines) + "A 0.1 5\n"
        message = f"^line {len(lines) + 1}: unrecognized record 'A 0.1 5'$"
        with pytest.raises(ReplayLogFormatError, match=message):
            parse_replay_log(text)
        path = tmp_path / "late.tcr"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ReplayLogFormatError, match=message):
            read_replay_log(path)

    def test_transient_memory_of_file_read(self, tmp_path):
        # ~100k events; what the read allocates beyond what the log keeps
        # stays under half of what it keeps
        profile = ScenarioProfile(
            "mem", ScenarioKind.NORMAL, startup_burst=50_000, shutdown_burst=25,
            attack_bursts=(), interaction_events=50_000, duration=20, seed=11,
        )
        path = tmp_path / "mem.tcr"
        write_replay_log(synthesize_scenario(profile), path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            log = read_replay_log(path)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.event_times) >= 100_000
        retained = after - before
        assert peak - after <= 0.5 * retained


@pytest.fixture(scope="module")
def flood_profiles() -> tuple[ScenarioProfile, ...]:
    """The benchmark's offline-flood profiles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from workloads import FLOOD_PROFILES
    return FLOOD_PROFILES


@pytest.mark.parametrize("seed_shift", [0, 1000])
def test_written_event_lines_are_parsed_in_bulk(flood_profiles, seed_shift, monkeypatch):
    # a writer change such as "%03d" numbers would send every event line
    # through the per-line checks, which still parse it, only slower; those
    # checks build one SyscallEvent per event line, the bulk path none
    built = []

    def counted_event(*args):
        built.append(args)
        return SyscallEvent(*args)

    for profile in (*BUNDLED_PROFILES.values(), *flood_profiles):
        log = synthesize_scenario(dataclasses.replace(profile, seed=profile.seed + seed_shift))
        text = format_replay_log(log)
        with monkeypatch.context() as mp:
            mp.setattr(aisd.trace_model, "SyscallEvent", counted_event)
            parsed = parse_replay_log(text)
        assert parsed == log
        assert len(parsed.event_times) > 0
        assert not built, (profile.name, built[:1])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
def test_check_finite(value):
    with pytest.raises(ValueError, match=f"^rate must be finite and >= 0, got {value}$"):
        check_finite("rate", value)
    with pytest.raises(ValueError, match=f"^rate must be finite and > 0, got {value}$"):
        check_finite("rate", value, positive=True)
    check_finite("rate", 0.0)
    check_finite("rate", 2.5, positive=True)
    with pytest.raises(ValueError, match="^rate must be finite and > 0, got 0.0$"):
        check_finite("rate", 0.0, positive=True)


class TestValidation:
    def test_negative_timestamp(self):
        with pytest.raises(ValueError):
            SyscallEvent(-0.1, 5)

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp(self, timestamp):
        with pytest.raises(ValueError, match="finite"):
            SyscallEvent(timestamp, 5)
        with pytest.raises(ValueError, match="finite"):
            SignalSample(timestamp, "cpu", 0.5)

    def test_syscall_out_of_range(self):
        with pytest.raises(ValueError):
            SyscallEvent(0.0, 512)

    def test_signal_out_of_range(self):
        with pytest.raises(ValueError):
            SignalSample(0.0, "cpu", 1.5)


class TestSlottedRecords:
    @pytest.mark.parametrize(
        "record, field, value",
        [(SyscallEvent(1.5, 5, label=Label.ATTACK), "syscall_number", 6),
         (SignalSample(1.5, "cpu", 0.25), "value", 0.5)],
    )
    def test_frozen_equal_hashable_replaceable(self, record, field, value):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
        twin = dataclasses.replace(record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        changed = dataclasses.replace(record, **{field: value})
        assert getattr(changed, field) == value and changed != record
        assert changed.timestamp == record.timestamp
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(record, timestamp=math.nan)

    @pytest.mark.parametrize(
        "make, message",
        [(lambda: SyscallEvent(math.nan, 5), "timestamp must be finite and >= 0, got nan"),
         (lambda: SyscallEvent(math.inf, 5), "timestamp must be finite and >= 0, got inf"),
         (lambda: SyscallEvent(-0.5, 5), "timestamp must be finite and >= 0, got -0.5"),
         (lambda: SyscallEvent(-0.5, 512), "timestamp must be finite and >= 0, got -0.5"),
         (lambda: SyscallEvent(0.5, 512), "syscall number 512 outside [0, 512)"),
         (lambda: SyscallEvent(0.5, -1), "syscall number -1 outside [0, 512)"),
         (lambda: SignalSample(math.nan, "cpu", 0.5), "timestamp must be finite and >= 0, got nan"),
         (lambda: SignalSample(-math.inf, "cpu", 0.5), "timestamp must be finite and >= 0, got -inf"),
         (lambda: SignalSample(-1.0, "cpu", 2.0), "timestamp must be finite and >= 0, got -1.0"),
         (lambda: SignalSample(0.5, "cpu", 1.5), "signal value 1.5 outside [0, 1]"),
         (lambda: SignalSample(0.5, "cpu", math.nan), "signal value nan outside [0, 1]")],
    )
    def test_error_text(self, make, message):
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message

    def test_keyword_construction_and_label_default(self):
        event = SyscallEvent(timestamp=1.5, syscall_number=5)
        assert event == SyscallEvent(1.5, 5, Label.NORMAL)
        assert event.label is Label.NORMAL
        assert SyscallEvent(1.5, syscall_number=5, label=Label.ATTACK).label is Label.ATTACK
        assert [f.default for f in dataclasses.fields(SyscallEvent)][2] is Label.NORMAL
        sample = SignalSample(timestamp=0.5, signal_name="cpu", value=0.25)
        assert (sample.timestamp, sample.signal_name, sample.value) == (0.5, "cpu", 0.25)
        assert repr(event) == (
            "SyscallEvent(timestamp=1.5, syscall_number=5, label=<Label.NORMAL: 'normal'>)"
        )


def reference_format(log: ReplayLog) -> str:
    """One f-string per line, the two kinds merged by a stable sort on
    (timestamp, signal first)."""
    lines = [
        *((t, 0, f"S {t:.6f} {name} {value:.6f}")
          for t, name, value in zip(log.signal_times, log.signal_names, log.signal_values)),
        *((t, 1, f"A {t:.6f} {number} {label.value}")
          for t, number, label in zip(log.event_times, log.event_numbers, log.event_labels)),
    ]
    lines.sort(key=lambda line: line[:2])
    return "\n".join([f"# scenario {log.scenario_name}", *(text for _, _, text in lines)]) + "\n"


def edge_log(events=(), signals=()) -> ReplayLog:
    """A log of (time, number, label) events and (time, name, value)
    signals, each kind stably sorted by time."""
    def columns(rows):
        rows = sorted(rows, key=lambda row: row[0])
        return tuple(map(tuple, zip(*rows))) or ((), (), ())

    return ReplayLog("edge", *columns(events), *columns(signals))


A, N = Label.ATTACK, Label.NORMAL
EDGE_LOGS = {
    "empty": edge_log(),
    "no events": edge_log(signals=[(0.1, "cpu", 0.5), (0.2, "cpu", 0.25)]),
    "no signals": edge_log(events=[(0.0, 0, N), (0.5, 511, A), (0.5, 3, N)]),
    "ties with a signal": edge_log(
        events=[(0.1, 5, N), (0.1, 6, A), (0.2, 7, N), (0.3, 8, N)],
        signals=[(0.1, "cpu", 0.5), (0.2, "cpu", 1.0), (0.3, "cpu", 0.0)],
    ),
    "events after the last signal": edge_log(
        events=[(0.05, 1, N), (0.25, 2, N), (7.0, 3, A), (9.5, 4, N)],
        signals=[(0.1, "cpu", 0.1), (0.2, "net", 0.2)],
    ),
    "signals back to back": edge_log(
        events=[(0.0, 1, N), (3.0, 2, N)],
        signals=[(1.0, "cpu", 0.1), (1.5, "cpu", 0.2), (2.0, "cpu", 0.3), (3.0, "cpu", 0.4)],
    ),
    "off-grid and large timestamps": edge_log(
        events=[(1.23456789, 5, N), (2.0000005, 6, A), (123456789.1234567, 7, N),
                (1e12 + 0.25, 8, A), (1e-9, 9, N)],
        signals=[(1.23456789, "cpu", 0.3333333333), (2.0000004999, "cpu", 1e-7),
                 (1e12 + 0.25, "cpu", 0.9999999)],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_LOGS))
def test_format_equals_per_line_reference(name):
    log = EDGE_LOGS[name]
    assert format_replay_log(log) == reference_format(log)


@pytest.mark.parametrize("seed", range(5))
def test_format_equals_per_line_reference_on_random_logs(seed):
    rng = random.Random(seed)
    grid = [k / 8 for k in range(40)]  # few distinct times, so ties are common
    log = edge_log(
        events=[(rng.choice(grid), rng.randrange(512), rng.choice([N, A]))
                for _ in range(rng.randrange(60))],
        signals=[(rng.choice(grid), "cpu", rng.random()) for _ in range(rng.randrange(12))],
    )
    assert format_replay_log(log) == reference_format(log)
