"""Trace records, log parsers, dataset statistics and the syscall name table.

The records here are the raw material of every other module: timestamped
syscall events (antigen) and context signal samples (CPU usage).  A
scenario's replay log holds them as two groups of parallel columns, one per
kind, each sorted by time; ``ReplayLog.records`` merges them into one
time-ordered stream of ``SyscallEvent``/``SignalSample`` records on demand.

``parse_replay_log`` reads the replay-log text a block of whole lines at a
time.  Runs of event lines spelled as ``write_replay_log`` writes them are
converted in bulk, column by column; every other line is built into its
``SyscallEvent`` or ``SignalSample``, whose own checks decide what a valid
record is.
"""
from __future__ import annotations

import enum
import logging
import math
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import le
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

# Valid syscall numbers are 0 <= nr < SYSCALL_RANGE.  The classic 32-bit
# table plus the socket-family block (300 + subcode) fits comfortably.
SYSCALL_RANGE = 512


class Label(str, enum.Enum):
    """Ground-truth origin of a syscall event."""

    NORMAL = "normal"
    ATTACK = "attack"


class TraceError(ValueError):
    """Base class for trace parsing and format errors."""


class StraceParseError(TraceError):
    pass


class MonitorParseError(TraceError):
    pass


class ReplayLogFormatError(TraceError):
    pass


# value -> member, so parsers and the wire decoder skip the enum call on valid labels
LABELS = {label.value: label for label in Label}
# member -> value, a dict read where the enum's ``.value`` is a descriptor call
LABEL_TEXT = {label: label.value for label in Label}


def check_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0, or > 0 when
    ``positive``; nan, which would otherwise compare as nothing, fails too."""
    if positive:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    elif not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, slots=True, init=False)
class SyscallEvent:
    """One observed syscall: antigen from the monitored process."""

    timestamp: float
    syscall_number: int
    label: Label = Label.NORMAL

    # Hand-written: the checks inline, then each slot set through its
    # descriptor, which costs less than the generated frozen __init__'s
    # object.__setattr__ per field and __post_init__ call.  It pays where
    # events are built in bulk: ``syscall_events()`` over the 280,045 events
    # of the benchmark's three flood logs took 193 ms, against 274 ms with a
    # generated __init__ (best of 15 on a shared 2-core Xeon).
    def __init__(self, timestamp: float, syscall_number: int, label: Label = Label.NORMAL):
        if not 0.0 <= timestamp < math.inf:
            raise ValueError(f"timestamp must be finite and >= 0, got {timestamp}")
        if not 0 <= syscall_number < SYSCALL_RANGE:
            raise ValueError(f"syscall number {syscall_number} outside [0, {SYSCALL_RANGE})")
        set_timestamp, set_number, set_label = _EVENT_SLOTS
        set_timestamp(self, timestamp)
        set_number(self, syscall_number)
        set_label(self, label)


# each field's slot descriptor setter, in field order; it stores the value
# where the frozen __setattr__ would refuse
_EVENT_SLOTS = tuple(getattr(SyscallEvent, f).__set__ for f in SyscallEvent.__slots__)


@dataclass(frozen=True, slots=True)
class SignalSample:
    """One context-signal reading, normalized to [0, 1]."""

    timestamp: float
    signal_name: str
    value: float

    def __post_init__(self) -> None:
        check_finite("timestamp", self.timestamp)
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"signal value {self.value} outside [0, 1]")


Record = SyscallEvent | SignalSample


def sort_by_time(times: Sequence[float], *columns: Sequence) -> tuple[tuple, ...]:
    """``times`` and its parallel columns as tuples, stably sorted by time:
    entries with equal times keep their order."""
    order = sorted(range(len(times)), key=times.__getitem__)
    return tuple(tuple(map(column.__getitem__, order)) for column in (times, *columns))


def _interleave(
    event_items: Sequence, signal_items: Sequence,
    event_times: Sequence[float], signal_times: Sequence[float],
) -> list:
    """Both kinds' items in merged time order; a signal goes before the
    events that share its timestamp."""
    merged: list = []
    start = 0
    for item, timestamp in zip(signal_items, signal_times):
        end = bisect_left(event_times, timestamp, start)
        merged.extend(event_items[start:end])
        merged.append(item)
        start = end
    merged.extend(event_items[start:])
    return merged


@dataclass(frozen=True)
class ReplayLog:
    """A scenario's syscall events and signal samples as per-kind columns.

    Events are ``event_times``, ``event_numbers`` and ``event_labels``;
    signals are ``signal_times``, ``signal_names`` and ``signal_values``.
    Each kind is sorted by timestamp, entries with equal timestamps in file
    (or input) order.  Merged, signal samples precede syscall events at
    equal timestamps, so consumers always see the freshest signal context
    before the antigen that arrived with it.  Columns are trusted: whoever
    builds them has validated every entry.
    """

    scenario_name: str
    event_times: tuple[float, ...]
    event_numbers: tuple[int, ...]
    event_labels: tuple[Label, ...]
    signal_times: tuple[float, ...]
    signal_names: tuple[str, ...]
    signal_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.event_times) == len(self.event_numbers) == len(self.event_labels):
            raise ValueError("event columns differ in length")
        if not len(self.signal_times) == len(self.signal_names) == len(self.signal_values):
            raise ValueError("signal columns differ in length")

    @property
    def duration(self) -> float:
        return max(self.event_times[-1:] + self.signal_times[-1:], default=0.0)

    @property
    def records(self) -> ReplayRecords:
        """Every record in merged time order, built on access."""
        return ReplayRecords(self)

    @cached_property
    def merged_order(self) -> list[int]:
        """Position by position, k >= 0 for event k and ~k for signal k."""
        return _interleave(
            range(len(self.event_times)), range(-1, -len(self.signal_times) - 1, -1),
            self.event_times, self.signal_times,
        )

    @cached_property
    def antigen_counts(self) -> tuple[tuple[tuple[int, Label], int], ...]:
        """``((syscall_number, label), count)`` per distinct pair of the log."""
        return tuple(Counter(zip(self.event_numbers, self.event_labels)).items())

    def syscall_events(self) -> list[SyscallEvent]:
        return list(map(SyscallEvent, self.event_times, self.event_numbers, self.event_labels))

    def __len__(self) -> int:
        return len(self.event_times) + len(self.signal_times)


class ReplayRecords(Sequence):
    """Read-only view of a replay log's records in merged time order.

    Its length needs no records; a record is built from the columns each
    time it is read.
    """

    __slots__ = ("_log",)

    def __init__(self, log: ReplayLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index: int | slice) -> Record | tuple[Record, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        log = self._log
        k = log.merged_order[index]
        if k >= 0:
            return SyscallEvent(log.event_times[k], log.event_numbers[k], log.event_labels[k])
        k = ~k
        return SignalSample(log.signal_times[k], log.signal_names[k], log.signal_values[k])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)


@dataclass(frozen=True)
class DatasetStats:
    """Per-scenario summary: whole seconds, event count, peak 1 s event rate."""

    total_time: int
    total_antigen: int
    max_antigen_rate: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.total_time, self.total_antigen, self.max_antigen_rate)


# ---------------------------------------------------------------------------
# Syscall names
# ---------------------------------------------------------------------------

# Classic 32-bit syscall numbers.  The socket family is mapped into the
# 300 block (300 + socketcall subcode), which is how the numbers 301/303
# etc. arise for socket/connect.
SYSCALL_NAMES: dict[int, str] = {
    1: "exit",
    2: "fork",
    3: "read",
    4: "write",
    5: "open",
    6: "close",
    7: "waitpid",
    8: "creat",
    9: "link",
    10: "unlink",
    11: "execve",
    12: "chdir",
    13: "time",
    14: "mknod",
    15: "chmod",
    16: "lchown",
    19: "lseek",
    20: "getpid",
    21: "mount",
    22: "umount",
    23: "setuid",
    24: "getuid",
    25: "stime",
    26: "ptrace",
    27: "alarm",
    29: "pause",
    30: "utime",
    33: "access",
    34: "nice",
    36: "sync",
    37: "kill",
    38: "rename",
    39: "mkdir",
    40: "rmdir",
    41: "dup",
    42: "pipe",
    43: "times",
    45: "brk",
    46: "setgid",
    47: "getgid",
    48: "signal",
    49: "geteuid",
    50: "getegid",
    52: "umount2",
    54: "ioctl",
    55: "fcntl",
    57: "setpgid",
    60: "umask",
    61: "chroot",
    62: "ustat",
    63: "dup2",
    64: "getppid",
    65: "getpgrp",
    66: "setsid",
    67: "sigaction",
    70: "setreuid",
    71: "setregid",
    72: "sigsuspend",
    73: "sigpending",
    74: "sethostname",
    75: "setrlimit",
    76: "getrlimit",
    77: "getrusage",
    78: "gettimeofday",
    79: "settimeofday",
    80: "getgroups",
    81: "setgroups",
    83: "symlink",
    85: "readlink",
    86: "uselib",
    87: "swapon",
    88: "reboot",
    90: "old_mmap",
    91: "munmap",
    92: "truncate",
    93: "ftruncate",
    94: "fchmod",
    95: "fchown",
    96: "getpriority",
    97: "setpriority",
    99: "statfs",
    100: "fstatfs",
    102: "socketcall",
    103: "syslog",
    104: "setitimer",
    105: "getitimer",
    106: "stat",
    107: "lstat",
    108: "fstat",
    111: "vhangup",
    114: "wait4",
    115: "swapoff",
    116: "sysinfo",
    118: "fsync",
    119: "sigreturn",
    120: "clone",
    121: "setdomainname",
    122: "uname",
    124: "adjtimex",
    125: "mprotect",
    126: "sigprocmask",
    128: "init_module",
    129: "delete_module",
    132: "getpgid",
    133: "fchdir",
    136: "personality",
    138: "setfsuid",
    139: "setfsgid",
    140: "_llseek",
    141: "getdents",
    142: "select",
    143: "flock",
    144: "msync",
    145: "readv",
    146: "writev",
    147: "getsid",
    148: "fdatasync",
    150: "mlock",
    151: "munlock",
    152: "mlockall",
    153: "munlockall",
    154: "sched_setparam",
    155: "sched_getparam",
    156: "sched_setscheduler",
    157: "sched_getscheduler",
    158: "sched_yield",
    159: "sched_get_priority_max",
    160: "sched_get_priority_min",
    162: "nanosleep",
    163: "mremap",
    164: "setresuid",
    165: "getresuid",
    168: "poll",
    170: "setresgid",
    171: "getresgid",
    172: "prctl",
    173: "rt_sigreturn",
    174: "rt_sigaction",
    175: "rt_sigprocmask",
    176: "rt_sigpending",
    177: "rt_sigtimedwait",
    179: "rt_sigsuspend",
    180: "pread64",
    181: "pwrite64",
    182: "chown",
    183: "getcwd",
    184: "capget",
    185: "capset",
    186: "sigaltstack",
    187: "sendfile",
    190: "vfork",
    191: "ugetrlimit",
    192: "mmap2",
    193: "truncate64",
    194: "ftruncate64",
    195: "stat64",
    196: "lstat64",
    197: "fstat64",
    199: "getuid32",
    200: "getgid32",
    201: "geteuid32",
    202: "getegid32",
    207: "fchown32",
    212: "chown32",
    213: "setuid32",
    214: "setgid32",
    217: "pivot_root",
    218: "mincore",
    219: "madvise",
    220: "getdents64",
    221: "fcntl64",
    224: "gettid",
    240: "futex",
    243: "set_thread_area",
    252: "exit_group",
    254: "epoll_create",
    255: "epoll_ctl",
    256: "epoll_wait",
    258: "set_tid_address",
    265: "clock_gettime",
    266: "clock_getres",
    # socket family: 300 + socketcall subcode
    301: "socket",
    302: "bind",
    303: "connect",
    304: "listen",
    305: "accept",
    306: "getsockname",
    307: "getpeername",
    308: "socketpair",
    309: "send",
    310: "recv",
    311: "sendto",
    312: "recvfrom",
    313: "shutdown",
    314: "setsockopt",
    315: "getsockopt",
    316: "sendmsg",
    317: "recvmsg",
}

# Spellings strace emits that differ from the table's canonical names.
_NAME_ALIASES = {
    "mmap": 90,
    "_newselect": 142,
    "oldselect": 142,
    "fcntl64": 221,
}


# name -> number; a table name wins over an alias of the same spelling
_SYSCALL_NUMBERS: dict[str, int] = {
    **_NAME_ALIASES, **{name: nr for nr, name in SYSCALL_NAMES.items()}
}


def syscall_name(number: int) -> str:
    """Name for a syscall number, or ``unknown(<n>)`` if unmapped."""
    return SYSCALL_NAMES.get(number, f"unknown({number})")


def syscall_number(name: str) -> int | None:
    """Number for a table name or strace alias, or None if unknown."""
    return _SYSCALL_NUMBERS.get(name)


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------

# `<float-timestamp> <name>(<args...>) = <ret>` with an optional leading pid,
# which is not kept.
_STRACE_RECORD_RE = re.compile(
    r"^(?:\d+\s+)?(?P<ts>\S+)\s+(?P<name>[A-Za-z_]\w*)\((?P<args>.*)\)\s*=\s*(?P<ret>\S.*)$"
)


@dataclass(frozen=True)
class StraceParseResult:
    """Parsed syscall events plus skip accounting."""

    events: tuple[SyscallEvent, ...]
    skipped: int = 0
    unknown: int = 0


def parse_strace_log(
    text: str,
    *,
    strict: bool = False,
    label: Label = Label.NORMAL,
) -> StraceParseResult:
    """Parse strace output into syscall events.

    Lines that are not syscall records (signal notices, resumption markers,
    exit notices) are skipped and counted.  A record line with a timestamp
    that does not parse is an error; an unknown syscall name is skipped and
    counted, or raises in strict mode.
    """
    events: list[SyscallEvent] = []
    skipped = 0
    unknown = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _STRACE_RECORD_RE.match(line)
        if m is None:
            skipped += 1
            continue
        try:
            timestamp = float(m.group("ts"))
        except ValueError:
            raise StraceParseError(
                f"line {lineno}: malformed timestamp {m.group('ts')!r}"
            ) from None
        try:
            check_finite("timestamp", timestamp)
        except ValueError as exc:
            raise StraceParseError(f"line {lineno}: {exc}") from None
        name = m.group("name")
        nr = syscall_number(name)
        if nr is None:
            if strict:
                raise StraceParseError(f"line {lineno}: unknown syscall name {name!r}")
            logger.warning("line %d: unknown syscall name %r skipped", lineno, name)
            unknown += 1
            continue
        events.append(SyscallEvent(timestamp, nr, label))
    return StraceParseResult(tuple(events), skipped=skipped, unknown=unknown)


def parse_monitor_log(text: str) -> list[SignalSample]:
    """Parse process-monitor records into ``cpu`` signal samples.

    Each record is `<timestamp> <proc-name> <n-children> <cpu%> <mem>`;
    one sample is produced per CPU reading, as a fraction of 100%.  Readings
    outside [0, 100] are clamped with a warning; timestamps must be
    non-decreasing.
    """
    samples: list[SignalSample] = []
    last_ts = -math.inf
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 5:
            raise MonitorParseError(
                f"line {lineno}: expected 5 fields, got {len(parts)}"
            )
        try:
            ts = float(parts[0])
            cpu_raw = float(parts[3])
            check_finite("timestamp", ts)
            if not math.isfinite(cpu_raw):
                raise ValueError(f"cpu reading must be finite, got {cpu_raw}")
        except ValueError as exc:
            raise MonitorParseError(f"line {lineno}: {exc}") from None
        if ts < last_ts:
            raise MonitorParseError(
                f"line {lineno}: timestamp {ts} decreases (previous {last_ts})"
            )
        last_ts = ts
        value = cpu_raw / 100.0
        if value < 0.0 or value > 1.0:
            logger.warning("line %d: cpu reading %s outside [0, 100], clamped", lineno, cpu_raw)
            value = min(1.0, max(0.0, value))
        samples.append(SignalSample(ts, "cpu", value))
    return samples


# ---------------------------------------------------------------------------
# Merging and statistics
# ---------------------------------------------------------------------------

def merge_to_replay_log(
    events: Iterable[SyscallEvent],
    samples: Iterable[SignalSample],
    name: str,
) -> ReplayLog:
    """Columns of the events and samples, each kind stably sorted by time."""
    events = list(events)
    samples = list(samples)
    return ReplayLog(
        name,
        *sort_by_time(
            [e.timestamp for e in events],
            [e.syscall_number for e in events],
            [e.label for e in events],
        ),
        *sort_by_time(
            [s.timestamp for s in samples],
            [s.signal_name for s in samples],
            [s.value for s in samples],
        ),
    )


def dataset_stats(log: ReplayLog) -> DatasetStats:
    """Summarize a log: ceil(duration), event count, peak events per second.

    The peak rate uses fixed integer-aligned windows [k, k+1).  The event
    times are sorted, so each occupied window's count is one bisect.
    """
    if not len(log):
        return DatasetStats(0, 0, 0)
    times = log.event_times
    peak = lo = 0
    while lo < len(times):
        hi = bisect_left(times, math.floor(times[lo]) + 1, lo)
        peak = max(peak, hi - lo)
        lo = hi
    return DatasetStats(
        total_time=int(math.ceil(log.duration)),
        total_antigen=len(times),
        max_antigen_rate=peak,
    )


# ---------------------------------------------------------------------------
# Replay-log file format
# ---------------------------------------------------------------------------
#
# Line-oriented text, UTF-8, LF:
#   # scenario <name>
#   A <timestamp> <syscall_number> <label>
#   S <timestamp> <signal_name> <value>

def format_replay_log(log: ReplayLog) -> str:
    """The log's text, one line per record in merged time order.

    Lines are formatted a block at a time: the run of events between two
    signal samples is one ``%`` of a repeated line pattern, which writes
    the same text as formatting each line on its own.
    """
    event_times = log.event_times
    event_numbers = log.event_numbers
    event_labels = log.event_labels
    blocks = [f"# scenario {log.scenario_name}\n"]

    def add_events(start: int, end: int) -> None:
        if end > start:
            labels = map(LABEL_TEXT.__getitem__, event_labels[start:end])
            fields = zip(event_times[start:end], event_numbers[start:end], labels)
            blocks.append(("A %.6f %d %s\n" * (end - start)) % tuple(chain.from_iterable(fields)))

    start = 0
    for t, name, value in zip(log.signal_times, log.signal_names, log.signal_values):
        # a signal goes before the events that share its timestamp
        end = bisect_left(event_times, t, start)
        add_events(start, end)
        blocks.append("S %.6f %s %.6f\n" % (t, name, value))
        start = end
    add_events(start, len(event_times))
    return "".join(blocks)


def write_replay_log(log: ReplayLog, path: str | Path) -> None:
    Path(path).write_text(format_replay_log(log), encoding="utf-8", newline="\n")


# characters per piece that parse_replay_log takes at a time
_PARSE_CHARS = 64 * 1024

# the longest run of event lines at a position, each its kind and three
# tokens separated by single spaces, as write_replay_log writes them; \S
# excludes every str.isspace character, line boundaries included, so a run
# splits into exactly four tokens per line
_EVENT_RUN = re.compile(r"(?:A \S+ \S+ \S+\n)*")
# each valid syscall number as write_replay_log spells it
_NUMBERS = {str(n): n for n in range(SYSCALL_RANGE)}


def _line_blocks(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces' concatenation in blocks of whole lines.

    Each piece is cut just after its last ``"\n"``, which always ends a line,
    and the rest goes ahead of the next piece; so every block but the last
    ends with ``"\n"``, and the blocks' lines together are exactly
    ``"".join(pieces).splitlines()``, whatever the line boundaries.
    """
    rest = ""
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield rest + piece[:cut]
            rest = piece[cut:]
        else:
            rest += piece
    if rest:
        yield rest


def parse_replay_log(text: str | Iterable[str], default_name: str = "unnamed") -> ReplayLog:
    """Parse the replay-log format in one pass, straight into columns.

    ``text`` is the log's text, or an iterable of pieces whose concatenation
    is the text; a ``str`` is read in pieces of ``_PARSE_CHARS`` characters.
    Lines are those of ``str.splitlines``, held one block of whole lines at
    a time, and a column's list is freed as its tuple is built, so parsing
    holds little beyond the log it returns.

    Each run of event lines written as ``write_replay_log`` writes them is
    converted at once, column by column, and kept only if every token
    converts and its times are in order from the last event's; any other
    line, and every line of a run not kept, goes through the per-line code,
    the only place that rejects a line: it resolves an event's label, then
    builds the line's ``SyscallEvent`` or ``SignalSample``, whose own checks
    reject a bad field, and appends the record's fields.  A kind whose lines
    are out of time order is stably sorted; a file in order, as
    ``write_replay_log`` writes it, is not.
    """
    if isinstance(text, str):
        pieces: Iterable[str] = (
            text[i:i + _PARSE_CHARS] for i in range(0, len(text), _PARSE_CHARS)
        )
    else:
        pieces = text
    name = default_name
    event_times: list[float] = []
    event_numbers: list[int] = []
    event_labels: list[Label] = []
    signal_times: list[float] = []
    signal_names: list[str] = []
    signal_values: list[float] = []
    add_time = event_times.append
    add_number = event_numbers.append
    add_label = event_labels.append
    events_in_order = signals_in_order = True
    last_event = last_signal = 0.0
    inf = math.inf
    match_run = _EVENT_RUN.match
    lineno = 0
    for block in _line_blocks(pieces):
        pos = 0
        size = len(block)
        while pos < size:
            end = match_run(block, pos).end()
            if end == pos:
                # no event run here: the lines up to the next that starts "A "
                end = block.find("\nA ", pos) + 1 or size
            else:
                tokens = block[pos:end].split()
                try:
                    times = list(map(float, tokens[1::4]))
                    numbers = list(map(_NUMBERS.__getitem__, tokens[2::4]))
                    labels = list(map(LABELS.__getitem__, tokens[3::4]))
                except (ValueError, KeyError):
                    pass
                else:
                    # in order from the last event and finite: so also >= 0, no nan
                    if (last_event <= times[0] and times[-1] < inf
                            and all(map(le, times, islice(times, 1, None)))):
                        event_times += times
                        event_numbers += numbers
                        event_labels += labels
                        last_event = times[-1]
                        lineno += len(times)
                        pos = end
                        continue
            for raw in block[pos:end].splitlines():
                lineno += 1
                parts = raw.split()
                if not parts:
                    continue
                kind = parts[0]
                try:
                    if kind == "A" and len(parts) == 4:
                        # the label first: its error precedes the others
                        label = LABELS.get(parts[3]) or Label(parts[3])
                        event = SyscallEvent(float(parts[1]), int(parts[2]), label)
                        if event.timestamp < last_event:
                            events_in_order = False
                        last_event = event.timestamp
                        add_time(last_event)
                        add_number(event.syscall_number)
                        add_label(label)
                    elif kind == "S" and len(parts) == 4:
                        sample = SignalSample(float(parts[1]), parts[2], float(parts[3]))
                        if sample.timestamp < last_signal:
                            signals_in_order = False
                        last_signal = sample.timestamp
                        signal_times.append(last_signal)
                        signal_names.append(sample.signal_name)
                        signal_values.append(sample.value)
                    elif kind[0] == "#":
                        parts = raw.strip()[1:].split()
                        if len(parts) >= 2 and parts[0] == "scenario":
                            name = parts[1]
                    else:
                        raise ReplayLogFormatError(f"line {lineno}: unrecognized record {raw!r}")
                except ReplayLogFormatError:
                    raise
                except ValueError as exc:
                    raise ReplayLogFormatError(f"line {lineno}: {exc}") from None
            pos = end
    # the bound appends hold the lists too; rebinding each column's name to
    # its tuple then frees its list before the next tuple is built
    del add_time, add_number, add_label
    if events_in_order:
        event_times = tuple(event_times)
        event_numbers = tuple(event_numbers)
        event_labels = tuple(event_labels)
    else:
        event_times, event_numbers, event_labels = sort_by_time(
            event_times, event_numbers, event_labels
        )
    signals = (signal_times, signal_names, signal_values)
    return ReplayLog(
        name, event_times, event_numbers, event_labels,
        *(map(tuple, signals) if signals_in_order else sort_by_time(*signals)),
    )


def read_replay_log(path: str | Path) -> ReplayLog:
    """Parse a replay-log file, named by its stem unless it names itself.

    The file is decoded as UTF-8, with the universal newlines of
    ``Path.read_text``, and handed to the module's ``parse_replay_log`` in
    pieces of ``_PARSE_CHARS`` characters, so its whole text is never held;
    the event runs of a file that ``write_replay_log`` wrote are converted
    in bulk, any other line one at a time.  Bytes that are not UTF-8 raise
    ``UnicodeDecodeError`` (a ``ValueError``) when their piece is read; a
    format error in an earlier line is reported first.
    """
    p = Path(path)
    with p.open(encoding="utf-8") as f:
        return parse_replay_log(iter(lambda: f.read(_PARSE_CHARS), ""), default_name=p.stem)
