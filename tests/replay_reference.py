"""A reference replay-log parser: every line through the per-line checks.

It is ``parse_replay_log`` as it was before event runs were converted in
bulk, reading the whole text at once, and serves the property tests as an
oracle: the parser must return the same ``ReplayLog``, or raise the same
error with the same message, for any text.
"""
from __future__ import annotations

import math

from aisd.trace_model import (
    LABELS,
    SYSCALL_RANGE,
    Label,
    ReplayLog,
    ReplayLogFormatError,
    sort_by_time,
)


def parse_replay_log_per_line(text: str, default_name: str = "unnamed") -> ReplayLog:
    name = default_name
    event_times: list[float] = []
    event_numbers: list[int] = []
    event_labels: list[Label] = []
    signal_times: list[float] = []
    signal_names: list[str] = []
    signal_values: list[float] = []
    events_in_order = signals_in_order = True
    last_event = last_signal = 0.0
    inf = math.inf
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "A" and len(parts) == 4:
                token = parts[3]
                label = LABELS.get(token) or Label(token)
                ts = float(parts[1])
                number = int(parts[2])
                if not 0.0 <= ts < inf:
                    raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
                if not 0 <= number < SYSCALL_RANGE:
                    raise ValueError(f"syscall number {number} outside [0, {SYSCALL_RANGE})")
                if ts < last_event:
                    events_in_order = False
                last_event = ts
                event_times.append(ts)
                event_numbers.append(number)
                event_labels.append(label)
            elif kind == "S" and len(parts) == 4:
                ts = float(parts[1])
                value = float(parts[3])
                if not 0.0 <= ts < inf:
                    raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"signal value {value} outside [0, 1]")
                if ts < last_signal:
                    signals_in_order = False
                last_signal = ts
                signal_times.append(ts)
                signal_names.append(parts[2])
                signal_values.append(value)
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
    if events_in_order:
        events = (tuple(event_times), tuple(event_numbers), tuple(event_labels))
    else:
        events = sort_by_time(event_times, event_numbers, event_labels)
    signals = (signal_times, signal_names, signal_values)
    return ReplayLog(
        name, *events,
        *(map(tuple, signals) if signals_in_order else sort_by_time(*signals)),
    )
