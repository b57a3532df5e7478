"""The tissue compartment: antigen store, signal array and the two-cell
population.

The population is a ``twocell.TwoCellState`` that ``attach_twocell`` puts on
the compartment.  Each cycle hands the population to ``twocell.run_cells``,
which runs every cell exactly once in a seeded-random order, so repeated
runs with the same seed and the same scripted inputs are bit-identical.  An
idle cycle (empty store, nothing presented) draws and ages its cells inline
and makes no per-cell call.  The cycle's ``CycleReport`` is measured around
``run_cells``: during a cycle only ``draw_antigen`` shrinks the store and
only ``emit_response`` grows the response log.  ``idle_stretch`` steps up to
a given number of idle cycles at once with ``twocell.idle_stretch``, adding
them to ``cycle_count`` and ``idle_cycles_total``; its RNG stream is the one
those cycles would draw, but it needs CPython's ``getrandbits`` layout and
n1 + n2 <= 255, and it steps nothing otherwise (see ``twocell``).  The
compartment holds its state after the stretch from the moment the call
returns, so a driver that then yields one report per stepped cycle, as
``harness.offline_cycles`` does, shows that state between them.

External writers (wire sessions) may add antigen and set signals
concurrently with a cycling thread; individual writes are atomic and become
visible no later than the start of the next cycle.  ``add_antigen`` adds one
antigen (a wire frame); ``add_events`` adds a batch given as syscall-number
and label columns, such as an offline run's window of events between two
cycles, in one locked ``deque.extend``.  Both count the antigen they add and
the oldest antigen the bounded store drops to make room.

Run totals on the compartment: antigen added and dropped, signals set and
clamped into [0, 1], idle cycles, Type 2 lock resets, and the antigen
consumed and responses emitted that the cycle reports add up to.
"""
from __future__ import annotations

import csv
import io
import logging
import math
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import twocell
from .trace_model import Label, syscall_name

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ResponseRecord:
    cycle: int
    wall_time: float
    cell_id: int
    matched_value: int


@dataclass(frozen=True)
class CycleReport:
    antigen_consumed: int
    responses_emitted: int


@dataclass(frozen=True)
class TissueParams:
    """Environment parameters: signal names, store capacity and cycle rate."""

    signals: tuple[str, ...] = ("cpu",)
    antigen_capacity: int = 10_000
    cycles_per_second: float = 10.0

    def __post_init__(self) -> None:
        if not self.signals:
            raise ValueError("at least one signal name is required")
        if self.antigen_capacity < 1:
            raise ValueError("antigen_capacity must be >= 1")
        if not 0 < self.cycles_per_second < math.inf:  # also false for nan
            raise ValueError(
                f"cycles_per_second must be finite and > 0, got {self.cycles_per_second}"
            )


class Compartment:
    """Shared environment: antigen multiset, signal levels, cell population."""

    def __init__(self, params: TissueParams, seed: int):
        self.params = params
        self.rng = random.Random(seed)
        self.cycle_count = 0
        self.response_log: list[ResponseRecord] = []
        self.antigen_added_total = 0
        self.antigen_dropped_total = 0
        self.signals_set_total = 0
        self.signals_clamped_total = 0
        self.idle_cycles_total = 0
        self.type2_resets_total = 0
        self.antigen_consumed_total = 0
        self.responses_total = 0
        self.twocell: twocell.TwoCellState | None = None
        # bounded store: at capacity, append drops the oldest antigen
        self._store: deque[tuple[int, Label]] = deque(maxlen=params.antigen_capacity)
        self._signals: dict[str, float] = {name: 0.0 for name in params.signals}
        # called with each response as it is emitted, such as a server's forwarder
        self.response_listener: Callable[[ResponseRecord], None] | None = None
        self._lock = threading.RLock()
        self._realtime_start: float | None = None

    # -- clock ------------------------------------------------------------

    def start_realtime_clock(self) -> None:
        """Switch wall_time from the logical cycle clock to monotonic time."""
        self._realtime_start = time.monotonic()

    def wall_time(self) -> float:
        if self._realtime_start is not None:
            return time.monotonic() - self._realtime_start
        return self.cycle_count / self.params.cycles_per_second

    # -- external inputs ---------------------------------------------------

    def add_antigen(self, value: int, label: Label = Label.NORMAL) -> None:
        if value < 0:
            raise ValueError(f"antigen value must be >= 0, got {value}")
        if not isinstance(label, Label):
            label = Label(label)
        with self._lock:
            store = self._store
            if len(store) == store.maxlen:
                self.antigen_dropped_total += 1
            store.append((value, label))
            self.antigen_added_total += 1

    def add_events(self, numbers: Sequence[int], labels: Sequence[Label]) -> None:
        """Add each (numbers[k], labels[k]) as antigen, in order.

        The same store state and counters as one ``add_antigen`` per pair:
        at capacity the oldest antigen is dropped for each one added.  The
        columns come from a validated replay log, so nothing is checked
        again.
        """
        with self._lock:
            store = self._store
            kept = len(store)
            store.extend(zip(numbers, labels))
            added = len(numbers)
            self.antigen_added_total += added
            self.antigen_dropped_total += kept + added - len(store)

    def set_signal(self, name: str, level: float) -> None:
        if name not in self._signals:
            raise ValueError(f"unknown signal {name!r}")
        if not math.isfinite(level):
            raise ValueError(f"signal {name} level must be finite, got {level}")
        clamped = level < 0.0 or level > 1.0
        if clamped:
            logger.warning("signal %s level %s outside [0, 1], clamped", name, level)
            level = min(1.0, max(0.0, level))
        with self._lock:
            self._signals[name] = level
            self.signals_set_total += 1
            self.signals_clamped_total += clamped

    def get_signal(self, name: str) -> float:
        return self._signals[name]

    def antigen_count(self) -> int:
        return len(self._store)

    # -- cycle-internal operations (called by the cell cycle functions) ----

    def draw_antigen(self) -> tuple[int, Label] | None:
        """Remove and return one antigen chosen uniformly at random."""
        store = self._store
        n = len(store)
        if not n:
            return None
        idx = self.rng._randbelow(n)  # what randrange(n) draws
        item = store[idx]
        del store[idx]
        return item

    def emit_response(self, cell_id: int, matched_value: int) -> None:
        record = ResponseRecord(self.cycle_count, self.wall_time(), cell_id, matched_value)
        self.response_log.append(record)
        if self.response_listener is not None:
            self.response_listener(record)

    # -- the cycle ----------------------------------------------------------

    def cycle(self) -> CycleReport:
        """Run every cell once, in a freshly shuffled order."""
        with self._lock:
            self.cycle_count += 1
            stored = len(self._store)
            logged = len(self.response_log)
            if self.twocell is not None:
                twocell.run_cells(self)
            consumed = stored - len(self._store)
            responses = len(self.response_log) - logged
            self.antigen_consumed_total += consumed
            self.responses_total += responses
            return CycleReport(consumed, responses)

    def idle_stretch(self, limit: int) -> int:
        """Step up to ``limit`` idle cycles at once with
        ``twocell.idle_stretch``; return how many were stepped (0 when the
        population is busy, a reset is due or there is no population)."""
        with self._lock:
            if self.twocell is None:
                return 0
            stepped = twocell.idle_stretch(self, limit)
            self.cycle_count += stepped
            self.idle_cycles_total += stepped
            return stepped


def create_compartment(params: TissueParams | None = None, seed: int = 0) -> Compartment:
    """Fresh compartment: empty store, zeroed signals, empty population."""
    return Compartment(params or TissueParams(), seed)


# ---------------------------------------------------------------------------
# key = value parameter files
# ---------------------------------------------------------------------------

def iter_kv_lines(text: str) -> Iterator[tuple[int, str, str, str]]:
    """Yield (line number, raw line, key, value) per `key = value` line;
    # comments and blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        yield lineno, raw, key.strip(), value.strip()


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; # comments and blank lines ignored."""
    return {key: value for _, _, key, value in iter_kv_lines(text)}


def tissue_params_from_kv(kv: Mapping[str, str]) -> TissueParams:
    """Params from the keys present; an absent key keeps its default."""
    kwargs: dict[str, object] = {}
    if "signals" in kv:
        kwargs["signals"] = tuple(s.strip() for s in kv["signals"].split(",") if s.strip())
    for key, convert in (("antigen_capacity", int), ("cycles_per_second", float)):
        if key in kv:
            try:
                kwargs[key] = convert(kv[key])
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from None
    return TissueParams(**kwargs)


# ---------------------------------------------------------------------------
# Response log output
# ---------------------------------------------------------------------------

def format_response_csv(records: list[ResponseRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cycle", "wall_time", "cell_id", "syscall_number", "syscall_name"])
    for rec in records:
        writer.writerow(
            [rec.cycle, f"{rec.wall_time:.3f}", rec.cell_id, rec.matched_value,
             syscall_name(rec.matched_value)]
        )
    return out.getvalue()

