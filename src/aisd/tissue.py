"""The tissue compartment: antigen store, signal array and the two-cell
population.

The population is a ``twocell.TwoCellState`` that ``attach_twocell`` puts on
the compartment.  Each cycle hands the population to ``twocell.run_cells``,
which runs every cell exactly once in a seeded-random order, so repeated
runs with the same seed and the same scripted inputs are bit-identical.  An
idle cycle (empty store, nothing presented) runs its cells the same way and
``run_cells`` counts it in ``idle_cycles_total``.  The cycle's
``CycleReport`` is measured around ``run_cells``: during a cycle only
``draw_antigen`` shrinks the store and only ``emit_response`` grows the
response log.  ``idle_stretch`` steps up to
a given number of idle cycles at once with ``twocell.idle_stretch``, adding
them to ``cycle_count`` and ``idle_cycles_total``; its RNG stream is the one
those cycles would draw, draw for draw (see ``twocell``).

External writers (wire sessions) may add antigen and set signals
concurrently with a cycling thread.  The store holds syscall numbers only
(an event's label is ground truth, for the evaluation alone): ``add_events``
adds a batch, such as an offline run's window of events between two cycles,
in one locked ``deque.extend``; ``add_antigen`` hands one in (a wire
frame's) without the lock, by appending it to an inbox.  The inbox is
admitted into the store, in order and under the lock, first thing in
``cycle``, ``idle_stretch`` and ``add_events``, and in every read of the
store's size or its antigen totals, so a frame handed in mid-cycle waits
for the next cycle; ``draw_antigen`` never admits.  When the inbox holds
more than ``antigen_capacity`` antigen, the writer admits it itself if the
lock is free, so memory stays bounded when nothing cycles and a writer
never waits for a cycle.  Admission counts the antigen it adds and the
oldest antigen the bounded store drops to make room, as ``add_events``
does.  Signals are set under the lock.

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
from itertools import repeat, starmap
from typing import Callable, Iterable, Sequence

from . import twocell
from .trace_model import SYSCALL_RANGE, check_finite, syscall_name

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
        check_finite("cycles_per_second", self.cycles_per_second, positive=True)


class Compartment:
    """Shared environment: antigen multiset, signal levels, cell population."""

    def __init__(self, params: TissueParams, seed: int):
        self.params = params
        self.rng = random.Random(seed)
        self.cycle_count = 0
        self.response_log: list[ResponseRecord] = []
        self._antigen_added_total = 0
        self._antigen_dropped_total = 0
        self.signals_set_total = 0
        self.signals_clamped_total = 0
        self.idle_cycles_total = 0
        self.type2_resets_total = 0
        self.antigen_consumed_total = 0
        self.responses_total = 0
        self.twocell: twocell.TwoCellState | None = None
        # bounded store: at capacity, append drops the oldest antigen
        self._store: deque[int] = deque(maxlen=params.antigen_capacity)
        # handed in by add_antigen, not yet admitted: writers append at the
        # right while _admit pops at the left, under the lock
        self._inbox: deque[int] = deque()
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

    def add_antigen(self, value: int) -> None:
        """Hand one syscall number in, without waiting for the lock."""
        if type(value) is not int:
            raise ValueError(f"antigen value {value!r} is not an int")
        if not 0 <= value < SYSCALL_RANGE:
            raise ValueError(f"antigen value {value} outside [0, {SYSCALL_RANGE})")
        inbox = self._inbox
        inbox.append(value)
        if len(inbox) > self.params.antigen_capacity and self._lock.acquire(False):
            try:
                self._admit()
            finally:
                self._lock.release()

    def add_events(self, numbers: Sequence[int]) -> None:
        """Add each syscall number as antigen, in order, after the inbox.

        The same store state and counters as one ``add_antigen`` per number
        and an admission: at capacity the oldest antigen is dropped for each
        one added.  The numbers come from a validated replay log and are not
        checked again.
        """
        with self._lock:
            self._admit()
            self._extend(numbers, len(numbers))

    def _admit(self) -> None:
        """Move the antigen in the inbox into the store; the lock is held.

        Exactly the antigen present when it starts move, in order: what a
        writer appends meanwhile waits for the next admission.
        """
        inbox = self._inbox
        n = len(inbox)
        if n:
            self._extend(starmap(inbox.popleft, repeat((), n)), n)

    def _extend(self, numbers: Iterable[int], n: int) -> None:
        """Add ``n`` numbers to the store and count them; the lock is held."""
        store = self._store
        held = len(store) + n  # were nothing dropped
        store.extend(numbers)
        self._antigen_added_total += n
        self._antigen_dropped_total += held - len(store)

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
        with self._lock:
            self._admit()
            return len(self._store)

    @property
    def antigen_added_total(self) -> int:
        with self._lock:
            self._admit()
            return self._antigen_added_total

    @property
    def antigen_dropped_total(self) -> int:
        with self._lock:
            self._admit()
            return self._antigen_dropped_total

    # -- cycle-internal operations (called by the cell cycle functions) ----

    def draw_antigen(self) -> int | None:
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
            self._admit()
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
        population is busy, a reset is due, or there is no population)."""
        with self._lock:
            self._admit()
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

