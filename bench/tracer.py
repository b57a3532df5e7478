"""In-memory span tracer for the benchmark's traced run.

Hooks are installed by rebinding public names in the namespace of the module
that calls them, for example ``aisd.harness.run_single_offline`` or
``aisd.twocell.type2_cycle``, and by rebinding methods on compartment
instances that the benchmark creates or sees created.  Nothing under ``src/``
is edited.  A hook whose name no longer exists is recorded as missing and
warned about on stderr; metrics that need it are left out of the result.

Each span has a name, a start, an end and a parent: the span open below it on
the same thread.  Spans are folded into per-name totals as they close (calls,
duration and self time, which is the duration minus the part covered by child
spans), so memory stays flat over the million or so cycle-callback spans of
one experiment.  Names listed in ``keep`` also keep every (start, duration)
pair, for percentiles.

A span's own bookkeeping runs partly outside its timed interval; that part,
measured once per tracer (``span_cost``), is charged to the child rather than
to the parent's self time, so the self times of all spans add up to the
traced work without the tracing overhead.  For a span with no parent that
part lands in no span; ``untimed_cost`` sums it.
"""
from __future__ import annotations

import sys
import threading
import time
from array import array
from typing import Callable

CALIBRATION_CALLS = 20_000


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time covered so far, per open span
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.roots = 0  # spans closed with no parent span open


class Tracer:
    def __init__(self, keep: tuple[str, ...] = ()):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.keep = {name: (array("d"), array("d")) for name in keep}
        self.missing_spans: set[str] = set()
        self.span_cost = 0.0
        self.span_cost = self._calibrate()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _calibrate(self) -> float:
        """Seconds each span adds to its parent outside its own duration."""
        def noop() -> None:
            pass
        traced = self.wrap("calibration", noop)
        perf = time.perf_counter
        start = perf()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = perf() - start
        start = perf()
        for _ in range(CALIBRATION_CALLS):
            traced()
        wrapped = perf() - start
        state = self._state()
        inside = state.totals.pop("calibration")[1]
        state.roots = 0
        return max(0.0, (wrapped - bare - inside) / CALIBRATION_CALLS)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        perf = time.perf_counter
        state_of = self._state
        kept = self.keep.get(name)
        cost = self.span_cost

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration + cost
                else:
                    state.roots += 1
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - child
                if kept is not None:
                    kept[0].append(start)
                    kept[1].append(duration)

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        peaks = self._state().peaks
        if value > peaks.get(name, float("-inf")):
            peaks[name] = value

    # -- hooks by public name ----------------------------------------------

    def lookup(self, module, attr: str, span: str) -> Callable | None:
        """``module.attr``, or None after warning that ``span`` is untraced."""
        try:
            return getattr(module, attr)
        except AttributeError:
            where = f"{getattr(module, '__name__', type(module).__name__)}.{attr}"
            self.missing_spans.add(span)
            print(f"warning: {where} not found; {span} is not traced", file=sys.stderr)
            return None

    def rebind(self, module, attr: str, replacement: Callable) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def hook(self, module, attr: str, span: str) -> Callable | None:
        """Wrap ``module.attr`` in a span; returns the wrapper or None."""
        fn = self.lookup(module, attr, span)
        if fn is None:
            return None
        traced = self.wrap(span, fn)
        self.rebind(module, attr, traced)
        return traced

    def unhook(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), over all threads."""
        merged: dict[str, list[float]] = {}
        for state in self._states:
            for name, (calls, total, own) in state.totals.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._states:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def untimed_cost(self) -> float:
        """Seconds of bookkeeping of parentless spans, outside every span."""
        return self.span_cost * sum(state.roots for state in self._states)

    def peak_of(self, name: str) -> float:
        return max((s.peaks[name] for s in self._states if name in s.peaks), default=0)

    def starts(self, name: str) -> array:
        return self.keep[name][0] if name in self.keep else array("d")

    def durations(self, name: str) -> array:
        return self.keep[name][1] if name in self.keep else array("d")
