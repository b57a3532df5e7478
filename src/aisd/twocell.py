"""The two-cell-type detector.

Type 1 cells ingest antigen from the compartment store and present it on
antigen producers for a CPU-dependent number of cycles.  Type 2 cells bind
Type 1 cells, compare their VR receptor locks against presented keys, and
emit a response for every exact match; a Type 2 cell that has never matched
re-randomizes all its locks once it outlives ``cell_lifespan`` cycles.

A population is a ``TwoCellState`` of flat per-cell lists.  Cell ids are
0..n1-1 for Type 1 cells and n1..n1+n2-1 for Type 2 cells.  Each compartment
cycle calls ``run_cells``, which shuffles the ids and runs ``type1_cycle`` or
``type2_cycle`` once per id in that order.

A cycle is idle when the store is empty and no Type 1 producer presents a
key (``TwoCellState.live`` is 0).  Then no Type 1 cell can act, so
``type1_cycle`` returns before it draws, and each Type 2 cell only makes its
bind draws, ages and, when due, resets; ``run_cells`` counts the cycle in
the compartment's ``idle_cycles_total`` and runs it like any other.

The hot draws, the cycle's shuffle and the Type 2 binds, call the
compartment RNG's ``getrandbits(n.bit_length())`` inline and reject values
>= n.  That is what ``randrange(n)`` and ``shuffle`` do inside
``random.Random``, so the stream is the same draw for draw, without a Python
frame per draw.

``idle_stretch`` steps a run of idle cycles in one call, as an offline run
does between windows, and leaves the RNG, the ages and the totals where
per-cycle ``run_cells`` would.  It stops before a cycle in which a reset
falls due.  A stepped cycle makes only the draws an idle ``run_cells``
makes, the shuffle and the Type 2 binds, with the same
``getrandbits(n.bit_length())`` calls, so the stream is the same draw for
draw on any ``random.Random`` and for any population size.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .trace_model import SYSCALL_RANGE

if TYPE_CHECKING:
    from .tissue import Compartment


@dataclass(frozen=True)
class TwocellParams:
    n_type1: int = 10
    n_type2: int = 20
    antigen_receptors_per_t1: int = 2
    antigen_producers_per_t1: int = 3
    vr_receptors_per_t2: int = 4
    cell_receptors_per_t2: int = 3
    cell_lifespan: int = 100
    min_presentation: int = 5
    max_presentation: int = 50
    bind_attempts_per_cycle: int = 3

    def __post_init__(self) -> None:
        counts = (
            self.n_type1, self.n_type2,
            self.antigen_receptors_per_t1, self.antigen_producers_per_t1,
            self.vr_receptors_per_t2, self.cell_receptors_per_t2,
            self.cell_lifespan, self.min_presentation, self.max_presentation,
            self.bind_attempts_per_cycle,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all twocell counts must be >= 1")
        if self.min_presentation > self.max_presentation:
            raise ValueError("min_presentation must be <= max_presentation")


def presentation_period(cpu_level: float, params: TwocellParams) -> int:
    """Cycles an antigen stays presented: linear in the CPU signal."""
    cpu_level = min(1.0, max(0.0, cpu_level))
    span = params.max_presentation - params.min_presentation
    return round(params.min_presentation + cpu_level * span)


class TwoCellState:
    """Per-cell state of one population, as flat lists indexed by cell.

    Type 1 cell ``i`` presents ``keys[i][j]`` on its producer ``j`` for
    ``timers[i][j]`` more cycles; a free producer holds ``None`` and 0.
    ``live`` counts the keys presented over all producers.  Type 2 cell
    ``n1 + k`` holds the VR locks ``locks[k]``, has emitted ``matches[k]``
    responses, and is ``ages[k]`` cycles past its last reset.
    ``shuffle_steps`` are the draws of a cycle's shuffle, which ``run_cells``
    and ``idle_stretch`` both make with the compartment RNG's
    ``getrandbits``.
    """

    def __init__(self, params: TwocellParams, rng: random.Random):
        self.params = params
        self.n1 = params.n_type1
        self.n2 = params.n_type2
        # binds per Type 2 cell per cycle: one per cell receptor, within budget
        self.binds = min(params.bind_attempts_per_cycle, params.cell_receptors_per_t2)
        producers = params.antigen_producers_per_t1
        self.keys: list[list[int | None]] = [[None] * producers for _ in range(self.n1)]
        self.timers: list[list[int]] = [[0] * producers for _ in range(self.n1)]
        self.live = 0
        # drawn cell by cell, in id order
        self.locks: list[list[int]] = [
            [rng.randrange(SYSCALL_RANGE) for _ in range(params.vr_receptors_per_t2)]
            for _ in range(self.n2)
        ]
        self.matches = [0] * self.n2
        self.ages = [0] * self.n2
        self.getrandbits = rng.getrandbits
        # the cycle's Fisher-Yates shuffle of all ids, as random.shuffle does
        # it: (i, n, bits) swaps slot i with randrange(n), n = i + 1
        self.shuffle_steps = [
            (i, i + 1, (i + 1).bit_length()) for i in range(self.n1 + self.n2 - 1, 0, -1)
        ]


def type1_cycle(cell: int, compartment: Compartment, params: TwocellParams) -> None:
    """Expire old presentations, then ingest and present fresh antigen.

    Expiry runs first so a fresh presentation survives exactly its full
    period, and a slot freed this cycle is immediately reusable.  Ingestion
    is pass-through: a receptor only draws when a free producer exists, so
    the store shrinks by exactly the number of new presentations.
    """
    state = compartment.twocell
    keys = state.keys[cell]
    timers = state.timers[cell]
    for j, remaining in enumerate(timers):
        if remaining:
            remaining -= 1
            timers[j] = remaining
            if not remaining:
                keys[j] = None  # presented antigen destroyed
                state.live -= 1
    if not compartment._store or None not in keys:
        return  # no draw: an empty store, or no free producer to present on

    # the period is read once per cycle, and only if something is presented
    period = 0
    ingest = params.antigen_receptors_per_t1
    for j, key in enumerate(keys):
        if key is None:
            drawn = compartment.draw_antigen()
            if drawn is None:
                return
            if not period:
                period = presentation_period(compartment.get_signal("cpu"), params)
            keys[j] = drawn
            timers[j] = period
            state.live += 1
            ingest -= 1
            if not ingest:
                return


def type2_cycle(cell: int, compartment: Compartment, params: TwocellParams) -> None:
    """Bind Type 1 cells, respond to exact lock/key matches, maybe reset.

    Binding draws with replacement, one bind per cell receptor up to the
    per-cycle attempt budget; bound pairs last one cycle.  Every (lock, key)
    equality emits its own response.  Matched antigen is not consumed; it
    expires by presentation timer only.
    """
    state = compartment.twocell
    k = cell - state.n1
    locks = state.locks[k]
    bound_keys = state.keys
    n1 = len(bound_keys)
    if n1:
        getrandbits = state.getrandbits
        bits = n1.bit_length()
        for _ in range(state.binds):
            bound = getrandbits(bits)  # randrange(n1), inline
            while bound >= n1:
                bound = getrandbits(bits)
            for key in bound_keys[bound]:
                if key is not None and key in locks:
                    for lock in locks:
                        if lock == key:
                            compartment.emit_response(cell, key)
                            state.matches[k] += 1

    age = state.ages[k] + 1
    if age >= params.cell_lifespan and not state.matches[k]:
        _reset_locks(compartment, locks)
        age = 0
    state.ages[k] = age


def _reset_locks(compartment: Compartment, locks: list[int]) -> None:
    """Re-randomize a Type 2 cell's locks in place, and count the reset."""
    randbelow = compartment.rng._randbelow  # what randrange(n) draws
    for j in range(len(locks)):
        locks[j] = randbelow(SYSCALL_RANGE)
    compartment.type2_resets_total += 1


def run_cells(compartment: Compartment) -> None:
    """Run every cell of the compartment's population once, in an order
    shuffled as ``rng.shuffle`` would shuffle the list of ids."""
    state = compartment.twocell
    if not state.live and not compartment._store:
        compartment.idle_cycles_total += 1
    n1 = state.n1
    getrandbits = state.getrandbits
    order = list(range(n1 + state.n2))
    for i, n, bits in state.shuffle_steps:
        j = getrandbits(bits)  # randrange(n), inline
        while j >= n:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]

    params = state.params
    # module globals, so rebinding type1_cycle/type2_cycle takes effect
    for cell in order:
        if cell < n1:
            type1_cycle(cell, compartment, params)
        else:
            type2_cycle(cell, compartment, params)


def idle_stretch(compartment: Compartment, limit: int) -> int:
    """Step up to ``limit`` idle cycles in one call; return how many.

    The RNG, the ages and the population end where that many ``run_cells``
    calls would leave them.  The stretch stops before the first cycle in
    which an unmatched Type 2 cell's reset falls due, since a reset draws
    between the binds.  Returns 0 when the population is not idle.  Each
    stepped cycle makes the draws an idle ``run_cells`` makes, the shuffle
    and then every Type 2 cell's binds, with the same ``getrandbits`` calls.
    """
    state = compartment.twocell
    if state.live or compartment._store:
        return 0
    ages = state.ages
    lifespan = state.params.cell_lifespan
    cycles = limit
    for age, matched in zip(ages, state.matches):
        if not matched and lifespan - 1 - age < cycles:
            cycles = lifespan - 1 - age
    if cycles <= 0:
        return 0

    # (n, bits): one randrange(n), inline, per draw an idle cycle makes
    draws = [(n, bits) for _, n, bits in state.shuffle_steps]
    draws += [(state.n1, state.n1.bit_length())] * (state.n2 * state.binds)
    getrandbits = state.getrandbits
    for _ in range(cycles):
        for n, bits in draws:
            while getrandbits(bits) >= n:
                pass
    ages[:] = [age + cycles for age in ages]
    return cycles


def attach_twocell(compartment: Compartment, params: TwocellParams) -> None:
    """Give the compartment a fresh two-cell population."""
    if compartment.twocell is not None:
        raise ValueError("compartment already has a two-cell population")
    if "cpu" not in compartment.params.signals:
        raise ValueError("the two-cell detector needs a 'cpu' signal")
    compartment.twocell = TwoCellState(params, compartment.rng)
