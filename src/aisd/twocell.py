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
key (``TwoCellState.live`` is 0).  Then no Type 1 cell can act and no Type 2
bind can find a key, so ``run_cells`` makes each Type 2 cell's bind draws,
ages it and, when due, resets it in one inline loop over the shuffled order,
with no per-cell call.  The draws are the ones the per-cell functions would
make, in the same order.

The hot draws, the cycle's shuffle and the Type 2 binds, call the
compartment RNG's ``getrandbits(n.bit_length())`` inline and reject values
>= n.  That is what ``randrange(n)`` and ``shuffle`` do inside
``random.Random``, so the stream is the same draw for draw, without a Python
frame per draw.

``idle_stretch`` steps a run of idle cycles in one call, as an offline run
does between windows, and leaves the RNG, the ages and the totals where
per-cycle ``run_cells`` would.  It stops before a cycle in which a reset
falls due.  It relies on how CPython (3.10 and 3.11) lays out
``getrandbits``, which a tier-1 test pins: ``getrandbits(k)`` for k <= 32 is
the top k bits of one 32-bit Mersenne Twister word, and ``getrandbits(32 *
m)`` holds m consecutive words, the first in the lowest 32 bits.  With
n1 + n2 <= 255 every idle draw takes at most 8 bits, so whether it is
accepted depends only on its word's top byte: one bytes regex match runs a
cycle's shuffle and ``bytes.count`` counts its bind accepts.  A population
with n1 + n2 > 255 has no kernel, and its idle cycles run through
``run_cells``.  The stretch is stepped all at once, so between the per-cycle
reports a driver yields for it, the population already holds its state after
the stretch.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

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


def params_from_kv(kv: Mapping[str, str]) -> TwocellParams:
    """Params from the ``twocell.<field>`` keys present; an absent key keeps
    its default."""
    kwargs = {}
    for name in TwocellParams.__dataclass_fields__:
        key = f"twocell.{name}"
        if key in kv:
            try:
                kwargs[name] = int(kv[key])
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from None
    return TwocellParams(**kwargs)


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
    responses, and is ``ages[k]`` cycles past its last reset.  ``order`` is
    the order of the last cycle that ran through ``run_cells``; a stepped
    idle stretch leaves it as it was.  ``idle_kernel`` is what
    ``idle_stretch`` reads RNG words with, or None when n1 + n2 > 255.
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
        self.idle_kernel = _idle_kernel(self.n1, self.shuffle_steps)
        self.order: list[int] = []


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
    if not compartment._store:
        return  # draw_antigen would return None without drawing

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
            keys[j] = drawn[0]
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
    shuffled as ``rng.shuffle`` would shuffle the list of ids; an idle
    cycle draws and ages its Type 2 cells inline."""
    state = compartment.twocell
    n1 = state.n1
    getrandbits = state.getrandbits
    order = list(range(n1 + state.n2))
    for i, n, bits in state.shuffle_steps:
        j = getrandbits(bits)  # randrange(n), inline
        while j >= n:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]
    state.order = order

    if not state.live and not compartment._store:
        # Idle: every Type 1 timer is 0 and nothing can be drawn, so Type 1
        # cells do nothing and each bind only makes its draws.
        bits = n1.bit_length()
        binds = range(state.binds)
        ages = state.ages
        matches = state.matches
        lifespan = state.params.cell_lifespan
        for cell in order:
            k = cell - n1
            if k < 0:
                continue
            for _ in binds:
                while getrandbits(bits) >= n1:  # randrange(n1), inline
                    pass
            age = ages[k] + 1
            if age >= lifespan and not matches[k]:
                _reset_locks(compartment, state.locks[k])
                age = 0
            ages[k] = age
        compartment.idle_cycles_total += 1
        return

    params = state.params
    # module globals, so rebinding type1_cycle/type2_cycle takes effect
    for cell in order:
        if cell < n1:
            type1_cycle(cell, compartment, params)
        else:
            type2_cycle(cell, compartment, params)


def _idle_kernel(
    n1: int, shuffle_steps: list[tuple[int, int, int]]
) -> tuple[re.Pattern[bytes], bytes] | None:
    """The shuffle pattern and bind table that ``idle_stretch`` reads the
    top bytes of RNG words with, or None when a draw needs more than 8 bits.

    A draw below n makes ``getrandbits(b)`` calls, b = n.bit_length(), until
    one is below n; each call is the top b bits of one 32-bit word, so it is
    accepted iff the word's top byte is below ``n << (8 - b)``.
    """
    if shuffle_steps[0][2] > 8:  # the first step draws below n1 + n2
        return None
    pieces = []
    for _, n, bits in shuffle_steps:
        low = n << (8 - bits)
        pieces.append(rb"[\x%02x-\xff]*[\x00-\x%02x]" % (low, low - 1))
    low = n1 << (8 - n1.bit_length())
    return re.compile(b"".join(pieces)), bytes(byte < low for byte in range(256))


# RNG words drawn in one call at most, which bounds a stretch's buffers
_MAX_WORDS = 1 << 12


def _top_bytes(getrandbits, words: int) -> bytes:
    """The top byte of each of the next ``words`` 32-bit RNG words (at most
    ``_MAX_WORDS``), in order: ``getrandbits(32 * m)`` puts its first word
    in the lowest 32 bits."""
    words = min(words, _MAX_WORDS)
    return getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]


def idle_stretch(compartment: Compartment, limit: int) -> int:
    """Step up to ``limit`` idle cycles in one call; return how many.

    The RNG, the ages and the population end where that many ``run_cells``
    calls would leave them.  The stretch stops before the first cycle in
    which an unmatched Type 2 cell's reset falls due, since a reset draws
    between the binds.  Returns 0 when the population is not idle or has no
    kernel (n1 + n2 > 255).  Each cycle reads at least
    ``len(shuffle_steps) + n2 * binds`` words, and words are drawn only as
    far as the stretch surely reads them, so the RNG ends where the last
    read leaves it, with no clone and no rewind.
    """
    state = compartment.twocell
    kernel = state.idle_kernel
    if kernel is None or state.live or compartment._store:
        return 0
    ages = state.ages
    lifespan = state.params.cell_lifespan
    cycles = limit
    for age, matched in zip(ages, state.matches):
        if not matched and lifespan - 1 - age < cycles:
            cycles = lifespan - 1 - age
    if cycles <= 0:
        return 0

    shuffle, table = kernel
    binds = state.n2 * state.binds
    per_cycle = len(state.shuffle_steps) + binds
    getrandbits = state.getrandbits
    top = _top_bytes(getrandbits, cycles * per_cycle)
    accepted = top.translate(table)  # 1 where a bind draw accepts the word
    pos = 0
    for later in range(cycles - 1, -1, -1):  # cycles left after this one
        match = shuffle.match(top, pos)
        while match is None:  # the shuffle reads past the buffer
            more = _top_bytes(getrandbits, 1 + binds + later * per_cycle)
            top, accepted, pos = top[pos:] + more, accepted[pos:] + more.translate(table), 0
            match = shuffle.match(top)
        pos = match.end()
        need = binds
        while need:
            # each of the next `need` words is read; the last read accepts
            end = pos + need
            if end > len(top):
                more = _top_bytes(getrandbits, end - len(top) + later * per_cycle)
                top, accepted, pos = top[pos:] + more, accepted[pos:] + more.translate(table), 0
                end = need
            need -= accepted.count(1, pos, end)
            pos = end
    ages[:] = [age + cycles for age in ages]
    return cycles


def attach_twocell(compartment: Compartment, params: TwocellParams) -> None:
    """Give the compartment a fresh two-cell population."""
    if compartment.twocell is not None:
        raise ValueError("compartment already has a two-cell population")
    if "cpu" not in compartment.params.signals:
        raise ValueError("the two-cell detector needs a 'cpu' signal")
    compartment.twocell = TwoCellState(params, compartment.rng)
