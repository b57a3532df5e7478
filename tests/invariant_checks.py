"""Randomized single-case invariant checks, shared by the property suite and
the acceptance suite.

Each function builds one small random instance (bounded by ~50 cells and
~1,000 events), exercises it, and asserts the invariant from independent
observations of compartment state — never from the implementation's own
counters where the counter is the thing under test.
"""
from __future__ import annotations

import random

from aisd.policy import PolicyProvenance, SyscallPolicy, average_policy, evaluate
from aisd.tissue import create_compartment
from aisd.trace_model import Label, SyscallEvent, merge_to_replay_log
from aisd.twocell import TwocellParams, attach_twocell


def _random_params(rng: random.Random, **overrides) -> TwocellParams:
    lo = rng.randint(1, 6)
    kwargs = dict(
        n_type1=rng.randint(1, 10),
        n_type2=rng.randint(1, 40),
        antigen_receptors_per_t1=rng.randint(1, 4),
        antigen_producers_per_t1=rng.randint(1, 5),
        vr_receptors_per_t2=rng.randint(1, 6),
        cell_receptors_per_t2=rng.randint(1, 4),
        cell_lifespan=rng.randint(3, 30),
        min_presentation=lo,
        max_presentation=rng.randint(lo, lo + 12),
        bind_attempts_per_cycle=rng.randint(1, 4),
    )
    # Params once carried an unused seed; the draw stays so every check
    # still builds the same random instances from the same stream.
    rng.randrange(2**30)
    kwargs.update(overrides)
    return TwocellParams(**kwargs)


def _antigen_producers(compartment):
    """(key, presentation_remaining) of every Type 1 producer, as of now."""
    state = compartment.twocell
    return [
        slot
        for keys, timers in zip(state.keys, state.timers)
        for slot in zip(keys, timers)
    ]


def _type2_cells(compartment):
    """(locks, matches, age) of every Type 2 cell, as of now."""
    state = compartment.twocell
    return [
        (tuple(locks), matches, age)
        for locks, matches, age in zip(state.locks, state.matches, state.ages)
    ]


def holds_numbers_only(compartment) -> bool:
    """Whether every stored antigen and every presented key is a plain
    ``int``: the detector sees syscall numbers, never an event's label."""
    presented = [key for keys in compartment.twocell.keys for key in keys if key is not None]
    return all(type(value) is int for value in [*compartment._store, *presented])


def check_antigen_conservation(rng: random.Random) -> None:
    """Store shrinkage per cycle equals antigen newly presented that cycle,
    and so does the cycle's reported consumption; the population's live
    count equals the keys presented."""
    params = _random_params(rng)
    comp = create_compartment(seed=rng.randrange(2**30))
    attach_twocell(comp, params)
    for _ in range(rng.randint(0, 40)):
        comp.add_antigen(rng.randrange(512))
    for _ in range(rng.randint(3, 25)):
        if rng.random() < 0.5:
            comp.add_antigen(rng.randrange(512))
        producers = _antigen_producers(comp)
        live_before = sum(1 for key, _ in producers if key is not None)
        expiring = sum(
            1 for key, remaining in producers if key is not None and remaining == 1
        )
        store_before = comp.antigen_count()
        report = comp.cycle()
        live_after = sum(1 for key, _ in _antigen_producers(comp) if key is not None)
        assert comp.twocell.live == live_after
        newly_presented = live_after - (live_before - expiring)
        assert store_before - comp.antigen_count() == newly_presented
        assert report.antigen_consumed == newly_presented
        assert newly_presented >= 0


def check_presentation_expiry(rng: random.Random) -> None:
    """An antigen presented with period p is visible exactly p cycles."""
    period = rng.randint(1, 15)
    params = _random_params(
        rng,
        n_type1=1,
        antigen_receptors_per_t1=1,
        antigen_producers_per_t1=1,
        min_presentation=period,
        max_presentation=period,
    )
    comp = create_compartment(seed=rng.randrange(2**30))
    attach_twocell(comp, params)
    value = rng.randrange(512)
    comp.add_antigen(value)
    visible = []
    for _ in range(period + rng.randint(1, 5)):
        comp.cycle()
        visible.append(any(key == value for key, _ in _antigen_producers(comp)))
    assert visible[:period] == [True] * period
    assert not any(visible[period:])


def check_response_soundness(rng: random.Random) -> None:
    """No response names a value that was never added to the compartment;
    each cycle reports as many responses as it appended to the log."""
    params = _random_params(rng)
    comp = create_compartment(seed=rng.randrange(2**30))
    attach_twocell(comp, params)
    added: set[int] = set()
    for _ in range(rng.randint(5, 40)):
        for _ in range(rng.randint(0, 25)):
            value = rng.randrange(512)
            comp.add_antigen(value)
            added.add(value)
        logged = len(comp.response_log)
        report = comp.cycle()
        new = comp.response_log[logged:]
        assert report.responses_emitted == len(new)
        assert all(r.cycle == comp.cycle_count for r in new)
    responded = {r.matched_value for r in comp.response_log}
    assert responded <= added


def check_reset_correctness(rng: random.Random) -> None:
    """Locks change only at a reset event; matched cells never reset."""
    params = _random_params(rng, cell_lifespan=rng.randint(3, 12))
    comp = create_compartment(seed=rng.randrange(2**30))
    attach_twocell(comp, params)
    for _ in range(rng.randint(10, 60)):
        if rng.random() < 0.6:
            comp.add_antigen(rng.randrange(512))
        before = _type2_cells(comp)
        comp.cycle()
        after = _type2_cells(comp)
        assert len(after) == len(before) == params.n_type2
        for (locks0, matches0, age0), (locks, matches, age) in zip(before, after):
            if matches0 >= 1:
                assert locks == locks0, "matched cell was re-randomized"
            if locks != locks0:
                assert matches0 == 0
                assert age0 == params.cell_lifespan - 1
                assert age == 0
            if (
                matches0 == 0
                and age0 == params.cell_lifespan - 1
                and matches == 0
            ):
                assert age == 0, "reset missed at lifespan boundary"


def _random_policy(rng: random.Random) -> SyscallPolicy:
    return SyscallPolicy(
        frozenset(rng.randrange(64) for _ in range(rng.randint(0, 20))),
        PolicyProvenance.NAIVE,
    )


def _random_log(rng: random.Random):
    events = [
        SyscallEvent(
            i * 0.01,
            rng.randrange(64),
            label=Label.ATTACK if rng.random() < 0.4 else Label.NORMAL,
        )
        for i in range(rng.randint(0, 1000))
    ]
    return merge_to_replay_log(events, [], "random")


def check_permit_deny_conservation(rng: random.Random) -> None:
    """permit + deny = |events| = normal + attack, with floor percentages."""
    policy = _random_policy(rng)
    log = _random_log(rng)
    row = evaluate(policy, log)
    permit = sum(1 for e in log.syscall_events() if e.syscall_number in policy.permitted)
    attack = sum(1 for e in log.syscall_events() if e.label is Label.ATTACK)
    total = len(log.syscall_events())
    assert row.total == total
    assert row.permit_count == permit
    assert row.permit_count + row.deny_count == total
    assert row.normal_count + row.attack_count == total
    assert row.attack_count == attack
    if total:
        assert row.permit_pct == (100 * permit) // total


def check_union_monotonicity(rng: random.Random) -> None:
    """A subset policy never permits more; a union permits iff any part does."""
    log = _random_log(rng)
    policies = [_random_policy(rng) for _ in range(rng.randint(1, 6))]
    union = average_policy(policies)
    smaller = SyscallPolicy(
        frozenset(v for v in union.permitted if rng.random() < 0.6),
        PolicyProvenance.NAIVE,
    )
    assert evaluate(smaller, log).permit_count <= evaluate(union, log).permit_count
    for event in log.syscall_events():
        in_union = union.permits(event.syscall_number)
        in_any = any(p.permits(event.syscall_number) for p in policies)
        assert in_union == in_any


ALL_CHECKS = (
    check_antigen_conservation,
    check_presentation_expiry,
    check_response_soundness,
    check_reset_correctness,
    check_permit_deny_conservation,
    check_union_monotonicity,
)
