from __future__ import annotations

import random

import pytest

import aisd.twocell
from aisd.tissue import TissueParams, create_compartment
from aisd.trace_model import SYSCALL_RANGE
from aisd.twocell import (
    TwocellParams,
    attach_twocell,
    params_from_kv,
    presentation_period,
    type2_cycle,
)


def population(params, seed=0):
    comp = create_compartment(seed=seed)
    attach_twocell(comp, params)
    return comp.twocell


def antigen_producers(comp, cell=0):
    """(key, presentation_remaining) of each producer of a Type 1 cell."""
    state = comp.twocell
    return list(zip(state.keys[cell], state.timers[cell]))


def vr_locks(comp, k=0):
    """The VR locks of the k-th Type 2 cell."""
    return list(comp.twocell.locks[k])


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwocellParams(n_type1=0)
        with pytest.raises(ValueError):
            TwocellParams(min_presentation=10, max_presentation=5)

    def test_from_kv_prefix(self):
        params = params_from_kv({"twocell.n_type1": "4", "twocell.cell_lifespan": "7"})
        assert params.n_type1 == 4
        assert params.cell_lifespan == 7
        assert params.n_type2 == TwocellParams().n_type2


class TestPresentationPeriod:
    @pytest.mark.parametrize(
        "cpu,expected", [(0.0, 5), (1.0, 45), (0.5, 25)]
    )
    def test_linear_map(self, cpu, expected):
        params = TwocellParams(min_presentation=5, max_presentation=45)
        assert presentation_period(cpu, params) == expected

    def test_monotone(self):
        params = TwocellParams(min_presentation=5, max_presentation=50)
        periods = [presentation_period(i / 100, params) for i in range(101)]
        assert periods == sorted(periods)


class TestPopulation:
    def test_counts_and_repertoires(self):
        params = TwocellParams(n_type1=2, n_type2=3, vr_receptors_per_t2=4)
        state = population(params, seed=1)
        assert (state.n1, state.n2) == (2, 3)
        assert state.params is params
        producers = params.antigen_producers_per_t1
        assert state.keys == [[None] * producers] * 2
        assert state.timers == [[0] * producers] * 2
        assert len(state.locks) == 3
        assert all(len(locks) == 4 for locks in state.locks)
        assert state.matches == [0, 0, 0]
        assert state.ages == [0, 0, 0]

    def test_locks_within_range(self):
        state = population(TwocellParams(n_type2=30), seed=2)
        for locks in state.locks:
            assert all(0 <= lock < SYSCALL_RANGE for lock in locks)

    def test_needs_cpu_signal(self):
        comp = create_compartment(TissueParams(signals=("net",)), seed=1)
        with pytest.raises(ValueError, match="cpu"):
            attach_twocell(comp, TwocellParams())
        assert comp.twocell is None

    def test_seed_determinism(self):
        params = TwocellParams(vr_receptors_per_t2=3)
        a = population(params, seed=9)
        b = population(params, seed=9)
        assert a.locks == b.locks
        # locks are the compartment stream's first draws, cell by cell
        rng = random.Random(9)
        expected = [
            [rng.randrange(SYSCALL_RANGE) for _ in range(3)] for _ in range(params.n_type2)
        ]
        assert a.locks == expected


class TestType1:
    def make(self, params):
        comp = create_compartment(seed=4)
        attach_twocell(comp, params)
        return comp

    def test_ingests_up_to_receptor_count(self):
        params = TwocellParams(
            n_type1=1, n_type2=1, antigen_receptors_per_t1=2,
            antigen_producers_per_t1=4,
        )
        comp = self.make(params)
        for value in (5, 5, 6):
            comp.add_antigen(value)
        report = comp.cycle()
        assert report.antigen_consumed == 2
        assert comp.antigen_count() == 1

    def test_cpu_zero_gives_min_presentation(self):
        params = TwocellParams(n_type1=1, n_type2=1, min_presentation=5,
                               max_presentation=45)
        comp = self.make(params)
        comp.add_antigen(7)
        comp.cycle()
        presented = [p for p in antigen_producers(comp) if p[0] is not None]
        assert presented[0][1] == 5

    def test_cpu_one_gives_max_presentation(self):
        params = TwocellParams(n_type1=1, n_type2=1, min_presentation=5,
                               max_presentation=45)
        comp = self.make(params)
        comp.set_signal("cpu", 1.0)
        comp.add_antigen(7)
        comp.cycle()
        presented = [p for p in antigen_producers(comp) if p[0] is not None]
        assert presented[0][1] == 45

    def test_presented_exactly_period_cycles(self):
        period = 3
        params = TwocellParams(n_type1=1, n_type2=1, min_presentation=period,
                               max_presentation=period)
        comp = self.make(params)
        comp.add_antigen(9)
        visible = []
        for _ in range(period + 3):
            comp.cycle()
            visible.append(any(key == 9 for key, _ in antigen_producers(comp)))
        assert visible == [True] * period + [False] * 3


class TestType2:
    def test_exact_match_emits_response(self):
        # one Type 1 presenting value 5; Type 2 locks rigged to {5, 90}
        params = TwocellParams(
            n_type1=1, n_type2=1, vr_receptors_per_t2=2,
            min_presentation=10, max_presentation=10,
        )
        comp = create_compartment(seed=11)
        attach_twocell(comp, params)
        state = comp.twocell
        state.locks[0][:] = [5, 90]
        comp.add_antigen(5)
        comp.cycle()  # presentation happens; match may occur same cycle
        comp.cycle()  # guaranteed visible now
        values = [r.matched_value for r in comp.response_log]
        assert 5 in values
        assert state.matches[0] == len(values)
        assert all(v == 5 for v in values)
        assert {r.cell_id for r in comp.response_log} == {state.n1}

    def test_no_type1_still_ages(self):
        params = TwocellParams(n_type1=1, n_type2=1)
        comp = create_compartment(seed=1)
        attach_twocell(comp, params)
        state = comp.twocell
        state.keys = []  # empty bind set
        type2_cycle(state.n1, comp, params)
        assert state.ages[0] == 1
        assert comp.response_log == []

    def test_binds_per_cycle(self):
        # one bind draw per cell receptor, up to the attempt budget
        for receptors, attempts in ((2, 3), (3, 1), (4, 4)):
            params = TwocellParams(
                n_type1=5, n_type2=1, cell_receptors_per_t2=receptors,
                bind_attempts_per_cycle=attempts, cell_lifespan=50,
            )
            comp = create_compartment(seed=8)
            attach_twocell(comp, params)
            expected = random.Random()
            expected.setstate(comp.rng.getstate())
            type2_cycle(comp.twocell.n1, comp, params)
            for _ in range(min(receptors, attempts)):
                expected.randrange(params.n_type1)
            assert comp.rng.getstate() == expected.getstate()

    def test_reset_fires_at_exactly_lifespan(self):
        lifespan = 6
        params = TwocellParams(n_type1=1, n_type2=1, cell_lifespan=lifespan)
        comp = create_compartment(seed=5)
        attach_twocell(comp, params)
        before = vr_locks(comp)
        for cycle in range(1, lifespan):
            comp.cycle()
            assert vr_locks(comp) == before, f"reset too early at cycle {cycle}"
            assert comp.twocell.ages[0] == cycle
        comp.cycle()
        assert comp.twocell.ages[0] == 0  # randomization event at exactly `lifespan`

    def test_matched_cell_never_resets(self):
        params = TwocellParams(
            n_type1=1, n_type2=1, vr_receptors_per_t2=2, cell_lifespan=5,
            min_presentation=8, max_presentation=8,
        )
        comp = create_compartment(seed=2)
        attach_twocell(comp, params)
        comp.twocell.locks[0][0] = 42
        comp.add_antigen(42)
        for _ in range(3):
            comp.cycle()
        assert comp.twocell.matches[0] >= 1
        locks_at_match = vr_locks(comp)
        for _ in range(40):
            comp.cycle()
        assert vr_locks(comp) == locks_at_match

    def test_rate_coupling_cross_correlation(self):
        # responses trail antigen: peak cross-correlation sits at lag >= 0
        from collections import Counter

        from aisd.harness import offline_cycles
        from aisd.scenarios import ScenarioKind, ScenarioProfile, synthesize_scenario

        profile = ScenarioProfile(
            name="xcorr", kind=ScenarioKind.SUCCESS, startup_burst=0,
            shutdown_burst=None, attack_bursts=((80, 8),), interaction_events=0,
            duration=25, seed=77,
        )
        log = synthesize_scenario(profile)
        comp = create_compartment(seed=7)
        attach_twocell(comp, TwocellParams())
        cps = comp.params.cycles_per_second
        for _ in offline_cycles(log, comp, tail_time=20.0):
            pass
        assert comp.response_log
        seconds = int(comp.cycle_count / cps)
        antigen = Counter(int(e.timestamp) for e in log.syscall_events())
        responses = Counter(int(r.wall_time) for r in comp.response_log)
        a = [antigen.get(s, 0) for s in range(seconds)]
        r = [responses.get(s, 0) for s in range(seconds)]

        def xcorr(lag):
            if lag >= 0:
                pairs = zip(a, r[lag:])
            else:
                pairs = zip(a[-lag:], r)
            return sum(x * y for x, y in pairs)

        lags = range(-10, 11)
        best = max(lags, key=xcorr)
        assert best >= 0
        assert xcorr(best) > 0

    def test_matching_does_not_consume_antigen(self):
        params = TwocellParams(
            n_type1=1, n_type2=1, vr_receptors_per_t2=1,
            min_presentation=6, max_presentation=6,
        )
        comp = create_compartment(seed=3)
        attach_twocell(comp, params)
        comp.twocell.locks[0][0] = 8
        comp.add_antigen(8)
        comp.cycle()
        comp.cycle()
        comp.cycle()
        # matched every cycle it is visible, and it stays the full period
        assert any(key == 8 for key, _ in antigen_producers(comp))
        assert comp.twocell.matches[0] >= 2


def reference_run_cells(compartment):
    """The cycle with no fast path: ``rng.shuffle`` of the ids, then one
    per-cell call per id."""
    state = compartment.twocell
    order = list(range(state.n1 + state.n2))
    compartment.rng.shuffle(order)
    for cell in order:
        if cell < state.n1:
            aisd.twocell.type1_cycle(cell, compartment, state.params)
        else:
            aisd.twocell.type2_cycle(cell, compartment, state.params)


class TestIdleFastPath:
    RIGGED = 5  # the first Type 2 cell's first lock, fed in as antigen

    @pytest.mark.parametrize(
        "n1, n2, lifespan, seed", [(10, 20, 3, 1), (1, 2, 1, 2), (3, 13, 5, 3), (4, 4, 2, 4)]
    )
    def test_equals_per_cell_dispatch(self, monkeypatch, n1, n2, lifespan, seed):
        params = TwocellParams(
            n_type1=n1, n_type2=n2, cell_lifespan=lifespan,
            min_presentation=1, max_presentation=8,
        )
        fast, ref = create_compartment(seed=seed), create_compartment(seed=seed)
        for comp in (fast, ref):
            attach_twocell(comp, params)
            comp.twocell.locks[0][0] = self.RIGGED
        inputs = random.Random(seed + 100)
        idle = busy = idle_resets = 0
        for cycle in range(400):
            # bursts of antigen, then quiet stretches longer than any presentation
            if cycle % 40 < 12 and inputs.random() < 0.7:
                level = inputs.random()
                values = [inputs.choice((self.RIGGED, inputs.randrange(64)))
                          for _ in range(inputs.randint(1, 4))]
                for comp in (fast, ref):
                    comp.set_signal("cpu", level)
                    for value in values:
                        comp.add_antigen(value)
            idle_before = fast.idle_cycles_total
            resets_before = fast.type2_resets_total
            with monkeypatch.context() as m:
                m.setattr(aisd.twocell, "run_cells", reference_run_cells)
                expected = ref.cycle()
            report = fast.cycle()

            assert report == expected
            assert fast.rng.getstate() == ref.rng.getstate()
            a, b = fast.twocell, ref.twocell
            assert (a.keys, a.timers, a.locks, a.matches, a.ages) == (
                b.keys, b.timers, b.locks, b.matches, b.ages
            )
            assert a.live == b.live == sum(k is not None for keys in a.keys for k in keys)
            assert fast.response_log == ref.response_log
            assert fast.type2_resets_total == ref.type2_resets_total
            assert fast.antigen_count() == ref.antigen_count()
            if fast.idle_cycles_total > idle_before:
                idle += 1
                idle_resets += fast.type2_resets_total > resets_before
            else:
                busy += 1
        assert ref.idle_cycles_total == 0
        # every kind of cycle was exercised
        assert idle > 50 and busy > 50
        assert idle_resets > 0
        assert fast.twocell.matches[0] > 0


def run_totals(comp) -> dict[str, int]:
    return {name: value for name, value in vars(comp).items() if name.endswith("_total")}


class TestIdleStretch:
    def test_getrandbits_word_layout(self):
        """The layout the idle kernel reads: getrandbits(k), k <= 32, is the
        top k bits of one 32-bit word, and getrandbits(32 * m) holds m
        words with the first in the lowest 32 bits."""
        for seed in range(3):
            words, draws = random.Random(seed), random.Random(seed)
            for k in range(1, 33):
                assert draws.getrandbits(k) == words.getrandbits(32) >> (32 - k)
            for m in (1, 2, 7, 64):
                expected = sum(words.getrandbits(32) << (32 * i) for i in range(m))
                assert draws.getrandbits(32 * m) == expected
            assert draws.getstate() == words.getstate()

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (3, 13), (10, 20), (100, 155)])
    @pytest.mark.parametrize("lifespan", [1, 2, 3, 100])
    def test_equals_per_cycle_run_cells(self, n1, n2, lifespan):
        """A stretch leaves the RNG, the population and the totals where one
        ``cycle()`` per stepped cycle leaves its twin."""
        params = TwocellParams(n_type1=n1, n_type2=n2, cell_lifespan=lifespan)
        fast, ref = create_compartment(seed=n2), create_compartment(seed=n2)
        for comp in (fast, ref):
            attach_twocell(comp, params)
        inputs = random.Random(n1 * 1000 + lifespan)
        # (limit, every cell matched)
        limits = [(1, False), (2, False), (3, False), (300, True)]
        limits += [(inputs.randint(1, 300), inputs.random() < 0.3) for _ in range(20)]
        lengths = set()
        for limit, matched in limits:
            # some cells matched, some ages one or two short of a reset
            matches = [int(matched or inputs.random() < 0.3) for _ in range(n2)]
            ages = [
                inputs.choice((0, lifespan - 1, max(0, lifespan - 2), inputs.randrange(lifespan)))
                for _ in range(n2)
            ]
            for comp in (fast, ref):
                comp.twocell.matches[:] = matches
                comp.twocell.ages[:] = ages
            stepped = fast.idle_stretch(limit)
            for _ in range(stepped):
                ref.cycle()
            due = [lifespan - 1 - age for age, m in zip(ages, matches) if not m]
            assert stepped == max(0, min([limit, *due]))
            lengths.add(stepped)

            assert fast.rng.getstate() == ref.rng.getstate()
            a, b = fast.twocell, ref.twocell
            assert (a.locks, a.matches, a.ages) == (b.locks, b.matches, b.ages)
            assert run_totals(fast) == run_totals(ref)
            assert fast.cycle_count == ref.cycle_count
            # the next cycle, maybe a reset, continues the same stream
            assert fast.cycle() == ref.cycle()
            assert fast.rng.getstate() == ref.rng.getstate()
            assert (a.locks, a.ages) == (b.locks, b.ages)
        assert {0, 300} <= lengths
        assert len(lengths) > 3 or lifespan == 1  # then an unmatched cell always blocks

    @pytest.mark.parametrize("n1, n2", [(1, 1), (10, 20)])
    def test_every_stretch_length(self, n1, n2):
        """Stretches of each length 1..300 in turn, every cell matched so
        that no reset cuts them short, track one cycle() per cycle."""
        fast, ref = create_compartment(seed=7), create_compartment(seed=7)
        for comp in (fast, ref):
            attach_twocell(comp, TwocellParams(n_type1=n1, n_type2=n2))
            comp.twocell.matches[:] = [1] * n2
        for limit in range(1, 301):
            assert fast.idle_stretch(limit) == limit
            for _ in range(limit):
                ref.cycle()
            assert fast.rng.getstate() == ref.rng.getstate()
        assert fast.twocell.ages == ref.twocell.ages == [150 * 301] * n2
        assert run_totals(fast) == run_totals(ref)

    def test_zero_when_not_idle(self):
        params = TwocellParams(cell_lifespan=10)
        comp = create_compartment(seed=1)
        attach_twocell(comp, params)
        state = comp.twocell
        comp.add_antigen(5)  # something in the store
        before = comp.rng.getstate()
        assert comp.idle_stretch(50) == 0
        assert comp.rng.getstate() == before
        comp.cycle()
        assert comp.antigen_count() == 0 and state.live == 1  # now presented
        before = comp.rng.getstate()
        assert comp.idle_stretch(50) == 0
        assert comp.rng.getstate() == before
        assert comp.cycle_count == 1 and comp.idle_cycles_total == 0

    def test_zero_when_a_reset_is_due_next_cycle(self):
        params = TwocellParams(cell_lifespan=10)
        comp = create_compartment(seed=1)
        attach_twocell(comp, params)
        comp.twocell.ages[3] = 9
        before = comp.rng.getstate()
        assert comp.idle_stretch(50) == 0
        assert comp.rng.getstate() == before
        assert comp.cycle_count == comp.idle_cycles_total == 0
        comp.twocell.matches[3] = 1  # a matched cell never resets
        assert comp.idle_stretch(50) == 9  # the others, at age 0, reset at 10
        assert comp.twocell.ages[3] == 18 and comp.twocell.ages[0] == 9

    def test_no_kernel_above_255_cells(self):
        for n1, n2, kernel in ((100, 155, True), (100, 156, False), (1, 255, False)):
            comp = create_compartment(seed=1)
            attach_twocell(comp, TwocellParams(n_type1=n1, n_type2=n2))
            assert (comp.twocell.idle_kernel is not None) is kernel
            before = comp.rng.getstate()
            assert comp.idle_stretch(5) == (5 if kernel else 0)
            assert (comp.rng.getstate() == before) is not kernel
