from __future__ import annotations

import math
import random
import sys
import threading

import pytest

import aisd.twocell
from aisd.harness import load_params_file
from aisd.tissue import (
    TissueParams,
    create_compartment,
    format_response_csv,
)
from aisd.trace_model import SYSCALL_RANGE
from aisd.twocell import TwocellParams, attach_twocell


def count_cell_runs(monkeypatch, runs: list):
    """Record (cycle function, cell id, params) for each cell run; the cells still act.

    The wrappers take positional arguments only, as the benchmark's hooks
    on these names rely on.
    """
    for name in ("type1_cycle", "type2_cycle"):
        real = getattr(aisd.twocell, name)

        def counting(*args, _name=name, _real=real):
            cell, comp, params = args
            runs.append((_name, cell, params))
            _real(*args)

        monkeypatch.setattr(aisd.twocell, name, counting)


class TestCreate:
    def test_defaults_empty(self):
        comp = create_compartment(seed=1)
        assert comp.antigen_count() == 0
        assert comp.twocell is None
        assert comp.get_signal("cpu") == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TissueParams(antigen_capacity=0)
        with pytest.raises(ValueError):
            TissueParams(cycles_per_second=0)
        with pytest.raises(ValueError):
            TissueParams(signals=())

    def test_same_seed_same_stream(self):
        a = create_compartment(seed=7)
        b = create_compartment(seed=7)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


class TestInputs:
    def test_antigen_multiplicity(self):
        comp = create_compartment(seed=1)
        comp.add_antigen(5)
        comp.add_antigen(5)
        assert comp.antigen_count() == 2

    def test_negative_antigen_rejected(self):
        comp = create_compartment(seed=1)
        with pytest.raises(ValueError):
            comp.add_antigen(-1)

    @pytest.mark.parametrize("value", [-1, SYSCALL_RANGE, 10**6])
    def test_out_of_range_antigen_rejected(self, value):
        # a value no Type 2 lock can match would otherwise take a store slot,
        # and at capacity evict a real antigen
        comp = create_compartment(TissueParams(antigen_capacity=2), seed=1)
        comp.add_antigen(0)
        comp.add_antigen(SYSCALL_RANGE - 1)
        with pytest.raises(ValueError, match=r"outside \[0, 512\)"):
            comp.add_antigen(value)
        assert list(comp._store) == [0, SYSCALL_RANGE - 1]
        assert (comp.antigen_added_total, comp.antigen_dropped_total) == (2, 0)

    def test_signal_last_writer_wins(self):
        comp = create_compartment(seed=1)
        comp.set_signal("cpu", 0.3)
        comp.set_signal("cpu", 0.7)
        assert comp.get_signal("cpu") == 0.7

    def test_signal_clamped_with_warning(self, caplog):
        comp = create_compartment(seed=1)
        with caplog.at_level("WARNING"):
            comp.set_signal("cpu", 1.5)
        assert comp.get_signal("cpu") == 1.0
        assert "clamped" in caplog.text
        comp.set_signal("cpu", 0.5)
        comp.set_signal("cpu", -0.25)
        assert comp.get_signal("cpu") == 0.0
        assert (comp.signals_set_total, comp.signals_clamped_total) == (3, 2)

    def test_unknown_signal(self):
        comp = create_compartment(seed=1)
        with pytest.raises(ValueError, match="unknown signal"):
            comp.set_signal("disk", 0.5)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_signal_rejected(self, level):
        comp = create_compartment(seed=1)
        comp.set_signal("cpu", 0.25)
        with pytest.raises(ValueError, match="finite"):
            comp.set_signal("cpu", level)
        assert comp.get_signal("cpu") == 0.25
        assert comp.signals_set_total == 1

    def test_capacity_drops_oldest(self):
        comp = create_compartment(TissueParams(antigen_capacity=3), seed=1)
        for value in (10, 11, 12, 13):
            comp.add_antigen(value)
        assert comp.antigen_count() == 3
        assert list(comp._store) == [11, 12, 13]

    @pytest.mark.parametrize("batches", [[5], [3, 0, 4], [12], [2, 9, 1]])
    def test_add_events_equals_add_antigen(self, batches):
        n = sum(batches)
        numbers = tuple(k % 11 for k in range(n))
        one_by_one = create_compartment(TissueParams(antigen_capacity=4), seed=1)
        batched = create_compartment(TissueParams(antigen_capacity=4), seed=1)
        start = 0
        for size in batches:
            end = start + size
            for number in numbers[start:end]:
                one_by_one.add_antigen(number)
            batched.add_events(numbers[start:end])
            start = end
            assert list(batched._store) == list(one_by_one._store)
            assert batched.antigen_added_total == one_by_one.antigen_added_total
            assert batched.antigen_dropped_total == one_by_one.antigen_dropped_total
        assert batched.antigen_added_total == n
        assert batched.antigen_dropped_total == max(0, n - 4)

    def test_dropped_antigen_counted(self):
        # capacity 4: 3 fit, a batch of 10 drops 9, two draws make room for
        # two more without a drop, then one more drops one
        batches = [(3, 0, 0), (10, 0, 9), (0, 2, 9), (2, 0, 9), (1, 0, 10)]
        single = create_compartment(TissueParams(antigen_capacity=4), seed=1)
        batched = create_compartment(TissueParams(antigen_capacity=4), seed=1)
        for size, draws, dropped in batches:
            numbers = tuple(range(size))
            for number in numbers:
                single.add_antigen(number)
            batched.add_events(numbers)
            for _ in range(draws):
                assert single.draw_antigen() == batched.draw_antigen()
            assert single.antigen_dropped_total == batched.antigen_dropped_total == dropped
            assert list(single._store) == list(batched._store)
        assert batched.antigen_added_total == 16
        assert batched.antigen_added_total == (
            batched.antigen_dropped_total + 2 + batched.antigen_count()
        )

    def test_counters_hold_under_concurrent_writers_and_cycles(self):
        # two wire-session-like writers fill a small store while a pacer-like
        # thread cycles it; a short switch interval forces interleaving
        comp = create_compartment(TissueParams(antigen_capacity=8), seed=1)
        attach_twocell(comp, TwocellParams())
        adds_per_writer = 20_000
        done = threading.Event()

        def write(offset):
            for k in range(adds_per_writer):
                comp.add_antigen((offset + k) % SYSCALL_RANGE)

        def cycle():
            while not done.is_set():
                comp.cycle()

        writers = [threading.Thread(target=write, args=(n * 100,)) for n in range(2)]
        cycler = threading.Thread(target=cycle)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cycler.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        cycler.join(timeout=60)
        assert not cycler.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        assert comp.antigen_added_total == 2 * adds_per_writer
        assert comp.antigen_added_total == (
            comp.antigen_dropped_total + comp.antigen_consumed_total + comp.antigen_count()
        )
        assert comp.cycle_count > 0

        taken = []

        def take_lock():
            got = comp._lock.acquire(timeout=1)
            taken.append(got)
            if got:
                comp._lock.release()

        taker = threading.Thread(target=take_lock)
        taker.start()
        taker.join(timeout=5)
        assert taken == [True]


class TestPopulate:
    def test_counts_and_unique_ids(self, monkeypatch):
        comp = create_compartment(seed=1)
        attach_twocell(comp, TwocellParams(n_type1=10, n_type2=10))
        assert (comp.twocell.n1, comp.twocell.n2) == (10, 10)
        runs: list = []
        count_cell_runs(monkeypatch, runs)
        # an idle cycle, then one with something to present: one call per
        # cell either way, in the order rng.shuffle gives from the same state
        for busy in (False, True):
            if busy:
                comp.add_antigen(5)
            shuffled = random.Random()
            shuffled.setstate(comp.rng.getstate())
            order = list(range(20))
            shuffled.shuffle(order)
            runs.clear()
            comp.cycle()
            cells = [cell for _, cell, _ in runs]
            assert sorted(cells) == list(range(20))
            assert cells == order
        assert comp.idle_cycles_total == 1

    def test_zero_count_noop(self):
        with pytest.raises(ValueError):
            TwocellParams(n_type1=0)
        # without a population a cycle runs nothing and draws nothing
        comp = create_compartment(seed=1)
        for _ in range(3):
            comp.cycle()
        assert comp.rng.getstate() == random.Random(1).getstate()

    def test_two_calls_never_collide(self):
        comp = create_compartment(seed=1)
        attach_twocell(comp, TwocellParams(n_type1=3, n_type2=3))
        state = comp.twocell
        with pytest.raises(ValueError, match="already"):
            attach_twocell(comp, TwocellParams(n_type1=3, n_type2=3))
        assert comp.twocell is state


class TestCycle:
    def test_empty_population(self):
        comp = create_compartment(seed=1)
        report = comp.cycle()
        assert (report.antigen_consumed, report.responses_emitted) == (0, 0)
        assert comp.cycle_count == 1

    def test_deterministic_reports(self):
        def run():
            comp = create_compartment(seed=3)
            attach_twocell(comp, TwocellParams())
            reports = []
            for i in range(50):
                if i % 5 == 0:
                    comp.add_antigen(5)
                    comp.set_signal("cpu", 0.5)
                reports.append(comp.cycle())
            return reports, comp.response_log

        (r1, log1), (r2, log2) = run(), run()
        assert r1 == r2
        assert log1 == log2

    def test_consumption_bounded_by_receptors(self):
        # 1 Type 1 cell, 2 antigen receptors, 3 antigen available
        comp = create_compartment(seed=1)
        params = TwocellParams(
            n_type1=1, n_type2=1, antigen_receptors_per_t1=2,
            antigen_producers_per_t1=5,
        )
        attach_twocell(comp, params)
        for value in (5, 5, 6):
            comp.add_antigen(value)
        report = comp.cycle()
        assert report.antigen_consumed <= 2

    def test_fairness_every_cell_every_cycle(self, monkeypatch):
        params = TwocellParams(n_type1=4, n_type2=6)
        comp = create_compartment(seed=1)
        attach_twocell(comp, params)
        runs: list = []
        count_cell_runs(monkeypatch, runs)
        orders = set()
        for i in range(1000):
            if i % 3 == 0:
                comp.add_antigen(i % 512)
            runs.clear()
            comp.cycle()
            assert sorted(cell for _, cell, _ in runs) == list(range(10))
            for name, cell, passed in runs:
                assert name == ("type1_cycle" if cell < 4 else "type2_cycle")
                assert passed is params  # third positional argument
            orders.add(tuple(cell for _, cell, _ in runs))
        assert len(orders) > 1  # the order is reshuffled every cycle


class TestRandomStream:
    """The cycle's inline draws consume the stream exactly as the stdlib's
    public ``shuffle`` and ``randrange`` do."""

    @pytest.mark.parametrize(
        "n1, n2, seed", [(10, 20, 1), (4, 4, 2), (1, 1, 3), (3, 13, 4), (16, 16, 5)]
    )
    def test_cycle_equals_shuffle_then_bind_draws(self, monkeypatch, n1, n2, seed):
        params = TwocellParams(n_type1=n1, n_type2=n2, vr_receptors_per_t2=3)
        comp = create_compartment(seed=seed)
        attach_twocell(comp, params)
        runs: list = []
        count_cell_runs(monkeypatch, runs)
        comp.cycle()  # idle: Type 1 cells draw nothing

        expected = random.Random(seed)
        for _ in range(n2 * 3):
            expected.randrange(SYSCALL_RANGE)  # the locks drawn at attach
        order = list(range(n1 + n2))
        expected.shuffle(order)
        for _ in range(comp.twocell.binds * n2):
            expected.randrange(n1)
        assert comp.rng.getstate() == expected.getstate()
        assert [cell for _, cell, _ in runs] == order

        runs.clear()
        comp.add_antigen(7)
        comp.cycle()  # the first Type 1 cell in the order draws the antigen
        order = list(range(n1 + n2))
        expected.shuffle(order)
        drawn = False
        for cell in order:
            if cell >= n1:
                for _ in range(comp.twocell.binds):
                    expected.randrange(n1)
            elif not drawn:
                expected.randrange(1)  # draw_antigen from a store of one
                drawn = True
        assert comp.rng.getstate() == expected.getstate()
        assert [cell for _, cell, _ in runs] == order

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 512, 1000])
    def test_draw_antigen_equals_randrange(self, size):
        comp = create_compartment(seed=size)
        store = [value % SYSCALL_RANGE for value in range(size)]
        for value in store:
            comp.add_antigen(value)
        expected = random.Random()
        expected.setstate(comp.rng.getstate())
        while store:
            assert comp.draw_antigen() == store.pop(expected.randrange(len(store)))
            assert comp.rng.getstate() == expected.getstate()
        assert comp.draw_antigen() is None
        assert comp.rng.getstate() == expected.getstate()


class TestParamsFile:
    """The tissue keys of a params file, read by ``harness.load_params_file``."""

    def read(self, tmp_path, text):
        path = tmp_path / "params.txt"
        path.write_text(text)
        return load_params_file(path)

    def test_parse_kv(self, tmp_path):
        params, _, extras = self.read(
            tmp_path, "# comment\nsignals = cpu\nantigen_capacity = 50\n"
        )
        assert params == TissueParams(signals=("cpu",), antigen_capacity=50)
        assert extras == {}

    def test_parse_kv_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            self.read(tmp_path, "nonsense\n")

    def test_tissue_params_from_kv(self, tmp_path):
        params, _, _ = self.read(
            tmp_path, "signals = cpu,net\nantigen_capacity = 500\ncycles_per_second = 5\n"
        )
        assert params.signals == ("cpu", "net")
        assert params.antigen_capacity == 500
        assert params.cycles_per_second == 5.0


def test_response_csv_format():
    comp = create_compartment(seed=1)
    comp.cycle_count = 4
    comp.emit_response(3, 5)
    text = format_response_csv(comp.response_log)
    lines = text.splitlines()
    assert lines[0] == "cycle,wall_time,cell_id,syscall_number,syscall_name"
    assert lines[1] == "4,0.400,3,5,open"
