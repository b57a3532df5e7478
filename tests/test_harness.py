from __future__ import annotations

import hashlib
import math
import random
import time
from itertools import repeat
from pathlib import Path

import pytest

import aisd.harness
from aisd.harness import (
    ExperimentPlan,
    PlanDataset,
    load_params_file,
    parse_plan,
    run_offline,
    run_single_offline,
    run_single_realtime,
)
from aisd.scenarios import ScenarioKind
from aisd.tissue import Compartment, TissueParams, create_compartment
from aisd.trace_model import Label, SignalSample, SyscallEvent, merge_to_replay_log
from aisd.twocell import TwocellParams, attach_twocell

FAST_TISSUE = TissueParams(cycles_per_second=10.0)
FAST_TWOCELL = TwocellParams()


def small_plan(files, runs=2, seed_base=500, tail=5.0):
    return ExperimentPlan(
        datasets=(
            PlanDataset(str(files["normal1"]), ScenarioKind.NORMAL),
            PlanDataset(str(files["failure1"]), ScenarioKind.FAILURE),
        ),
        runs_per_dataset=runs,
        tail_time=tail,
        seed_base=seed_base,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPlanParsing:
    def test_parse(self, tmp_path):
        text = (
            "# plan\n"
            "dataset = logs/normal1.tcr normal\n"
            "dataset = logs/success1.tcr success\n"
            "runs_per_dataset = 3\n"
            "start_delay = 1\n"
            "tail_time = 2\n"
            "rate_multiplier = 5\n"
            "seed_base = 77\n"
        )
        plan = parse_plan(text, base_dir=tmp_path)
        assert len(plan.datasets) == 2
        assert plan.datasets[0].name == "normal1"
        assert plan.datasets[0].group is ScenarioKind.NORMAL
        assert plan.datasets[0].path == str(tmp_path / "logs/normal1.tcr")
        assert plan.runs_per_dataset == 3
        assert plan.seed_base == 77

    @pytest.mark.parametrize("key", ["runs_per_datset", "datasets", "seed", "tail"])
    def test_unknown_plan_key(self, key):
        with pytest.raises(ValueError, match=f"line 2: unknown plan key '{key}'"):
            parse_plan(f"runs_per_dataset = 3\n{key} = 4\n")

    def test_bad_dataset_line(self):
        with pytest.raises(ValueError, match="dataset"):
            parse_plan("dataset = onlyonepart\n")

    @pytest.mark.parametrize(
        "key", ["runs_per_dataset", "start_delay", "tail_time", "rate_multiplier", "seed_base"]
    )
    def test_bad_value_names_key_and_line(self, key):
        with pytest.raises(ValueError, match=f"^line 3: bad value for '{key}': .*'ten'$"):
            parse_plan(f"# plan\ndataset = a.tcr normal\n{key} = ten\n")

    @pytest.mark.parametrize("key", ["start_delay", "tail_time", "rate_multiplier"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_key_and_line(self, key, token):
        with pytest.raises(ValueError, match=f"^line 3: bad value for '{key}': {key} must be finite"):
            parse_plan(f"# plan\ndataset = a.tcr normal\n{key} = {token}\n")
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ExperimentPlan(datasets=(), **{key: float(token)})

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_params_file_non_finite_cycle_rate(self, tmp_path, token):
        params = tmp_path / "params.txt"
        params.write_text(f"signals = cpu\ncycles_per_second = {token}\n")
        with pytest.raises(ValueError, match="^cycles_per_second must be finite and > 0"):
            load_params_file(params)

    def test_absent_keys_keep_plan_defaults(self, tmp_path):
        plan = parse_plan("dataset = a.tcr normal\n", base_dir=tmp_path)
        datasets = (PlanDataset(str(tmp_path / "a.tcr"), ScenarioKind.NORMAL),)
        assert plan == ExperimentPlan(datasets=datasets)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(datasets=(), runs_per_dataset=0)

    def test_params_file(self, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text(
            "signals = cpu\ncycles_per_second = 20\ntwocell.n_type2 = 7\n"
        )
        tissue, twocell = load_params_file(params)
        assert tissue.cycles_per_second == 20.0
        assert twocell.n_type2 == 7

    @pytest.mark.parametrize(
        "line, key", [("twocell.n_type1 = 1.5", "twocell.n_type1"),
                      ("antigen_capacity = lots", "antigen_capacity")],
    )
    def test_params_file_bad_value_names_key(self, tmp_path, line, key):
        params = tmp_path / "params.txt"
        params.write_text(f"signals = cpu\n{line}\n")
        with pytest.raises(ValueError, match=f"^bad value for '{key}': "):
            load_params_file(params)

    @pytest.mark.parametrize("key", ["twocell.n_typ1", "antigen_capacty", "twocell.seed", "seed"])
    def test_params_file_unknown_key(self, tmp_path, key):
        params = tmp_path / "params.txt"
        params.write_text(f"signals = cpu\n{key} = 4\n")
        with pytest.raises(ValueError, match=f"unknown params key '{key}'"):
            load_params_file(params)


class TestOfflineExperiment:
    def test_artifact_layout(self, bundled_files, tmp_path):
        plan = small_plan(bundled_files)
        result = run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        out = tmp_path / "exp"
        assert result.policies_written() == 4
        for dataset in ("normal1", "failure1"):
            for k in range(2):
                run_dir = out / dataset / f"run-{k}"
                assert (run_dir / "responses.csv").is_file()
                assert (run_dir / "policy.txt").is_file()
                assert (run_dir / "seed.txt").is_file()
        assert (out / "naive-policy.txt").is_file()
        assert (out / "average-policy.txt").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "report.csv").is_file()

    def test_seeds_are_sequential(self, bundled_files, tmp_path):
        plan = small_plan(bundled_files, seed_base=900)
        result = run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert [r.seed for r in result.runs] == [900, 901, 902, 903]
        seed_file = tmp_path / "exp" / "normal1" / "run-1" / "seed.txt"
        assert seed_file.read_text() == "901\n"

    def test_single_run_average_equals_policy(self, bundled_files, tmp_path):
        plan = ExperimentPlan(
            datasets=(PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),),
            runs_per_dataset=1,
            tail_time=5.0,
            seed_base=11,
        )
        result = run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert result.average is not None
        assert result.average.permitted == result.runs[0].policy.permitted
        assert result.reference.permitted == result.runs[0].policy.permitted

    def test_determinism_byte_identical(self, bundled_files, tmp_path):
        plan = small_plan(bundled_files)
        run_offline(plan, tmp_path / "a", FAST_TISSUE, FAST_TWOCELL)
        run_offline(plan, tmp_path / "b", FAST_TISSUE, FAST_TWOCELL)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_unreadable_dataset_marks_runs_failed(self, bundled_files, tmp_path):
        plan = ExperimentPlan(
            datasets=(
                PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
                PlanDataset(str(tmp_path / "missing.tcr"), ScenarioKind.FAILURE),
            ),
            runs_per_dataset=2,
            tail_time=5.0,
        )
        result = run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        failed = [r for r in result.runs if r.failed]
        assert len(failed) == 2
        assert all(r.dataset == "missing" for r in failed)
        assert result.policies_written() == 2
        assert (tmp_path / "exp" / "missing" / "run-0" / "failed.txt").is_file()

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.tcr"
        empty.write_text("# scenario empty\n")
        plan = ExperimentPlan(
            datasets=(PlanDataset(str(empty), ScenarioKind.NORMAL),),
            runs_per_dataset=1,
            tail_time=2.0,
        )
        result = run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert result.runs[0].policy.permitted == frozenset()
        assert result.stats["empty"].as_tuple() == (0, 0, 0)

    def test_report_sections(self, bundled_files, tmp_path):
        plan = small_plan(bundled_files)
        run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        report = (tmp_path / "exp" / "report.txt").read_text()
        assert "== dataset statistics ==" in report
        stats_line = next(l for l in report.splitlines() if l.startswith("failure1"))
        assert stats_line.split() == ["failure1", "54", "518", "405"]
        assert "== response frequencies per run ==" in report
        assert "== policy comparison ==" in report
        assert "naive permit" in report


class TestOfflineVsRealtime:
    def test_offline_much_faster_than_realtime_span(self, bundled_files):
        # a 38 s dataset must replay offline in well under a tenth of it
        from aisd.trace_model import read_replay_log

        log = read_replay_log(bundled_files["normal1"])
        start = time.monotonic()
        run_single_offline(log, FAST_TISSUE, FAST_TWOCELL, seed=4, tail_time=5.0)
        assert time.monotonic() - start < 3.8

    def test_policy_sets_overlap(self, bundled_files):
        # realtime timing jitters records across cycle boundaries, so exact
        # equality is not expected; the response repertoires must agree well
        from aisd.trace_model import read_replay_log

        log = read_replay_log(bundled_files["normal1"])
        offline = run_single_offline(log, FAST_TISSUE, FAST_TWOCELL, seed=4, tail_time=3.0)
        realtime = run_single_realtime(
            log, FAST_TISSUE, FAST_TWOCELL, seed=4,
            start_delay=0.0, tail_time=3.0, rate_multiplier=20.0,
        )
        off = {r.matched_value for r in offline}
        real = {r.matched_value for r in realtime}
        assert off and real
        jaccard = len(off & real) / len(off | real)
        assert jaccard >= 0.3


class TestRealtimeExperiment:
    def test_small_realtime_experiment(self, tmp_path):
        from aisd.harness import run_experiment
        from aisd.trace_model import SignalSample, SyscallEvent, merge_to_replay_log, write_replay_log

        events = [SyscallEvent(t, 5) for t in (0.1, 0.5, 1.2, 2.0)]
        samples = [SignalSample(k / 10, "cpu", 0.2) for k in range(1, 31)]
        log_path = tmp_path / "tiny.tcr"
        write_replay_log(merge_to_replay_log(events, samples, "tiny"), log_path)
        plan = ExperimentPlan(
            datasets=(PlanDataset(str(log_path), ScenarioKind.NORMAL),),
            runs_per_dataset=1,
            start_delay=0.1,
            tail_time=0.5,
            rate_multiplier=20.0,
            seed_base=1,
        )
        result = run_experiment(plan, tmp_path / "rt", FAST_TISSUE, FAST_TWOCELL)
        assert not any(r.failed for r in result.runs)
        assert (tmp_path / "rt" / "tiny" / "run-0" / "policy.txt").is_file()
        assert (tmp_path / "rt" / "resources.txt").is_file()
        assert result.cpu_fraction is not None


class TestCli:
    def test_serve_cli(self, tmp_path, capsys, monkeypatch):
        from aisd import cli

        params = tmp_path / "params.txt"
        params.write_text("cycles_per_second = 50\nseed = 9\ntwocell.n_type2 = 4\n")

        calls = {"n": 0}

        def fake_sleep(seconds):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli.time, "sleep", fake_sleep)
        assert cli.main(["serve", "--params", str(params), "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving on" in out
        assert "responses:" in out

    @pytest.mark.parametrize("key", ["twocell.n_typ1", "twocell.seed"])
    def test_serve_cli_unknown_key(self, tmp_path, key):
        from aisd import cli

        params = tmp_path / "params.txt"
        params.write_text(f"seed = 9\n{key} = 4\n")
        with pytest.raises(ValueError, match=f"unknown params key '{key}'"):
            cli.main(["serve", "--params", str(params), "--port", "0"])

    def test_serve_cli_bad_seed(self, tmp_path):
        from aisd import cli

        params = tmp_path / "params.txt"
        params.write_text("seed = abc\n")
        with pytest.raises(ValueError, match="^bad value for 'seed': .*'abc'$"):
            cli.main(["serve", "--params", str(params), "--port", "0"])

    def test_synth_stats_eval(self, tmp_path, capsys):
        from aisd.cli import main

        out = tmp_path / "normal1.tcr"
        assert main(["synth", "--profile", "normal1", "-o", str(out)]) == 0
        assert main(["stats", "--log", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "normal1 38 434 405" in captured

        policy_file = tmp_path / "policy.txt"
        policy_file.write_text("permit 5 # open\ndeny-default\n")
        assert main(["eval", "--policy", str(policy_file), "--log", str(out)]) == 0
        assert "normal1:" in capsys.readouterr().out

    def test_synth_list_profiles(self, capsys):
        from aisd.cli import main

        assert main(["synth", "--list-profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("normal1", "normal2", "success1", "success2", "failure1", "failure2"):
            assert name in out

    def test_experiment_offline(self, bundled_files, tmp_path, capsys):
        from aisd.cli import main

        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(
            f"dataset = {bundled_files['normal1']} normal\n"
            "runs_per_dataset = 1\n"
            "tail_time = 2\n"
            "seed_base = 3\n"
        )
        out_dir = tmp_path / "out"
        assert main([
            "experiment", "--plan", str(plan_file), "--out", str(out_dir), "--offline",
        ]) == 0
        assert (out_dir / "report.txt").is_file()

    def test_replay_cli_against_server(self, bundled_files, capsys):
        from aisd.cli import main
        from aisd.tissue import create_compartment
        from aisd.twocell import attach_twocell
        from aisd.wire import TissueServer

        comp = create_compartment(TissueParams(), seed=1)
        attach_twocell(comp, TwocellParams())
        with TissueServer(comp, host="127.0.0.1", port=0) as server:
            code = main([
                "replay", "--log", str(bundled_files["failure1"]),
                "--host", "127.0.0.1", "--port", str(server.port),
                "--rate", "100",
            ])
        assert code == 0
        assert "sent 518 antigen" in capsys.readouterr().out

    def test_tcreplay_entry(self, bundled_files, capsys):
        from aisd.cli import tcreplay_main
        from aisd.tissue import create_compartment
        from aisd.twocell import attach_twocell
        from aisd.wire import TissueServer

        comp = create_compartment(TissueParams(), seed=1)
        attach_twocell(comp, TwocellParams())
        with TissueServer(comp, host="127.0.0.1", port=0) as server:
            code = tcreplay_main([
                "--log", str(bundled_files["failure2"]),
                "--host", "127.0.0.1", "--port", str(server.port),
                "--rate", "100", "--tail", "0.1",
            ])
        assert code == 0
        assert "495 antigen" in capsys.readouterr().out


# sha256 of "cycle,cell_id,matched_value\n" rows, recorded before the two-cell
# detector moved to flat per-cell state: the RNG stream must not change.
RESPONSE_LOG_DIGESTS = {
    ("normal2", 0): (265, "6e03b72b74f9460a041f8125f79b59c9f38466484357634b8e18279ff3007124"),
    ("normal2", 1): (134, "4e8bbeaa0633e715b0ddd08a26f52af980a4442177f4a7943275c34e69a9aa9d"),
    ("normal2", 2): (104, "07fa4203a9629e8cc764e0f2cd1679142bbea93da96cb750c10e734b9103cf68"),
    ("success1", 0): (1413, "0ed57dc457764d2d75dbb970db01b07c9772b89183d6a236a926883210b93654"),
    ("success1", 1): (1158, "eb0091088f12734055f88bca32b91375623650f5fb8d4edd3d534e99b5a898d9"),
    ("success1", 2): (999, "fab01c0b5d5a9881b47f94dd25ce93a0ef732606a2bdf0bfa89f9a481e091021"),
}


@pytest.mark.parametrize("dataset,seed", sorted(RESPONSE_LOG_DIGESTS))
def test_response_log_golden(bundled_logs, dataset, seed):
    records = run_single_offline(
        bundled_logs[dataset], TissueParams(), TwocellParams(), seed, tail_time=10.0
    )
    digest = hashlib.sha256()
    for r in records:
        digest.update(f"{r.cycle},{r.cell_id},{r.matched_value}\n".encode())
    assert (len(records), digest.hexdigest()) == RESPONSE_LOG_DIGESTS[dataset, seed]


# sha256 of the criterion-7 experiment's artifacts (each run's responses.csv
# and policy.txt, the three top-level policies, report.txt and report.csv),
# recorded before the offline driver became one generator: a refactor must
# leave these bytes as they are.
DIGESTED = {"responses.csv", "policy.txt", "naive-policy.txt", "average-policy.txt",
            "twocell-policy.txt", "report.txt", "report.csv"}
EXPERIMENT_DIGEST = (13, "0942d481147e6a6b55f1bee7f4dabd55d86f741d14665e72e27590fe1443fde8")


def test_experiment_artifacts_golden(bundled_files, tmp_path):
    plan = ExperimentPlan(
        datasets=(
            PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
            PlanDataset(str(bundled_files["failure1"]), ScenarioKind.FAILURE),
        ),
        runs_per_dataset=2,
        tail_time=10.0,
        seed_base=7777,
    )
    run_offline(plan, tmp_path, FAST_TISSUE, FAST_TWOCELL)
    paths = sorted(p for p in tmp_path.rglob("*") if p.name in DIGESTED)
    digest = hashlib.sha256()
    for path in paths:
        name, data = path.relative_to(tmp_path).as_posix().encode(), path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    assert (len(paths), digest.hexdigest()) == EXPERIMENT_DIGEST


def test_idle_cycle_and_reset_totals(bundled_logs):
    """The compartment's idle-cycle and reset totals equal counts made from
    the population before and after each cycle of an offline run, where a
    stepped idle stretch counts each of its cycles as idle."""
    compartment = create_compartment(FAST_TISSUE, 5)
    attach_twocell(compartment, FAST_TWOCELL)
    state = compartment.twocell
    cycle = compartment.cycle
    stretch = compartment.idle_stretch
    idle = resets = stepped = 0

    def is_idle():
        presented = any(key is not None for keys in state.keys for key in keys)
        return not compartment.antigen_count() and not presented

    def counting_cycle():
        nonlocal idle, resets
        idle += is_idle()
        report = cycle()
        resets += state.ages.count(0)  # a reset leaves age 0; else age >= 1
        return report

    def counting_stretch(limit):
        nonlocal stepped
        was_idle = is_idle()
        count = stretch(limit)
        if count:
            assert was_idle
            assert 0 not in state.ages  # a stretch resets no cell
        stepped += count
        return count

    compartment.cycle = counting_cycle
    compartment.idle_stretch = counting_stretch
    for _ in aisd.harness.offline_cycles(bundled_logs["normal2"], compartment, 30.0):
        pass
    assert compartment.idle_cycles_total == idle + stepped
    assert compartment.type2_resets_total == resets
    assert 0 < idle < compartment.cycle_count
    assert 0 < stepped < compartment.cycle_count
    assert resets > 0


def test_consumed_and_response_totals(bundled_logs):
    """The compartment's consumed-antigen and response totals are the sums
    of the cycle reports of an offline run."""
    compartment = create_compartment(FAST_TISSUE, 3)
    attach_twocell(compartment, FAST_TWOCELL)
    reports = list(aisd.harness.offline_cycles(bundled_logs["success1"], compartment, 10.0))
    consumed = sum(report.antigen_consumed for report in reports)
    responses = sum(report.responses_emitted for report in reports)
    assert compartment.antigen_consumed_total == consumed > 0
    assert compartment.responses_total == responses == len(compartment.response_log) > 0


def snapshot(compartment) -> tuple:
    return (list(compartment._store), compartment.get_signal("cpu"),
            compartment.antigen_added_total, compartment.signals_set_total)


def per_event_feed(log, tissue_params, twocell_params, seed, tail_time):
    """Reference feed: one add_antigen or set_signal per record, the log's
    columns merged by a stable (timestamp, signal-first) sort, each record
    delivered before cycle k when its timestamp < k / cps."""
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    cps = tissue_params.cycles_per_second
    records = [*zip(log.signal_times, repeat(0), log.signal_names, log.signal_values),
               *zip(log.event_times, repeat(1), log.event_numbers, log.event_labels)]
    records.sort(key=lambda record: record[:2])
    idx = 0
    snapshots = []
    total_cycles = int(math.floor(log.duration * cps)) + 1 + int(round(tail_time * cps))
    while compartment.cycle_count < total_cycles or idx < len(records):
        horizon = (compartment.cycle_count + 1) / cps
        while idx < len(records) and records[idx][0] < horizon:
            _, rank, key, value = records[idx]
            if rank:
                compartment.add_antigen(key, value)
            else:
                compartment.set_signal(key, value)
            idx += 1
        snapshots.append(snapshot(compartment))
        compartment.cycle()
    return compartment, snapshots


def window_edge_log():
    """Overflowing windows, events on cycle boundaries, a signal between the
    events of one window and one that set_signal clamps."""
    labels = (Label.NORMAL, Label.ATTACK)
    events = [SyscallEvent(0.001 * k, (5 * k) % 40, label=labels[k % 2]) for k in range(90)]
    events += [SyscallEvent(0.2, 7), SyscallEvent(0.3, 8, label=Label.ATTACK)]
    events += [SyscallEvent(0.5 + 0.0005 * k, k % 13) for k in range(70)]
    samples = [SignalSample(0.0, "cpu", 0.4), SignalSample(0.0405, "cpu", 0.9),
               SignalSample(0.2, "cpu", 0.1), SignalSample(0.55, "cpu", 1.0)]
    log = merge_to_replay_log(events, samples, "edges")
    # a parsed sample is always in range; force one that set_signal must clamp
    values = list(log.signal_values)
    values[log.signal_times.index(0.55)] = 1.5
    object.__setattr__(log, "signal_values", tuple(values))
    return log


@pytest.mark.parametrize("source", ["edges", "success1"])
def test_window_ingest_matches_per_event_feed(bundled_logs, monkeypatch, source):
    """Each cycle that runs through cycle() sees the store, signal level and
    totals the per-event reference feed gives it; every other cycle is
    stepped as idle, and the reference store is empty at each of those."""
    log = window_edge_log() if source == "edges" else bundled_logs[source]
    tissue = TissueParams(antigen_capacity=32)
    seen = []

    def recording_compartment(params, seed):
        compartment = create_compartment(params, seed)
        cycle = compartment.cycle
        stretch = compartment.idle_stretch
        snapshots = {}  # cycle number -> snapshot before it
        stepped = []  # cycle numbers of stepped cycles

        def snapshot_then_cycle():
            snapshots[compartment.cycle_count + 1] = snapshot(compartment)
            return cycle()

        def recording_stretch(limit):
            first = compartment.cycle_count + 1
            count = stretch(limit)
            stepped.extend(range(first, first + count))
            return count
        compartment.cycle = snapshot_then_cycle
        compartment.idle_stretch = recording_stretch
        seen.append((compartment, snapshots, stepped))
        return compartment

    monkeypatch.setattr(aisd.harness, "create_compartment", recording_compartment)
    responses = run_single_offline(log, tissue, TwocellParams(), seed=3, tail_time=2.0)
    reference, expected = per_event_feed(log, tissue, TwocellParams(), 3, tail_time=2.0)
    (compartment, snapshots, stepped), = seen
    assert responses == reference.response_log
    assert sorted([*snapshots, *stepped]) == list(range(1, len(expected) + 1))
    for number, observed in snapshots.items():
        assert observed == expected[number - 1]
    if source == "success1":
        assert stepped  # (the edge log stays busy: cpu 1.0 presents for 50 cycles)
    for number in stepped:
        assert expected[number - 1][0] == []  # the reference store was empty
    assert compartment.antigen_added_total == reference.antigen_added_total
    assert compartment.antigen_added_total == len(log.syscall_events())
    assert max(len(store) for store, *_ in expected) == 32  # windows overflowed
    if source == "edges":
        assert [level for _, level, *_ in expected[:6]] == [0.9, 0.9, 0.1, 0.1, 0.1, 1.0]


def drive(log, seed, tail_time, cps):
    """Drive offline_cycles to the end on a fresh compartment; returns it,
    the reports yielded and, by cycle count, the signal level and signals
    set seen at the reports."""
    compartment = create_compartment(TissueParams(cycles_per_second=cps), seed)
    attach_twocell(compartment, FAST_TWOCELL)
    reports, seen = [], {}
    for report in aisd.harness.offline_cycles(log, compartment, tail_time):
        reports.append(report)
        seen[compartment.cycle_count] = (compartment.get_signal("cpu"),
                                         compartment.signals_set_total)
    return compartment, reports, seen


def driven_state(compartment, reports) -> tuple:
    totals = {name: value for name, value in vars(compartment).items()
              if name.endswith("_total")}
    return (compartment.response_log, compartment.rng.getstate(), compartment.cycle_count,
            totals, compartment.get_signal("cpu"), reports)


@pytest.mark.parametrize("source", ["normal1", "normal2", "success1", "success2",
                                    "failure1", "failure2", "edges"])
def test_stepping_matches_cycle_by_cycle(bundled_logs, monkeypatch, source):
    """offline_cycles leaves the compartment and yields the reports that it
    does with every cycle run through cycle()."""
    log = window_edge_log() if source == "edges" else bundled_logs[source]
    idle = 0
    # 3.3: a cycle rate whose windows fall off the records' decimal grid
    for seed, tail_time, cps in ((1, 30.0, 10.0), (2, 7.0, 3.3)):
        compartment, reports, seen = drive(log, seed, tail_time, cps)
        with monkeypatch.context() as m:
            m.setattr(Compartment, "idle_stretch", lambda self, limit: 0)
            ref, ref_reports, ref_seen = drive(log, seed, tail_time, cps)
        assert driven_state(compartment, reports) == driven_state(ref, ref_reports)
        # at a stretch's reports the compartment is already at the stretch's end
        for count, signals in seen.items():
            assert ref_seen[count] == signals
        assert len(reports) == compartment.cycle_count
        idle += compartment.idle_cycles_total
    assert idle or source == "edges"  # the edge log has no idle cycle


@pytest.mark.parametrize("tail_time", [-5.0, math.nan, math.inf])
def test_offline_cycles_rejects_bad_tail_time(bundled_logs, tail_time):
    compartment = create_compartment(FAST_TISSUE, 1)
    attach_twocell(compartment, FAST_TWOCELL)
    message = f"tail_time must be finite and >= 0, got {tail_time}"
    with pytest.raises(ValueError, match=message):
        list(aisd.harness.offline_cycles(bundled_logs["normal1"], compartment, tail_time))
    assert compartment.cycle_count == 0
    with pytest.raises(ValueError, match=message):
        run_single_offline(bundled_logs["normal1"], FAST_TISSUE, FAST_TWOCELL, 1, tail_time)


def test_first_due_is_the_loops_own_test():
    """_first_due gives the least count >= first with at < (count + 1) / cps,
    also for times on a window boundary and rates off the decimal grid."""
    inputs = random.Random(5)
    for cps in (10.0, 3.3, 7.0, 0.7, 1000.0):
        for first in (1, 5, 40, 12345):
            times = [k / cps for k in range(first, first + 30)]
            times += [inputs.uniform(first / cps, (first + 200) / cps) for _ in range(30)]
            for at in times:
                if not at >= first / cps:  # delivered before count first
                    continue
                count = first
                while not at < (count + 1) / cps:
                    count += 1
                assert aisd.harness._first_due(at, first, cps) == count
