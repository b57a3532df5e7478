from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import re
import threading
import time
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aisd.harness
import aisd.workers
from aisd.harness import (
    ExperimentPlan,
    PlanDataset,
    load_params_file,
    parse_plan,
    run_offline,
    run_single_offline,
    run_single_realtime,
)
from aisd.scenarios import BUNDLED_PROFILES, ScenarioKind
from aisd.tissue import Compartment, ResponseRecord, TissueParams, create_compartment
from aisd.trace_model import Label, SignalSample, SyscallEvent, merge_to_replay_log
from aisd.twocell import TwocellParams, attach_twocell

from invariant_checks import holds_numbers_only

FAST_TISSUE = TissueParams(cycles_per_second=10.0)
FAST_TWOCELL = TwocellParams()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_example(heading: str) -> str:
    """The first fenced block after the README paragraph opened by ``heading``."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index(heading):]
    start = text.index("```\n") + 4
    return text[start:text.index("```", start)]


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

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_params_file_names_line(self, tmp_path, value):
        # an empty value would name the plan's own directory
        message = re.escape(f"line 2: expected 'params_file = <path>', got 'params_file ={value}'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_plan(f"# plan\nparams_file ={value}\n", base_dir=tmp_path)

    def test_unknown_dataset_group_names_line(self):
        message = "^line 2: unknown dataset group 'normall', expected one of success, failure, normal$"
        with pytest.raises(ValueError, match=message):
            parse_plan("# plan\ndataset = a.tcr normall\n")

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

    def test_datasets_sharing_a_name_rejected(self):
        datasets = (
            PlanDataset("a/x.tcr", ScenarioKind.NORMAL),
            PlanDataset("b/x.tcr", ScenarioKind.SUCCESS),
        )
        message = "^datasets 'a/x.tcr' and 'b/x.tcr' share the name 'x'$"
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(datasets=datasets)

    def test_dataset_sharing_a_name_names_its_line(self, tmp_path):
        text = "# plan\ndataset = a/x.tcr normal\nruns_per_dataset = 1\ndataset = b/x.tcr normal\n"
        first, second = tmp_path / "a/x.tcr", tmp_path / "b/x.tcr"
        message = f"line 4: datasets '{first}' and '{second}' share the name 'x'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_plan(text, base_dir=tmp_path)

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
        tissue, twocell, extras = load_params_file(params)
        assert tissue.cycles_per_second == 20.0
        assert twocell.n_type2 == 7
        assert extras == {}

    def test_params_file_reads_every_field(self, tmp_path):
        # a value unlike each default for every field, so that a field added
        # to either dataclass cannot be left out of the params file
        tissue = TissueParams(signals=("cpu", "net"), antigen_capacity=77, cycles_per_second=2.5)
        twocell = TwocellParams(**{
            name: value + 3 for name, value in vars(TwocellParams()).items()
        })
        assert all(getattr(tissue, f) != getattr(TissueParams(), f) for f in vars(tissue))
        assert all(getattr(twocell, f) != getattr(TwocellParams(), f) for f in vars(twocell))
        lines = [f"signals = {','.join(tissue.signals)}"]
        lines += [f"{name} = {getattr(tissue, name)}" for name in vars(tissue) if name != "signals"]
        lines += [f"twocell.{name} = {value}" for name, value in vars(twocell).items()]
        params = tmp_path / "params.txt"
        params.write_text("\n".join(lines) + "\n")
        assert load_params_file(params) == (tissue, twocell, {})

    def test_params_file_extra_keys(self, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("seed = 12\ncycles_per_second = 20\n")
        tissue, twocell, extras = load_params_file(params, extra=("seed",))
        assert (tissue, twocell) == (TissueParams(cycles_per_second=20.0), TwocellParams())
        assert extras == {"seed": 12}

    @pytest.mark.parametrize("key", ["antigen_capacity", "twocell.n_type1", "seed"])
    def test_params_file_duplicate_key(self, tmp_path, key):
        params = tmp_path / "params.txt"
        params.write_text(f"{key} = 4\nsignals = cpu\n{key} = 5\n")
        with pytest.raises(ValueError, match=f"^line 3: duplicate params key '{key}'$"):
            load_params_file(params, extra=("seed",))

    def test_params_file_first_bad_line_wins(self, tmp_path):
        # lines are checked in file order, so the first bad line is reported
        params = tmp_path / "params.txt"
        params.write_text("antigen_capacity = lots\nantigen_capacty = 4\n")
        with pytest.raises(ValueError, match="^line 1: bad value for 'antigen_capacity': "):
            load_params_file(params)
        params.write_text("antigen_capacty = 4\nantigen_capacity = lots\n")
        with pytest.raises(ValueError, match="^line 1: unknown params key 'antigen_capacty'$"):
            load_params_file(params)

    def test_duplicate_plan_key(self):
        with pytest.raises(ValueError, match="^line 3: duplicate plan key 'runs_per_dataset'$"):
            parse_plan("runs_per_dataset = 3\ndataset = a.tcr normal\nruns_per_dataset = 5\n")
        plan = parse_plan("dataset = a.tcr normal\ndataset = b.tcr success\n")
        assert [d.name for d in plan.datasets] == ["a", "b"]

    @pytest.mark.parametrize(
        "line, key", [("twocell.n_type1 = 1.5", "twocell.n_type1"),
                      ("antigen_capacity = lots", "antigen_capacity")],
    )
    def test_params_file_bad_value_names_key(self, tmp_path, line, key):
        params = tmp_path / "params.txt"
        params.write_text(f"signals = cpu\n{line}\n")
        with pytest.raises(ValueError, match=f"^line 2: bad value for '{key}': "):
            load_params_file(params)

    @pytest.mark.parametrize("key", ["twocell.n_typ1", "antigen_capacty", "twocell.seed", "seed"])
    def test_params_file_unknown_key(self, tmp_path, key):
        params = tmp_path / "params.txt"
        params.write_text(f"signals = cpu\n{key} = 4\n")
        with pytest.raises(ValueError, match=f"^line 2: unknown params key '{key}'$"):
            load_params_file(params)

    @pytest.mark.parametrize(
        "reader, kind, key",
        [("plan", "plan", "tail_time"), ("params", "params", "twocell.n_type1"),
         ("serve", "params", "seed")],
    )
    @pytest.mark.parametrize(
        "lines, message",
        [("{key}x = 4", "line 2: unknown {kind} key '{key}x'"),
         ("{key} = 4\n{key} = 5", "line 3: duplicate {kind} key '{key}'"),
         ("{key} 4", "line 2: expected 'key = value', got '{key} 4'"),
         ("{key} = ten", "line 2: bad value for '{key}': .*'ten'")],
        ids=["unknown", "duplicate", "no-equals", "bad-value"],
    )
    def test_file_readers_share_line_rules(
        self, tmp_path, monkeypatch, reader, kind, key, lines, message
    ):
        # plan files, params files and aisd serve's params file with its
        # seed: the same rules, each error naming its line
        from aisd import cli

        def interrupt(seconds):  # ends the serve loop, should it start
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.time, "sleep", interrupt)
        readers = {
            "plan": aisd.harness.read_plan,
            "params": load_params_file,
            "serve": lambda path: cli.main(["serve", "--params", str(path), "--port", "0"]),
        }
        path = tmp_path / "file.txt"
        path.write_text("# file\n" + lines.format(key=key) + "\n")
        with pytest.raises(ValueError, match=f"^{message.format(kind=kind, key=re.escape(key))}$"):
            readers[reader](path)

    def test_readme_params_file_example_parses(self, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text(readme_example("**Parameter file**"))
        tissue, twocell, extras = load_params_file(params, extra=("seed",))
        assert extras == {"seed": 1}
        assert tissue.signals == ("cpu",) and twocell.n_type2 == 20

    def test_readme_plan_file_example_parses(self):
        plan = parse_plan(readme_example("**Plan file**"))
        assert [(d.name, d.group) for d in plan.datasets] == [
            ("normal1", ScenarioKind.NORMAL), ("normal2", ScenarioKind.NORMAL),
            ("success1", ScenarioKind.SUCCESS),
        ]
        assert (plan.runs_per_dataset, plan.seed_base) == (20, 1000)


class TestOfflineExperiment:
    def test_attack_events_in_a_normal_group_fail_before_any_run(
        self, bundled_files, tmp_path, monkeypatch
    ):
        plan = ExperimentPlan(
            datasets=(
                PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
                PlanDataset(str(bundled_files["success1"]), ScenarioKind.NORMAL),
            ),
            runs_per_dataset=2,
        )
        runs = []
        monkeypatch.setattr(aisd.harness, "run_single_offline",
                            lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match="'success1' contains attack-labeled events"):
            run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert runs == []
        assert not (tmp_path / "exp").exists()

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

        # invalid UTF-8 after the parser's first 64 Ki-character piece
        garbled = tmp_path / "garbled.tcr"
        garbled.write_bytes(b"# scenario garbled\n" + b"A 0.000000 5 normal\n" * 4000 + b"A \xff\n")
        plan = ExperimentPlan(
            datasets=(
                PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
                PlanDataset(str(garbled), ScenarioKind.FAILURE),
            ),
            runs_per_dataset=2,
            tail_time=5.0,
        )
        result = run_offline(plan, tmp_path / "exp-garbled", FAST_TISSUE, FAST_TWOCELL)
        failed = [r for r in result.runs if r.failed]
        assert len(failed) == 2
        assert all(r.dataset == "garbled" for r in failed)
        assert result.policies_written() == 2
        assert (tmp_path / "exp-garbled" / "garbled" / "run-0" / "failed.txt").is_file()

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


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children that aisd.workers forks from here on."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(aisd.workers.os, "fork", counting)
    return pids


def assert_no_child_left():
    # raised only when this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def offline_tree(plan, out, monkeypatch, cpus=None):
    """The bytes of ``plan``'s artifact tree, run on ``cpus`` usable CPUs
    (the machine's own by default)."""
    with monkeypatch.context() as m:
        if cpus is not None:
            m.setattr(aisd.workers, "usable_cpus", lambda: cpus)
        run_offline(plan, out, FAST_TISSUE, FAST_TWOCELL)
    return tree_bytes(out)


class TestSpreadRuns:
    @pytest.mark.parametrize(
        "names, runs",
        [(("normal1",), 1), (("normal1", "failure1"), 1),
         (("normal2", "missing", "success1"), 1), (("normal2",), 41)],
        ids=["1-run", "2-runs", "3-runs-one-unreadable", "41-runs-one-failing"],
    )
    def test_bytes_equal_serial(self, bundled_files, tmp_path, monkeypatch, caplog, names, runs):
        files = {**bundled_files, "missing": tmp_path / "missing.tcr"}
        kinds = {name: p.kind for name, p in BUNDLED_PROFILES.items()}
        kinds["missing"] = ScenarioKind.FAILURE
        plan = ExperimentPlan(
            datasets=tuple(PlanDataset(str(files[n]), kinds[n]) for n in names),
            runs_per_dataset=runs, tail_time=2.0, seed_base=300,
        )
        single = aisd.harness.run_single_offline

        def failing(log, tp, wp, seed, **kwargs):
            if seed == 305:
                raise ValueError("seed 305 fails")
            return single(log, tp, wp, seed, **kwargs)

        monkeypatch.setattr(aisd.harness, "run_single_offline", failing)
        trees = [offline_tree(plan, tmp_path / f"w{cpus}", monkeypatch, cpus)
                 for cpus in (1, None, 3)]
        assert trees[0] == trees[1] == trees[2]
        if runs == 41:
            assert trees[0]["normal2/run-5/failed.txt"] == b"seed 305 fails\n"
            failures = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
            assert failures == ["run normal2/5 failed: seed 305 fails"] * 3
        assert_no_child_left()

    def test_fork_path_taken(self, bundled_files, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(aisd.workers, "usable_cpus", lambda: 3)
        result = run_offline(small_plan(bundled_files), tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert len(forks) == 2
        assert result.policies_written() == 4
        assert_no_child_left()

    @pytest.mark.parametrize("sends", [False, True], ids=["dies-at-first-run", "fails-after-sending"])
    def test_dead_worker_runs_are_run_again(
        self, bundled_files, tmp_path, monkeypatch, caplog, sends
    ):
        plan = small_plan(bundled_files, runs=3)
        expected = offline_tree(plan, tmp_path / "serial", monkeypatch, cpus=1)
        parent = os.getpid()
        single = aisd.harness.run_single_offline
        leave = os._exit

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                leave(3)
            return single(*args, **kwargs)

        if sends:  # every outcome sent, then a non-zero exit status
            monkeypatch.setattr(aisd.workers.os, "_exit", lambda status: leave(3))
        else:
            monkeypatch.setattr(aisd.harness, "run_single_offline", dying)
        forks = count_forks(monkeypatch)
        assert offline_tree(plan, tmp_path / "spread", monkeypatch, cpus=2) == expected
        assert len(forks) == 1
        sent = r"[1-9]\d*" if sends else "0"
        warning = (rf"worker 1 \(pid {forks[0]}\) exited with status 3 after sending {sent} bytes;"
                   " its 3 runs run again here")
        assert [m for m in caplog.messages if re.fullmatch(warning, m)]
        assert_no_child_left()

    def test_interrupt_in_own_share_kills_workers(self, bundled_files, tmp_path, monkeypatch):
        parent = os.getpid()
        single = aisd.harness.run_single_offline

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return single(*args, **kwargs)

        monkeypatch.setattr(aisd.harness, "run_single_offline", interrupted)
        monkeypatch.setattr(aisd.workers, "usable_cpus", lambda: 3)
        forks = count_forks(monkeypatch)
        plan = small_plan(bundled_files, runs=5)
        with pytest.raises(KeyboardInterrupt):
            run_offline(plan, tmp_path / "exp", FAST_TISSUE, FAST_TWOCELL)
        assert len(forks) == 2
        assert_no_child_left()

    def test_live_thread_means_no_fork(self, bundled_files, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(aisd.workers, "usable_cpus", lambda: 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result = run_offline(small_plan(bundled_files), tmp_path / "exp",
                                 FAST_TISSUE, FAST_TWOCELL)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert result.policies_written() == 4

    def test_short_data_is_rejected(self):
        sent = marshal.dumps([[(1, 0.1, 2, 3)], "boom"])
        assert aisd.workers._unpack(sent, 2) == [[ResponseRecord(1, 0.1, 2, 3)], "boom"]
        for data, count in ((sent[:-1], 2), (b"", 2), (sent, 3), (marshal.dumps(7), 1)):
            assert aisd.workers._unpack(data, count) is None


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
        with pytest.raises(ValueError, match=f"^line 2: unknown params key '{key}'$"):
            cli.main(["serve", "--params", str(params), "--port", "0"])

    def test_serve_cli_bad_seed_despite_seed_option(self, tmp_path, monkeypatch, capsys):
        from aisd import cli

        params = tmp_path / "params.txt"
        params.write_text("seed = abc\n")

        def interrupt(seconds):  # ends the serve loop, should it start
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.time, "sleep", interrupt)
        with pytest.raises(ValueError, match="^line 1: bad value for 'seed': .*'abc'$"):
            cli.main(["serve", "--params", str(params), "--seed", "3", "--port", "0"])
        assert "serving on" not in capsys.readouterr().out

    def test_serve_cli_bad_seed(self, tmp_path):
        from aisd import cli

        params = tmp_path / "params.txt"
        params.write_text("seed = abc\n")
        with pytest.raises(ValueError, match="^line 1: bad value for 'seed': .*'abc'$"):
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
    of the reports of the cycle() calls of an offline run; a stepped idle
    stretch consumes nothing and responds to nothing."""
    compartment = create_compartment(FAST_TISSUE, 3)
    attach_twocell(compartment, FAST_TWOCELL)
    cycle = compartment.cycle
    reports = []

    def recording_cycle():
        reports.append(cycle())
        return reports[-1]

    compartment.cycle = recording_cycle
    for _ in aisd.harness.offline_cycles(bundled_logs["success1"], compartment, 10.0):
        pass
    assert len(reports) < compartment.cycle_count  # idle stretches were stepped
    consumed = sum(report.antigen_consumed for report in reports)
    responses = sum(report.responses_emitted for report in reports)
    assert compartment.antigen_consumed_total == consumed > 0
    assert compartment.responses_total == responses == len(compartment.response_log) > 0


def test_ground_truth_never_reaches_the_detector(bundled_logs):
    """Before every cycle of an offline run on an attack log, the store and
    the presented keys hold syscall numbers only, not the events' labels."""
    compartment = create_compartment(FAST_TISSUE, 3)
    attach_twocell(compartment, FAST_TWOCELL)
    cycle = compartment.cycle
    checked = presented = 0

    def checking_cycle():
        nonlocal checked, presented
        assert holds_numbers_only(compartment)
        checked += 1
        presented += compartment.twocell.live
        return cycle()

    compartment.cycle = checking_cycle
    log = bundled_logs["success1"]
    assert Label.ATTACK in log.event_labels
    for _ in aisd.harness.offline_cycles(log, compartment, 10.0):
        pass
    assert holds_numbers_only(compartment)
    assert checked > 0 and presented > 0


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
               *zip(log.event_times, repeat(1), log.event_numbers, repeat(None))]
    records.sort(key=lambda record: record[:2])
    idx = 0
    snapshots = []
    total_cycles = last_cycle(log, tissue_params, tail_time)
    while compartment.cycle_count < total_cycles or idx < len(records):
        horizon = (compartment.cycle_count + 1) / cps
        while idx < len(records) and records[idx][0] < horizon:
            _, rank, key, value = records[idx]
            if rank:
                compartment.add_antigen(key)
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
def test_window_ingest_matches_per_event_feed(bundled_logs, source):
    """Each cycle that offline_cycles runs through cycle() sees the store,
    signal level and totals the per-event reference feed gives it; every
    other cycle is stepped as idle, and the reference store is empty at each
    of those.  run_single_offline, which may stop before the last cycle,
    returns the same response log."""
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

    driven = recording_compartment(tissue, 3)
    attach_twocell(driven, TwocellParams())
    for _ in aisd.harness.offline_cycles(log, driven, tail_time=2.0):
        pass
    responses = driven.response_log
    reference, expected = per_event_feed(log, tissue, TwocellParams(), 3, tail_time=2.0)
    (compartment, snapshots, stepped), = seen
    assert responses == reference.response_log
    assert run_single_offline(log, tissue, TwocellParams(), seed=3, tail_time=2.0) == responses
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


def driven_state(compartment) -> dict:
    """What an offline run moves: the cycle count, store, signal level,
    population, RNG, run totals and response log."""
    state = compartment.twocell
    return {
        "cycle_count": compartment.cycle_count,
        "store": tuple(compartment._store),
        "cpu": compartment.get_signal("cpu"),
        "population": (tuple(map(tuple, state.keys)), tuple(map(tuple, state.timers)),
                       tuple(map(tuple, state.locks)), tuple(state.matches),
                       tuple(state.ages), state.live),
        "rng": compartment.rng.getstate(),
        "totals": {name: value for name, value in vars(compartment).items()
                   if name.endswith("_total")},
        "responses": tuple(compartment.response_log),
    }


def stepped_run(log, seed, tail_time, cps, twocell_params=FAST_TWOCELL):
    """Drive offline_cycles to the end on a fresh compartment; returns the
    driven_state at each yield, the number of cycle() calls and the number
    of idle_stretch calls that stepped a cycle or more."""
    compartment = create_compartment(TissueParams(cycles_per_second=cps), seed)
    attach_twocell(compartment, twocell_params)
    cycle, stretch = compartment.cycle, compartment.idle_stretch
    calls = {"cycle": 0, "stretch": 0}

    def counting_cycle():
        calls["cycle"] += 1
        return cycle()

    def counting_stretch(limit):
        stepped = stretch(limit)
        calls["stretch"] += stepped > 0
        return stepped

    compartment.cycle, compartment.idle_stretch = counting_cycle, counting_stretch
    states = [driven_state(compartment)
              for _ in aisd.harness.offline_cycles(log, compartment, tail_time)]
    return states, calls["cycle"], calls["stretch"]


OFFLINE_SOURCES = ["normal1", "normal2", "success1", "success2", "failure1", "failure2", "edges"]


def stepped_and_reference_runs(log, monkeypatch, twocell_params=FAST_TWOCELL):
    """stepped_run of the log, then the same run with every cycle run
    through cycle(), at a decimal cycle rate and at 3.3, whose windows fall
    off the records' decimal grid; yields (seed, tail_time, cps, run,
    reference) per setting."""
    for seed, tail_time, cps in ((1, 30.0, 10.0), (2, 7.0, 3.3)):
        run = stepped_run(log, seed, tail_time, cps, twocell_params)
        with monkeypatch.context() as m:
            m.setattr(Compartment, "idle_stretch", lambda self, limit: 0)
            reference = stepped_run(log, seed, tail_time, cps, twocell_params)
        yield seed, tail_time, cps, run, reference


@pytest.mark.parametrize("source", OFFLINE_SOURCES)
def test_stepping_matches_cycle_by_cycle(bundled_logs, monkeypatch, source):
    """offline_cycles leaves the compartment as it does with every cycle run
    through cycle(), and at each yield the signal level and signals set are
    the ones that run has at the same cycle count."""
    log = window_edge_log() if source == "edges" else bundled_logs[source]
    idle = 0
    for *_, (states, _, _), (reference, _, _) in stepped_and_reference_runs(log, monkeypatch):
        assert states[-1] == reference[-1]
        ref_seen = {ref["cycle_count"]: (ref["cpu"], ref["totals"]["signals_set_total"])
                    for ref in reference}
        for state in states:
            signals = (state["cpu"], state["totals"]["signals_set_total"])
            assert ref_seen[state["cycle_count"]] == signals
        idle += states[-1]["totals"]["idle_cycles_total"]
    assert idle  # every log, the edge log too, idles in the 30 s tail


@pytest.mark.parametrize(
    "source, twocell_params",
    [pytest.param(source, FAST_TWOCELL, id=source) for source in OFFLINE_SOURCES]
    # a population of more than 255 cells steps its idle stretches too
    + [pytest.param("normal1", TwocellParams(n_type1=100, n_type2=200), id="normal1-300-cells")],
)
def test_offline_cycles_yields_once_per_step(bundled_logs, monkeypatch, source, twocell_params):
    """offline_cycles yields once per cycle() call and once per stretch that
    idle_stretch steps.  At each yield the compartment is where running
    every cycle through cycle() leaves it after cycle_count cycles, and
    run_single_offline stops at the first such count at which every event
    has been delivered and nothing is stored or presented."""
    log = window_edge_log() if source == "edges" else bundled_logs[source]
    made = capture_compartments(monkeypatch)
    stretches_seen = 0
    runs = stepped_and_reference_runs(log, monkeypatch, twocell_params)
    for seed, tail_time, cps, run, ref_run in runs:
        (states, cycles, stretches), (reference, ref_cycles, ref_stretches) = run, ref_run
        assert ref_stretches == 0
        assert [ref["cycle_count"] for ref in reference] == list(range(1, ref_cycles + 1))
        assert len(states) == cycles + stretches
        if states[-1]["totals"]["idle_cycles_total"]:
            assert len(states) < states[-1]["cycle_count"]
        for state in states:
            assert state == reference[state["cycle_count"] - 1]
        stretches_seen += stretches

        quiescent = [ref["cycle_count"] for ref in reference
                     if ref["totals"]["antigen_added_total"] == len(log.event_times)
                     and not ref["store"] and not ref["population"][-1]]
        run_single_offline(log, TissueParams(cycles_per_second=cps), twocell_params,
                           seed, tail_time)
        assert made[-1].cycle_count == (quiescent or [ref_cycles])[0]
    assert stretches_seen


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


# ---------------------------------------------------------------------------
# run_single_offline's stop rule
# ---------------------------------------------------------------------------

def drained(log, tissue_params, twocell_params, seed, tail_time):
    """A fresh compartment after offline_cycles has run to its last cycle."""
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    for _ in aisd.harness.offline_cycles(log, compartment, tail_time):
        pass
    return compartment


def capture_compartments(monkeypatch) -> list:
    """Patch the harness to keep each compartment it creates, in order."""
    made = []

    def capturing(params, seed):
        made.append(create_compartment(params, seed))
        return made[-1]
    monkeypatch.setattr(aisd.harness, "create_compartment", capturing)
    return made


def last_cycle(log, tissue_params, tail_time) -> int:
    """The number of the last cycle that offline_cycles runs."""
    cps = tissue_params.cycles_per_second
    return int(math.floor(log.duration * cps)) + 1 + int(round(tail_time * cps))


@pytest.mark.parametrize("source", sorted(BUNDLED_PROFILES))
def test_stop_keeps_the_full_drains_responses(bundled_logs, monkeypatch, source):
    """On every bundled log, run_single_offline returns the response log of
    draining offline_cycles to the end, and never runs more cycles."""
    log = bundled_logs[source]
    made = capture_compartments(monkeypatch)
    early = 0
    for seed in (0, 1, 2):
        for tail_time in (2.0, 30.0, 60.0):
            responses = run_single_offline(log, FAST_TISSUE, FAST_TWOCELL, seed, tail_time)
            full = drained(log, FAST_TISSUE, FAST_TWOCELL, seed, tail_time)
            assert responses == full.response_log
            assert made[-1].cycle_count <= full.cycle_count
            early += made[-1].cycle_count < full.cycle_count
    assert early  # a 60 s tail outlasts every log's last presentation


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(sorted(BUNDLED_PROFILES)),
    seed=st.integers(min_value=0, max_value=2**16),
    lifespan=st.integers(min_value=1, max_value=5),
    presentation=st.tuples(st.integers(1, 5), st.integers(1, 5)).map(sorted),
    capacity=st.integers(min_value=1, max_value=8),
    n_type1=st.integers(min_value=1, max_value=4),
    n_type2=st.integers(min_value=1, max_value=6),
    tail_time=st.sampled_from([0.0, 0.5, 3.0, 10.0]),
    cps=st.sampled_from([10.0, 3.3]),
)
def test_stop_matches_full_drain_property(bundled_logs, source, seed, lifespan, presentation,
                                          capacity, n_type1, n_type2, tail_time, cps):
    log = bundled_logs[source]
    tissue = TissueParams(antigen_capacity=capacity, cycles_per_second=cps)
    twocell = TwocellParams(n_type1=n_type1, n_type2=n_type2, cell_lifespan=lifespan,
                            min_presentation=presentation[0],
                            max_presentation=presentation[1])
    full = drained(log, tissue, twocell, seed, tail_time)
    assert run_single_offline(log, tissue, twocell, seed, tail_time) == full.response_log


def test_stop_ends_quiescent_before_the_last_cycle(bundled_logs, monkeypatch):
    """On normal1 with a 30 s tail the run ends quiescent, with every event
    delivered, before the last tail cycle."""
    log = bundled_logs["normal1"]
    made = capture_compartments(monkeypatch)
    run_single_offline(log, FAST_TISSUE, FAST_TWOCELL, seed=1, tail_time=30.0)
    (compartment,) = made
    assert compartment.antigen_added_total == len(log.event_times)
    assert not compartment.antigen_count() and not compartment.twocell.live
    assert compartment.cycle_count < last_cycle(log, FAST_TISSUE, 30.0)


def flood_log():
    """400 events in the first 0.4 s at full CPU: the producers present for
    50 cycles, so a 5 s tail ends with most of the store still held."""
    events = [SyscallEvent(0.001 * k, k % 40) for k in range(400)]
    return merge_to_replay_log(events, [SignalSample(0.0, "cpu", 1.0)], "flood")


def test_stop_runs_every_cycle_while_the_store_holds_antigen(monkeypatch):
    log = flood_log()
    made = capture_compartments(monkeypatch)
    responses = run_single_offline(log, FAST_TISSUE, FAST_TWOCELL, seed=2, tail_time=5.0)
    (compartment,) = made
    assert compartment.antigen_count() > 0
    assert compartment.cycle_count == last_cycle(log, FAST_TISSUE, 5.0)
    assert responses == drained(log, FAST_TISSUE, FAST_TWOCELL, 2, 5.0).response_log


def test_stop_after_cycle_1_on_an_event_free_log(monkeypatch):
    """With no event to deliver, the run is quiescent before cycle 1, so the
    stop rule names cycle 1, not the end of the first idle stretch; the
    compartment is where cycle() alone leaves it after that cycle."""
    samples = [SignalSample(0.0, "cpu", 0.2), SignalSample(4.0, "cpu", 0.8)]
    log = merge_to_replay_log([], samples, "quiet")
    made = capture_compartments(monkeypatch)
    assert run_single_offline(log, TissueParams(), TwocellParams(), seed=1, tail_time=30.0) == []
    (compartment,) = made
    assert compartment.cycle_count == 1
    with monkeypatch.context() as m:
        m.setattr(Compartment, "idle_stretch", lambda self, limit: 0)
        reference = create_compartment(TissueParams(), 1)
        attach_twocell(reference, TwocellParams())
        next(aisd.harness.offline_cycles(log, reference, 30.0))
    assert driven_state(compartment) == driven_state(reference)
