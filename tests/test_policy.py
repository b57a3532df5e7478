from __future__ import annotations

import math

import pytest

from aisd.harness import ExperimentPlan, PlanDataset, run_offline
from aisd.policy import (
    EvaluationRow,
    PolicyProvenance,
    SyscallPolicy,
    average_policy,
    evaluate,
    format_comparison_table,
    format_evaluation_csv,
    format_frequency_table,
    format_policy,
    naive_policy,
    parse_policy,
    policy_from_run,
    read_policy,
)
from aisd.scenarios import ScenarioKind
from aisd.tissue import ResponseRecord
from aisd.trace_model import Label, SyscallEvent, merge_to_replay_log


def make_log(numbers, name="log", labels=None):
    labels = labels or [Label.NORMAL] * len(numbers)
    events = [
        SyscallEvent(0.1 * i, nr, label=lab)
        for i, (nr, lab) in enumerate(zip(numbers, labels))
    ]
    return merge_to_replay_log(events, [], name)


def recount(policy, log):
    """Brute-force oracle for the evaluation counts."""
    permit = deny = normal = attack = 0
    for e in log.syscall_events():
        if e.syscall_number in policy.permitted:
            permit += 1
        else:
            deny += 1
        if e.label is Label.ATTACK:
            attack += 1
        else:
            normal += 1
    return normal, attack, permit, deny


class TestNaivePolicy:
    def test_distinct_set(self):
        policy = naive_policy([make_log([5, 6, 5, 90])])
        assert policy.permitted == {5, 6, 90}
        assert policy.provenance is PolicyProvenance.NAIVE

    def test_empty(self):
        assert naive_policy([make_log([])]).permitted == frozenset()

    def test_rejects_attack_labels(self):
        log = make_log([5, 6], labels=[Label.NORMAL, Label.ATTACK])
        with pytest.raises(ValueError, match="attack-labeled"):
            naive_policy([log])

    def test_idempotent_over_duplicates(self):
        a, b = make_log([5, 6], "a"), make_log([6, 7], "b")
        assert naive_policy([a, b]).permitted == naive_policy([a, b, a, b]).permitted


class TestPolicyFromRun:
    def test_counts(self):
        records = [ResponseRecord(1, 0.1, 0, v) for v in (5, 6, 5)]
        policy, freq = policy_from_run(records, "normal2")
        assert policy.permitted == {5, 6}
        assert policy.provenance is PolicyProvenance.TWOCELL_SINGLE_RUN
        assert freq == ((6, 1), (5, 2))

    def test_empty_run(self):
        policy, freq = policy_from_run([])
        assert policy.permitted == frozenset()
        assert freq == ()

    def test_rows_sorted_by_frequency_then_number(self):
        records = [ResponseRecord(1, 0.1, 0, v) for v in (9, 3, 3, 9, 7)]
        _, freq = policy_from_run(records)
        assert freq == ((7, 1), (3, 2), (9, 2))


class TestAveragePolicy:
    def make(self, permitted):
        return SyscallPolicy(frozenset(permitted), PolicyProvenance.TWOCELL_SINGLE_RUN)

    def test_union(self):
        avg = average_policy([self.make({5}), self.make({6}), self.make({5, 90})])
        assert avg.permitted == {5, 6, 90}
        assert avg.provenance is PolicyProvenance.TWOCELL_AVERAGE

    def test_idempotent(self):
        policy = self.make({1, 2, 3})
        assert average_policy([policy] * 40).permitted == policy.permitted

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_policy([])


class TestEvaluate:
    def test_all_permit(self):
        log = make_log([5, 6, 7])
        row = evaluate(SyscallPolicy(frozenset({5, 6, 7}), PolicyProvenance.NAIVE), log)
        assert (row.permit_pct, row.deny_pct) == (100, 0)

    def test_empty_policy(self):
        log = make_log([5, 6])
        row = evaluate(SyscallPolicy(frozenset(), PolicyProvenance.NAIVE), log)
        assert (row.permit_pct, row.deny_pct) == (0, 100)

    def test_floor_percentages_undersumming(self):
        # 101 events, 77 attack-labeled; policy permits exactly 48 of them.
        # Floors: permit 47%, deny 52%, attack 76%, normal 23% (47+52=99).
        numbers = [1] * 48 + [2] * 53
        labels = [Label.ATTACK] * 77 + [Label.NORMAL] * 24
        log = make_log(numbers, labels=labels)
        policy = SyscallPolicy(frozenset({1}), PolicyProvenance.NAIVE)
        row = evaluate(policy, log)
        normal, attack, permit, deny = recount(policy, log)
        assert (row.normal_count, row.attack_count) == (normal, attack) == (24, 77)
        assert (row.permit_count, row.deny_count) == (permit, deny) == (48, 53)
        assert (row.permit_pct, row.deny_pct) == (47, 52)
        assert (row.normal_pct, row.attack_pct) == (23, 76)
        assert row.permit_pct == math.floor(100 * permit / row.total)

    def test_count_conservation(self):
        log = make_log([5, 6, 7, 8], labels=[Label.NORMAL, Label.ATTACK] * 2)
        row = evaluate(SyscallPolicy(frozenset({6}), PolicyProvenance.NAIVE), log)
        assert row.permit_count + row.deny_count == row.total == 4
        assert row.normal_count + row.attack_count == row.total

    def test_empty_log(self):
        row = evaluate(SyscallPolicy(frozenset({5}), PolicyProvenance.NAIVE), make_log([]))
        assert row.total == 0
        assert row.permit_pct == row.deny_pct == 0


class TestPolicyFile:
    def test_round_trip(self):
        policy = SyscallPolicy(
            frozenset({5, 6, 301}), PolicyProvenance.TWOCELL_AVERAGE, ("normal1",)
        )
        text = format_policy(policy)
        assert "permit 5 # open" in text
        assert text.rstrip().endswith("deny-default")
        parsed = parse_policy(text)
        assert parsed == policy

    def test_missing_terminator(self):
        with pytest.raises(ValueError, match="deny-default"):
            parse_policy("permit 5\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_policy("allow 5\ndeny-default\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("permit -3\ndeny-default\n", "^line 1: syscall number -3 outside"),
            ("permit 5\npermit 9999\ndeny-default\n", "^line 2: syscall number 9999 outside"),
            ("permit 512\ndeny-default\n", "^line 1: syscall number 512 outside"),
            ("permit 5 6\ndeny-default\n", "^line 1: expected 'permit <number>'"),
            ("permit 5 open\ndeny-default\n", "^line 1: expected 'permit <number>'"),
            ("permit five\ndeny-default\n", "^line 1: bad syscall number 'five'"),
            ("permit 5\ndeny-default\n\npermit 7\n", "^line 4: rule after deny-default"),
            ("deny-default\ndeny-default\n", "^line 2: rule after deny-default"),
            ("# provenance: twocell_best\ndeny-default\n", "^line 1: unknown provenance"),
        ],
    )
    def test_rejects_bad_rules(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_policy(text)

    def test_comments_around_rules(self):
        text = "# provenance: naive\npermit 0 # restart\npermit 511#\ndeny-default\n# end\n\n"
        assert parse_policy(text).permitted == frozenset({0, 511})

    def test_parses_every_experiment_policy(self, bundled_files, tmp_path):
        plan = ExperimentPlan(
            datasets=(
                PlanDataset(str(bundled_files["normal1"]), ScenarioKind.NORMAL),
                PlanDataset(str(bundled_files["success1"]), ScenarioKind.SUCCESS),
            ),
            runs_per_dataset=2,
            tail_time=2.0,
        )
        result = run_offline(plan, tmp_path)
        written = {
            tmp_path / f"{run.dataset}/run-{run.index}/policy.txt": run.policy
            for run in result.runs
        }
        written[tmp_path / "naive-policy.txt"] = result.naive
        written[tmp_path / "average-policy.txt"] = result.average
        written[tmp_path / "twocell-policy.txt"] = result.reference
        assert set(written) == set(tmp_path.rglob("*policy.txt"))
        for path, policy in written.items():
            assert read_policy(path) == policy


class TestReportFormats:
    def rows(self, datasets):
        return {
            d: EvaluationRow(d, 100, 50, 50, 60, 40) for d in datasets
        }

    def test_comparison_shape(self):
        datasets = ["success1", "success2", "failure1", "failure2"]
        text = format_comparison_table(
            {"naive": self.rows(datasets), "twocell": self.rows(datasets)}, datasets
        )
        lines = text.splitlines()
        assert lines[0].split() == ["dataset"] + datasets
        assert len(lines) == 1 + 2 + 4  # header, composition, 2 policies x 2

    def test_empty_headers_only(self):
        assert format_comparison_table({}, []).splitlines() == ["dataset"]
        csv_text = format_evaluation_csv({})
        assert csv_text.splitlines()[0].startswith("policy,dataset,")

    def test_frequency_table_names(self):
        text = format_frequency_table(((5, 22), (6, 34)))
        assert "open(5)\t22" in text
        assert "close(6)\t34" in text
