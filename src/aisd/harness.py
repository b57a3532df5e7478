"""Experiment orchestration: repeated seeded runs over replay logs,
aggregation into policies, evaluation and report artifacts.

The realtime path starts a server, waits, replays a dataset over loopback
and keeps the detector running for a tail period.  The offline path feeds
the same records straight into a fresh compartment with a fixed
records-to-cycles rule (no sockets, no pacing), which makes whole
experiments deterministic per seed and much faster than realtime.
``offline_cycles`` is that rule's one implementation: it ingests by window,
straight from the replay log's columns, and yields each cycle's report, so
a caller that watches the tissue between cycles drives the same run as
``run_single_offline``.  Between windows it steps over idle cycles with
``Compartment.idle_stretch`` (the same RNG stream draw for draw, on CPython
with n1 + n2 <= 255; see ``twocell``); between the reports of one stretch
the compartment already holds its state after the stretch.

Output layout per experiment directory:

    <dataset>/run-<k>/{responses.csv, policy.txt, seed.txt}
    average-policy.txt  naive-policy.txt  report.txt  report.csv
"""
from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .policy import (
    EvaluationRow,
    ResponseFrequencyTable,
    SyscallPolicy,
    average_policy,
    evaluate,
    format_comparison_table,
    format_evaluation_csv,
    format_frequency_table,
    naive_policy,
    policy_from_run,
    write_policy,
)
from .scenarios import ScenarioKind
from .tissue import (
    Compartment,
    CycleReport,
    ResponseRecord,
    TissueParams,
    create_compartment,
    format_response_csv,
    iter_kv_lines,
    parse_kv_text,
    tissue_params_from_kv,
)
from .trace_model import DatasetStats, ReplayLog, dataset_stats, read_replay_log
from .twocell import TwocellParams, attach_twocell
from .twocell import params_from_kv as twocell_params_from_kv
from .wire import ReplayConfig, TissueServer, replay

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanDataset:
    path: str
    group: ScenarioKind

    @property
    def name(self) -> str:
        return Path(self.path).stem


@dataclass(frozen=True)
class ExperimentPlan:
    datasets: tuple[PlanDataset, ...]
    runs_per_dataset: int = 20
    start_delay: float = 10.0
    tail_time: float = 60.0
    rate_multiplier: float = 1.0
    seed_base: int = 0
    params_file: str | None = None

    def __post_init__(self) -> None:
        if self.runs_per_dataset < 1:
            raise ValueError("runs_per_dataset must be >= 1")
        # the chained comparisons are also false for nan
        for name, delay in (("start_delay", self.start_delay), ("tail_time", self.tail_time)):
            if not 0 <= delay < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {delay}")
        if not 0 < self.rate_multiplier < math.inf:
            raise ValueError(f"rate_multiplier must be finite and > 0, got {self.rate_multiplier}")

    def normal_datasets(self) -> list[PlanDataset]:
        return [d for d in self.datasets if d.group is ScenarioKind.NORMAL]

    def eval_datasets(self) -> list[PlanDataset]:
        return [d for d in self.datasets if d.group is not ScenarioKind.NORMAL]


PLAN_KEYS = frozenset(
    {"dataset", *ExperimentPlan.__dataclass_fields__} - {"datasets"}
)
# how each numeric plan key's value is read
_PLAN_NUMBERS = {
    "runs_per_dataset": int, "start_delay": float, "tail_time": float,
    "rate_multiplier": float, "seed_base": int,
}


def parse_plan(text: str, base_dir: str | Path = ".") -> ExperimentPlan:
    """Parse a plan file: `key = value` lines with repeatable `dataset` keys.

    A dataset line reads `dataset = <path> <group>` with group one of
    normal, success or failure; relative paths resolve against ``base_dir``.
    A key outside ``PLAN_KEYS``, such as a misspelling, is an error; a key
    the file leaves out keeps its ``ExperimentPlan`` default.
    """
    base = Path(base_dir)
    datasets: list[PlanDataset] = []
    scalars: dict[str, object] = {}
    for lineno, raw, key, value in iter_kv_lines(text):
        if key not in PLAN_KEYS:
            raise ValueError(f"line {lineno}: unknown plan key {key!r}")
        if key == "dataset":
            parts = value.split()
            if len(parts) != 2:
                raise ValueError(
                    f"line {lineno}: expected 'dataset = <path> <group>', got {raw!r}"
                )
            path, group = parts
            datasets.append(PlanDataset(str(base / path), ScenarioKind(group)))
        elif key == "params_file":
            scalars[key] = str(base / value)
        else:
            try:
                number = _PLAN_NUMBERS[key](value)
                # the plan's own checks, here where the line is known
                ExperimentPlan(datasets=(), **{key: number})
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
            scalars[key] = number
    return ExperimentPlan(datasets=tuple(datasets), **scalars)


def read_plan(path: str | Path) -> ExperimentPlan:
    p = Path(path)
    return parse_plan(p.read_text(encoding="utf-8"), base_dir=p.parent)


def check_params_keys(kv: Mapping[str, str], extra: Iterable[str] = ()) -> None:
    """Reject a params key that no parameter reads, such as a misspelling,
    which would otherwise leave its parameter at the default."""
    known = {
        *TissueParams.__dataclass_fields__,
        *(f"twocell.{name}" for name in TwocellParams.__dataclass_fields__),
        *extra,
    }
    for key in kv:
        if key not in known:
            raise ValueError(f"unknown params key {key!r}")


def load_params_file(path: str | Path) -> tuple[TissueParams, TwocellParams]:
    kv = parse_kv_text(Path(path).read_text(encoding="utf-8"))
    check_params_keys(kv)
    return tissue_params_from_kv(kv), twocell_params_from_kv(kv)


@dataclass
class RunResult:
    dataset: str
    group: ScenarioKind
    index: int
    seed: int
    policy: SyscallPolicy | None = None
    frequencies: ResponseFrequencyTable | None = None
    responses: list[ResponseRecord] = field(default_factory=list)
    failed: bool = False
    error: str | None = None


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    runs: list[RunResult]
    stats: dict[str, DatasetStats]
    naive: SyscallPolicy | None
    average: SyscallPolicy | None
    reference: SyscallPolicy | None
    evaluations: dict[str, dict[str, EvaluationRow]]
    out_dir: Path
    cpu_fraction: float | None = None

    def policies_written(self) -> int:
        return sum(1 for r in self.runs if not r.failed)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def offline_cycles(
    log: ReplayLog, compartment: Compartment, tail_time: float
) -> Iterator[CycleReport]:
    """Cycle a fresh compartment through the log, yielding each cycle's report.

    All records with timestamp < k / cycles_per_second are delivered before
    cycle k; after the last record the compartment keeps cycling for the
    tail period.  Each window's signal samples are set in order, then its
    syscall events added with one ``add_events`` call, which leaves the
    store as one ``add_antigen`` per event would.

    After each window, the cycles before which no event is due are offered
    to ``Compartment.idle_stretch``; the cycles it steps yield one shared
    ``CycleReport(0, 0)`` each, and the signals due inside the stretch are
    set before them, since no idle cycle reads a signal.  Between the
    reports of one stretch the compartment already holds its state after
    the stretch.  Every other cycle runs through ``Compartment.cycle``.
    """
    if not 0 <= tail_time < math.inf:  # also false for nan
        raise ValueError(f"tail_time must be finite and >= 0, got {tail_time}")
    cps = compartment.params.cycles_per_second
    event_times, numbers, labels = log.event_times, log.event_numbers, log.event_labels
    n_events, n_signals = len(event_times), len(log.signal_times)
    e = s = 0
    total_cycles = int(math.floor(log.duration * cps)) + 1 + int(round(tail_time * cps))
    while compartment.cycle_count < total_cycles or e < n_events or s < n_signals:
        count = compartment.cycle_count
        horizon = (count + 1) / cps
        s = _set_signals(compartment, log, s, horizon)
        if e < n_events and event_times[e] < horizon:
            end = bisect_left(event_times, horizon, e + 1)
            compartment.add_events(numbers[e:end], labels[e:end])
            e = end
        # no event is delivered before cycles count + 1 .. stop: the loop
        # next delivers one at count stop, or stops looping at total_cycles
        if e < n_events:
            stop = _first_due(event_times[e], count + 1, cps)
        else:
            stop = max(count + 1, total_cycles)
        stepped = compartment.idle_stretch(stop - count)
        if not stepped:
            yield compartment.cycle()
            continue
        # the windows of the stepped cycles after the first
        s = _set_signals(compartment, log, s, (count + stepped) / cps)
        yield from repeat(_IDLE_REPORT, stepped)


# the report of every cycle that Compartment.idle_stretch steps
_IDLE_REPORT = CycleReport(0, 0)


def _set_signals(compartment: Compartment, log: ReplayLog, s: int, horizon: float) -> int:
    """Set the log's signal samples from index ``s`` on with timestamp <
    ``horizon``, in order; return the index of the first one not set."""
    times = log.signal_times
    if s < len(times) and times[s] < horizon:
        end = bisect_left(times, horizon, s + 1)
        for k in range(s, end):
            compartment.set_signal(log.signal_names[k], log.signal_values[k])
        s = end
    return s


def _first_due(at: float, first: int, cps: float) -> int:
    """The least count >= ``first`` at which ``offline_cycles`` delivers a
    record stamped ``at``, by its own test: at < (count + 1) / cps."""
    count = max(first, int(at * cps))
    while count > first and at < count / cps:
        count -= 1
    while not at < (count + 1) / cps:
        count += 1
    return count


def run_single_offline(
    log: ReplayLog,
    tissue_params: TissueParams,
    twocell_params: TwocellParams,
    seed: int,
    tail_time: float = 60.0,
) -> list[ResponseRecord]:
    """One deterministic offline run: ``offline_cycles`` to the end."""
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    for _ in offline_cycles(log, compartment, tail_time):
        pass
    return compartment.response_log


def run_single_realtime(
    log: ReplayLog,
    tissue_params: TissueParams,
    twocell_params: TwocellParams,
    seed: int,
    start_delay: float,
    tail_time: float,
    rate_multiplier: float,
    host: str = "127.0.0.1",
) -> list[ResponseRecord]:
    """One realtime run: server + pacer thread, replay over loopback."""
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    server = TissueServer(
        compartment, host=host, port=0, cycles_per_second=tissue_params.cycles_per_second
    )
    server.start()
    try:
        config = ReplayConfig(
            host=host,
            port=server.port,
            rate_multiplier=rate_multiplier,
            start_delay=start_delay,
            tail_time=tail_time,
        )
        replay(log, config)
    finally:
        server.stop()
    return compartment.response_log


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _load_logs(plan: ExperimentPlan) -> dict[str, ReplayLog | None]:
    logs: dict[str, ReplayLog | None] = {}
    for ds in plan.datasets:
        try:
            logs[ds.name] = read_replay_log(ds.path)
        except (OSError, ValueError) as exc:
            logger.warning("dataset %s unreadable: %s", ds.path, exc)
            logs[ds.name] = None
    return logs


def _aggregate(
    plan: ExperimentPlan,
    runs: list[RunResult],
    logs: Mapping[str, ReplayLog | None],
) -> tuple[SyscallPolicy | None, SyscallPolicy | None, SyscallPolicy | None,
           dict[str, dict[str, EvaluationRow]]]:
    normal_names = [d.name for d in plan.normal_datasets()]
    normal_logs = [logs[n] for n in normal_names if logs.get(n) is not None]
    naive = naive_policy(normal_logs) if normal_logs else None

    normal_run_policies = [
        r.policy for r in runs
        if r.group is ScenarioKind.NORMAL and not r.failed and r.policy is not None
    ]
    average = average_policy(normal_run_policies) if normal_run_policies else None

    # The reference policy for the baseline comparison: the first successful
    # run on the last normal-group dataset (a single-run detector policy).
    reference = None
    for name in reversed(normal_names):
        candidates = [
            r.policy for r in runs
            if r.dataset == name and not r.failed and r.policy is not None
        ]
        if candidates:
            reference = candidates[0]
            break

    evaluations: dict[str, dict[str, EvaluationRow]] = {}
    eval_sets = [
        (d.name, logs[d.name]) for d in plan.eval_datasets()
        if logs.get(d.name) is not None
    ]
    for label, pol in (("naive", naive), ("twocell", reference), ("twocell-average", average)):
        if pol is None:
            continue
        evaluations[label] = {name: evaluate(pol, log) for name, log in eval_sets}
    return naive, average, reference, evaluations


def _write_run_dir(out_dir: Path, run: RunResult) -> None:
    run_dir = out_dir / run.dataset / f"run-{run.index}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "seed.txt").write_text(f"{run.seed}\n", encoding="utf-8")
    if run.failed:
        (run_dir / "failed.txt").write_text(f"{run.error}\n", encoding="utf-8")
        return
    (run_dir / "responses.csv").write_text(
        format_response_csv(run.responses), encoding="utf-8"
    )
    assert run.policy is not None
    write_policy(run.policy, run_dir / "policy.txt")


def _write_experiment_artifacts(result: ExperimentResult) -> None:
    out = result.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for run in result.runs:
        _write_run_dir(out, run)
    if result.naive is not None:
        write_policy(result.naive, out / "naive-policy.txt")
    if result.average is not None:
        write_policy(result.average, out / "average-policy.txt")
    if result.reference is not None:
        write_policy(result.reference, out / "twocell-policy.txt")
    (out / "report.txt").write_text(format_report(result), encoding="utf-8")
    (out / "report.csv").write_text(
        format_evaluation_csv(result.evaluations), encoding="utf-8"
    )


def _run_loop(plan: ExperimentPlan, out_dir: str | Path, runner) -> ExperimentResult:
    logs = _load_logs(plan)
    runs: list[RunResult] = []
    run_index = 0
    for ds in plan.datasets:
        log = logs[ds.name]
        for k in range(plan.runs_per_dataset):
            seed = plan.seed_base + run_index
            run_index += 1
            run = RunResult(dataset=ds.name, group=ds.group, index=k, seed=seed)
            if log is None:
                run.failed = True
                run.error = f"dataset {ds.path} unreadable"
                runs.append(run)
                continue
            try:
                run.responses = runner(log, seed)
                run.policy, run.frequencies = policy_from_run(run.responses, ds.name)
            except Exception as exc:  # noqa: BLE001 - a failed run must not kill the experiment
                logger.warning("run %s/%d failed: %s", ds.name, k, exc)
                run.failed = True
                run.error = str(exc)
            runs.append(run)
    naive, average, reference, evaluations = _aggregate(plan, runs, logs)
    stats = {
        name: dataset_stats(log) for name, log in logs.items() if log is not None
    }
    result = ExperimentResult(
        plan=plan,
        runs=runs,
        stats=stats,
        naive=naive,
        average=average,
        reference=reference,
        evaluations=evaluations,
        out_dir=Path(out_dir),
    )
    _write_experiment_artifacts(result)
    return result


def run_offline(
    plan: ExperimentPlan,
    out_dir: str | Path,
    tissue_params: TissueParams | None = None,
    twocell_params: TwocellParams | None = None,
) -> ExperimentResult:
    """Deterministic experiment: no sockets, no pacing."""
    tp, wp = _resolve_params(plan, tissue_params, twocell_params)

    def runner(log: ReplayLog, seed: int) -> list[ResponseRecord]:
        return run_single_offline(log, tp, wp, seed, tail_time=plan.tail_time)

    return _run_loop(plan, out_dir, runner)


def run_experiment(
    plan: ExperimentPlan,
    out_dir: str | Path,
    tissue_params: TissueParams | None = None,
    twocell_params: TwocellParams | None = None,
) -> ExperimentResult:
    """Realtime experiment: per-run server, delayed replay, post-replay tail."""
    tp, wp = _resolve_params(plan, tissue_params, twocell_params)
    cpu_before = time.process_time()
    wall_before = time.monotonic()

    def runner(log: ReplayLog, seed: int) -> list[ResponseRecord]:
        return run_single_realtime(
            log, tp, wp, seed,
            start_delay=plan.start_delay,
            tail_time=plan.tail_time,
            rate_multiplier=plan.rate_multiplier,
        )

    result = _run_loop(plan, out_dir, runner)
    wall = time.monotonic() - wall_before
    if wall > 0:
        result.cpu_fraction = (time.process_time() - cpu_before) / wall
        (result.out_dir / "resources.txt").write_text(
            f"cpu_fraction {result.cpu_fraction:.4f}\nwall_seconds {wall:.1f}\n",
            encoding="utf-8",
        )
    return result


def _resolve_params(
    plan: ExperimentPlan,
    tissue_params: TissueParams | None,
    twocell_params: TwocellParams | None,
) -> tuple[TissueParams, TwocellParams]:
    if plan.params_file and (tissue_params is None or twocell_params is None):
        file_tp, file_wp = load_params_file(plan.params_file)
        tissue_params = tissue_params or file_tp
        twocell_params = twocell_params or file_wp
    return tissue_params or TissueParams(), twocell_params or TwocellParams()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def format_report(result: ExperimentResult) -> str:
    """Human-readable report: dataset stats, per-run frequencies, comparison."""
    sections: list[str] = []

    lines = ["== dataset statistics ==",
             f"{'dataset':<12}{'total time':>12}{'total antigen':>15}{'max antigen rate':>18}"]
    for name in sorted(result.stats):
        s = result.stats[name]
        lines.append(
            f"{name:<12}{s.total_time:>12}{s.total_antigen:>15}{s.max_antigen_rate:>18}"
        )
    sections.append("\n".join(lines))

    freq_lines = ["== response frequencies per run =="]
    for run in result.runs:
        if run.failed or run.frequencies is None:
            status = f"FAILED ({run.error})" if run.failed else "no responses"
            freq_lines.append(f"-- {run.dataset} run-{run.index} (seed {run.seed}): {status}")
            continue
        freq_lines.append(f"-- {run.dataset} run-{run.index} (seed {run.seed})")
        freq_lines.append(format_frequency_table(run.frequencies).rstrip("\n"))
    sections.append("\n".join(freq_lines))

    comp_lines = ["== policy comparison =="]
    eval_names = [d.name for d in result.plan.eval_datasets()]
    ordered = {
        label: rows
        for label, rows in result.evaluations.items()
        if label in ("naive", "twocell")
    }
    comp_lines.append(format_comparison_table(ordered, eval_names).rstrip("\n"))
    if result.average is not None and result.naive is not None:
        covered = len(result.naive.permitted & result.average.permitted)
        comp_lines.append(
            f"average policy covers {covered}/{len(result.naive.permitted)} naive syscalls"
        )
    if "twocell-average" in result.evaluations:
        comp_lines.append("")
        comp_lines.append("== average-policy evaluation ==")
        comp_lines.append(
            format_comparison_table(
                {"twocell-average": result.evaluations["twocell-average"]}, eval_names
            ).rstrip("\n")
        )
    sections.append("\n".join(comp_lines))

    failed = sum(1 for r in result.runs if r.failed)
    sections.append(
        f"runs: {len(result.runs)} total, {failed} failed, "
        f"{result.policies_written()} policies written"
    )
    return "\n\n".join(sections) + "\n"
