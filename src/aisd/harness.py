"""Experiment orchestration: repeated seeded runs over replay logs,
aggregation into policies, evaluation and report artifacts.

The realtime path starts a server, waits, replays a dataset over loopback
and keeps the detector running for a tail period.  The offline path feeds
the same records straight into a fresh compartment with a fixed
records-to-cycles rule (no sockets, no pacing), which makes whole
experiments deterministic per seed and much faster than realtime.
``offline_cycles`` is that rule's one implementation: it ingests by window,
straight from the replay log's syscall-number column, and yields once per
step, so a caller that watches the tissue between steps drives the same run
as ``run_single_offline``, and every tail cycle of it.  A step is one
``Compartment.cycle()`` or one stretch of idle cycles that
``Compartment.idle_stretch`` steps between windows (the same RNG stream draw
for draw; see ``twocell``).
``run_single_offline`` stops draining it after the first step at whose end
every event has been delivered, the store is empty and nothing is presented:
no later cycle can present a key, so none can respond, and the response log
is the full drain's.  Its run totals, such as ``cycle_count``, end at that
stop.

Output layout per experiment directory:

    <dataset>/run-<k>/{responses.csv, policy.txt, seed.txt}
    average-policy.txt  naive-policy.txt  report.txt  report.csv
"""
from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .policy import (
    EvaluationRow,
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
    ResponseRecord,
    TissueParams,
    create_compartment,
    format_response_csv,
)
from .trace_model import DatasetStats, ReplayLog, check_finite, dataset_stats, read_replay_log
from .twocell import TwocellParams, attach_twocell
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
        check_finite("start_delay", self.start_delay)
        check_finite("tail_time", self.tail_time)
        check_finite("rate_multiplier", self.rate_multiplier, positive=True)
        # logs, runs and run directories are keyed by the dataset's name
        paths: dict[str, str] = {}
        for dataset in self.datasets:
            if dataset.name in paths:
                raise ValueError(
                    f"datasets {paths[dataset.name]!r} and {dataset.path!r}"
                    f" share the name {dataset.name!r}"
                )
            paths[dataset.name] = dataset.path

    def normal_datasets(self) -> list[PlanDataset]:
        return [d for d in self.datasets if d.group is ScenarioKind.NORMAL]

    def eval_datasets(self) -> list[PlanDataset]:
        return [d for d in self.datasets if d.group is not ScenarioKind.NORMAL]


class _LineError(ValueError):
    """A line's error in full, where another ``ValueError`` is a bad value."""


class _FormError(_LineError):
    """A line not of the form that the message names."""


def _read_key_values(
    text: str, readers: Mapping[str, Callable[[str], object]], kind: str,
    repeatable: tuple[str, ...] = (),
) -> dict[str, object]:
    """Read `key = value` lines, skipping blanks and `#` comments, each value
    through its key's reader.  A line without `=`, a key outside ``readers``,
    a second line for a key not in ``repeatable`` (which keeps its last
    value) and a value its reader rejects are errors, each naming its line.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        try:
            if not sep:
                raise _FormError("key = value")
            if key not in readers:
                raise _LineError(f"unknown {kind} key {key!r}")
            if key in values and key not in repeatable:
                raise _LineError(f"duplicate {kind} key {key!r}")
            values[key] = readers[key](value.strip())
        except _FormError as exc:
            raise ValueError(f"line {lineno}: expected {str(exc)!r}, got {raw!r}") from None
        except _LineError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def _read_plan_number(name: str, read: type, value: str) -> object:
    number = read(value)
    # the plan's own checks, here where the line is known
    ExperimentPlan(datasets=(), **{name: number})
    return number


# each plan key but the two that parse_plan reads against the plan's directory
_PLAN_READERS = {
    f.name: partial(_read_plan_number, f.name, type(f.default))
    for f in fields(ExperimentPlan) if f.name not in ("datasets", "params_file")
}


def parse_plan(text: str, base_dir: str | Path = ".") -> ExperimentPlan:
    """Parse a plan file: `key = value` lines with repeatable `dataset` keys.

    A dataset line reads `dataset = <path> <group>` with group one of
    normal, success or failure; relative paths resolve against ``base_dir``.
    A key other than `dataset` and the ``ExperimentPlan`` fields but
    `datasets`, such as a misspelling, is an error, and so is a second line
    for any key but `dataset`; a key the file leaves out keeps its default.
    """
    base = Path(base_dir)
    datasets: list[PlanDataset] = []

    def read_dataset(value: str) -> tuple[PlanDataset, ...]:
        parts = value.split()
        if len(parts) != 2:
            raise _FormError("dataset = <path> <group>")
        path, group = parts
        try:
            kind = ScenarioKind(group)
        except ValueError:
            groups = ", ".join(k.value for k in ScenarioKind)
            raise _LineError(
                f"unknown dataset group {group!r}, expected one of {groups}"
            ) from None
        datasets.append(PlanDataset(str(base / path), kind))
        try:
            return ExperimentPlan(datasets=tuple(datasets)).datasets
        except ValueError as exc:
            raise _LineError(str(exc)) from None

    readers = {**_PLAN_READERS, "dataset": read_dataset, "params_file": lambda v: str(base / v)}
    values = _read_key_values(text, readers, "plan", repeatable=("dataset",))
    return ExperimentPlan(datasets=values.pop("dataset", ()), **values)


def read_plan(path: str | Path) -> ExperimentPlan:
    p = Path(path)
    return parse_plan(p.read_text(encoding="utf-8"), base_dir=p.parent)


def _read_signals(value: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in value.split(",") if s.strip())


# the params dataclasses, each with the prefix of its keys
_PARAMS_CLASSES = (("", TissueParams), ("twocell.", TwocellParams))
# each params key's reader: the dataclasses' fields, each read as its default
_PARAMS_READERS = {
    prefix + f.name: _read_signals if f.name == "signals" else type(f.default)
    for prefix, cls in _PARAMS_CLASSES
    for f in fields(cls)
}


def load_params_file(
    path: str | Path, extra: tuple[str, ...] = ()
) -> tuple[TissueParams, TwocellParams, dict[str, object]]:
    """Read a `key = value` params file: the one reader of that format.

    A key the file leaves out keeps its default; the keys in ``extra``, such
    as ``aisd serve``'s `seed`, come back as ints in the dict.  Any other
    key, such as a misspelling, and a key set twice are errors, found in file
    order; the params' own checks run after the file is read.
    """
    readers = _PARAMS_READERS | dict.fromkeys(extra, int)
    values = _read_key_values(Path(path).read_text(encoding="utf-8"), readers, "params")
    tissue, twocell = (
        cls(**{
            f.name: values.pop(prefix + f.name)
            for f in fields(cls) if prefix + f.name in values
        })
        for prefix, cls in _PARAMS_CLASSES
    )
    return tissue, twocell, values


@dataclass
class RunResult:
    dataset: str
    group: ScenarioKind
    index: int
    seed: int
    policy: SyscallPolicy | None = None
    frequencies: tuple[tuple[int, int], ...] | None = None
    responses: list[ResponseRecord] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


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
) -> Iterator[None]:
    """Cycle a fresh compartment through the log, yielding after each step.

    All records with timestamp < k / cycles_per_second are delivered before
    cycle k; after the last record the compartment keeps cycling for the
    tail period.  Each window's signal samples are set in order, then its
    syscall events added with one ``add_events`` call, which leaves the
    store as one ``add_antigen`` per event would.

    After each window, the cycles before which no event is due are offered
    to ``Compartment.idle_stretch``, and the signals due inside a stretch it
    steps are set after it, since no idle cycle reads a signal.  Every other
    cycle runs through ``Compartment.cycle``, an idle cycle in which a reset
    falls due included, and so does the first: a caller that stops at the
    first yield has run cycle 1 alone.  A step is one such cycle or one whole
    stretch; at each yield the compartment is where running every cycle
    through ``cycle()`` leaves it after ``cycle_count`` cycles.
    """
    check_finite("tail_time", tail_time)
    cps = compartment.params.cycles_per_second
    event_times, numbers = log.event_times, log.event_numbers
    n_events, n_signals = len(event_times), len(log.signal_times)
    e = s = 0
    total_cycles = int(math.floor(log.duration * cps)) + 1 + int(round(tail_time * cps))
    while compartment.cycle_count < total_cycles or e < n_events or s < n_signals:
        count = compartment.cycle_count
        horizon = (count + 1) / cps
        s = _set_signals(compartment, log, s, horizon)
        if e < n_events and event_times[e] < horizon:
            end = bisect_left(event_times, horizon, e + 1)
            compartment.add_events(numbers[e:end])
            e = end
        # no event is delivered before cycles count + 1 .. stop: the loop
        # next delivers one at count stop, or stops looping at total_cycles
        if e < n_events:
            stop = _first_due(event_times[e], count + 1, cps)
        else:
            stop = max(count + 1, total_cycles)
        if count and compartment.idle_stretch(stop - count):
            # the windows of the stepped cycles after the first
            s = _set_signals(compartment, log, s, compartment.cycle_count / cps)
        else:
            compartment.cycle()
        yield


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
    """One deterministic offline run: ``offline_cycles`` until no later cycle
    can respond.

    A response needs a key that a Type 1 producer presents, and a key comes
    only from antigen in the store, which an offline run fills only from the
    log.  So after the first cycle at which every event has been delivered,
    the store is empty and nothing is presented, no later cycle emits a
    response, and the run stops there: its response log is the one a drain
    of ``offline_cycles`` to the end gives.
    """
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    state = compartment.twocell
    n_events = len(log.event_times)
    for _ in offline_cycles(log, compartment, tail_time):
        if (compartment.antigen_added_total == n_events and not state.live
                and not compartment.antigen_count()):
            break
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
    naive: SyscallPolicy | None,
) -> tuple[SyscallPolicy | None, SyscallPolicy | None,
           dict[str, dict[str, EvaluationRow]]]:
    normal_names = [d.name for d in plan.normal_datasets()]
    normal_run_policies = [
        r.policy for r in runs if r.group is ScenarioKind.NORMAL and not r.failed
    ]
    average = average_policy(normal_run_policies) if normal_run_policies else None

    # The reference policy for the baseline comparison: the first successful
    # run on the last normal-group dataset (a single-run detector policy).
    reference = None
    for name in reversed(normal_names):
        candidates = [r.policy for r in runs if r.dataset == name and not r.failed]
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
    return average, reference, evaluations


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
    # before any run: a normal-group log with attack events raises here
    normal_logs = [logs[d.name] for d in plan.normal_datasets() if logs[d.name] is not None]
    naive = naive_policy(normal_logs) if normal_logs else None
    runs: list[RunResult] = []
    run_index = 0
    for ds in plan.datasets:
        log = logs[ds.name]
        for k in range(plan.runs_per_dataset):
            seed = plan.seed_base + run_index
            run_index += 1
            run = RunResult(dataset=ds.name, group=ds.group, index=k, seed=seed)
            if log is None:
                run.error = f"dataset {ds.path} unreadable"
                runs.append(run)
                continue
            try:
                run.responses = runner(log, seed)
                run.policy, run.frequencies = policy_from_run(run.responses, ds.name)
            except Exception as exc:  # noqa: BLE001 - a failed run must not kill the experiment
                logger.warning("run %s/%d failed: %s", ds.name, k, exc)
                run.error = str(exc)
            runs.append(run)
    average, reference, evaluations = _aggregate(plan, runs, logs, naive)
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
        file_tp, file_wp, _ = load_params_file(plan.params_file)
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
        heading = f"-- {run.dataset} run-{run.index} (seed {run.seed})"
        if run.failed:
            freq_lines.append(f"{heading}: FAILED ({run.error})")
            continue
        freq_lines.append(heading)
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
