"""Immune-inspired process anomaly detection toolkit."""

from .trace_model import (
    SYSCALL_NAMES,
    SYSCALL_RANGE,
    DatasetStats,
    Label,
    ReplayLog,
    SignalSample,
    SyscallEvent,
    dataset_stats,
    merge_to_replay_log,
    parse_monitor_log,
    parse_strace_log,
    read_replay_log,
    syscall_name,
    syscall_number,
    write_replay_log,
)
from .scenarios import (
    BUNDLED_PROFILES,
    ScenarioKind,
    ScenarioProfile,
    synthesize_scenario,
)
from .tissue import (
    Compartment,
    CycleReport,
    ResponseRecord,
    TissueParams,
    create_compartment,
)
from .twocell import TwocellParams, attach_twocell
from .policy import (
    EvaluationRow,
    SyscallPolicy,
    average_policy,
    evaluate,
    naive_policy,
    policy_from_run,
)
from .wire import ReplayConfig, ReplaySummary, TissueServer, decode, encode, replay
from .harness import ExperimentPlan, run_experiment, run_offline, run_single_offline

__version__ = "0.1.0"
