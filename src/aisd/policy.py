"""Syscall whitelist policies: generation, averaging and labeled evaluation.

A policy is a set of permitted syscall numbers.  The naive baseline permits
everything seen during normal usage; a detector-derived policy permits only
what was responded to during a run.  Evaluation classifies every event of a
labeled log as permitted or denied and reports floor percentages (rows like
90/9 deliberately under-sum to 99).
"""
from __future__ import annotations

import csv
import enum
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .tissue import ResponseRecord
from .trace_model import SYSCALL_RANGE, Label, ReplayLog, syscall_name


class PolicyProvenance(str, enum.Enum):
    NAIVE = "naive"
    TWOCELL_SINGLE_RUN = "twocell_single_run"
    TWOCELL_AVERAGE = "twocell_average"


@dataclass(frozen=True)
class SyscallPolicy:
    permitted: frozenset[int]
    provenance: PolicyProvenance
    source_datasets: tuple[str, ...] = ()

    def permits(self, syscall_number: int) -> bool:
        return syscall_number in self.permitted


@dataclass(frozen=True)
class ResponseFrequencyTable:
    """(syscall, response count) rows, ascending by frequency then number."""

    rows: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EvaluationRow:
    """Permit/deny accounting of one policy against one labeled log."""

    dataset: str
    total: int
    normal_count: int
    attack_count: int
    permit_count: int
    deny_count: int

    def _pct(self, count: int) -> int:
        return (count * 100) // self.total if self.total else 0

    @property
    def normal_pct(self) -> int:
        return self._pct(self.normal_count)

    @property
    def attack_pct(self) -> int:
        return self._pct(self.attack_count)

    @property
    def permit_pct(self) -> int:
        return self._pct(self.permit_count)

    @property
    def deny_pct(self) -> int:
        return self._pct(self.deny_count)


def naive_policy(normal_logs: Sequence[ReplayLog]) -> SyscallPolicy:
    """Permit exactly the distinct syscalls seen in normal-usage logs."""
    permitted: set[int] = set()
    sources = []
    for log in normal_logs:
        if Label.ATTACK in log.event_labels:
            raise ValueError(
                f"log {log.scenario_name!r} contains attack-labeled events; "
                "a naive policy is defined over normal usage only"
            )
        permitted.update(log.event_numbers)
        sources.append(log.scenario_name)
    return SyscallPolicy(frozenset(permitted), PolicyProvenance.NAIVE, tuple(sources))


def policy_from_run(
    response_log: Sequence[ResponseRecord], source: str = ""
) -> tuple[SyscallPolicy, ResponseFrequencyTable]:
    """Policy permitting only responded syscalls, plus their frequencies."""
    counts = Counter(rec.matched_value for rec in response_log)
    table = ResponseFrequencyTable(
        tuple(sorted(counts.items(), key=lambda item: (item[1], item[0])))
    )
    policy = SyscallPolicy(
        frozenset(counts),
        PolicyProvenance.TWOCELL_SINGLE_RUN,
        (source,) if source else (),
    )
    return policy, table


def average_policy(policies: Sequence[SyscallPolicy]) -> SyscallPolicy:
    """Union of per-run policies."""
    if not policies:
        raise ValueError("average_policy needs at least one policy")
    permitted: frozenset[int] = frozenset().union(*(p.permitted for p in policies))
    sources = sorted({name for p in policies for name in p.source_datasets})
    return SyscallPolicy(permitted, PolicyProvenance.TWOCELL_AVERAGE, tuple(sources))


def evaluate(policy: SyscallPolicy, log: ReplayLog) -> EvaluationRow:
    """Classify every event by policy membership of its syscall number.

    Sums over the log's ``antigen_counts``, at most 2 x 512 pairs, which the
    log counts once however many policies are evaluated against it.
    """
    total = normal = attack = permit = 0
    for (number, label), count in log.antigen_counts:
        total += count
        if label is Label.ATTACK:
            attack += count
        else:
            normal += count
        if policy.permits(number):
            permit += count
    return EvaluationRow(
        dataset=log.scenario_name,
        total=total,
        normal_count=normal,
        attack_count=attack,
        permit_count=permit,
        deny_count=total - permit,
    )


# ---------------------------------------------------------------------------
# Policy file format
# ---------------------------------------------------------------------------
#
#   # provenance: naive
#   # source: normal1,normal2
#   permit 5 # open
#   ...
#   deny-default

def format_policy(policy: SyscallPolicy) -> str:
    lines = [f"# provenance: {policy.provenance.value}"]
    if policy.source_datasets:
        lines.append(f"# source: {','.join(policy.source_datasets)}")
    for nr in sorted(policy.permitted):
        lines.append(f"permit {nr} # {syscall_name(nr)}")
    lines.append("deny-default")
    return "\n".join(lines) + "\n"


def write_policy(policy: SyscallPolicy, path: str | Path) -> None:
    Path(path).write_text(format_policy(policy), encoding="utf-8", newline="\n")


def parse_policy(text: str) -> SyscallPolicy:
    """Parse a policy file as ``format_policy`` writes it.

    Each rule is `permit <nr>`, with 0 <= nr < SYSCALL_RANGE and at most a
    `# comment` after it; `deny-default` ends the rules, and only blank and
    comment lines may follow it.  Every error names its line.
    """
    permitted: set[int] = set()
    provenance = PolicyProvenance.NAIVE
    sources: tuple[str, ...] = ()
    terminated = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                value = body.split(":", 1)[1].strip()
                try:
                    provenance = PolicyProvenance(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: unknown provenance {value!r}") from None
            elif body.startswith("source:"):
                sources = tuple(
                    s.strip() for s in body.split(":", 1)[1].split(",") if s.strip()
                )
            continue
        if terminated:
            raise ValueError(f"line {lineno}: rule after deny-default: {raw!r}")
        if line == "deny-default":
            terminated = True
            continue
        parts = line.partition("#")[0].split()
        if len(parts) != 2 or parts[0] != "permit":
            raise ValueError(f"line {lineno}: expected 'permit <number>', got {raw!r}")
        try:
            number = int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: bad syscall number {parts[1]!r}") from None
        if not 0 <= number < SYSCALL_RANGE:
            raise ValueError(
                f"line {lineno}: syscall number {number} outside [0, {SYSCALL_RANGE})"
            )
        permitted.add(number)
    if not terminated:
        raise ValueError("policy file missing deny-default terminator")
    return SyscallPolicy(frozenset(permitted), provenance, sources)


def read_policy(path: str | Path) -> SyscallPolicy:
    return parse_policy(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def format_frequency_table(table: ResponseFrequencyTable) -> str:
    lines = ["syscall\tfrequency"]
    for nr, freq in table.rows:
        lines.append(f"{syscall_name(nr)}({nr})\t{freq}")
    return "\n".join(lines) + "\n"


def format_comparison_table(
    evaluations: Mapping[str, Mapping[str, EvaluationRow]],
    dataset_order: Sequence[str],
) -> str:
    """Aligned text table: one column per dataset.

    ``evaluations`` maps a policy label (e.g. "naive") to per-dataset rows.
    The normal/attack composition rows are policy-independent and taken from
    the first policy present.
    """
    label_width = max(
        [len("normal syscalls")]
        + [len(f"{label} permit") for label in evaluations]
    )
    col_width = max([9] + [len(d) for d in dataset_order]) + 1

    def fmt_row(label: str, values: Iterable[str]) -> str:
        cells = "".join(f"{v:>{col_width}}" for v in values)
        return f"{label:<{label_width}}{cells}".rstrip()

    lines = [fmt_row("dataset", dataset_order)]
    if evaluations:
        first = next(iter(evaluations.values()))
        lines.append(
            fmt_row(
                "normal syscalls",
                [f"{first[d].normal_pct}%" if d in first else "-" for d in dataset_order],
            )
        )
        lines.append(
            fmt_row(
                "attack syscalls",
                [f"{first[d].attack_pct}%" if d in first else "-" for d in dataset_order],
            )
        )
    for label, rows in evaluations.items():
        lines.append(
            fmt_row(
                f"{label} permit",
                [f"{rows[d].permit_pct}%" if d in rows else "-" for d in dataset_order],
            )
        )
        lines.append(
            fmt_row(
                f"{label} deny",
                [f"{rows[d].deny_pct}%" if d in rows else "-" for d in dataset_order],
            )
        )
    return "\n".join(lines) + "\n"


def format_evaluation_csv(
    evaluations: Mapping[str, Mapping[str, EvaluationRow]]
) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["policy", "dataset", "total", "normal_count", "attack_count",
         "permit_count", "deny_count", "normal_pct", "attack_pct",
         "permit_pct", "deny_pct"]
    )
    for label, rows in evaluations.items():
        for dataset in rows:
            r = rows[dataset]
            writer.writerow(
                [label, dataset, r.total, r.normal_count, r.attack_count,
                 r.permit_count, r.deny_count, r.normal_pct, r.attack_pct,
                 r.permit_pct, r.deny_pct]
            )
    return out.getvalue()
