"""The comparison table and evaluation CSV against per-row references.

The references spell out each table row and each CSV column on its own, so a
writer that builds its rows from one list must still print every row, cell
and width the same way.
"""
from __future__ import annotations

import csv
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aisd.policy import EvaluationRow, format_comparison_table, format_evaluation_csv


def comparison_table_reference(evaluations, dataset_order):
    label_width = max(
        [len("normal syscalls")]
        + [len(f"{label} permit") for label in evaluations]
    )
    col_width = max([9] + [len(d) for d in dataset_order]) + 1

    def fmt_row(label, values):
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


def evaluation_csv_reference(evaluations):
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


# up to 20 characters: longer than "normal syscalls" as "<label> permit",
# and longer than the 9-character minimum column as a dataset name
names = st.text(max_size=20)
counts = st.integers(min_value=0, max_value=10**6)
evaluation_rows = st.builds(EvaluationRow, names, counts, counts, counts, counts, counts)


@st.composite
def comparisons(draw):
    pool = draw(st.lists(names, max_size=6, unique=True))
    # each policy has rows for some of the pool, so some miss a dataset, and
    # a row's own dataset field need not match the key it is filed under
    evaluations = draw(st.dictionaries(
        names,
        st.lists(st.sampled_from(pool), unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({k: evaluation_rows for k in keys})
        ) if pool else st.just({}),
        max_size=4,
    ))
    # the columns: some of the pool in any order, and names no policy has
    order = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return evaluations, order + draw(st.lists(names, max_size=2))


ROW = EvaluationRow("normal1", 434, 434, 0, 434, 0)


@settings(max_examples=400, deadline=None)
@given(comparisons())
@example(({}, []))
@example(({}, ["a-dataset-name-over-9"]))
@example(({"naive": {"normal1": ROW}, "twocell": {}}, ["normal1", "success1"]))
@example(({"a policy label longer than normal syscalls": {"normal1": ROW}}, ["normal1"]))
def test_writers_match_per_row_references(comparison):
    evaluations, dataset_order = comparison
    assert format_comparison_table(evaluations, dataset_order) == comparison_table_reference(
        evaluations, dataset_order
    )
    assert format_evaluation_csv(evaluations) == evaluation_csv_reference(evaluations)
