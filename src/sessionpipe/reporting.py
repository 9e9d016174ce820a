"""Markdown rendering of evaluation reports.

Layout mirrors the classification-results table: one row per refinement
configuration, metric columns for the two activity tasks (macro-F1) and the
three behavior codes (PR-AUC), followed by per-class F1 breakdowns.
"""

from __future__ import annotations

from .corpus import TaskKind

_COLUMNS = [
    (TaskKind.ACTIVITY_RECOGNITION, "AR"),
    (TaskKind.ACTIVITY_SEGMENTATION, "AS"),
    (TaskKind.E1_OVERACTIVITY, "E1"),
    (TaskKind.E2_TANTRUMS, "E2"),
    (TaskKind.E3_ANXIETY, "E3"),
]

_MODE_TITLES = {
    "zero_shot": "Zero-shot",
    "video_only": "Video only",
    "transcript_only": "Transcript only",
    "multimodal": "Multimodal",
}


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def _row_title(row: dict) -> str:
    title = _MODE_TITLES[row["mode"]]
    if row["chunk_len_s"] is not None:
        title += f" ({row['chunk_len_s']}s)"
    return title


def render_markdown(report: dict) -> str:
    """report.md from a report.json document."""
    lines = [
        "# Evaluation report",
        "",
        f"Backend: `{report['backend_id']}` | Taxonomy: `{report['taxonomy']}`",
        "",
        "Macro-F1 for AR/AS, PR-AUC for E1-E3. Higher is better.",
        "",
        "| Configuration | AR | AS | E1 | E2 | E3 |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in report["rows"]:
        cells = [
            _fmt(row["metrics"].get(task.value)) if task.value in row["metrics"] else "-"
            for task, _ in _COLUMNS
        ]
        lines.append(f"| {_row_title(row)} | " + " | ".join(cells) + " |")
    lines.append("")

    for row in report["rows"]:
        per_class = row["per_class"]
        blocks = [
            (task, header)
            for task, header in _COLUMNS[:2]
            if per_class.get(task.value)
        ]
        if not blocks:
            continue
        lines.append(f"## Per-class F1 - {_row_title(row)}")
        lines.append("")
        header = "| Class | " + " | ".join(h for _, h in blocks) + " |"
        lines.append(header)
        lines.append("| --- |" + " --- |" * len(blocks))
        known = set(per_class[blocks[0][0].value])
        labels = [label for label in report["taxonomy_labels"] if label in known]
        for label in labels:
            values = " | ".join(_fmt(per_class[task.value].get(label)) for task, _ in blocks)
            lines.append(f"| {label} | {values} |")
        lines.append("")

    if report["invalid_sessions"]:
        lines.append("## Invalid sessions")
        lines.append("")
        for session_id in report["invalid_sessions"]:
            lines.append(f"- {session_id}")
        lines.append("")
    if report["failures"]:
        lines.append(f"Failed backend calls: {len(report['failures'])} (see report.json).")
        lines.append("")
    return "\n".join(lines)
