"""Scoring: predictions against the corpus's gold codes, into the report files.

A run and ``sessionpipe evaluate`` score the same way: a ``Scorer`` takes each
prediction as its predictions.jsonl record and keeps small per-session
summaries, ``evaluate_predictions`` turns them into the report.json document,
and ``write_report_files`` writes report.json, report.md and predictions.jsonl.
Nothing here talks to a backend.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import aggregation, metrics
from .corpus import SORTED_JSON, ActivityTaxonomy, InputError, SessionManifest, TaskKind, replacing
from .prompting import RefinementMode, chunk_options
from .windowing import Segment

_SEGMENTATION = TaskKind.ACTIVITY_SEGMENTATION.value


class BadPredictionsError(InputError):
    """A predictions.jsonl line that cannot be scored."""


class OutOfOrderError(BadPredictionsError):
    """A prediction that does not come after the one before it in its group in run order."""


class Scorer:
    """Predictions as they arrive, kept only as small per-session summaries.

    Each prediction is its predictions.jsonl record. Within each (mode, chunk
    length, task) group, predictions must arrive in run order: by session, then
    window. Each one's line goes to its group's spill file, an anonymous
    temporary file in ``spill_dir``, and its window is added to its session's
    summary in ``summaries``, by (mode, chunk length, task, session) as the
    records name them. So the spill files joined in group order are
    predictions.jsonl, and every sum adds up in window order.
    """

    def __init__(self, manifests: Sequence[SessionManifest], spill_dir: Path):
        self._timelines = {m.session_id: m.ground_truth.activity_timeline for m in manifests}
        self._spill_dir = Path(spill_dir)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        # by group: its spill file, the (session, window) it took last and that session's summary
        self._groups: dict[tuple[str, str, str], list] = {}
        self.summaries: dict[tuple[str, str, str, str], aggregation.SessionSummary] = {}

    def add(self, record: dict[str, Any]) -> None:
        """Take one prediction; OutOfOrderError if it does not follow its group's last one."""
        group = (record["mode"], str(record["chunk_len_s"]), record["task"])
        at = (record["session_id"], record["unit_index"])
        state = self._groups.get(group)
        if state is None:
            spill = tempfile.TemporaryFile("w+", encoding="utf-8", dir=self._spill_dir)
            state = self._groups[group] = [spill, None, None]
        spill, last, summary = state
        if last is None or at[0] != last[0]:
            if last is not None and at < last:
                raise OutOfOrderError(f"{'/'.join(group)}: session {at[0]} comes after session {last[0]}")
            summary = state[2] = self.summaries[(*group, at[0])] = aggregation.SessionSummary()
        elif at[1] <= last[1]:
            raise OutOfOrderError(f"{'/'.join(group)}: window {at[1]} of session {at[0]} "
                                  f"comes after window {last[1]}")
        state[1] = at
        spill.write(SORTED_JSON.encode(record) + "\n")
        gold = None
        if group[2] == _SEGMENTATION and (timeline := self._timelines.get(at[0])) is not None:
            gold = metrics.resolve_segment_gold(
                Segment(session_id=at[0], index=at[1], start_s=record["start_s"], end_s=record["end_s"],
                        frame_timestamps_s=()), timeline)
        summary.add(record, gold)

    def read(self, path: Path, taxonomy: ActivityTaxonomy) -> None:
        """Add every prediction of a predictions.jsonl file, each checked by
        ``aggregation.check_prediction`` and taken as it is. A line that is not a
        prediction record raises BadPredictionsError, and one out of run order
        OutOfOrderError; both name the file and the line. A file that is not UTF-8
        raises BadPredictionsError too."""
        with open(path, encoding="utf-8") as fh:
            try:
                for number, line in enumerate(fh, 1):
                    if line.strip():
                        try:
                            record = json.loads(line)
                            aggregation.check_prediction(record, taxonomy)
                        except KeyError as exc:
                            raise BadPredictionsError(f"{path}: line {number} has no field {exc}") from None
                        except (ValueError, TypeError) as exc:  # not JSON, not an object, or a bad value
                            raise BadPredictionsError(f"{path}: line {number} is not a prediction: {exc}") from None
                        try:
                            self.add(record)
                        except OutOfOrderError as exc:
                            raise OutOfOrderError(f"{path}: line {number} is out of run order: {exc}") from None
            except UnicodeDecodeError as exc:  # raised by the file's read, between lines
                raise BadPredictionsError(f"{path}: not UTF-8 text: {exc}") from None

    def write_predictions(self, path: Path) -> None:
        """predictions.jsonl: the spill files joined in group order."""
        with replacing(path) as out:
            for group in sorted(self._groups):
                spill = self._groups[group][0]
                spill.seek(0)
                shutil.copyfileobj(spill, out)

    def close(self) -> None:
        """Close, and so delete, the spill files."""
        for spill, _, _ in self._groups.values():
            spill.close()


def evaluate_predictions(
    manifests: Sequence[SessionManifest],
    taxonomy: ActivityTaxonomy,
    scorer: Scorer,
    run_info: Mapping[str, Any],
) -> dict:
    """Score the predictions a scorer took against corpus ground truth: the
    report.json document, with one row per (mode, chunk length) configuration.

    ``run_info`` holds what the run decided: ``backend_id``, ``config`` (its
    settings, whose modes, tasks, chunk lengths and activity duration threshold
    are scored here), ``invalid_sessions`` and ``failures``. A run's own
    report.json has these keys; its other keys are ignored. The summaries of
    invalid sessions, and of sessions outside the corpus, are not read.
    """
    config = run_info["config"]
    modes = [RefinementMode(m) for m in config["modes"]]
    tasks = [TaskKind(t) for t in config["tasks"]]
    invalid = set(run_info["invalid_sessions"])

    rows = []
    for mode in modes:
        for chunk_len in chunk_options(mode, config["chunk_lens"]):
            cells: dict[str, float | None] = {}
            per_class: dict[str, dict[str, float]] = {}
            n_sessions: dict[str, int] = {}
            notes: dict[str, str] = {}
            for task in tasks:
                sessions = [
                    m for m in manifests
                    if m.session_id not in invalid and _has_gold(m, task)
                ]
                n_sessions[task.value] = len(sessions)
                if not sessions:
                    cells[task.value] = None
                    notes[task.value] = "no sessions with gold labels"
                    continue
                group = (mode.value, str(chunk_len), task.value)
                summaries = [(m, scorer.summaries.get((*group, m.session_id))) for m in sessions]
                if task is TaskKind.ACTIVITY_RECOGNITION:
                    min_duration_s = config["min_activity_duration_s"]
                    cells[task.value], per_class[task.value] = metrics.macro_f1_multilabel(
                        {m.session_id: s.activities(min_duration_s) if s else frozenset() for m, s in summaries},
                        {m.session_id: m.ground_truth.session_activities for m, s in summaries},
                        taxonomy)
                elif task is TaskKind.ACTIVITY_SEGMENTATION:
                    outcomes = sum((s.outcomes for _, s in summaries if s), Counter())
                    cells[task.value], per_class[task.value] = metrics.macro_f1_outcomes(outcomes, taxonomy)
                else:
                    ranked = [
                        metrics.RankedScore(session_id=m.session_id, score=s.ratio,
                                            gold_presence=bool(m.ground_truth.e_flag(task)))
                        for m, s in summaries if s
                    ]
                    n_sessions[task.value] = len(ranked)
                    try:
                        cells[task.value] = metrics.pr_auc(ranked)
                    except metrics.NoPositivesError:
                        cells[task.value] = None
                        notes[task.value] = "no Presence sessions in gold"
            rows.append({"mode": mode.value, "chunk_len_s": chunk_len, "metrics": cells,
                         "per_class": per_class, "n_sessions": n_sessions, "notes": notes})

    return {
        "schema_version": 1,
        "backend_id": run_info["backend_id"],
        "taxonomy": taxonomy.name,
        "taxonomy_labels": list(taxonomy.labels),
        "config": config,
        "rows": rows,
        "invalid_sessions": sorted(invalid & {m.session_id for m in manifests}),
        "failures": list(run_info["failures"]),
    }


def report_row(report: dict, mode: RefinementMode, chunk_len_s: int | None = None) -> dict:
    """The row of a report.json document for one (mode, chunk length) configuration."""
    for row in report["rows"]:
        if row["mode"] == mode.value and row["chunk_len_s"] == chunk_len_s:
            return row
    raise KeyError(f"no report row for mode={mode.value} chunk_len={chunk_len_s}")


def _has_gold(manifest: SessionManifest, task: TaskKind) -> bool:
    gt = manifest.ground_truth
    if task is TaskKind.ACTIVITY_RECOGNITION:
        return gt.session_activities is not None
    if task is TaskKind.ACTIVITY_SEGMENTATION:
        return gt.activity_timeline is not None
    return gt.e_flag(task) is not None


def write_report_files(report: dict, scorer: Scorer, report_dir: Path) -> None:
    """Write report.json, report.md and the scorer's predictions.jsonl, each
    replaced whole."""
    from .reporting import render_markdown  # looked up per call: perfbench's tracer wraps it after import

    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    with replacing(report_dir / "report.json") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with replacing(report_dir / "report.md") as fh:
        fh.write(render_markdown(report))
    scorer.write_predictions(report_dir / "predictions.jsonl")
