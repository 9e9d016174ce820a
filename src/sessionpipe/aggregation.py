"""Session-level decisions from per-window predictions.

Activity membership uses a duration threshold (default 90 s): an activity is
part of the session iff the windows predicted as that activity add up to at
least the threshold. Abnormal-behavior scores are the fraction of windows
predicted Presence; a higher ratio means more frequent abnormal behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .corpus import ACTIVITY_TASKS, E_TASKS, TaskKind
from .parsing import MatchTier, ParsedBinary, ParsedLabel
from .prompting import RefinementMode

DEFAULT_MIN_ACTIVITY_DURATION_S = 90.0


class MixedSessionsError(ValueError):
    pass


class EmptySessionError(ValueError):
    pass


@dataclass(frozen=True)
class SegmentPrediction:
    """One parsed prediction for one window of one session, traceable to its
    cached backend response (a predictions.jsonl line)."""

    session_id: str
    task: TaskKind
    mode: RefinementMode
    unit_index: int
    start_s: float
    end_s: float
    label: ParsedLabel | ParsedBinary
    chunk_len_s: int | None = None
    cache_key: str = ""

    def __post_init__(self):
        if self.task in ACTIVITY_TASKS and not isinstance(self.label, ParsedLabel):
            raise TypeError(f"activity task {self.task.value} needs a ParsedLabel")
        if self.task in E_TASKS and not isinstance(self.label, ParsedBinary):
            raise TypeError(f"binary task {self.task.value} needs a ParsedBinary")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_record(self) -> dict:
        record: dict[str, Any] = {
            "session_id": self.session_id,
            "task": self.task.value,
            "mode": self.mode.value,
            "chunk_len_s": self.chunk_len_s,
            "unit_index": self.unit_index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "raw": self.label.raw,
            "cache_key": self.cache_key,
        }
        if isinstance(self.label, ParsedLabel):
            record["label"] = self.label.label
            record["tier"] = self.label.tier.value
        else:
            record["presence"] = self.label.presence
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SegmentPrediction":
        task = TaskKind(record["task"])
        if task in ACTIVITY_TASKS:
            label: ParsedLabel | ParsedBinary = ParsedLabel(
                label=record["label"], tier=MatchTier(record["tier"]), raw=record["raw"]
            )
        else:
            label = ParsedBinary(presence=record["presence"], raw=record["raw"])
        chunk = record["chunk_len_s"]
        return cls(
            session_id=record["session_id"], task=task, mode=RefinementMode(record["mode"]),
            unit_index=int(record["unit_index"]), start_s=float(record["start_s"]),
            end_s=float(record["end_s"]), label=label,
            chunk_len_s=None if chunk is None else int(chunk), cache_key=str(record["cache_key"]),
        )


def _check_single_group(preds: Sequence[SegmentPrediction]) -> None:
    sessions = {p.session_id for p in preds}
    modes = {p.mode for p in preds}
    tasks = {p.task for p in preds}
    if len(sessions) > 1 or len(modes) > 1 or len(tasks) > 1:
        raise MixedSessionsError(
            f"predictions span sessions={sorted(sessions)} modes={sorted(m.value for m in modes)} "
            f"tasks={sorted(t.value for t in tasks)}"
        )


def session_activities(
    preds: Sequence[SegmentPrediction],
    min_duration_s: float = DEFAULT_MIN_ACTIVITY_DURATION_S,
) -> frozenset[str]:
    """Labels whose predicted windows total at least min_duration_s seconds.

    Unknown predictions never contribute. With uniform 16 s windows and the
    default threshold this reduces to "predicted in at least 6 windows".
    """
    _check_single_group(preds)
    totals: dict[str, float] = {}
    for pred in preds:
        label = pred.label.label if isinstance(pred.label, ParsedLabel) else None
        if label is None:
            continue
        totals[label] = totals.get(label, 0.0) + pred.duration_s
    return frozenset(label for label, total in totals.items() if total >= min_duration_s)


def abnormal_ratio(preds: Sequence[SegmentPrediction]) -> float:
    """Fraction of windows predicted Presence; Unknown counts as Absence."""
    if not preds:
        raise EmptySessionError("cannot score an empty prediction list")
    _check_single_group(preds)
    n_present = sum(
        1 for p in preds if isinstance(p.label, ParsedBinary) and p.label.presence is True
    )
    return n_present / len(preds)


def lift_session(
    preds: Sequence[SegmentPrediction],
    min_duration_s: float = DEFAULT_MIN_ACTIVITY_DURATION_S,
) -> frozenset[str] | float:
    """One session's decision from its window predictions: the activity set
    for recognition, the Presence ratio for E1-E3. Segmentation is scored per
    segment and has no session lift."""
    if not preds:
        raise EmptySessionError("cannot lift an empty prediction list")
    task = preds[0].task
    if task is TaskKind.ACTIVITY_SEGMENTATION:
        raise ValueError("segmentation is evaluated per segment, not lifted per session")
    if task is TaskKind.ACTIVITY_RECOGNITION:
        return session_activities(preds, min_duration_s)
    return abnormal_ratio(preds)
