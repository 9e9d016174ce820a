"""Session-level decisions from per-window predictions.

Activity membership uses a duration threshold (default 90 s): an activity is
part of the session iff the windows predicted as that activity add up to at
least the threshold. Abnormal-behavior scores are the fraction of windows
predicted Presence; a higher ratio means more frequent abnormal behavior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(slots=True)
class SessionSummary:
    """All that scoring needs of one session's windows for one (mode, chunk
    length, task), added up window by window: the window and Presence counts
    (E1-E3), label -> duration sum (recognition) and (predicted, gold) label
    counts of the windows a gold interval covers (segmentation)."""

    windows: int = 0
    present: int = 0
    durations: dict[str, float] = field(default_factory=dict)
    outcomes: Counter[tuple[str | None, str]] = field(default_factory=Counter)

    def add(self, record: Mapping[str, Any], gold: str | None = None) -> None:
        """Count one window's predictions.jsonl record; ``gold`` is the gold
        label at its midpoint, if it is scored per segment."""
        self.windows += 1
        if "presence" in record:
            self.present += record["presence"] is True
            return
        label = record["label"]
        if gold is not None:
            self.outcomes[label, gold] += 1
        if label is not None:
            self.durations[label] = self.durations.get(label, 0.0) + (record["end_s"] - record["start_s"])

    def activities(self, min_duration_s: float = DEFAULT_MIN_ACTIVITY_DURATION_S) -> frozenset[str]:
        """Labels whose windows total at least min_duration_s seconds."""
        return frozenset(label for label, total in self.durations.items() if total >= min_duration_s)

    @property
    def ratio(self) -> float:
        """The fraction of windows predicted Presence."""
        return self.present / self.windows


def lift_session(
    preds: Sequence[SegmentPrediction],
    min_duration_s: float = DEFAULT_MIN_ACTIVITY_DURATION_S,
) -> frozenset[str] | float:
    """One session's decision from its window predictions: for recognition, the
    labels whose windows total at least min_duration_s seconds (with 16 s windows
    and the default threshold, "predicted in at least 6 windows"); for E1-E3, the
    fraction of windows predicted Presence. Unknown predictions count toward no
    label and as Absence. Segmentation is scored per segment and has no session lift."""
    if not preds:
        raise EmptySessionError("cannot lift an empty prediction list")
    groups = {(p.session_id, p.mode.value, p.task.value) for p in preds}
    if len(groups) > 1:
        raise MixedSessionsError(f"predictions span more than one (session, mode, task): {sorted(groups)}")
    task = preds[0].task
    if task is TaskKind.ACTIVITY_SEGMENTATION:
        raise ValueError("segmentation is evaluated per segment, not lifted per session")
    summary = SessionSummary()
    for pred in preds:
        summary.add(pred.to_record())
    return summary.activities(min_duration_s) if task is TaskKind.ACTIVITY_RECOGNITION else summary.ratio
