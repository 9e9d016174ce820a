"""Session-level decisions from per-window predictions.

Activity membership uses a duration threshold (default 90 s): an activity is
part of the session iff the windows predicted as that activity add up to at
least the threshold. Abnormal-behavior scores are the fraction of windows
predicted Presence; a higher ratio means more frequent abnormal behavior.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .corpus import ACTIVITY_TASKS, ActivityTaxonomy, TaskKind
from .parsing import MatchTier
from .prompting import RefinementMode, check_chunk_len

DEFAULT_MIN_ACTIVITY_DURATION_S = 90.0


class MixedSessionsError(ValueError):
    pass


class EmptySessionError(ValueError):
    pass


# the fields of a predictions.jsonl record, by task kind: field -> (its JSON types, in words)
_STRING, _NUMBER = ((str,), "a string"), ((int, float), "a number")
_FIELDS = {
    "session_id": _STRING, "task": _STRING, "mode": _STRING, "chunk_len_s": ((int, type(None)), "an integer or null"),
    "unit_index": ((int,), "an integer"), "start_s": _NUMBER, "end_s": _NUMBER, "raw": _STRING, "cache_key": _STRING,
}
_LABEL_FIELDS = {**_FIELDS, "label": ((str, type(None)), "a string or null"), "tier": _STRING}
_PRESENCE_FIELDS = {**_FIELDS, "presence": ((bool, type(None)), "true, false or null")}


def check_prediction(record: Any, taxonomy: ActivityTaxonomy) -> None:
    """Raise unless ``record`` is a predictions.jsonl record: exactly its task kind's
    fields, of their types, a known task, mode and tier, a chunk length that is a
    positive integer when the mode reads a transcript and null otherwise, a finite
    window (0 <= start_s < end_s) and a taxonomy label, null exactly when the tier
    is unknown. A missing field raises KeyError, anything else ValueError; nothing
    is coerced."""
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    fields = _LABEL_FIELDS if TaskKind(record["task"]) in ACTIVITY_TASKS else _PRESENCE_FIELDS
    if record.keys() != fields.keys():
        if missing := fields.keys() - record.keys():
            raise KeyError(min(missing))
        raise ValueError(f"unknown field {', '.join(sorted(record.keys() - fields.keys()))}")
    for name, (types, kind) in fields.items():
        if type(record[name]) not in types:  # exact types: true is no integer
            raise ValueError(f"{name} {record[name]!r} is not {kind}")
    check_chunk_len(RefinementMode(record["mode"]), record["chunk_len_s"])
    if not 0 <= record["start_s"] < record["end_s"] < math.inf:  # also false for NaN
        raise ValueError(f"start_s {record['start_s']!r} and end_s {record['end_s']!r} are not a window")
    if fields is _LABEL_FIELDS:
        label, tier = record["label"], MatchTier(record["tier"])
        if (label is None) != (tier is MatchTier.UNKNOWN):
            raise ValueError(f"label {label!r} with tier {tier.value}: the label is null iff the tier is unknown")
        if label is not None and label not in taxonomy:
            raise ValueError(f"label {label!r} is not in taxonomy '{taxonomy.name}'")


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


def lift_session(preds: Sequence[Mapping[str, Any]],
                 min_duration_s: float = DEFAULT_MIN_ACTIVITY_DURATION_S) -> frozenset[str] | float:
    """One session's decision from its predictions.jsonl records: for recognition, the
    labels whose windows total at least min_duration_s seconds (with 16 s windows
    and the default threshold, "predicted in at least 6 windows"); for E1-E3, the
    fraction of windows predicted Presence. Unknown predictions count toward no
    label and as Absence. Segmentation is scored per segment and has no session lift."""
    if not preds:
        raise EmptySessionError("cannot lift an empty prediction list")
    groups = {(p["session_id"], p["mode"], p["task"]) for p in preds}
    if len(groups) > 1:
        raise MixedSessionsError(f"predictions span more than one (session, mode, task): {sorted(groups)}")
    task = TaskKind(preds[0]["task"])
    if task is TaskKind.ACTIVITY_SEGMENTATION:
        raise ValueError("segmentation is evaluated per segment, not lifted per session")
    summary = SessionSummary()
    for pred in preds:
        summary.add(pred)
    return summary.activities(min_duration_s) if task is TaskKind.ACTIVITY_RECOGNITION else summary.ratio
