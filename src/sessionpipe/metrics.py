"""Evaluation metrics: macro-F1 (multi-label and multi-class) and PR-AUC.

Per-class F1 uses the 0/0 -> 0 convention; the macro average runs over every
taxonomy class, in taxonomy order. PR-AUC is step-wise average precision with
tied scores grouped into a single threshold step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import ActivityTaxonomy, TimelineEntry
from .windowing import Segment


class KeyMismatchError(ValueError):
    pass


class NoPositivesError(ValueError):
    pass


@dataclass(frozen=True)
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 0.0 if denom == 0 else 2 * self.tp / denom


@dataclass(frozen=True)
class RankedScore:
    """One session's ranking score against its binary gold label."""

    session_id: str
    score: float
    gold_presence: bool

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


def _macro(per_class: Mapping[str, float]) -> float:
    return sum(per_class.values()) / len(per_class)  # a taxonomy has at least one label


def macro_f1_multilabel(
    preds: Mapping[str, frozenset[str] | set[str]],
    gold: Mapping[str, frozenset[str] | set[str]],
    taxonomy: ActivityTaxonomy,
) -> tuple[float, dict[str, float]]:
    """Session-level multi-label macro-F1 over set-valued predictions."""
    if set(preds) != set(gold):
        raise KeyMismatchError(
            f"prediction sessions {sorted(preds)} != gold sessions {sorted(gold)}"
        )
    per_class: dict[str, float] = {}
    for cls in taxonomy.labels:
        tp = fp = fn = 0
        for session in gold:
            in_pred = cls in preds[session]
            in_gold = cls in gold[session]
            tp += in_pred and in_gold
            fp += in_pred and not in_gold
            fn += in_gold and not in_pred
        per_class[cls] = ClassCounts(tp, fp, fn).f1
    return _macro(per_class), per_class


def resolve_segment_gold(
    segment: Segment,
    timeline: Sequence[TimelineEntry],
) -> str | None:
    """Gold label of a segment: the annotated interval covering its midpoint."""
    mid = segment.midpoint_s
    for entry in timeline:
        if entry.start_s <= mid < entry.end_s:
            return entry.label
    return None


def macro_f1_multiclass(
    preds: Sequence[tuple[Segment, str | None]],
    timelines: Mapping[str, Sequence[TimelineEntry]],
    taxonomy: ActivityTaxonomy,
) -> tuple[float, dict[str, float]]:
    """Segment-level multi-class macro-F1 against annotated timelines.

    `timelines` maps each session_id to its interval list. A segment's gold
    label is the interval covering its midpoint; segments not covered by any
    interval are excluded.
    """
    for entries in timelines.values():
        for entry in entries:
            if entry.label not in taxonomy:
                raise KeyMismatchError(f"timeline label '{entry.label}' not in taxonomy")
    outcomes: Counter[tuple[str | None, str]] = Counter()
    for segment, pred_label in preds:
        if segment.session_id not in timelines:
            raise KeyMismatchError(f"no gold timeline for session '{segment.session_id}'")
        gold_label = resolve_segment_gold(segment, timelines[segment.session_id])
        if gold_label is not None:
            outcomes[pred_label, gold_label] += 1
    return macro_f1_outcomes(outcomes, taxonomy)


def macro_f1_outcomes(
    outcomes: Mapping[tuple[str | None, str], int],
    taxonomy: ActivityTaxonomy,
) -> tuple[float, dict[str, float]]:
    """Multi-class macro-F1 from (predicted, gold) label counts. Unknown
    predictions (None) are always wrong: they add a false negative for the
    gold class and no false positive."""
    for pred_label, _ in outcomes:
        if pred_label is not None and pred_label not in taxonomy:
            raise KeyMismatchError(f"predicted label '{pred_label}' not in taxonomy")
    per_class: dict[str, float] = {}
    for cls in taxonomy.labels:
        tp = sum(n for (pred, gold), n in outcomes.items() if pred == cls and gold == cls)
        fp = sum(n for (pred, gold), n in outcomes.items() if pred == cls and gold != cls)
        fn = sum(n for (pred, gold), n in outcomes.items() if pred != cls and gold == cls)
        per_class[cls] = ClassCounts(tp, fp, fn).f1
    return _macro(per_class), per_class


def pr_auc(scores: Sequence[RankedScore]) -> float:
    """Average precision over ranked session scores, with tie groups.

    Sessions are ranked by score descending; all sessions sharing a score form
    one threshold step, and precision/recall are taken after including the
    whole group: AP = sum over steps of (R_i - R_{i-1}) * P_i.
    """
    ids = [s.session_id for s in scores]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate session_id in ranked scores")
    n_pos = sum(1 for s in scores if s.gold_presence)
    if n_pos == 0:
        raise NoPositivesError("PR-AUC needs at least one Presence session in gold")

    ordered = sorted(scores, key=lambda s: -s.score)
    ap = 0.0
    tp = fp = 0
    recall_prev = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].score == ordered[i].score:
            tp += ordered[j].gold_presence
            fp += not ordered[j].gold_presence
            j += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        i = j
    return ap
