"""Independent brute-force references for the evaluation metrics and for
transcript alignment.

These deliberately re-derive each result from first principles (explicit
confusion tabulation; AP by enumerating every distinct threshold; a linear
scan for each window's utterances) so the library implementations are checked
against a second route, not themselves.
"""

from __future__ import annotations


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def brute_multilabel_macro_f1(preds, gold, classes):
    """Per-class one-vs-rest F1 over set-valued predictions, then unweighted mean."""
    per_class = {}
    for cls in classes:
        tp = fp = fn = 0
        for session in gold:
            p = cls in preds[session]
            g = cls in gold[session]
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif g and not p:
                fn += 1
        per_class[cls] = f1_from_counts(tp, fp, fn)
    macro = sum(per_class.values()) / len(per_class)
    return macro, per_class


def brute_multiclass_macro_f1(pairs, classes):
    """pairs: (predicted label or None, gold label). Unknown predictions are
    wrong for every class."""
    per_class = {}
    for cls in classes:
        tp = fp = fn = 0
        for pred, gold in pairs:
            if gold == cls:
                if pred == cls:
                    tp += 1
                else:
                    fn += 1
            elif pred == cls:
                fp += 1
        per_class[cls] = f1_from_counts(tp, fp, fn)
    macro = sum(per_class.values()) / len(per_class)
    return macro, per_class


def brute_average_precision(items):
    """items: (score, gold bool). AP by sweeping every distinct score threshold."""
    n_pos = sum(1 for _, gold in items if gold)
    if n_pos == 0:
        raise ValueError("no positives")
    thresholds = sorted({score for score, _ in items}, reverse=True)
    ap = 0.0
    recall_prev = 0.0
    for threshold in thresholds:
        selected = [gold for score, gold in items if score >= threshold]
        tp = sum(selected)
        precision = tp / len(selected)
        recall = tp / n_pos
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return ap


def align_transcript(utterances, window_start_s, window_end_s):
    """Join the utterances whose midpoint falls in [start, end), in input order."""
    return " ".join(u.text for u in utterances if window_start_s <= u.midpoint_s < window_end_s)
