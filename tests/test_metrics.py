import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe.corpus import ActivityTaxonomy, TimelineEntry
from sessionpipe.metrics import (
    KeyMismatchError,
    NoPositivesError,
    RankedScore,
    macro_f1_multiclass,
    macro_f1_multilabel,
    pr_auc,
    resolve_segment_gold,
)
from sessionpipe.windowing import Segment

from .oracles import (
    brute_average_precision,
    brute_multiclass_macro_f1,
    brute_multilabel_macro_f1,
)

AB = ActivityTaxonomy(name="ab", labels=("A", "B"))


def seg(index, start, end, session_id="s"):
    return Segment(session_id=session_id, index=index, start_s=start, end_s=end, frame_timestamps_s=())


def contiguous_timeline(labels, width=16.0):
    return tuple(
        TimelineEntry(i * width, (i + 1) * width, label) for i, label in enumerate(labels)
    )


class TestMultilabel:
    def test_worked_example(self):
        # oracle-derived: A -> tp=2 fp=0 fn=0, B -> tp=0 fp=0 fn=1
        gold = {"s1": {"A"}, "s2": {"A", "B"}}
        pred = {"s1": {"A"}, "s2": {"A"}}
        oracle_macro, oracle_classes = brute_multilabel_macro_f1(pred, gold, ("A", "B"))
        assert (oracle_macro, oracle_classes) == (0.5, {"A": 1.0, "B": 0.0})
        macro, per_class = macro_f1_multilabel(pred, gold, AB)
        assert macro == pytest.approx(0.5)
        assert per_class == {"A": 1.0, "B": 0.0}

    def test_perfect_match(self):
        gold = {"s1": {"A"}, "s2": {"B"}}
        macro, _ = macro_f1_multilabel(gold, gold, AB)
        assert macro == 1.0

    def test_all_empty_predictions(self):
        gold = {"s1": {"A"}, "s2": {"B"}}
        pred = {"s1": set(), "s2": set()}
        macro, _ = macro_f1_multilabel(pred, gold, AB)
        assert macro == 0.0

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatchError):
            macro_f1_multilabel({"s1": set()}, {"s2": set()}, AB)


class TestMulticlass:
    def test_worked_example(self):
        # oracle-derived: F1_A = 2/3, F1_B = 0.8
        golds = ["A", "A", "B", "B"]
        preds = ["A", "B", "B", "B"]
        pairs = list(zip(preds, golds))
        oracle_macro, oracle_classes = brute_multiclass_macro_f1(pairs, ("A", "B"))
        assert oracle_classes["A"] == pytest.approx(2 / 3)
        assert oracle_classes["B"] == pytest.approx(0.8)
        timeline = contiguous_timeline(golds)
        seg_preds = [(seg(i, i * 16.0, (i + 1) * 16.0), pred) for i, pred in enumerate(preds)]
        macro, per_class = macro_f1_multiclass(seg_preds, {"s": timeline}, AB)
        assert macro == pytest.approx(oracle_macro) == pytest.approx((2 / 3 + 0.8) / 2)
        assert per_class["A"] == pytest.approx(2 / 3)
        assert per_class["B"] == pytest.approx(0.8)

    def test_perfect(self):
        golds = ["A", "B", "A", "B"]
        timeline = contiguous_timeline(golds)
        seg_preds = [(seg(i, i * 16.0, (i + 1) * 16.0), g) for i, g in enumerate(golds)]
        macro, _ = macro_f1_multiclass(seg_preds, {"s": timeline}, AB)
        assert macro == 1.0

    def test_all_unknown_is_zero(self):
        golds = ["A", "B"]
        timeline = contiguous_timeline(golds)
        seg_preds = [(seg(i, i * 16.0, (i + 1) * 16.0), None) for i in range(2)]
        macro, _ = macro_f1_multiclass(seg_preds, {"s": timeline}, AB)
        assert macro == 0.0

    def test_uncovered_segment_excluded(self):
        timeline = (TimelineEntry(0.0, 16.0, "A"),)
        seg_preds = [(seg(0, 0.0, 16.0), "A"), (seg(1, 50.0, 66.0), "B")]
        macro, per_class = macro_f1_multiclass(seg_preds, {"s": timeline}, AB)
        assert per_class == {"A": 1.0, "B": 0.0}

    def test_unknown_adds_fn_but_no_fp(self):
        golds = ["A", "A", "B"]
        timeline = contiguous_timeline(golds)
        seg_preds = [
            (seg(0, 0.0, 16.0), "A"),
            (seg(1, 16.0, 32.0), None),
            (seg(2, 32.0, 48.0), "B"),
        ]
        _, per_class = macro_f1_multiclass(seg_preds, {"s": timeline}, AB)
        # A: tp=1 fn=1 fp=0 -> 2/3 ; B: tp=1 -> 1.0 (Unknown did not pollute B)
        assert per_class["A"] == pytest.approx(2 / 3)
        assert per_class["B"] == 1.0

    def test_timeline_label_outside_taxonomy(self):
        timeline = (TimelineEntry(0.0, 16.0, "zzz"),)
        with pytest.raises(KeyMismatchError):
            macro_f1_multiclass([(seg(0, 0.0, 16.0), "A")], {"s": timeline}, AB)

    def test_per_session_timelines(self):
        timelines = {
            "s1": (TimelineEntry(0.0, 16.0, "A"),),
            "s2": (TimelineEntry(0.0, 16.0, "B"),),
        }
        seg_preds = [
            (seg(0, 0.0, 16.0, session_id="s1"), "A"),
            (seg(0, 0.0, 16.0, session_id="s2"), "B"),
        ]
        macro, _ = macro_f1_multiclass(seg_preds, timelines, AB)
        assert macro == 1.0

    def test_missing_session_timeline(self):
        seg_preds = [(seg(0, 0.0, 16.0, session_id="ghost"), "A")]
        with pytest.raises(KeyMismatchError):
            macro_f1_multiclass(seg_preds, {"other": ()}, AB)


class TestResolveSegmentGold:
    def test_midpoint_rule(self):
        timeline = (TimelineEntry(0.0, 10.0, "A"), TimelineEntry(10.0, 20.0, "B"))
        assert resolve_segment_gold(seg(0, 4.0, 16.0), timeline) == "B"  # midpoint 10 -> right
        assert resolve_segment_gold(seg(0, 0.0, 10.0), timeline) == "A"
        assert resolve_segment_gold(seg(0, 30.0, 40.0), timeline) is None


class TestPrAuc:
    def test_worked_example(self):
        items = [(0.9, True), (0.8, False), (0.7, True)]
        assert brute_average_precision(items) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        scores = [RankedScore(f"s{i}", s, g) for i, (s, g) in enumerate(items)]
        assert pr_auc(scores) == pytest.approx(0.8333333333, abs=1e-9)

    def test_perfect_separation(self):
        scores = [
            RankedScore("s1", 0.9, True),
            RankedScore("s2", 0.8, True),
            RankedScore("s3", 0.2, False),
        ]
        assert pr_auc(scores) == 1.0

    def test_all_tied_equals_base_rate(self):
        scores = [RankedScore(f"s{i}", 0.5, i < 3) for i in range(10)]
        assert pr_auc(scores) == pytest.approx(3 / 10)

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            pr_auc([RankedScore("s1", 0.5, False)])

    def test_duplicate_sessions_rejected(self):
        scores = [RankedScore("s1", 0.5, True), RankedScore("s1", 0.4, False)]
        with pytest.raises(ValueError):
            pr_auc(scores)

    def test_monotone_transform_invariance(self):
        rng = random.Random(5)
        scores = [RankedScore(f"s{i}", rng.random(), rng.random() < 0.4) for i in range(12)]
        if not any(s.gold_presence for s in scores):
            scores[0] = RankedScore("s0", scores[0].score, True)
        transformed = [
            RankedScore(s.session_id, s.score**3 * 0.5 + 0.1, s.gold_presence) for s in scores
        ]
        assert pr_auc(scores) == pytest.approx(pr_auc(transformed), abs=1e-12)


# ---------------------------------------------------------------------------
# randomized oracle equivalence (the acceptance suite re-runs these at scale)


def random_multilabel_instance(rng):
    n_sessions = rng.randint(1, 12)
    n_classes = rng.randint(1, 5)
    classes = [f"c{i}" for i in range(n_classes)]
    gold = {f"s{i}": {c for c in classes if rng.random() < 0.4} for i in range(n_sessions)}
    pred = {f"s{i}": {c for c in classes if rng.random() < 0.4} for i in range(n_sessions)}
    return pred, gold, classes


def random_multiclass_instance(rng):
    n_segments = rng.randint(1, 12)
    n_classes = rng.randint(1, 5)
    classes = [f"c{i}" for i in range(n_classes)]
    golds = [rng.choice(classes) for _ in range(n_segments)]
    preds = [rng.choice(classes + [None]) for _ in range(n_segments)]
    return preds, golds, classes


def random_ranked_instance(rng):
    n = rng.randint(1, 12)
    # coarse score grid makes ties common
    items = [(rng.randint(0, 4) / 4.0, rng.random() < 0.5) for _ in range(n)]
    if not any(gold for _, gold in items):
        items[0] = (items[0][0], True)
    return items


def test_multilabel_matches_oracle_on_random_instances():
    rng = random.Random(12345)
    for _ in range(300):
        pred, gold, classes = random_multilabel_instance(rng)
        taxonomy = ActivityTaxonomy(name="r", labels=tuple(classes))
        macro, per_class = macro_f1_multilabel(pred, gold, taxonomy)
        oracle_macro, oracle_classes = brute_multilabel_macro_f1(pred, gold, classes)
        assert macro == pytest.approx(oracle_macro, abs=1e-9)
        assert per_class == pytest.approx(oracle_classes, abs=1e-9)


def test_multiclass_matches_oracle_on_random_instances():
    rng = random.Random(54321)
    for _ in range(300):
        preds, golds, classes = random_multiclass_instance(rng)
        taxonomy = ActivityTaxonomy(name="r", labels=tuple(classes))
        timeline = contiguous_timeline(golds)
        seg_preds = [(seg(i, i * 16.0, (i + 1) * 16.0), p) for i, p in enumerate(preds)]
        macro, _ = macro_f1_multiclass(seg_preds, {"s": timeline}, taxonomy)
        oracle_macro, _ = brute_multiclass_macro_f1(list(zip(preds, golds)), classes)
        assert macro == pytest.approx(oracle_macro, abs=1e-9)


def test_pr_auc_matches_oracle_on_random_instances():
    rng = random.Random(99)
    for _ in range(300):
        items = random_ranked_instance(rng)
        scores = [RankedScore(f"s{i}", s, g) for i, (s, g) in enumerate(items)]
        assert pr_auc(scores) == pytest.approx(brute_average_precision(items), abs=1e-9)


def test_pr_auc_matches_sklearn_on_random_instances():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = random.Random(7)
    for _ in range(200):
        items = random_ranked_instance(rng)
        scores = [RankedScore(f"s{i}", s, g) for i, (s, g) in enumerate(items)]
        expected = sklearn_metrics.average_precision_score(
            [int(g) for _, g in items], [s for s, _ in items]
        )
        assert pr_auc(scores) == pytest.approx(expected, abs=1e-9)


def test_multilabel_matches_sklearn_on_random_instances():
    # sklearn reads a 1-column indicator as a binary problem (averaging over
    # the 0 class too), so the comparison only holds from 2 classes up.
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = random.Random(11)
    for _ in range(200):
        pred, gold, classes = random_multilabel_instance(rng)
        if len(classes) < 2:
            continue
        taxonomy = ActivityTaxonomy(name="r", labels=tuple(classes))
        macro, _ = macro_f1_multilabel(pred, gold, taxonomy)
        sessions = sorted(gold)
        y_true = [[int(c in gold[s]) for c in classes] for s in sessions]
        y_pred = [[int(c in pred[s]) for c in classes] for s in sessions]
        expected = sklearn_metrics.f1_score(y_true, y_pred, average="macro", zero_division=0)
        assert macro == pytest.approx(expected, abs=1e-9)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_permutation_invariance_property(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    items = random_ranked_instance(rng)
    scores = [RankedScore(f"s{i}", s, g) for i, (s, g) in enumerate(items)]
    shuffled = scores[:]
    rng.shuffle(shuffled)
    assert pr_auc(scores) == pytest.approx(pr_auc(shuffled), abs=1e-12)
