import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe.aggregation import (
    EmptySessionError,
    MixedSessionsError,
    SegmentPrediction,
    lift_session,
)
from sessionpipe.corpus import TaskKind
from sessionpipe.parsing import MatchTier, ParsedBinary, ParsedLabel
from sessionpipe.prompting import RefinementMode


def label_pred(index, label, duration=16.0, session_id="s1"):
    parsed = (
        ParsedLabel(label=label, tier=MatchTier.EXACT, raw=str(label))
        if label is not None
        else ParsedLabel(label=None, tier=MatchTier.UNKNOWN, raw="?")
    )
    start = index * duration
    return SegmentPrediction(
        session_id=session_id,
        task=TaskKind.ACTIVITY_RECOGNITION,
        mode=RefinementMode.MULTIMODAL,
        unit_index=index,
        start_s=start,
        end_s=start + duration,
        label=parsed,
    )


def binary_pred(index, presence, session_id="s1"):
    return SegmentPrediction(
        session_id=session_id,
        task=TaskKind.E1_OVERACTIVITY,
        mode=RefinementMode.MULTIMODAL,
        unit_index=index,
        start_s=index * 16.0,
        end_s=(index + 1) * 16.0,
        label=ParsedBinary(presence=presence, raw=str(presence)),
    )


class TestSessionActivities:
    def test_96_seconds_in_80_out(self):
        six = [label_pred(i, "manipulatives") for i in range(6)]
        five = [label_pred(i, "manipulatives") for i in range(5)]
        assert lift_session(six) == {"manipulatives"}
        assert lift_session(five) == frozenset()

    def test_all_unknown_is_empty(self):
        preds = [label_pred(i, None) for i in range(10)]
        assert lift_session(preds) == frozenset()

    def test_tail_segment_duration_counts(self):
        # 5 full 16 s segments + one 10 s kept tail = exactly 90 s
        preds = [label_pred(i, "toy play") for i in range(5)]
        preds.append(
            SegmentPrediction(
                session_id="s1",
                task=TaskKind.ACTIVITY_RECOGNITION,
                mode=RefinementMode.MULTIMODAL,
                unit_index=5,
                start_s=80.0,
                end_s=90.0,
                label=ParsedLabel(label="toy play", tier=MatchTier.EXACT, raw="toy play"),
            )
        )
        assert lift_session(preds) == {"toy play"}

    def test_mixed_sessions_rejected(self):
        preds = [label_pred(0, "a toy", session_id="s1"), label_pred(1, "a toy", session_id="s2")]
        with pytest.raises(MixedSessionsError):
            lift_session(preds)

    def test_threshold_configurable(self):
        preds = [label_pred(0, "toy play")]
        assert lift_session(preds, min_duration_s=16.0) == {"toy play"}

    @pytest.mark.parametrize("count", range(11))
    def test_threshold_law_for_16s_segments(self, count):
        preds = [label_pred(i, "toy play") for i in range(count)]
        included = bool(preds) and "toy play" in lift_session(preds)
        assert included == (count >= 6)


class TestAbnormalRatio:
    def test_three_of_ten(self):
        preds = [binary_pred(i, i < 3) for i in range(10)]
        assert lift_session(preds) == pytest.approx(0.3)

    def test_zero_presence(self):
        preds = [binary_pred(i, False) for i in range(7)]
        assert lift_session(preds) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySessionError):
            lift_session([])

    def test_unknown_counts_as_absence(self):
        preds = [binary_pred(0, True), binary_pred(1, None), binary_pred(2, None)]
        assert lift_session(preds) == pytest.approx(1 / 3)

    def test_result_in_unit_interval(self):
        preds = [binary_pred(i, bool(i % 2)) for i in range(9)]
        assert 0.0 <= lift_session(preds) <= 1.0


@given(
    labels=st.lists(st.sampled_from(["a toy", "b toy", None]), min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_permutation_invariance(labels, seed):
    preds = [label_pred(i, label) for i, label in enumerate(labels)]
    shuffled = preds[:]
    random.Random(seed).shuffle(shuffled)
    assert lift_session(preds) == lift_session(shuffled)

    flags = [label is not None for label in labels]
    bpreds = [binary_pred(i, flag) for i, flag in enumerate(flags)]
    bshuffled = bpreds[:]
    random.Random(seed).shuffle(bshuffled)
    assert lift_session(bpreds) == lift_session(bshuffled)


@given(labels=st.lists(st.sampled_from(["a toy", "b toy", None]), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_flipping_one_segment_only_grows_that_label(labels):
    preds = [label_pred(i, label) for i, label in enumerate(labels)]
    base = lift_session(preds)
    flipped = preds[:]
    flipped[0] = label_pred(0, "b toy")
    after = lift_session(flipped)
    # only membership of the two affected labels may change
    assert base - {"a toy", "b toy", None} == after - {"a toy", "b toy", None}
    if "b toy" in base:
        assert "b toy" in after


class TestLiftSession:
    def test_recognition_lift_carries_activity_set(self):
        lifted = lift_session([label_pred(i, "toy play") for i in range(6)])
        assert lifted == frozenset({"toy play"})

    def test_binary_lift_carries_score(self):
        lifted = lift_session([binary_pred(i, i == 0) for i in range(4)])
        assert lifted == pytest.approx(0.25)

    def test_empty_and_mixed_input_rejected(self):
        with pytest.raises(EmptySessionError):
            lift_session([])
        with pytest.raises(MixedSessionsError):
            lift_session([binary_pred(0, True), binary_pred(1, True, session_id="s2")])

    def test_segmentation_has_no_session_lift(self):
        pred = SegmentPrediction(
            session_id="s1",
            task=TaskKind.ACTIVITY_SEGMENTATION,
            mode=RefinementMode.MULTIMODAL,
            unit_index=0,
            start_s=0.0,
            end_s=16.0,
            label=ParsedLabel(label="toy play", tier=MatchTier.EXACT, raw="toy play"),
        )
        with pytest.raises(ValueError):
            lift_session([pred])


def test_task_label_kind_mismatch_rejected():
    with pytest.raises(TypeError):
        SegmentPrediction(
            session_id="s1",
            task=TaskKind.ACTIVITY_RECOGNITION,
            mode=RefinementMode.MULTIMODAL,
            unit_index=0,
            start_s=0.0,
            end_s=16.0,
            label=ParsedBinary(presence=True, raw="yes"),
        )
