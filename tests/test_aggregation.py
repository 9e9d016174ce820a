import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe.aggregation import (
    EmptySessionError,
    MixedSessionsError,
    check_prediction,
    lift_session,
)
from sessionpipe.backends import BackendRequest, Role
from sessionpipe.corpus import ACTIVITY_TASKS, SORTED_JSON, ActivityTaxonomy, TaskKind
from sessionpipe.orchestrator import prediction_record
from sessionpipe.planning import PlannedUnit
from sessionpipe.prompting import TRANSCRIPT_MODES, RefinementMode
from sessionpipe.windowing import SUPPORTED_CHUNK_LENGTHS, Segment, TranscriptChunk

TAXONOMY = ActivityTaxonomy(name="toys", labels=("a toy", "b toy", "toy play", "manipulatives"),
                            aliases={"playing with toys": "toy play"})


def record(index, task, start_s, end_s, session_id="s1", **parsed):
    """A multimodal predictions.jsonl record; ``parsed`` is label and tier, or presence."""
    return {"session_id": session_id, "task": task.value, "mode": RefinementMode.MULTIMODAL.value,
            "chunk_len_s": 16, "unit_index": index, "start_s": start_s, "end_s": end_s,
            "raw": "the answer", "cache_key": "", **parsed}


def label_pred(index, label, duration=16.0, session_id="s1", task=TaskKind.ACTIVITY_RECOGNITION):
    start = index * duration
    return record(index, task, start, start + duration, session_id,
                  label=label, tier="exact" if label is not None else "unknown")


def binary_pred(index, presence, session_id="s1"):
    return record(index, TaskKind.E1_OVERACTIVITY, index * 16.0, (index + 1) * 16.0, session_id, presence=presence)


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
        preds.append({**label_pred(5, "toy play"), "start_s": 80.0, "end_s": 90.0})
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
        with pytest.raises(ValueError):
            lift_session([label_pred(0, "toy play", task=TaskKind.ACTIVITY_SEGMENTATION)])


def test_task_label_kind_mismatch_rejected():
    recognition_with_presence = record(0, TaskKind.ACTIVITY_RECOGNITION, 0.0, 16.0, presence=True)
    with pytest.raises(KeyError):
        check_prediction(recognition_with_presence, TAXONOMY)
    e1_with_label = record(0, TaskKind.E1_OVERACTIVITY, 0.0, 16.0, label="toy play", tier="exact")
    with pytest.raises(KeyError):
        check_prediction(e1_with_label, TAXONOMY)


ANSWERS = st.one_of(
    st.sampled_from(TAXONOMY.labels + tuple(TAXONOMY.aliases) + ("yes", "No.", "absent", "present", "")),
    st.text(max_size=40),
    st.builds("The activity is {}.".format, st.sampled_from(TAXONOMY.labels)),
)


@st.composite
def answered_units(draw):
    """(unit, cache key, answer) as a run's scoring loop takes them."""
    task = draw(st.sampled_from(TaskKind))
    mode = draw(st.sampled_from(RefinementMode))
    chunk_len = draw(st.sampled_from(SUPPORTED_CHUNK_LENGTHS)) if mode in TRANSCRIPT_MODES else None
    session_id = draw(st.text(min_size=1, max_size=8))
    index = draw(st.integers(min_value=0, max_value=500))
    start = draw(st.floats(min_value=0.0, max_value=7200.0, allow_nan=False))
    end = start + draw(st.floats(min_value=0.5, max_value=64.0, allow_nan=False))
    if mode is RefinementMode.TRANSCRIPT_ONLY:
        window = TranscriptChunk(session_id=session_id, index=index, start_s=start, end_s=end, chunk_len_s=chunk_len)
    else:
        window = Segment(session_id=session_id, index=index, start_s=start, end_s=end, frame_timestamps_s=())
    request = BackendRequest(role=Role.REASONER, session_id=session_id, prompt="p", segment_index=index)
    unit = PlannedUnit(task, mode, chunk_len, window, request, None, None)
    return unit, draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)), draw(ANSWERS)


@given(answered=answered_units())
@settings(max_examples=300, deadline=None)
def test_every_record_a_run_builds_passes_the_check_unchanged(answered):
    unit, key, answer = answered
    built = prediction_record(unit, key, answer, TAXONOMY)
    line = json.loads(SORTED_JSON.encode(built))
    for prediction in (built, line):
        before = dict(prediction)
        check_prediction(prediction, TAXONOMY)
        assert prediction == before
    assert line == built
    assert ("label" in built) == (unit.task in ACTIVITY_TASKS)
