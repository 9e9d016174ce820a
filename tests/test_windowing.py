import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe.windowing import (
    NonPositiveDurationError,
    TimedUtterance,
    UnsupportedChunkLengthError,
    chunk_covering,
    fill_chunks,
    plan_segments,
    plan_transcript_chunks,
)

from .oracles import align_transcript


class TestPlanSegments:
    def test_tail_kept_when_at_least_half_window(self):
        segments = plan_segments(40.0)
        assert [(s.start_s, s.end_s) for s in segments] == [(0.0, 16.0), (16.0, 32.0), (32.0, 40.0)]

    def test_short_tail_dropped(self):
        segments = plan_segments(900.0)
        assert len(segments) == 56
        assert segments[-1].end_s == 896.0
        assert all(len(s.frame_timestamps_s) == 16 for s in segments)

    def test_single_window_frames(self):
        (segment,) = plan_segments(16.0)
        assert segment.frame_timestamps_s == tuple(float(k) for k in range(16))

    def test_non_positive_duration(self):
        with pytest.raises(NonPositiveDurationError):
            plan_segments(0.0)

    def test_frames_at_two_fps(self):
        (segment,) = plan_segments(16.0, fps=2.0)
        assert len(segment.frame_timestamps_s) == 32
        assert segment.frame_timestamps_s[1] == 0.5

    def test_session_id_stamped(self):
        segments = plan_segments(32.0, session_id="s1")
        assert all(s.session_id == "s1" for s in segments)


class TestPlanChunks:
    def test_64s_chunks(self):
        chunks = plan_transcript_chunks(128.0, 64)
        assert [(c.start_s, c.end_s) for c in chunks] == [(0.0, 64.0), (64.0, 128.0)]

    def test_16s_chunks_nest_in_64s(self):
        chunks16 = plan_transcript_chunks(128.0, 16)
        chunks64 = plan_transcript_chunks(128.0, 64)
        assert len(chunks16) == 8
        assert (chunks64[0].start_s, chunks64[0].end_s) == (chunks16[0].start_s, chunks16[3].end_s)

    def test_whole_short_session_kept_as_tail(self):
        chunks = plan_transcript_chunks(10.0, 16)
        assert [(c.start_s, c.end_s) for c in chunks] == [(0.0, 10.0)]

    def test_unsupported_length(self):
        with pytest.raises(UnsupportedChunkLengthError):
            plan_transcript_chunks(100.0, 32)

    def test_text_starts_empty(self):
        assert all(c.text == "" for c in plan_transcript_chunks(128.0, 16))


class TestAlignTranscript:
    def test_midpoint_selects_window(self):
        utterances = [TimedUtterance(0, 5, "hello"), TimedUtterance(20, 25, "lets play")]
        assert align_transcript(utterances, 16.0, 32.0) == "lets play"

    def test_empty_list(self):
        assert align_transcript([], 0.0, 16.0) == ""

    def test_boundary_midpoint_goes_right(self):
        utterances = [TimedUtterance(14, 18, "x")]
        assert align_transcript(utterances, 0.0, 16.0) == ""
        assert align_transcript(utterances, 16.0, 32.0) == "x"

    def test_order_preserved(self):
        utterances = [TimedUtterance(1, 2, "one"), TimedUtterance(3, 4, "two")]
        assert align_transcript(utterances, 0.0, 16.0) == "one two"


def sequential_utterances(min_size=0, max_size=30, horizon=600.0):
    """Time-ordered, non-overlapping utterances, the shape transcribers emit."""

    @st.composite
    def _build(draw):
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        t = 0.0
        out = []
        for i in range(n):
            gap = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            length = draw(st.floats(min_value=0.1, max_value=8.0, allow_nan=False))
            start = t + gap
            end = start + length
            if end > horizon:
                break
            out.append(TimedUtterance(start, end, f"u{i}"))
            t = end
        return out

    return _build()


@given(
    duration=st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
    utterances=sequential_utterances(),
)
@settings(max_examples=300, deadline=None)
def test_partition_and_assignment_properties(duration, utterances):
    segments = plan_segments(duration)
    # sessions shorter than half a window legitimately plan to nothing
    if duration >= 8.0:
        assert segments
    # disjoint, ordered, inside [0, duration]
    for a, b in zip(segments, segments[1:]):
        assert a.end_s <= b.start_s + 1e-9
    if segments:
        assert segments[0].start_s == 0.0
        assert segments[-1].end_s <= duration + 1e-9
    # frame-count law
    for s in segments:
        assert len(s.frame_timestamps_s) == math.floor(s.end_s - s.start_s + 1e-9)
        assert all(s.start_s <= t < s.end_s for t in s.frame_timestamps_s)
        assert list(s.frame_timestamps_s) == sorted(set(s.frame_timestamps_s))
    # each utterance lands in at most one window
    for u in utterances:
        hits = sum(1 for s in segments if s.start_s <= u.midpoint_s < s.end_s)
        assert hits <= 1


@given(
    n_blocks=st.integers(min_value=1, max_value=8),
    utterances=sequential_utterances(),
)
@settings(max_examples=500, deadline=None)
def test_chunk_nesting_on_multiple_of_64_durations(n_blocks, utterances):
    duration = 64.0 * n_blocks
    chunks16 = fill_chunks(plan_transcript_chunks(duration, 16), utterances)
    chunks64 = fill_chunks(plan_transcript_chunks(duration, 64), utterances)
    assert len(chunks16) == 4 * len(chunks64)
    for big in chunks64:
        parts = [c.text for c in chunks16[4 * big.index : 4 * big.index + 4] if c.text]
        assert big.text == " ".join(parts)


def test_chunk_covering():
    chunks = plan_transcript_chunks(128.0, 64)
    assert chunk_covering(chunks, 70.0).index == 1
    assert chunk_covering(chunks, 0.0).index == 0
    assert chunk_covering(chunks, 128.0) is None


def start_sorted_utterances():
    """Sorted by start but free to overlap, so midpoints can run out of order.

    Times are multiples of 0.5 s, so midpoints often land on chunk edges.
    """

    @st.composite
    def _build(draw):
        starts = sorted(draw(st.lists(st.integers(min_value=-8, max_value=500), max_size=40)))
        return [
            TimedUtterance(s / 2, s / 2 + draw(st.integers(min_value=0, max_value=200)) / 2, f"u{i}")
            for i, s in enumerate(starts)
        ]

    return _build()


def _covering_by_scan(chunks, t_s):
    for chunk in chunks:
        if chunk.start_s <= t_s < chunk.end_s:
            return chunk
    return None


@given(
    duration=st.floats(min_value=8.0, max_value=300.0, allow_nan=False),
    chunk_len=st.sampled_from([16, 64]),
    utterances=st.one_of(sequential_utterances(horizon=320.0), start_sorted_utterances(),
                         start_sorted_utterances().map(lambda us: us[::-1])),  # any order is aligned
)
@settings(max_examples=300, deadline=None)
def test_fill_chunks_matches_align_transcript(duration, chunk_len, utterances):
    chunks = plan_transcript_chunks(duration, chunk_len)
    filled = fill_chunks(chunks, utterances)
    assert [c.text for c in filled] == [
        align_transcript(utterances, c.start_s, c.end_s) for c in chunks
    ]
    assert [(c.index, c.start_s, c.end_s) for c in filled] == [
        (c.index, c.start_s, c.end_s) for c in chunks
    ]


@given(
    duration=st.floats(min_value=8.0, max_value=4000.0, allow_nan=False),
    chunk_len=st.sampled_from([16, 64]),
    t_s=st.one_of(
        st.floats(min_value=-100.0, max_value=4100.0, allow_nan=False),
        st.integers(min_value=-2, max_value=500).map(lambda k: k * 8.0),
    ),
)
@settings(max_examples=500, deadline=None)
def test_chunk_covering_matches_linear_scan(duration, chunk_len, t_s):
    chunks = plan_transcript_chunks(duration, chunk_len)
    assert chunk_covering(chunks, t_s) is _covering_by_scan(chunks, t_s)


def test_chunk_covering_kept_tail_and_past_end():
    chunks = plan_transcript_chunks(56.0, 16)  # 8 s tail kept
    assert chunk_covering(chunks, 50.0) is chunks[3]
    assert chunk_covering(chunks, 56.0) is None
    assert chunk_covering(plan_transcript_chunks(52.0, 16), 50.0) is None  # 4 s tail dropped
    assert chunk_covering([], 0.0) is None
