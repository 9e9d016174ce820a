"""Temporal planning: video segments, transcript chunks, utterance alignment.

Sessions are tiled into consecutive half-open windows ``[k*w, (k+1)*w)``. A
trailing partial window is kept iff it is at least half a window long, so a
900 s session at 16 s windows yields 56 segments and drops the 4 s tail.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

_EPS = 1e-9

SUPPORTED_CHUNK_LENGTHS = (16, 64)


class NonPositiveDurationError(ValueError):
    pass


class UnsupportedChunkLengthError(ValueError):
    pass


@dataclass(frozen=True)
class TimedUtterance:
    start_s: float
    end_s: float
    text: str

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError(f"utterance times {self.start_s} and {self.end_s} are not both finite")
        if self.start_s > self.end_s:
            raise ValueError(f"utterance has start {self.start_s} > end {self.end_s}")

    @property
    def midpoint_s(self) -> float:
        return (self.start_s + self.end_s) / 2.0


@dataclass(frozen=True)
class Segment:
    """A video window with frame sample timestamps (1 fps by default)."""

    session_id: str
    index: int
    start_s: float
    end_s: float
    frame_timestamps_s: tuple[float, ...]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def midpoint_s(self) -> float:
        return (self.start_s + self.end_s) / 2.0


@dataclass(frozen=True)
class TranscriptChunk:
    """A transcript window; chunk_len_s is the nominal (configured) length."""

    session_id: str
    index: int
    start_s: float
    end_s: float
    chunk_len_s: int
    text: str = ""


def _tile(media_duration_s: float, window_s: float) -> list[tuple[float, float]]:
    """Half-open windows covering the session; tail kept iff >= window_s / 2."""
    if media_duration_s <= 0:
        raise NonPositiveDurationError(f"media duration must be > 0, got {media_duration_s}")
    if window_s <= 0:
        raise ValueError(f"window length must be > 0, got {window_s}")
    n_full = int(media_duration_s // window_s)
    windows = [(k * window_s, (k + 1) * window_s) for k in range(n_full)]
    tail_start = n_full * window_s
    tail_len = media_duration_s - tail_start
    if tail_len >= window_s / 2 - _EPS and tail_len > _EPS:
        windows.append((tail_start, media_duration_s))
    return windows


def plan_segments(
    media_duration_s: float,
    window_s: float = 16.0,
    fps: float = 1.0,
    *,
    session_id: str = "",
) -> list[Segment]:
    """Plan video segments with frame timestamps at multiples of 1/fps.

    Every full window at the default 16 s / 1 fps carries exactly 16 frames.
    """
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    segments = []
    for index, (start, end) in enumerate(_tile(media_duration_s, window_s)):
        n_frames = int((end - start) * fps + _EPS)
        frames = tuple(start + k / fps for k in range(n_frames))
        segments.append(
            Segment(
                session_id=session_id,
                index=index,
                start_s=start,
                end_s=end,
                frame_timestamps_s=frames,
            )
        )
    return segments


def check_chunk_lengths(chunk_lens: Iterable[int]) -> None:
    """Raise UnsupportedChunkLengthError unless every length is supported."""
    for length in chunk_lens:
        if length not in SUPPORTED_CHUNK_LENGTHS:
            raise UnsupportedChunkLengthError(
                f"chunk length must be one of {SUPPORTED_CHUNK_LENGTHS}, got {length!r}"
            )


def plan_transcript_chunks(
    media_duration_s: float,
    chunk_len_s: int,
    *,
    session_id: str = "",
) -> list[TranscriptChunk]:
    """Plan empty transcript chunks with the same tiling/tail rule as segments."""
    check_chunk_lengths((chunk_len_s,))
    return [
        TranscriptChunk(
            session_id=session_id,
            index=index,
            start_s=start,
            end_s=end,
            chunk_len_s=int(chunk_len_s),
        )
        for index, (start, end) in enumerate(_tile(media_duration_s, float(chunk_len_s)))
    ]


def fill_chunks(
    chunks: Iterable[TranscriptChunk],
    utterances: Sequence[TimedUtterance],
) -> list[TranscriptChunk]:
    """Fill planned chunks with aligned utterance text.

    Each utterance goes to the chunk whose [start, end) holds its midpoint, so
    to exactly one chunk; a chunk's text is its utterances space-joined in
    input order, whatever that order is. Midpoints are sorted once and each
    chunk takes its utterances by bisection.
    """
    order = sorted(range(len(utterances)), key=lambda i: utterances[i].midpoint_s)
    mids = [utterances[i].midpoint_s for i in order]
    filled = []
    for chunk in chunks:
        lo = bisect_left(mids, chunk.start_s)
        hi = bisect_left(mids, chunk.end_s, lo)
        text = " ".join(utterances[i].text for i in sorted(order[lo:hi]))
        filled.append(replace(chunk, text=text))
    return filled


def chunk_covering(chunks: Sequence[TranscriptChunk], t_s: float) -> TranscriptChunk | None:
    """The chunk whose [start, end) window contains the given time, if any.

    ``chunks`` is a tiling from plan_transcript_chunks, so the index follows
    from the nominal chunk length; the kept tail is the last chunk.
    """
    if not chunks or not chunks[0].start_s <= t_s < chunks[-1].end_s:
        return None
    return chunks[int((t_s - chunks[0].start_s) // chunks[0].chunk_len_s)]
