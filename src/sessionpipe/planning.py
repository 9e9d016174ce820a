"""The run plan: each session's extraction requests and task units, in plan order.

A run sends these requests and the simulator answers them, so both read the
plan from here. Prompts and windows are looked up through their modules at
call time (``prompting.build_task_prompt``, ``windowing.*``).
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

from . import prompting, windowing
from .backends import BackendRequest, Role
from .corpus import ActivityTaxonomy, SessionManifest, TaskKind
from .prompting import (CAPTION_MODES, DESCRIPTION_PROMPT, TRANSCRIPT_MODES, TRANSCRIPTION_PROMPT, RefinementMode,
                        chunk_options)
from .windowing import Segment, TranscriptChunk


class PlannedUnit(NamedTuple):
    """One task request of the run plan, with the evidence its prompt embeds."""

    task: TaskKind
    mode: RefinementMode
    chunk_len_s: int | None
    window: Segment | TranscriptChunk
    request: BackendRequest
    caption: str | None
    transcript: str | None


def _caption_request(manifest: SessionManifest, seg: Segment, prompt: str, seed: int | None) -> BackendRequest:
    return BackendRequest(
        role=Role.CAPTIONER, session_id=manifest.session_id, prompt=prompt, segment_index=seg.index,
        media_ref=manifest.video_ref, frame_timestamps_s=seg.frame_timestamps_s, seed=seed,
    )


def plan_extraction(
    manifest: SessionManifest,
    segments: Sequence[Segment],
    modes: Sequence[RefinementMode],
    seed: int | None,
) -> list[BackendRequest]:
    """The caption (one per segment) and transcript requests of one session."""
    requests = []
    if CAPTION_MODES & set(modes):
        requests.extend(_caption_request(manifest, seg, DESCRIPTION_PROMPT, seed) for seg in segments)
    if TRANSCRIPT_MODES & set(modes):
        requests.append(
            BackendRequest(
                role=Role.TRANSCRIBER, session_id=manifest.session_id, prompt=TRANSCRIPTION_PROMPT,
                segment_index=None, media_ref=manifest.audio_ref, seed=seed,
            )
        )
    return requests


def transcript_chunks(
    manifest: SessionManifest, utterances: Sequence[windowing.TimedUtterance], chunk_lens: Sequence[int]
) -> dict[int, list[TranscriptChunk]]:
    """A session's transcript, aligned to the chunks of each chunk length."""
    return {
        length: windowing.fill_chunks(
            windowing.plan_transcript_chunks(manifest.media_duration_s, length, session_id=manifest.session_id),
            utterances,
        )
        for length in chunk_lens
    }


def _evidence_windows(
    mode: RefinementMode,
    segments: Sequence[Segment],
    captions: Mapping[int, str],
    chunks: Sequence[TranscriptChunk] | None,
) -> list[tuple[Segment | TranscriptChunk, str | None, str | None]]:
    """(window, caption, transcript) for each unit of one mode and chunk length.

    ``chunks`` is None when the session's transcript extraction failed.
    """
    if mode is RefinementMode.ZERO_SHOT:
        return [(seg, None, None) for seg in segments]
    if mode is RefinementMode.TRANSCRIPT_ONLY:
        return [(chunk, None, chunk.text) for chunk in chunks or ()]
    if mode is RefinementMode.MULTIMODAL and chunks is None:
        return []  # transcript extraction failed; counted there
    windows: list[tuple[Segment | TranscriptChunk, str | None, str | None]] = []
    for seg in segments:
        caption = captions.get(seg.index)
        if caption is None:
            continue  # caption extraction failed; counted there
        transcript = None
        if mode is RefinementMode.MULTIMODAL:
            chunk = windowing.chunk_covering(chunks, seg.midpoint_s)
            transcript = chunk.text if chunk is not None else ""
        windows.append((seg, caption, transcript))
    return windows


def plan_units(
    manifest: SessionManifest,
    segments: Sequence[Segment],
    captions: Mapping[int, str],
    chunks: Mapping[int, Sequence[TranscriptChunk]],
    modes: Sequence[RefinementMode],
    tasks: Sequence[TaskKind],
    chunk_lens: Sequence[int],
    taxonomy: ActivityTaxonomy,
    templates: dict[str, str] | None,
    seed: int | None,
) -> Iterator[PlannedUnit]:
    """Every task request of one session, by mode, chunk length, task, window,
    planned one at a time as they are read.

    Zero-shot asks the captioner about each segment directly; the other modes
    ask the reasoner about the extracted evidence. Segments without a caption
    (their extraction failed and was counted there) are left out, and so is
    multimodal when the session has no transcript (its extraction failed). A
    segment past the last transcript chunk, or in a session too short for any
    chunk, gets an empty transcript.
    """
    for mode in modes:
        for chunk_len in chunk_options(mode, chunk_lens):
            windows = _evidence_windows(mode, segments, captions, chunks.get(chunk_len))
            for task in tasks:
                if mode is RefinementMode.ZERO_SHOT:
                    prompt = prompting.build_task_prompt(mode, task, None, None, taxonomy, templates)
                for window, caption, transcript in windows:
                    if mode is RefinementMode.ZERO_SHOT:
                        request = _caption_request(manifest, window, prompt, seed)
                    else:
                        request = BackendRequest(
                            role=Role.REASONER, session_id=manifest.session_id,
                            prompt=prompting.build_task_prompt(mode, task, caption, transcript, taxonomy, templates),
                            segment_index=window.index, seed=seed,
                        )
                    yield PlannedUnit(task, mode, chunk_len, window, request, caption, transcript)
