"""Prompt construction for description extraction and task refinement.

Templates are plain strings with ``{labels}``, ``{caption}``, ``{transcript}``
and ``{rubric}`` placeholders. Every rendered prompt is byte-stable for
identical inputs; golden-file tests pin each template.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import ACTIVITY_TASKS, ActivityTaxonomy, TaskKind


class RefinementMode(Enum):
    ZERO_SHOT = "zero_shot"
    VIDEO_ONLY = "video_only"
    TRANSCRIPT_ONLY = "transcript_only"
    MULTIMODAL = "multimodal"


# modes whose prompts embed a caption, and those that embed a transcript chunk
CAPTION_MODES = frozenset({RefinementMode.VIDEO_ONLY, RefinementMode.MULTIMODAL})
TRANSCRIPT_MODES = frozenset({RefinementMode.TRANSCRIPT_ONLY, RefinementMode.MULTIMODAL})


def chunk_options(mode: RefinementMode, chunk_lens: Sequence[int]) -> Sequence[int | None]:
    """The chunk lengths a mode runs at: modes that read the transcript run once
    per chunk length, the others once, with no chunk length."""
    return chunk_lens if mode in TRANSCRIPT_MODES else (None,)


def check_chunk_len(mode: RefinementMode, chunk_len: object) -> None:
    """Raise ValueError unless ``chunk_len`` (a chunk_len_s read from a run's
    output) is a positive integer when ``mode`` reads a transcript, and null otherwise."""
    if not ((type(chunk_len) is int and chunk_len > 0) if mode in TRANSCRIPT_MODES else chunk_len is None):
        raise ValueError(f"chunk_len_s {chunk_len!r} with mode {mode.value}: "
                         "a positive integer iff the mode reads a transcript")


class PromptingError(ValueError):
    pass


class MissingCaptionError(PromptingError):
    pass


class MissingTranscriptError(PromptingError):
    pass


DESCRIPTION_PROMPT = (
    "Please provide a detailed description of the video, focusing on the "
    "main subjects, their actions, and the background scenes."
)

TRANSCRIPTION_PROMPT = (
    "Transcribe all speech in this recording. Return a JSON list of "
    "utterances, each an object with start_s, end_s, and text fields."
)

# Behavioral rubrics for the three binary codes, phrased so a text reasoner
# has concrete observable criteria rather than a bare construct name.
RUBRICS: dict[TaskKind, str] = {
    TaskKind.E1_OVERACTIVITY: (
        "overactivity, meaning excessive movement or physical agitation, "
        "such as getting up from the chair, walking around the room, or "
        "fidgeting and moving about in the chair"
    ),
    TaskKind.E2_TANTRUMS: (
        "tantrums or disruptive behavior, meaning any form of anger or "
        "disruption, such as aggression, throwing things, hitting or biting, "
        "or loud screaming and yelling"
    ),
    TaskKind.E3_ANXIETY: (
        "anxiety, meaning signs of worry, upset, or concern, such as "
        "trembling or jumpiness"
    ),
}

_AR_GOAL = (
    "You are analyzing one segment of a recorded interaction session between "
    "a child and an adult. The goal is to recognize which activities occur "
    "during the session. Identify the activity taking place in this segment."
)
_AS_GOAL = (
    "You are analyzing one segment of a recorded interaction session between "
    "a child and an adult. The goal is to label the session timeline. "
    "Identify the activity being performed at this point in the session."
)
_BINARY_GOAL = (
    "You are analyzing one segment of a recorded interaction session between "
    "a child and an adult. Decide whether the child shows {rubric} in this "
    "segment."
)

_ACTIVITY_ANSWER = "Answer with exactly one label from the list."
_BINARY_ANSWER = "Answer Yes or No."

_CAPTION_BLOCK = "Video description:\n{caption}"
_TRANSCRIPT_BLOCK = "Speech transcript:\n{transcript}"
_ZERO_SHOT_NOTE = "Base your answer on the video segment itself."

_EVIDENCE_BLOCKS: dict[RefinementMode, tuple[str, ...]] = {
    RefinementMode.ZERO_SHOT: (_ZERO_SHOT_NOTE,),
    RefinementMode.VIDEO_ONLY: (_CAPTION_BLOCK,),
    RefinementMode.TRANSCRIPT_ONLY: (_TRANSCRIPT_BLOCK,),
    RefinementMode.MULTIMODAL: (_CAPTION_BLOCK, _TRANSCRIPT_BLOCK),
}


def _activity_template(goal: str, mode: RefinementMode) -> str:
    parts = [goal, "Candidate activities:", "{labels}"]
    parts.extend(_EVIDENCE_BLOCKS[mode])
    parts.append(_ACTIVITY_ANSWER)
    return "\n".join(parts)


def _binary_template(mode: RefinementMode) -> str:
    parts = [_BINARY_GOAL]
    parts.extend(_EVIDENCE_BLOCKS[mode])
    parts.append(_BINARY_ANSWER)
    return "\n".join(parts)


def _build_default_templates() -> dict[str, str]:
    templates: dict[str, str] = {}
    for mode in RefinementMode:
        templates[f"activity_recognition.{mode.value}"] = _activity_template(_AR_GOAL, mode)
        templates[f"activity_segmentation.{mode.value}"] = _activity_template(_AS_GOAL, mode)
        templates[f"binary.{mode.value}"] = _binary_template(mode)
    return templates


DEFAULT_TEMPLATES: dict[str, str] = _build_default_templates()


def template_key(task: TaskKind, mode: RefinementMode) -> str:
    kind = task.value if task in ACTIVITY_TASKS else "binary"
    return f"{kind}.{mode.value}"


def load_templates(template_dir: str | Path) -> dict[str, str]:
    """Override task-prompt defaults with ``<key>.txt`` files from a directory.
    Other names fail, the fixed ``description`` and ``transcription`` too."""
    templates = dict(DEFAULT_TEMPLATES)
    template_dir = Path(template_dir)
    if not template_dir.is_dir():
        raise FileNotFoundError(f"template directory not found: {template_dir}")
    for path in sorted(template_dir.glob("*.txt")):
        key = path.stem
        if key not in templates:
            raise PromptingError(f"unknown template name '{key}' in {template_dir}")
        templates[key] = path.read_text(encoding="utf-8").rstrip("\n")
    return templates


def _check_evidence(mode: RefinementMode, caption: str | None, transcript: str | None) -> None:
    for text, modes, what, missing in ((caption, CAPTION_MODES, "caption", MissingCaptionError),
                                       (transcript, TRANSCRIPT_MODES, "transcript", MissingTranscriptError)):
        if mode in modes and text is None:
            raise missing(f"mode {mode.value} requires a {what}")
        if mode not in modes and text is not None:
            raise PromptingError(f"mode {mode.value} does not take a {what}")


def build_task_prompt(
    mode: RefinementMode,
    task: TaskKind,
    caption: str | None,
    transcript: str | None,
    taxonomy: ActivityTaxonomy,
    templates: dict[str, str] | None = None,
) -> str:
    """Render the refinement prompt for one (mode, task) on one window."""
    _check_evidence(mode, caption, transcript)
    templates = templates if templates is not None else DEFAULT_TEMPLATES
    template = templates[template_key(task, mode)]
    return template.format(
        labels=taxonomy.labels_block,
        caption="" if caption is None else caption,
        transcript="" if transcript is None else transcript,
        rubric=RUBRICS.get(task, ""),
    )
