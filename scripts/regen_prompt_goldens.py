#!/usr/bin/env python3
"""Regenerate the golden prompt files under tests/golden/.

Run after any deliberate template change, then review the diff before
committing; the golden tests pin every template byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from sessionpipe.corpus import ActivityTaxonomy, TaskKind
from sessionpipe.prompting import (
    CAPTION_MODES,
    DESCRIPTION_PROMPT,
    TRANSCRIPT_MODES,
    TRANSCRIPTION_PROMPT,
    RefinementMode,
    build_task_prompt,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

# Fixed inputs shared with tests/test_prompting.py.
GOLDEN_TAXONOMY = ActivityTaxonomy(
    name="golden-3",
    labels=("shared book reading", "singing, reciting", "toy play"),
    aliases={"book reading": "shared book reading"},
)
GOLDEN_CAPTION = "The child stacks wooden blocks on the rug while the adult watches."
GOLDEN_TRANSCRIPT = "lets read this one together. which page do you like?"


def golden_inputs(mode: RefinementMode) -> tuple[str | None, str | None]:
    caption = GOLDEN_CAPTION if mode in CAPTION_MODES else None
    transcript = GOLDEN_TRANSCRIPT if mode in TRANSCRIPT_MODES else None
    return caption, transcript


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    (GOLDEN_DIR / "description.txt").write_text(DESCRIPTION_PROMPT, encoding="utf-8")
    (GOLDEN_DIR / "transcription.txt").write_text(TRANSCRIPTION_PROMPT, encoding="utf-8")
    for task in TaskKind:
        for mode in RefinementMode:
            caption, transcript = golden_inputs(mode)
            prompt = build_task_prompt(mode, task, caption, transcript, GOLDEN_TAXONOMY)
            (GOLDEN_DIR / f"{task.value}.{mode.value}.txt").write_text(prompt, encoding="utf-8")
    print(f"wrote goldens to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
