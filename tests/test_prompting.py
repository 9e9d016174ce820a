import hashlib
from pathlib import Path

import pytest

from sessionpipe.corpus import ActivityTaxonomy, TaskKind
from sessionpipe.prompting import (
    CAPTION_MODES,
    DEFAULT_TEMPLATES,
    DESCRIPTION_PROMPT,
    TRANSCRIPT_MODES,
    TRANSCRIPTION_PROMPT,
    PromptingError,
    RefinementMode,
    build_task_prompt,
    load_templates,
    template_key,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_TAXONOMY = ActivityTaxonomy(
    name="golden-3",
    labels=("shared book reading", "singing, reciting", "toy play"),
    aliases={"book reading": "shared book reading"},
)
GOLDEN_CAPTION = "The child stacks wooden blocks on the rug while the adult watches."
GOLDEN_TRANSCRIPT = "lets read this one together. which page do you like?"


def _golden_inputs(mode):
    caption = GOLDEN_CAPTION if mode in CAPTION_MODES else None
    transcript = GOLDEN_TRANSCRIPT if mode in TRANSCRIPT_MODES else None
    return caption, transcript


class TestDescriptionPrompt:
    def test_exact_sentence(self):
        assert DESCRIPTION_PROMPT == (
            "Please provide a detailed description of the video, focusing on "
            "the main subjects, their actions, and the background scenes."
        )

    def test_pinned_hash(self):
        digest = hashlib.sha256(DESCRIPTION_PROMPT.encode()).hexdigest()
        assert digest == "85d40b1dadcb317de8a0a273e7fdddbdb073d1de3500093ba17de1b0aa71cc31"
        assert DESCRIPTION_PROMPT == GOLDEN_DIR.joinpath("description.txt").read_text()


@pytest.mark.parametrize("task", list(TaskKind))
@pytest.mark.parametrize("mode", list(RefinementMode))
def test_golden_files_pin_every_template(task, mode):
    caption, transcript = _golden_inputs(mode)
    prompt = build_task_prompt(mode, task, caption, transcript, GOLDEN_TAXONOMY)
    golden = GOLDEN_DIR.joinpath(f"{task.value}.{mode.value}.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_transcription_prompt_golden():
    assert TRANSCRIPTION_PROMPT == GOLDEN_DIR.joinpath("transcription.txt").read_text()


class TestTaskPromptContract:
    def test_activity_prompt_lists_every_label_once(self, taxonomy):
        prompt = build_task_prompt(
            RefinementMode.MULTIMODAL, TaskKind.ACTIVITY_RECOGNITION, "cap", "tr", taxonomy
        )
        lines = prompt.splitlines()
        for label in taxonomy.labels:
            assert lines.count(f"- {label}") == 1

    def test_multimodal_contains_both_blocks(self, taxonomy):
        prompt = build_task_prompt(
            RefinementMode.MULTIMODAL, TaskKind.ACTIVITY_RECOGNITION, "CAP", "TRANS", taxonomy
        )
        assert "Video description:\nCAP" in prompt
        assert "Speech transcript:\nTRANS" in prompt

    def test_e2_prompt_mentions_anger_and_asks_yes_no(self, taxonomy):
        prompt = build_task_prompt(
            RefinementMode.TRANSCRIPT_ONLY, TaskKind.E2_TANTRUMS, None, "stop it! *yelling*", taxonomy
        )
        assert "anger or disruption" in prompt
        assert prompt.endswith("Answer Yes or No.")

    def test_activity_prompt_asks_for_one_label(self, taxonomy):
        prompt = build_task_prompt(
            RefinementMode.VIDEO_ONLY, TaskKind.ACTIVITY_SEGMENTATION, "cap", None, taxonomy
        )
        assert prompt.endswith("Answer with exactly one label from the list.")

    def test_injection_contained_to_blocks(self, taxonomy):
        sentinel_cap = "CAPTION_SENTINEL {labels} {rubric}"
        sentinel_tr = "TRANSCRIPT_SENTINEL"
        rendered = build_task_prompt(
            RefinementMode.MULTIMODAL, TaskKind.ACTIVITY_RECOGNITION, sentinel_cap, sentinel_tr, taxonomy
        )
        assert rendered.count(sentinel_cap) == 1
        assert rendered.count(sentinel_tr) == 1
        cap_pos = rendered.index(sentinel_cap)
        assert rendered[:cap_pos].rstrip("\n").endswith("Video description:")
        tr_pos = rendered.index(sentinel_tr)
        assert rendered[:tr_pos].rstrip("\n").endswith("Speech transcript:")

    def test_rendered_is_deterministic(self, taxonomy):
        first = build_task_prompt(RefinementMode.VIDEO_ONLY, TaskKind.E1_OVERACTIVITY, "c", None, taxonomy)
        second = build_task_prompt(RefinementMode.VIDEO_ONLY, TaskKind.E1_OVERACTIVITY, "c", None, taxonomy)
        assert first == second


class TestTemplateOverrides:
    def test_override_file_replaces_template(self, tmp_path, taxonomy):
        key = template_key(TaskKind.ACTIVITY_RECOGNITION, RefinementMode.VIDEO_ONLY)
        (tmp_path / f"{key}.txt").write_text("Pick from:\n{labels}\nSaw: {caption}\nAnswer.")
        templates = load_templates(tmp_path)
        prompt = build_task_prompt(
            RefinementMode.VIDEO_ONLY, TaskKind.ACTIVITY_RECOGNITION, "CAP", None, taxonomy,
            templates=templates,
        )
        assert prompt.startswith("Pick from:\n- shared book reading")
        assert "Saw: CAP" in prompt

    @pytest.mark.parametrize("name", ["mystery", "description", "transcription"])
    def test_unknown_template_name_rejected(self, tmp_path, name):
        # the description and transcription prompts are fixed, not templates
        (tmp_path / f"{name}.txt").write_text("x")
        with pytest.raises(PromptingError):
            load_templates(tmp_path)

    def test_all_default_template_keys_present(self):
        assert set(DEFAULT_TEMPLATES) == {
            f"{kind}.{mode.value}" for kind in ("activity_recognition", "activity_segmentation", "binary")
            for mode in RefinementMode
        }
