"""Synthetic corpora with matching backend fixtures.

Each generated session gets a piecewise-constant activity timeline, binary
behavior flags drawn at the configured base rates, and fixture texts (captions,
transcripts, reasoner answers) that embed the relevant label strings verbatim,
so the full parse/aggregate/score path is exercised without any real model.
Everything is a pure function of the seed: noise draws are keyed per record,
not per call order, so regenerating with different coverage arguments never
shifts the noise applied elsewhere.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import aggregation, corpus, metrics, windowing
from .backends import IDENTITY, BackendRequest, Role, identity, utterances_to_json
from .config import ALL_MODES, ALL_TASKS, BadSettingError, RunConfig
from .corpus import (
    ACTIVITY_TASKS,
    E_TASKS,
    ActivityTaxonomy,
    DatasetKind,
    GroundTruth,
    SessionManifest,
    TaskKind,
    TimelineEntry,
    write_jsonl,
)
from .planning import plan_extraction, plan_units, transcript_chunks
from .prompting import TRANSCRIPT_MODES, RefinementMode
from .windowing import Segment, TimedUtterance


# Taxonomy labels must not occur inside the generator's scaffold sentences or
# cue phrases (e.g. a label "child" would leak into every caption).
SIM_TAXONOMY = ActivityTaxonomy(
    name="synthetic-play-6",
    labels=(
        "puzzle solving",
        "toy play",
        "shared book reading",
        "drawing",
        "singing",
        "conversation",
    ),
)

# Presence base rates follow the reported class skew of the diagnostic corpus.
E_BASE_RATES: Mapping[TaskKind, float] = {
    TaskKind.E1_OVERACTIVITY: 34 / 82,
    TaskKind.E2_TANTRUMS: 7 / 83,
    TaskKind.E3_ANXIETY: 10 / 83,
}

ACTIVITY_DWELL_S = (40.0, 120.0)  # uniform range of one timeline entry's length
CUE_SEGMENT_RATE = 0.35  # chance that a Presence session shows its cue in a segment

# Phrases that mark a behavior in caption/transcript text. They must not
# contain any taxonomy label as a substring.
CUE_MARKERS: Mapping[TaskKind, str] = {
    TaskKind.E1_OVERACTIVITY: "getting up and moving around the room",
    TaskKind.E2_TANTRUMS: "yelling and throwing objects in anger",
    TaskKind.E3_ANXIETY: "visibly worried and trembling",
}

NO_SIGNAL_ANSWER = "It is unclear from the evidence provided."


@dataclass(frozen=True)
class NoiseSpec:
    """Independent corruption rates for the three content channels."""

    caption_flip_p: float = 0.0
    transcript_drop_p: float = 0.0
    reasoner_flip_p: float = 0.0

    def __post_init__(self):
        for name in ("caption_flip_p", "transcript_drop_p", "reasoner_flip_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise BadSettingError(name, "in [0, 1]", p)


@dataclass(frozen=True)
class SimConfig:
    """Corpus generation parameters."""

    seed: int
    n_sessions: int = 20
    duration_s: float = 320.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.n_sessions < 1:
            raise BadSettingError("n_sessions", ">= 1", self.n_sessions)
        if not 0 < self.duration_s < math.inf:  # NaN fails too
            raise BadSettingError("duration_s", "finite and > 0", self.duration_s)


@dataclass(frozen=True)
class SimOutput:
    corpus_dir: Path
    fixtures_path: Path
    taxonomy_path: Path


def _derived_rng(*parts: object) -> random.Random:
    """A process-independent RNG stream keyed by the given parts."""
    key = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _flip_label(label: str, labels: Sequence[str], p: float, rng: random.Random) -> str:
    if p > 0 and rng.random() < p:
        others = [l for l in labels if l != label]
        if others:
            return rng.choice(others)
    return label


def _dominant_label(evidence: str, labels: Sequence[str]) -> str | None:
    """Most frequent label string in the evidence; earliest occurrence breaks ties."""
    hay = evidence.casefold()
    best_key: tuple[int, int, int] | None = None
    best_label: str | None = None
    for order, label in enumerate(labels):
        needle = label.casefold()
        count = hay.count(needle)
        if count == 0:
            continue
        key = (-count, hay.find(needle), order)
        if best_key is None or key < best_key:
            best_key, best_label = key, label
    return best_label


def _activity_answer(label: str | None) -> str:
    return NO_SIGNAL_ANSWER if label is None else f"The activity is {label}."


def _binary_answer(present: bool) -> str:
    return "Yes." if present else "No."


@dataclass
class _SessionWorld:
    manifest: SessionManifest
    segments: list[Segment]
    true_labels: list[str]
    caption_labels: list[str]
    captions: list[str]
    utterances: list[TimedUtterance]
    cue_segments: dict[TaskKind, frozenset[int]]


def _make_timeline(cfg: SimConfig, rng: random.Random) -> tuple[TimelineEntry, ...]:
    entries: list[TimelineEntry] = []
    t = 0.0
    prev: str | None = None
    while t < cfg.duration_s - 1e-9:
        dwell = rng.uniform(*ACTIVITY_DWELL_S)
        label = rng.choice([l for l in SIM_TAXONOMY.labels if l != prev])
        end = min(t + dwell, cfg.duration_s)
        entries.append(TimelineEntry(start_s=t, end_s=end, label=label))
        prev = label
        t = end
    return tuple(entries)


def _label_utterances(seg: Segment, label: str) -> list[TimedUtterance]:
    length = seg.duration_s
    return [
        TimedUtterance(seg.start_s + 0.05 * length, seg.start_s + 0.25 * length, f"Now we are doing {label}."),
        TimedUtterance(seg.start_s + 0.40 * length, seg.start_s + 0.60 * length, f"This {label} is fun."),
    ]


def _build_session(cfg: SimConfig, index: int) -> _SessionWorld:
    session_id = f"sim-{index:03d}"
    rng_world = _derived_rng(cfg.seed, session_id, "world")
    timeline = _make_timeline(cfg, rng_world)
    segments = windowing.plan_segments(cfg.duration_s, RunConfig.window_s, session_id=session_id)
    true_labels = []
    for seg in segments:
        label = metrics.resolve_segment_gold(seg, timeline)
        assert label is not None  # timelines cover the full session
        true_labels.append(label)

    e_flags = {
        task: _derived_rng(cfg.seed, session_id, "eflag", task.value).random() < E_BASE_RATES[task]
        for task in E_TASKS
    }
    cue_segments: dict[TaskKind, frozenset[int]] = {}
    for task in E_TASKS:
        if not e_flags[task]:
            cue_segments[task] = frozenset()
            continue
        rng_cue = _derived_rng(cfg.seed, session_id, "cues", task.value)
        picks = {i for i in range(len(segments)) if rng_cue.random() < CUE_SEGMENT_RATE}
        if not picks and segments:  # a session under half a window has no segments
            picks = {rng_cue.randrange(len(segments))}
        cue_segments[task] = frozenset(picks)

    caption_labels = []
    captions = []
    for seg, true_label in zip(segments, true_labels):
        rng_cap = _derived_rng(cfg.seed, session_id, "caption", seg.index)
        shown = _flip_label(true_label, SIM_TAXONOMY.labels, cfg.noise.caption_flip_p, rng_cap)
        caption_labels.append(shown)
        text = (
            "The video shows a child and an adult in a recorded session. "
            f"They are engaged in {shown}."
        )
        for task in E_TASKS:
            if seg.index in cue_segments[task]:
                text += f" The child is {CUE_MARKERS[task]}."
        captions.append(text)

    utterances: list[TimedUtterance] = []
    for seg, true_label in zip(segments, true_labels):
        candidates = _label_utterances(seg, true_label)
        length = seg.duration_s
        for k, task in enumerate(E_TASKS):
            if seg.index in cue_segments[task]:
                start = seg.start_s + (0.70 + 0.08 * k) * length
                candidates.append(
                    TimedUtterance(start, start + 0.05 * length, f"The child is {CUE_MARKERS[task]}.")
                )
        for j, utt in enumerate(candidates):
            rng_drop = _derived_rng(cfg.seed, session_id, "drop", seg.index, j)
            if cfg.noise.transcript_drop_p > 0 and rng_drop.random() < cfg.noise.transcript_drop_p:
                continue
            utterances.append(utt)
    utterances.sort(key=lambda u: u.start_s)

    gold = aggregation.SessionSummary()
    for seg, label in zip(segments, true_labels):
        gold.add({"label": label, "start_s": seg.start_s, "end_s": seg.end_s})

    manifest = SessionManifest(
        session_id=session_id,
        dataset=DatasetKind.DIAGNOSTIC,
        media_duration_s=cfg.duration_s,
        video_ref=f"sim://{session_id}/video",
        audio_ref=f"sim://{session_id}/audio",
        ground_truth=GroundTruth(
            session_activities=gold.activities(),
            activity_timeline=timeline,
            e1=e_flags[TaskKind.E1_OVERACTIVITY],
            e2=e_flags[TaskKind.E2_TANTRUMS],
            e3=e_flags[TaskKind.E3_ANXIETY],
        ),
    )
    return _SessionWorld(
        manifest=manifest,
        segments=segments,
        true_labels=true_labels,
        caption_labels=caption_labels,
        captions=captions,
        utterances=utterances,
        cue_segments=cue_segments,
    )


def _reasoner_answer(
    cfg: SimConfig,
    world: _SessionWorld,
    task: TaskKind,
    evidence: str,
    unit_index: int,
    prompt_hash: str,
) -> str:
    rng = _derived_rng(cfg.seed, world.manifest.session_id, "reason", unit_index, prompt_hash)
    if task in ACTIVITY_TASKS:
        label = _dominant_label(evidence, SIM_TAXONOMY.labels)
        if label is None:
            return NO_SIGNAL_ANSWER
        label = _flip_label(label, SIM_TAXONOMY.labels, cfg.noise.reasoner_flip_p, rng)
        return _activity_answer(label)
    present = CUE_MARKERS[task].casefold() in evidence.casefold()
    if cfg.noise.reasoner_flip_p > 0 and rng.random() < cfg.noise.reasoner_flip_p:
        present = not present
    return _binary_answer(present)


def _session_fixtures(
    cfg: SimConfig,
    world: _SessionWorld,
    tasks: Sequence[TaskKind],
    modes: Sequence[RefinementMode],
    chunk_lens: Sequence[int],
) -> list[dict]:
    """Answer every request a run with these modes, tasks and chunk lengths
    sends for the session, in the run's plan order."""
    records: list[dict] = []

    def add(request: BackendRequest, text: str) -> None:
        records.append(dict(zip(IDENTITY[:-1], identity(request)), text=text))

    for request in plan_extraction(world.manifest, world.segments, modes, seed=None):
        if request.role is Role.CAPTIONER:
            add(request, world.captions[request.segment_index])
        else:
            add(request, utterances_to_json(world.utterances))

    chunks = transcript_chunks(world.manifest, world.utterances, chunk_lens) if TRANSCRIPT_MODES & set(modes) else {}
    captions = dict(enumerate(world.captions))
    for unit in plan_units(world.manifest, world.segments, captions, chunks, modes, tasks,
                           chunk_lens, SIM_TAXONOMY, templates=None, seed=None):
        index = unit.window.index
        if unit.mode is RefinementMode.ZERO_SHOT:  # the captioner answers from the video
            if unit.task in ACTIVITY_TASKS:
                answer = _activity_answer(world.caption_labels[index])
            else:
                answer = _binary_answer(index in world.cue_segments[unit.task])
        else:
            evidence = "\n".join(filter(None, (unit.caption, unit.transcript)))
            answer = _reasoner_answer(cfg, world, unit.task, evidence, index, unit.request.prompt_hash)
        add(unit.request, answer)
    return records


def generate_corpus(
    cfg: SimConfig,
    out_dir: str | Path,
    tasks: Sequence[TaskKind] | None = None,
    modes: Sequence[RefinementMode] | None = None,
    chunk_lens: Sequence[int] = (16, 64),
) -> SimOutput:
    """Write a corpus directory plus the fixture file covering the given sweep.

    tasks/modes default to full coverage. Output is byte-identical for
    identical arguments.
    """
    tasks = tuple(tasks) if tasks is not None else ALL_TASKS
    modes = tuple(modes) if modes is not None else ALL_MODES
    windowing.check_chunk_lengths(chunk_lens)
    out_dir = Path(out_dir)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)

    worlds = [_build_session(cfg, i) for i in range(cfg.n_sessions)]
    corpus.write_corpus([w.manifest for w in worlds], corpus_dir)
    taxonomy_path = corpus_dir / "taxonomy.json"
    corpus.save_taxonomy(SIM_TAXONOMY, taxonomy_path)

    fixtures_path = out_dir / "fixtures.jsonl"
    write_jsonl(fixtures_path, (record for world in worlds
                                for record in _session_fixtures(cfg, world, tasks, modes, chunk_lens)))
    return SimOutput(corpus_dir=corpus_dir, fixtures_path=fixtures_path, taxonomy_path=taxonomy_path)
