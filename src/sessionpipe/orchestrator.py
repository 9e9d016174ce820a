"""Run engine: plan windows, query backends cache-first, parse, score, report.

A run walks every session through modality extraction (captions per segment,
one transcript per session), builds the per-mode refinement prompts, queries
the reasoner (or the captioner directly in zero-shot mode), parses the answers,
lifts them to session decisions, and evaluates each task. All backend traffic
goes through a content-addressed cache, so re-running a finished configuration
issues zero requests and reproduces the report byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import aggregation, metrics, windowing
from .backends import (
    Backend,
    BackendError,
    BackendRequest,
    GenerationParams,
    HttpBackendConfig,
    HttpChatBackend,
    MockBackend,
    Role,
    parse_utterances_json,
)
from .corpus import (
    ACTIVITY_TASKS,
    ActivityTaxonomy,
    SessionManifest,
    TaskKind,
    TimelineEntry,
    load_corpus,
    load_taxonomy,
)
from .parsing import ParsedLabel, parse_binary, parse_label
from .prompting import (
    CAPTION_MODES,
    DESCRIPTION_PROMPT,
    TRANSCRIPT_MODES,
    TRANSCRIPTION_PROMPT,
    RefinementMode,
    build_task_prompt,
    load_templates,
)
from .windowing import Segment, TranscriptChunk

ALL_MODES = tuple(RefinementMode)
ALL_TASKS = tuple(TaskKind)

_ROLE_CACHE_FILES = {
    Role.CAPTIONER: "captions.jsonl",
    Role.TRANSCRIBER: "transcripts.jsonl",
    Role.REASONER: "reasoner.jsonl",
}


def cache_key(backend_id: str, role: Role, session_id: str, segment_index: int | None, prompt_hash: str) -> str:
    parts = "\x1f".join([backend_id, role.value, session_id, str(segment_index), prompt_hash])
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


@dataclass
class RunConfig:
    corpus_dir: Path
    taxonomy_path: Path
    report_dir: Path
    cache_dir: Path | None = None
    modes: tuple[RefinementMode, ...] = ALL_MODES
    tasks: tuple[TaskKind, ...] = ALL_TASKS
    chunk_lens: tuple[int, ...] = (16,)
    fixtures_path: Path | None = None
    endpoint: str | None = None
    model: str = "local-model"
    api_key: str | None = None
    backend_id: str | None = None
    concurrency: int = 4
    seed: int = 0
    window_s: float = 16.0
    fps: float = 1.0
    min_activity_duration_s: float = aggregation.DEFAULT_MIN_ACTIVITY_DURATION_S
    failure_threshold: float = 0.1
    template_dir: Path | None = None

    def __post_init__(self):
        self.corpus_dir = Path(self.corpus_dir)
        self.taxonomy_path = Path(self.taxonomy_path)
        self.report_dir = Path(self.report_dir)
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        # canonical ordering keeps reports byte-stable regardless of input order
        self.modes = tuple(m for m in RefinementMode if m in set(self.modes))
        self.tasks = tuple(t for t in TaskKind if t in set(self.tasks))
        self.chunk_lens = tuple(sorted(set(self.chunk_lens)))
        if not self.modes or not self.tasks:
            raise ValueError("need at least one mode and one task")
        if TRANSCRIPT_MODES & set(self.modes) and not self.chunk_lens:
            raise ValueError("chunk_lens must be non-empty for transcript-using modes")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        windowing.check_chunk_lengths(self.chunk_lens)


class ResponseCache:
    """Content-addressed response store, persisted as per-role JSONL files."""

    def __init__(self, cache_dir: Path | None):
        self._dir = cache_dir
        self._records: dict[str, dict] = {}
        self._dirty = False
        if cache_dir is not None and cache_dir.is_dir():
            for fname in _ROLE_CACHE_FILES.values():
                path = cache_dir / fname
                if path.exists():
                    with open(path, encoding="utf-8") as fh:
                        for line in fh:
                            line = line.strip()
                            if line:
                                record = json.loads(line)
                                self._records[record["key"]] = record

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, record: dict) -> None:
        self._records[record["key"]] = record
        self._dirty = True

    def flush(self) -> None:
        """Rewrite the role files, if changed, each via a temp file and rename."""
        if self._dir is None:
            return
        paths = {role: self._dir / fname for role, fname in _ROLE_CACHE_FILES.items()}
        if not self._dirty and all(path.exists() for path in paths.values()):
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        by_role: dict[str, list[dict]] = {role.value: [] for role in Role}
        for record in self._records.values():
            by_role[record["role"]].append(record)
        for role, path in paths.items():
            records = sorted(by_role[role.value], key=lambda r: r["key"])
            tmp = path.with_name(path.name + ".tmp")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for record in records:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        self._dirty = False


@dataclass(frozen=True)
class _WorkItem:
    key: str
    request: BackendRequest


class _Executor:
    """Cache-first backend executor; results keyed by cache key."""

    def __init__(self, backend: Backend, cache: ResponseCache, concurrency: int):
        self._backend = backend
        self._cache = cache
        self._concurrency = concurrency
        self.results: dict[str, str] = {}
        self.errors: dict[str, BackendError] = {}

    def run(self, items: Sequence[_WorkItem]) -> None:
        todo: dict[str, _WorkItem] = {}
        for item in items:
            if item.key in self.results or item.key in self.errors:
                continue
            cached = self._cache.get(item.key)
            if cached is not None:
                self.results[item.key] = cached["text"]
            else:
                todo.setdefault(item.key, item)

        def call(item: _WorkItem) -> tuple[str, str | BackendError]:
            try:
                response = self._backend.complete(item.request)
                return item.key, response.text.strip()
            except BackendError as exc:
                return item.key, exc

        ordered = sorted(todo.values(), key=lambda it: it.key)
        if not ordered:
            return
        # in-process backends run inline; the pool is the only concurrency limit
        inline = self._backend.in_process
        with nullcontext() if inline else ThreadPoolExecutor(max_workers=self._concurrency) as pool:
            for key, outcome in (map if inline else pool.map)(call, ordered):
                item = todo[key]
                if isinstance(outcome, BackendError):
                    self.errors[key] = outcome
                    continue
                self.results[key] = outcome
                self._cache.put(
                    {
                        "key": key,
                        "role": item.request.role.value,
                        "session_id": item.request.session_id,
                        "segment_index": item.request.segment_index,
                        "prompt_hash": item.request.prompt_hash,
                        "backend_id": self._backend.backend_id,
                        "text": outcome,
                    }
                )


def build_backend(cfg: RunConfig) -> Backend:
    if cfg.fixtures_path is not None and cfg.endpoint is not None:
        raise ValueError("configure either fixtures_path or endpoint, not both")
    if cfg.fixtures_path is not None:
        return MockBackend(cfg.fixtures_path, backend_id=cfg.backend_id or "mock")
    if cfg.endpoint is not None:
        http_cfg = HttpBackendConfig(base_url=cfg.endpoint, model=cfg.model, api_key=cfg.api_key)
        return HttpChatBackend(http_cfg, backend_id=cfg.backend_id)
    raise ValueError("RunConfig needs a fixtures_path or an endpoint")


class PlannedUnit(NamedTuple):
    """One task request of the run plan, with the evidence its prompt embeds."""

    task: TaskKind
    mode: RefinementMode
    chunk_len_s: int | None
    window: Segment | TranscriptChunk
    request: BackendRequest
    caption: str | None
    transcript: str | None


def _chunk_options(mode: RefinementMode, chunk_lens: Sequence[int]) -> Sequence[int | None]:
    # modes that read the transcript run once per chunk length
    return chunk_lens if mode in TRANSCRIPT_MODES else (None,)


def _caption_request(manifest: SessionManifest, seg: Segment, prompt: str,
                     params: GenerationParams) -> BackendRequest:
    return BackendRequest(
        role=Role.CAPTIONER, session_id=manifest.session_id, prompt=prompt, segment_index=seg.index,
        media_ref=manifest.video_ref, frame_timestamps_s=seg.frame_timestamps_s, params=params,
    )


def plan_extraction(
    manifest: SessionManifest,
    segments: Sequence[Segment],
    modes: Sequence[RefinementMode],
    params: GenerationParams,
) -> list[BackendRequest]:
    """The caption (one per segment) and transcript requests of one session."""
    requests = []
    if CAPTION_MODES & set(modes):
        requests.extend(_caption_request(manifest, seg, DESCRIPTION_PROMPT, params) for seg in segments)
    if TRANSCRIPT_MODES & set(modes):
        requests.append(
            BackendRequest(
                role=Role.TRANSCRIBER, session_id=manifest.session_id, prompt=TRANSCRIPTION_PROMPT,
                segment_index=None, media_ref=manifest.audio_ref, params=params,
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
    params: GenerationParams,
) -> list[PlannedUnit]:
    """Every task request of one session, by mode, chunk length, task, window.

    Zero-shot asks the captioner about each segment directly; the other modes
    ask the reasoner about the extracted evidence. Segments without a caption
    (their extraction failed and was counted there) are left out, and so is
    multimodal when the session has no transcript (its extraction failed). A
    segment past the last transcript chunk, or in a session too short for any
    chunk, gets an empty transcript.
    """
    units = []
    for mode in modes:
        for chunk_len in _chunk_options(mode, chunk_lens):
            windows = _evidence_windows(mode, segments, captions, chunks.get(chunk_len))
            for task in tasks:
                if mode is RefinementMode.ZERO_SHOT:
                    prompt = build_task_prompt(mode, task, None, None, taxonomy, templates)
                for window, caption, transcript in windows:
                    if mode is RefinementMode.ZERO_SHOT:
                        request = _caption_request(manifest, window, prompt, params)
                    else:
                        request = BackendRequest(
                            role=Role.REASONER, session_id=manifest.session_id,
                            prompt=build_task_prompt(mode, task, caption, transcript, taxonomy, templates),
                            segment_index=window.index, params=params,
                        )
                    units.append(PlannedUnit(task, mode, chunk_len, window, request, caption, transcript))
    return units


@dataclass
class _SessionPlan:
    manifest: SessionManifest
    segments: list[Segment]
    chunks: dict[int, list[TranscriptChunk]] = field(default_factory=dict)
    captions: dict[int, str] = field(default_factory=dict)
    failed_segments: set[int] = field(default_factory=set)


def run(cfg: RunConfig, backend: Backend | None = None) -> dict:
    """Execute the full pipeline for one configuration, write the report files
    and return the report.json document."""
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    manifests = load_corpus(cfg.corpus_dir, taxonomy)
    templates = load_templates(cfg.template_dir) if cfg.template_dir is not None else None
    if backend is None:
        backend = build_backend(cfg)
    cache = ResponseCache(cfg.cache_dir)
    executor = _Executor(backend, cache, cfg.concurrency)
    params = GenerationParams(seed=cfg.seed)

    plans = [
        _SessionPlan(
            manifest=m,
            segments=windowing.plan_segments(
                m.media_duration_s, cfg.window_s, cfg.fps, session_id=m.session_id
            ),
        )
        for m in manifests
    ]
    failures: list[dict] = []

    def work_item(request: BackendRequest) -> _WorkItem:
        key = cache_key(backend.backend_id, request.role, request.session_id,
                        request.segment_index, request.prompt_hash)
        return _WorkItem(key, request)

    def record_failure(plan: _SessionPlan, item: _WorkItem, error: Exception,
                       failed_segments: Iterable[int]) -> None:
        failures.append(
            {
                "session_id": plan.manifest.session_id,
                "role": item.request.role.value,
                "segment_index": item.request.segment_index,
                "prompt_hash": item.request.prompt_hash,
                "error": f"{type(error).__name__}: {error}",
            }
        )
        plan.failed_segments.update(failed_segments)

    # phase 1: modality content extraction
    extraction = [
        (plan, work_item(request))
        for plan in plans
        for request in plan_extraction(plan.manifest, plan.segments, cfg.modes, params)
    ]
    executor.run([item for _, item in extraction])

    for plan, item in extraction:
        request = item.request
        all_segments = range(len(plan.segments))
        if item.key in executor.errors:
            failed = all_segments if request.segment_index is None else [request.segment_index]
            record_failure(plan, item, executor.errors[item.key], failed)
            continue
        if request.role is Role.CAPTIONER:
            plan.captions[request.segment_index] = executor.results[item.key]
            continue
        try:
            utterances = parse_utterances_json(executor.results[item.key])
        except BackendError as exc:
            record_failure(plan, item, exc, all_segments)
            continue
        plan.chunks = transcript_chunks(plan.manifest, utterances, cfg.chunk_lens)

    # phase 2: task prompts per mode
    units = [
        (plan, unit, work_item(unit.request))
        for plan in plans
        for unit in plan_units(plan.manifest, plan.segments, plan.captions, plan.chunks,
                               cfg.modes, cfg.tasks, cfg.chunk_lens, taxonomy, templates, params)
    ]
    executor.run([item for _, _, item in units])

    predictions: list[aggregation.SegmentPrediction] = []
    for plan, unit, item in units:
        window = unit.window
        if item.key in executor.errors:
            overlapping = (s.index for s in plan.segments if s.start_s < window.end_s and s.end_s > window.start_s)
            record_failure(plan, item, executor.errors[item.key], overlapping)
            continue
        text = executor.results[item.key]
        predictions.append(
            aggregation.SegmentPrediction(
                session_id=plan.manifest.session_id,
                task=unit.task,
                mode=unit.mode,
                unit_index=window.index,
                start_s=window.start_s,
                end_s=window.end_s,
                label=parse_label(text, taxonomy) if unit.task in ACTIVITY_TASKS else parse_binary(text),
                chunk_len_s=unit.chunk_len_s,
                cache_key=item.key,
            )
        )

    invalid_sessions = sorted(
        plan.manifest.session_id
        for plan in plans
        if plan.segments and len(plan.failed_segments) / len(plan.segments) > cfg.failure_threshold
    )

    report = evaluate_predictions(
        manifests=manifests,
        taxonomy=taxonomy,
        predictions=predictions,
        cfg=cfg,
        backend_id=backend.backend_id,
        invalid_sessions=invalid_sessions,
        failures=sorted(failures, key=lambda f: (f["session_id"], str(f["segment_index"]), f["role"])),
    )
    write_report_files(report, predictions, cfg.report_dir)
    cache.flush()
    return report


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "modes": [m.value for m in cfg.modes],
        "tasks": [t.value for t in cfg.tasks],
        "chunk_lens": list(cfg.chunk_lens),
        "window_s": cfg.window_s,
        "fps": cfg.fps,
        "min_activity_duration_s": cfg.min_activity_duration_s,
        "failure_threshold": cfg.failure_threshold,
        "seed": cfg.seed,
        "concurrency": cfg.concurrency,
    }


def evaluate_predictions(
    manifests: Sequence[SessionManifest],
    taxonomy: ActivityTaxonomy,
    predictions: Sequence[aggregation.SegmentPrediction],
    cfg: RunConfig,
    backend_id: str,
    invalid_sessions: Sequence[str] = (),
    failures: Sequence[dict] = (),
) -> dict:
    """Score parsed predictions against corpus ground truth: the report.json
    document, with one row per (mode, chunk length) configuration."""
    invalid = set(invalid_sessions)
    grouped: dict[tuple[RefinementMode, int | None, TaskKind, str], list[aggregation.SegmentPrediction]] = {}
    for pred in predictions:
        if pred.session_id in invalid:
            continue
        grouped.setdefault((pred.mode, pred.chunk_len_s, pred.task, pred.session_id), []).append(pred)

    rows = []
    for mode in cfg.modes:
        for chunk_len in _chunk_options(mode, cfg.chunk_lens):
            cells: dict[str, float | None] = {}
            per_class: dict[str, dict[str, float]] = {}
            n_sessions: dict[str, int] = {}
            notes: dict[str, str] = {}
            for task in cfg.tasks:
                sessions = [
                    m for m in manifests
                    if m.session_id not in invalid and _has_gold(m, task)
                ]
                n_sessions[task.value] = len(sessions)
                if not sessions:
                    cells[task.value] = None
                    notes[task.value] = "no sessions with gold labels"
                    continue
                if task is TaskKind.ACTIVITY_RECOGNITION:
                    preds_map = {}
                    gold_map = {}
                    for m in sessions:
                        units = grouped.get((mode, chunk_len, task, m.session_id), [])
                        preds_map[m.session_id] = (
                            aggregation.lift_session(units, cfg.min_activity_duration_s) if units else frozenset()
                        )
                        gold_map[m.session_id] = m.ground_truth.session_activities
                    cells[task.value], per_class[task.value] = metrics.macro_f1_multilabel(
                        preds_map, gold_map, taxonomy)
                elif task is TaskKind.ACTIVITY_SEGMENTATION:
                    pairs = []
                    timelines: dict[str, Sequence[TimelineEntry]] = {}
                    for m in sessions:
                        timelines[m.session_id] = m.ground_truth.activity_timeline
                        for pred in grouped.get((mode, chunk_len, task, m.session_id), []):
                            segment = Segment(
                                session_id=pred.session_id, index=pred.unit_index,
                                start_s=pred.start_s, end_s=pred.end_s, frame_timestamps_s=(),
                            )
                            assert isinstance(pred.label, ParsedLabel)
                            pairs.append((segment, pred.label.label))
                    cells[task.value], per_class[task.value] = metrics.macro_f1_multiclass(
                        pairs, timelines, taxonomy)
                else:
                    ranked = []
                    for m in sessions:
                        units = grouped.get((mode, chunk_len, task, m.session_id), [])
                        if not units:
                            continue
                        ranked.append(
                            metrics.RankedScore(
                                session_id=m.session_id,
                                score=aggregation.lift_session(units),
                                gold_presence=bool(m.ground_truth.e_flag(task)),
                            )
                        )
                    n_sessions[task.value] = len(ranked)
                    try:
                        cells[task.value] = metrics.pr_auc(ranked)
                    except metrics.NoPositivesError:
                        cells[task.value] = None
                        notes[task.value] = "no Presence sessions in gold"
            rows.append({"mode": mode.value, "chunk_len_s": chunk_len, "metrics": cells,
                         "per_class": per_class, "n_sessions": n_sessions, "notes": notes})

    return {
        "schema_version": 1,
        "backend_id": backend_id,
        "taxonomy": taxonomy.name,
        "taxonomy_labels": list(taxonomy.labels),
        "config": _config_echo(cfg),
        "rows": rows,
        "invalid_sessions": sorted(invalid & {m.session_id for m in manifests}),
        "failures": list(failures),
    }


def report_row(report: dict, mode: RefinementMode, chunk_len_s: int | None = None) -> dict:
    """The row of a report.json document for one (mode, chunk length) configuration."""
    for row in report["rows"]:
        if row["mode"] == mode.value and row["chunk_len_s"] == chunk_len_s:
            return row
    raise KeyError(f"no report row for mode={mode.value} chunk_len={chunk_len_s}")


def _has_gold(manifest: SessionManifest, task: TaskKind) -> bool:
    gt = manifest.ground_truth
    if task is TaskKind.ACTIVITY_RECOGNITION:
        return gt.session_activities is not None
    if task is TaskKind.ACTIVITY_SEGMENTATION:
        return gt.activity_timeline is not None
    return gt.e_flag(task) is not None


def write_report_files(
    report: dict,
    predictions: Sequence[aggregation.SegmentPrediction],
    report_dir: Path,
) -> None:
    """Write report.json, report.md and predictions.jsonl."""
    from .reporting import render_markdown

    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (report_dir / "report.md").write_text(render_markdown(report), encoding="utf-8")
    ordered = sorted(
        predictions,
        key=lambda p: (p.mode.value, str(p.chunk_len_s), p.task.value, p.session_id, p.unit_index),
    )
    with open(report_dir / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for pred in ordered:
            fh.write(json.dumps(pred.to_record(), sort_keys=True) + "\n")


def load_predictions(path: str | Path) -> list[aggregation.SegmentPrediction]:
    preds = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                preds.append(aggregation.SegmentPrediction.from_record(json.loads(line)))
    return preds
