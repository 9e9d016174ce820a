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
import shutil
import tempfile
import threading
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from . import aggregation, metrics, windowing
from .backends import (
    Backend,
    BackendError,
    BackendRequest,
    BackendResponse,
    FixtureStore,
    HttpChatBackend,
    MAX_TOKENS,
    MockBackend,
    SORTED_JSON,
    TEMPERATURE,
    Role,
    parse_utterances_json,
    read_jsonl,
    replacing,
)
from .corpus import (
    ACTIVITY_TASKS,
    ActivityTaxonomy,
    SessionManifest,
    TaskKind,
    load_corpus,
    load_taxonomy,
)
from .parsing import parse_binary, parse_label
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

JOURNAL_NAME = "responses.jsonl"  # stands for cache_key's schema: rename it when the key changes
_DECODING = f"temperature={TEMPERATURE!r};max_tokens={MAX_TOKENS};seed="


def cache_key(backend_id: str, request: BackendRequest) -> str:
    """The address of a request's answer: backend (which names the model), role,
    session, segment, prompt and generation parameters, in canonical form."""
    parts = "\x1f".join([backend_id, request.role.value, request.session_id, str(request.segment_index),
                         request.prompt_hash, f"{_DECODING}{request.seed}"])
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


class BadSettingError(ValueError):
    """A RunConfig field set to a value no run can use; ``field`` names it."""

    def __init__(self, field: str, rule: str, value: Any):
        super().__init__(f"{field} must be {rule}, not {value!r}")
        self.field = field


@dataclass
class RunConfig:
    corpus_dir: Path
    taxonomy_path: Path
    report_dir: Path
    cache_dir: Path | None = None  # None: report_dir / "cache"
    modes: tuple[RefinementMode, ...] = ALL_MODES
    tasks: tuple[TaskKind, ...] = ALL_TASKS
    chunk_lens: tuple[int, ...] = (16,)
    fixtures_path: Path | None = None
    endpoint: str | None = None
    model: str = "local-model"
    api_key: str | None = None
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
        self.cache_dir = Path(self.cache_dir) if self.cache_dir is not None else self.report_dir / "cache"
        if stale := sorted(p.name for p in self.cache_dir.glob("*.jsonl") if p.name != JOURNAL_NAME):
            raise ValueError(f"{self.cache_dir} holds cache files of an older layout: {', '.join(stale)}. Their "
                             f"lines are journal lines: append them to {JOURNAL_NAME}, or remove them.")
        # canonical ordering keeps reports byte-stable regardless of input order
        self.modes = tuple(m for m in RefinementMode if m in set(self.modes))
        self.tasks = tuple(t for t in TaskKind if t in set(self.tasks))
        self.chunk_lens = tuple(sorted(set(self.chunk_lens)))
        if not self.modes or not self.tasks:
            raise ValueError("need at least one mode and one task")
        if TRANSCRIPT_MODES & set(self.modes) and not self.chunk_lens:
            raise ValueError("chunk_lens must be non-empty for transcript-using modes")
        for name, valid, rule in (  # written so that NaN is out of range too
            ("concurrency", self.concurrency >= 1, ">= 1"),
            ("window_s", self.window_s > 0, "> 0"),
            ("fps", self.fps > 0, "> 0"),
            ("failure_threshold", 0 <= self.failure_threshold <= 1, "in [0, 1]"),
            ("min_activity_duration_s", self.min_activity_duration_s >= 0, ">= 0"),
        ):
            if not valid:
                raise BadSettingError(name, rule, getattr(self, name))
        windowing.check_chunk_lengths(self.chunk_lens)


class DamagedJournalError(ValueError):
    """A whole journal line is not a JSON object with a string key and text."""


class ResponseCache:
    """Answers by cache key, appended as they arrive to the journal ``cache_dir/responses.jsonl``,
    one sorted-key JSON line each. Loading keeps the last line of each key, cuts off a last line
    without a newline (a torn write) and refuses any other line that is not a record."""

    def __init__(self, cache_dir: Path):
        self._path = cache_dir / JOURNAL_NAME
        self._texts: dict[str, str] = {}
        self._journal: IO[str] | None = None  # opened by the first put
        if self._path.exists():
            whole = 0  # bytes up to the end of the last whole line
            with open(self._path, "rb") as fh:
                for number, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        os.truncate(self._path, whole)
                        break
                    try:
                        record = json.loads(line)
                        key, text = record["key"], record["text"]
                        if not (isinstance(key, str) and isinstance(text, str)):
                            raise TypeError
                    except (ValueError, TypeError, KeyError):
                        raise DamagedJournalError(
                            f"{self._path}: line {number} is not a JSON object with a string key and text; "
                            "repair or delete that line") from None
                    self._texts[key] = text
                    whole += len(line)

    def get(self, key: str) -> str | None:
        return self._texts.get(key)

    def put(self, record: dict) -> None:
        line = SORTED_JSON.encode(record) + "\n"  # raises before anything is appended
        if self._journal is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._journal = open(self._path, "a", encoding="utf-8", buffering=1)  # each line reaches the OS
        self._journal.write(line)
        self._texts[record["key"]] = record["text"]

    def flush(self) -> None:
        """Close the journal; every answer is already written to it."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None


def _unusable(request: BackendRequest, text: str) -> BackendError | None:
    """Why an answer cannot be used, or None: a transcript must parse."""
    if request.role is Role.TRANSCRIBER:
        try:
            parse_utterances_json(text)
        except BackendError as exc:
            return exc
    return None


T = TypeVar("T")


def _fetch(
    backend: Backend, cache: ResponseCache, concurrency: int, planned: Iterable[tuple[T, BackendRequest]]
) -> Iterator[tuple[T, str, str | BackendError]]:
    """(item, cache key, answer text or error) for each planned (item, request), in plan order.

    The plan is read lazily. A key found in the cache, or sent earlier in this
    call, is not sent again, also while its request is in flight or after it
    failed. A cached transcript that does not parse counts as missing. Each new
    usable answer is appended to the cache as it is yielded, so the journal
    follows plan order. In-process backends run inline, one request at a time;
    others on a pool of ``concurrency`` threads, with at most
    ``2 * concurrency`` planned items not yet yielded. On any exception,
    requests not yet started are cancelled; the journal and the backend are
    closed in any case, so callers close the generator when they stop early.
    """
    def call(request: BackendRequest) -> str | BackendError:
        try:
            text = backend.complete(request).text.strip()
        except BackendError as exc:
            return exc
        return _unusable(request, text) or text

    pool = None if backend.in_process else ThreadPoolExecutor(max_workers=concurrency)
    window_size = 1 if pool is None else 2 * concurrency
    window: deque[tuple[T, str, BackendRequest | None, str | BackendError | Future]] = deque()
    sent: dict[str, BackendError | Future] = {}  # this call's requests still in flight, or failed
    planned = iter(planned)
    try:
        while True:
            for item, request in islice(planned, window_size - len(window)):
                key = cache_key(backend.backend_id, request)
                answer = cache.get(key)
                if answer is None or _unusable(request, answer):  # a torn transcript journaled by older code
                    answer = sent.get(key)
                owner = None
                if answer is None:
                    owner = request
                    answer = sent[key] = call(request) if pool is None else pool.submit(call, request)
                window.append((item, key, owner, answer))
            if not window:
                return
            item, key, owner, answer = window.popleft()
            if isinstance(answer, Future):
                answer = answer.result()
            if owner is not None:  # the first of this key's items journals its answer
                if isinstance(answer, BackendError):
                    sent[key] = answer
                else:
                    del sent[key]
                    cache.put({"key": key, "role": owner.role.value, "session_id": owner.session_id,
                               "segment_index": owner.segment_index, "prompt_hash": owner.prompt_hash,
                               "backend_id": backend.backend_id, "text": answer})
            yield item, key, answer
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        cache.flush()  # closes the journal, also when a kill or a bug raises past call or the consumer
        backend.close()


def _backend_id(cfg: RunConfig) -> str:
    """The id of the backend ``build_backend(cfg)`` makes."""
    if (cfg.fixtures_path is None) == (cfg.endpoint is None):
        raise ValueError("RunConfig needs either a fixtures_path or an endpoint, not both")
    return "mock" if cfg.fixtures_path is not None else f"http:{cfg.model}"


def build_backend(cfg: RunConfig) -> Backend:
    if _backend_id(cfg) == "mock":
        return MockBackend(FixtureStore.load_jsonl(cfg.fixtures_path))
    return HttpChatBackend(cfg.endpoint, cfg.model, cfg.api_key)


class _BuiltOnFirstRequest(Backend):
    """The backend ``build_backend(cfg)`` makes, built when the first request is
    sent: a run answered from the cache builds none. What building raises (a
    bad endpoint, a missing fixture file) is no BackendError, so it stops the
    run instead of failing one request."""

    def __init__(self, cfg: RunConfig):
        self.backend_id = _backend_id(cfg)
        self.in_process = cfg.fixtures_path is not None  # the mock
        self._cfg = cfg
        self._backend: Backend | None = None
        self._lock = threading.Lock()

    def complete(self, request: BackendRequest) -> BackendResponse:
        if self._backend is None:
            with self._lock:
                if self._backend is None:
                    self._backend = build_backend(self._cfg)
        return self._backend.complete(request)

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()


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
        for chunk_len in _chunk_options(mode, chunk_lens):
            windows = _evidence_windows(mode, segments, captions, chunks.get(chunk_len))
            for task in tasks:
                if mode is RefinementMode.ZERO_SHOT:
                    prompt = build_task_prompt(mode, task, None, None, taxonomy, templates)
                for window, caption, transcript in windows:
                    if mode is RefinementMode.ZERO_SHOT:
                        request = _caption_request(manifest, window, prompt, seed)
                    else:
                        request = BackendRequest(
                            role=Role.REASONER, session_id=manifest.session_id,
                            prompt=build_task_prompt(mode, task, caption, transcript, taxonomy, templates),
                            segment_index=window.index, seed=seed,
                        )
                    yield PlannedUnit(task, mode, chunk_len, window, request, caption, transcript)


def prediction_record(unit: PlannedUnit, cache_key: str, answer: str, taxonomy: ActivityTaxonomy) -> dict[str, Any]:
    """The predictions.jsonl record of one answered unit (``aggregation.check_prediction`` states it)."""
    window = unit.window
    record: dict[str, Any] = {
        "session_id": unit.request.session_id, "task": unit.task.value, "mode": unit.mode.value,
        "chunk_len_s": unit.chunk_len_s, "unit_index": window.index, "start_s": window.start_s,
        "end_s": window.end_s, "raw": answer, "cache_key": cache_key,
    }
    if unit.task in ACTIVITY_TASKS:
        parsed = parse_label(answer, taxonomy)
        record["label"], record["tier"] = parsed.label, parsed.tier.value
    else:
        record["presence"] = parse_binary(answer).presence
    return record


_SEGMENTATION = TaskKind.ACTIVITY_SEGMENTATION.value


class BadPredictionsError(ValueError):
    """A predictions.jsonl line that cannot be scored."""


class OutOfOrderError(BadPredictionsError):
    """A prediction that does not come after the one before it in its group in run order."""


class Scorer:
    """Predictions as they arrive, kept only as small per-session summaries.

    Each prediction is its predictions.jsonl record. Within each (mode, chunk
    length, task) group, predictions must arrive in run order: by session, then
    window. Each one's line goes to its group's spill file, an anonymous
    temporary file in ``spill_dir``, and its window is added to its session's
    summary in ``summaries``, by (mode, chunk length, task, session) as the
    records name them. So the spill files joined in group order are
    predictions.jsonl, and every sum adds up in window order.
    """

    def __init__(self, manifests: Sequence[SessionManifest], spill_dir: Path):
        self._timelines = {m.session_id: m.ground_truth.activity_timeline for m in manifests}
        self._spill_dir = Path(spill_dir)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        # by group: its spill file, the (session, window) it took last and that session's summary
        self._groups: dict[tuple[str, str, str], list] = {}
        self.summaries: dict[tuple[str, str, str, str], aggregation.SessionSummary] = {}

    def add(self, record: dict[str, Any]) -> None:
        """Take one prediction; OutOfOrderError if it does not follow its group's last one."""
        group = (record["mode"], str(record["chunk_len_s"]), record["task"])
        at = (record["session_id"], record["unit_index"])
        state = self._groups.get(group)
        if state is None:
            spill = tempfile.TemporaryFile("w+", encoding="utf-8", dir=self._spill_dir)
            state = self._groups[group] = [spill, None, None]
        spill, last, summary = state
        if last is None or at[0] != last[0]:
            if last is not None and at < last:
                raise OutOfOrderError(f"{'/'.join(group)}: session {at[0]} comes after session {last[0]}")
            summary = state[2] = self.summaries[(*group, at[0])] = aggregation.SessionSummary()
        elif at[1] <= last[1]:
            raise OutOfOrderError(f"{'/'.join(group)}: window {at[1]} of session {at[0]} "
                                  f"comes after window {last[1]}")
        state[1] = at
        spill.write(SORTED_JSON.encode(record) + "\n")
        gold = None
        if group[2] == _SEGMENTATION and (timeline := self._timelines.get(at[0])) is not None:
            gold = metrics.resolve_segment_gold(
                Segment(session_id=at[0], index=at[1], start_s=record["start_s"], end_s=record["end_s"],
                        frame_timestamps_s=()), timeline)
        summary.add(record, gold)

    def read(self, path: Path, taxonomy: ActivityTaxonomy) -> None:
        """Add every prediction of a predictions.jsonl file, each checked by
        ``aggregation.check_prediction`` and taken as it is. A line that is not a
        prediction record raises BadPredictionsError, and one out of run order
        OutOfOrderError; both name the file and the line."""
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        record = json.loads(line)
                        aggregation.check_prediction(record, taxonomy)
                    except KeyError as exc:
                        raise BadPredictionsError(f"{path}: line {number} has no field {exc}") from None
                    except (ValueError, TypeError) as exc:  # not JSON, not an object, or a bad value
                        raise BadPredictionsError(f"{path}: line {number} is not a prediction: {exc}") from None
                    try:
                        self.add(record)
                    except OutOfOrderError as exc:
                        raise OutOfOrderError(f"{path}: line {number} is out of run order: {exc}") from None

    def write_predictions(self, path: Path) -> None:
        """predictions.jsonl: the spill files joined in group order."""
        with replacing(path) as out:
            for group in sorted(self._groups):
                spill = self._groups[group][0]
                spill.seek(0)
                shutil.copyfileobj(spill, out)

    def close(self) -> None:
        """Close, and so delete, the spill files."""
        for spill, _, _ in self._groups.values():
            spill.close()


def run(cfg: RunConfig, backend: Backend | None = None) -> dict:
    """Execute the full pipeline for one configuration, write the report files
    and return the report.json document."""
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    manifests = load_corpus(cfg.corpus_dir, taxonomy)
    templates = load_templates(cfg.template_dir) if cfg.template_dir is not None else None
    if backend is None:
        backend = _BuiltOnFirstRequest(cfg)
    cache = ResponseCache(cfg.cache_dir)

    by_id = {m.session_id: m for m in manifests}
    segments = {
        sid: windowing.plan_segments(m.media_duration_s, cfg.window_s, cfg.fps, session_id=sid)
        for sid, m in by_id.items()
    }
    captions: dict[str, dict[int, str]] = {sid: {} for sid in segments}
    chunks: dict[str, dict[int, list[TranscriptChunk]]] = {sid: {} for sid in segments}
    failed_segments: dict[str, set[int]] = {sid: set() for sid in segments}
    failures: list[dict] = []

    def record_failure(request: BackendRequest, error: Exception, failed: Iterable[int]) -> None:
        failures.append(
            {
                "session_id": request.session_id,
                "role": request.role.value,
                "segment_index": request.segment_index,
                "prompt_hash": request.prompt_hash,
                "error": f"{type(error).__name__}: {error}",
            }
        )
        failed_segments[request.session_id].update(failed)

    # phase 1: modality content extraction; each phase covers every session,
    # so a live endpoint does not idle at session boundaries
    extraction = ((request, request) for m in manifests
                  for request in plan_extraction(m, segments[m.session_id], cfg.modes, cfg.seed))
    with closing(_fetch(backend, cache, cfg.concurrency, extraction)) as extracted:
        for request, _, answer in extracted:
            sid = request.session_id
            if isinstance(answer, BackendError):
                failed = range(len(segments[sid])) if request.segment_index is None else [request.segment_index]
                record_failure(request, answer, failed)
            elif request.role is Role.CAPTIONER:
                captions[sid][request.segment_index] = answer
            else:
                chunks[sid] = transcript_chunks(by_id[sid], parse_utterances_json(answer), cfg.chunk_lens)

    # phase 2: task prompts per mode, every session, planned as they are sent
    units = ((unit, unit.request) for m in manifests
             for unit in plan_units(m, segments[m.session_id], captions[m.session_id], chunks[m.session_id],
                                    cfg.modes, cfg.tasks, cfg.chunk_lens, taxonomy, templates, cfg.seed))
    scorer = Scorer(manifests, cfg.report_dir)
    with closing(scorer), closing(_fetch(backend, cache, cfg.concurrency, units)) as answered:
        for unit, key, answer in answered:
            window, sid = unit.window, unit.request.session_id
            if isinstance(answer, BackendError):
                overlapping = (s.index for s in segments[sid] if s.start_s < window.end_s and s.end_s > window.start_s)
                record_failure(unit.request, answer, overlapping)
                continue
            scorer.add(prediction_record(unit, key, answer, taxonomy))

        run_info = {
            "backend_id": backend.backend_id,
            "config": {
                "modes": [m.value for m in cfg.modes],
                "tasks": [t.value for t in cfg.tasks],
                "chunk_lens": list(cfg.chunk_lens),
                "window_s": cfg.window_s,
                "fps": cfg.fps,
                "min_activity_duration_s": cfg.min_activity_duration_s,
                "failure_threshold": cfg.failure_threshold,
                "seed": cfg.seed,
                "concurrency": cfg.concurrency,
            },
            "invalid_sessions": sorted(
                sid for sid, segs in segments.items()
                if segs and len(failed_segments[sid]) / len(segs) > cfg.failure_threshold
            ),
            "failures": sorted(failures, key=lambda f: (f["session_id"], str(f["segment_index"]), f["role"])),
        }
        report = evaluate_predictions(manifests, taxonomy, scorer, run_info)
        write_report_files(report, scorer, cfg.report_dir)
    return report


def evaluate_predictions(
    manifests: Sequence[SessionManifest],
    taxonomy: ActivityTaxonomy,
    scorer: Scorer,
    run_info: Mapping[str, Any],
) -> dict:
    """Score the predictions a scorer took against corpus ground truth: the
    report.json document, with one row per (mode, chunk length) configuration.

    ``run_info`` holds what the run decided: ``backend_id``, ``config`` (its
    settings, whose modes, tasks, chunk lengths and activity duration threshold
    are scored here), ``invalid_sessions`` and ``failures``. A run's own
    report.json has these keys; its other keys are ignored. The summaries of
    invalid sessions, and of sessions outside the corpus, are not read.
    """
    config = run_info["config"]
    modes = [RefinementMode(m) for m in config["modes"]]
    tasks = [TaskKind(t) for t in config["tasks"]]
    invalid = set(run_info["invalid_sessions"])

    rows = []
    for mode in modes:
        for chunk_len in _chunk_options(mode, config["chunk_lens"]):
            cells: dict[str, float | None] = {}
            per_class: dict[str, dict[str, float]] = {}
            n_sessions: dict[str, int] = {}
            notes: dict[str, str] = {}
            for task in tasks:
                sessions = [
                    m for m in manifests
                    if m.session_id not in invalid and _has_gold(m, task)
                ]
                n_sessions[task.value] = len(sessions)
                if not sessions:
                    cells[task.value] = None
                    notes[task.value] = "no sessions with gold labels"
                    continue
                group = (mode.value, str(chunk_len), task.value)
                summaries = [(m, scorer.summaries.get((*group, m.session_id))) for m in sessions]
                if task is TaskKind.ACTIVITY_RECOGNITION:
                    min_duration_s = config["min_activity_duration_s"]
                    cells[task.value], per_class[task.value] = metrics.macro_f1_multilabel(
                        {m.session_id: s.activities(min_duration_s) if s else frozenset() for m, s in summaries},
                        {m.session_id: m.ground_truth.session_activities for m, s in summaries},
                        taxonomy)
                elif task is TaskKind.ACTIVITY_SEGMENTATION:
                    outcomes = sum((s.outcomes for _, s in summaries if s), Counter())
                    cells[task.value], per_class[task.value] = metrics.macro_f1_outcomes(outcomes, taxonomy)
                else:
                    ranked = [
                        metrics.RankedScore(session_id=m.session_id, score=s.ratio,
                                            gold_presence=bool(m.ground_truth.e_flag(task)))
                        for m, s in summaries if s
                    ]
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
        "backend_id": run_info["backend_id"],
        "taxonomy": taxonomy.name,
        "taxonomy_labels": list(taxonomy.labels),
        "config": config,
        "rows": rows,
        "invalid_sessions": sorted(invalid & {m.session_id for m in manifests}),
        "failures": list(run_info["failures"]),
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


def write_report_files(report: dict, scorer: Scorer, report_dir: Path) -> None:
    """Write report.json, report.md and the scorer's predictions.jsonl, each
    replaced whole."""
    from .reporting import render_markdown

    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    with replacing(report_dir / "report.json") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with replacing(report_dir / "report.md") as fh:
        fh.write(render_markdown(report))
    scorer.write_predictions(report_dir / "predictions.jsonl")


def load_predictions(path: str | Path) -> list[dict[str, Any]]:
    return list(read_jsonl(path))
