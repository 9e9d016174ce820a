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
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from itertools import islice
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, TypeVar

from . import windowing
from .backends import (
    Backend,
    BackendError,
    BackendRequest,
    BackendResponse,
    FixtureStore,
    IDENTITY,
    MAX_TOKENS,
    MockBackend,
    TEMPERATURE,
    Role,
    identity,
    parse_utterances_json,
)
from .config import RunConfig
from .corpus import ACTIVITY_TASKS, SORTED_JSON, ActivityTaxonomy, InputError, load_corpus, load_taxonomy, read_jsonl
from .http_backend import HttpChatBackend
from .parsing import parse_binary, parse_label
from .planning import PlannedUnit, plan_extraction, plan_units, transcript_chunks
# build_task_prompt is not called here: perfbench/traced_cli.py looks it up in this module
from .prompting import build_task_prompt, load_templates
from .scoring import Scorer, evaluate_predictions, write_report_files
from .windowing import TranscriptChunk

_DECODING = f"temperature={TEMPERATURE!r};max_tokens={MAX_TOKENS}"
JOURNAL_NAME = "responses-v2.jsonl"  # stands for cache_key's schema: rename it when the key changes


def cache_key(backend_id: str, request: BackendRequest) -> str:
    """The address of a request's answer: the backend (which names the model),
    the request's identity and the decoding settings. ``ascii`` of their tuple
    tells any two apart and, escaping every non-ASCII character, reads the same
    on every Python version."""
    return hashlib.sha256(ascii((backend_id, *identity(request), _DECODING)).encode()).hexdigest()


class DamagedJournalError(InputError):
    """A whole journal line is not a JSON object with a cache key and a string text."""


class OldCacheLayoutError(InputError):
    """The cache directory holds journals of an older key schema, which no run can reuse."""


def _digest(key: str) -> bytes:
    """The 32 bytes whose lowercase hex a cache key is; ValueError or TypeError for any other key."""
    digest = bytes.fromhex(key)  # also takes upper case and spaces, so the round trip is checked
    if len(digest) != 32 or digest.hex() != key:
        raise ValueError(f"not a cache key: {key!r}")
    return digest


class ResponseCache:
    """Answers by cache key, appended as they arrive to the journal ``cache_dir/JOURNAL_NAME``,
    one sorted-key JSON line each. Loading keeps the last line of each key, cuts off a last line
    without a newline (a torn write) and refuses any other line that is not a record whose key is
    the lowercase hex of a SHA-256 digest. A directory that holds any other ``*.jsonl`` (the
    journal of an older key schema) is refused before anything is read.

    In memory it holds each answer under the 32 bytes of its key, not the key's 64 hex
    characters, and one string per distinct answer, since many units get the same answer (a
    few labels answer most reasoner prompts). The table of distinct texts is kept only while
    loading and while the journal is open, so a warm cache whose answers all differ holds no
    more than its keys and texts."""

    def __init__(self, cache_dir: Path):
        if stale := sorted(p.name for p in cache_dir.glob("*.jsonl") if p.name != JOURNAL_NAME):
            raise OldCacheLayoutError(f"{cache_dir} holds cache files of an older layout: {', '.join(stale)}. Their "
                                      f"keys are not this version's, so no run can reuse them: remove them.")
        self._path = cache_dir / JOURNAL_NAME
        self._texts: dict[bytes, str] = {}
        self._journal: IO[str] | None = None  # opened by the first put
        self._distinct: dict[str, str] = {}  # each answer text, once, while the journal is open
        if self._path.exists():
            distinct: dict[str, str] = {}
            whole = 0  # bytes up to the end of the last whole line
            with open(self._path, "rb") as fh:
                for number, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        os.truncate(self._path, whole)
                        break
                    try:
                        record = json.loads(line)
                        key, text = record["key"], record["text"]
                        if not isinstance(text, str):
                            raise TypeError
                        digest = _digest(key)
                    except (ValueError, TypeError, KeyError):
                        raise DamagedJournalError(
                            f"{self._path}: line {number} is not a JSON object with a string key and text, or its "
                            "key is not the lowercase hex of a SHA-256 digest; repair or delete that line") from None
                    self._texts[digest] = distinct.setdefault(text, text)
                    whole += len(line)

    def get(self, key: str) -> str | None:
        """The answer for a key ``cache_key`` made, or None."""
        return self._texts.get(bytes.fromhex(key))

    def put(self, record: dict) -> None:
        digest = _digest(record["key"])  # this and the encoding raise before anything is appended
        line = SORTED_JSON.encode(record) + "\n"
        if self._journal is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._journal = open(self._path, "a", encoding="utf-8", buffering=1)  # each line reaches the OS
            self._distinct = {text: text for text in self._texts.values()}
        self._journal.write(line)
        text = record["text"]
        self._texts[digest] = self._distinct.setdefault(text, text)

    def flush(self) -> None:
        """Close the journal; every answer is already written to it."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
            self._distinct = {}


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
                    cache.put(dict(zip(IDENTITY, identity(owner)), key=key, backend_id=backend.backend_id, text=answer))
            yield item, key, answer
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        cache.flush()  # closes the journal, also when a kill or a bug raises past call or the consumer
        backend.close()


def _backend_id(cfg: RunConfig) -> str:
    """The id of the backend ``build_backend(cfg)`` makes."""
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
        record["presence"] = parse_binary(answer)
    return record


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


def load_predictions(path: str | Path) -> list[dict[str, Any]]:
    return list(read_jsonl(path))
