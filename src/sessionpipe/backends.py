"""Model backends: captioner, transcriber, and reasoner roles.

Two interchangeable implementations sit behind one interface: an HTTP client
speaking the chat-completions protocol against a locally served model
(``http_backend.HttpChatBackend``), and a deterministic mock that replays
fixture files. ``identity`` states what tells one request from another;
cache keys, journal and fixture records, fixture lookups and the HTTP client's
``metadata`` all read it. Fixture misses raise, never default. This module
loads no HTTP stack, so the simulator and the fixture server start without it.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping

from .corpus import read_jsonl
from .windowing import TimedUtterance


class Role(Enum):
    CAPTIONER = "captioner"
    TRANSCRIBER = "transcriber"
    REASONER = "reasoner"


class BackendError(Exception):
    """Base class for backend failures."""


class BackendTimeoutError(BackendError):
    pass


class TransportError(BackendError):
    """A failed exchange worth retrying; ``retry_after_s`` is the wait the server
    asked for in a ``Retry-After`` header, if it sent a valid one."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class MalformedResponseError(BackendError):
    pass


class RequestRejectedError(BackendError):
    """A 4xx answer that retrying cannot change (all but 408 and 429)."""


class UnparseableTimestampsError(BackendError):
    pass


class FixtureMissError(BackendError):
    pass


class FixtureFileError(ValueError):
    """A fixture record without a field of the fixture key, as files simulated by earlier versions are."""


class EndpointError(ValueError):
    """No request can be sent to the endpoint URL (no scheme, no host, or a scheme
    no transport serves); raised when the HTTP backend is built. A configuration
    error, not a failed request: a run stops on it."""


class BackendExhaustedError(BackendError):
    def __init__(self, attempts: int, last_error: BackendError):
        super().__init__(f"backend failed after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


def prompt_sha256(prompt: str) -> str:
    """Lowercase hex digest keying fixtures and caches to an exact prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# every request is decoded the same way; cache keys name these, so changing one renames the journal
TEMPERATURE = 0.0
MAX_TOKENS = 256


@dataclass(frozen=True, slots=True)
class BackendRequest:
    role: Role
    session_id: str
    prompt: str
    segment_index: int | None = None
    media_ref: str | None = None
    frame_timestamps_s: tuple[float, ...] | None = None
    seed: int | None = None
    # hashed once here; cache keys, cache records and fixture lookups all read it
    prompt_hash: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("request prompt must be non-empty")
        if self.role in (Role.CAPTIONER, Role.TRANSCRIBER) and not self.media_ref:
            raise ValueError(f"{self.role.value} requests must carry a media_ref")
        if self.role is Role.REASONER and self.media_ref is not None:
            raise ValueError("reasoner requests carry a prompt only, no media_ref")
        object.__setattr__(self, "prompt_hash", prompt_sha256(self.prompt))


# What tells one request from another, the seed last: a fixture is keyed on IDENTITY[:-1], because
# `simulate` plans with no seed. The journal, the fixtures and the HTTP metadata carry it as a dict.
IDENTITY = ("role", "session_id", "segment_index", "media_ref", "frame_timestamps_s", "prompt_hash", "seed")
_AFTER_ROLE = operator.attrgetter(*IDENTITY[1:])
_FIXTURE_FIELDS = operator.itemgetter(*IDENTITY[:-1])


def identity(request: BackendRequest) -> tuple:
    """The request's values of IDENTITY, the role as its string."""
    return (request.role.value, *_AFTER_ROLE(request))


@dataclass(frozen=True)
class BackendResponse:
    text: str
    latency_ms: float
    attempt: int  # 1 for the first try


class FixtureStore:
    """Canned texts keyed by a request's identity without its seed (``IDENTITY[:-1]``).

    It holds one text per key and nothing else of a record. The key's strings
    are interned, and its frame tuples and the texts kept one per distinct
    value, so a role, a session id, a media reference, a prompt hash, a
    segment's frames or an answer that many fixtures share (every caption has
    the same prompt, and a few labels answer most prompts) is held once.
    """

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()):
        self._texts: dict[tuple, str] = {}
        self._distinct: dict[tuple[float, ...] | str, tuple[float, ...] | str] = {}  # frames and texts, held once
        for record in records:
            self.add(record)

    @staticmethod
    def key(record: Mapping[str, Any]) -> tuple:
        """The fixture key of a fixture record, or of a request's identity as a dict."""
        role, session_id, segment, media_ref, frames, prompt_hash = _FIXTURE_FIELDS(record)
        return (sys.intern(str(role)), sys.intern(str(session_id)), None if segment is None else int(segment),
                None if media_ref is None else sys.intern(str(media_ref)),
                None if frames is None else tuple(frames), sys.intern(str(prompt_hash)))

    def add(self, record: Mapping[str, Any]) -> None:
        held = self._distinct.setdefault
        *head, frames, prompt_hash = key = self.key(record)
        if frames is not None:
            key = (*head, held(frames, frames), prompt_hash)
        text = record["text"]
        self._texts[key] = held(text, text)

    def __len__(self) -> int:
        return len(self._texts)

    def lookup(self, key: tuple) -> str:
        """The text for a fixture key: ``identity(request)[:-1]``, or ``key`` of an identity dict."""
        try:
            return self._texts[key]
        except KeyError:
            role, session_id, segment, media_ref, frames, prompt_hash = key
            shown = "" if media_ref is None else f" media={media_ref}"
            if frames:
                shown += f" frames={len(frames)} from {frames[0]} s to {frames[-1]} s"
            raise FixtureMissError(f"no fixture for role={role} session={session_id} segment={segment}{shown} "
                                   f"prompt_hash={prompt_hash[:12]}...") from None

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "FixtureStore":
        try:
            return cls(read_jsonl(path))
        except KeyError as exc:
            raise FixtureFileError(f"{path}: a fixture record has no {exc}; simulate the fixtures again") from None


class Backend(ABC):
    """A model endpoint serving one or more roles."""

    backend_id: str
    in_process = False  # True: a run calls complete inline, not on a thread pool

    @abstractmethod
    def complete(self, request: BackendRequest) -> BackendResponse:
        """Run one request to completion, including retries."""

    def close(self) -> None:
        """Release what the requests so far hold open; a later request may open it again."""


class MockBackend(Backend):
    """Deterministic fixture-backed backend; identical request, identical reply."""

    in_process = True

    backend_id = "mock"

    def __init__(self, store: FixtureStore):
        self._store = store

    def complete(self, request: BackendRequest) -> BackendResponse:
        text = self._store.lookup(identity(request)[:-1])
        return BackendResponse(text=text, latency_ms=0.0, attempt=1)


def __getattr__(name: str) -> Any:
    """``backends.HttpChatBackend``, loaded on first use: perfbench/traced_cli.py
    wraps the client's ``complete`` under that name, and importing it here would
    load ``requests`` into every process that needs only the mock."""
    if name == "HttpChatBackend":
        from .http_backend import HttpChatBackend

        return HttpChatBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# transcript wire format


def parse_utterances_json(text: str) -> list[TimedUtterance]:
    """Decode a transcriber completion: a JSON list of timed utterances."""
    try:
        items = json.loads(text) if text.strip() else []
    except ValueError as exc:
        raise UnparseableTimestampsError(f"transcript is not valid JSON: {text[:100]}") from exc
    if not isinstance(items, list):
        raise UnparseableTimestampsError("transcript JSON must be a list")
    utterances = []
    for item in items:
        try:
            utterances.append(
                TimedUtterance(
                    start_s=float(item["start_s"]),
                    end_s=float(item["end_s"]),
                    text=str(item["text"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise UnparseableTimestampsError(f"bad utterance record: {item!r}") from exc
    for prev, cur in zip(utterances, utterances[1:]):
        if cur.start_s < prev.start_s:
            raise UnparseableTimestampsError(
                f"utterance timestamps out of order: {prev.start_s} then {cur.start_s}"
            )
    return utterances


def utterances_to_json(utterances: Iterable[TimedUtterance]) -> str:
    """Inverse of parse_utterances_json; used by fixtures and replay servers."""
    return json.dumps(
        [{"start_s": u.start_s, "end_s": u.end_s, "text": u.text} for u in utterances]
    )
