"""Model backends: captioner, transcriber, and reasoner roles.

Two interchangeable implementations sit behind one interface: an HTTP client
speaking the chat-completions protocol against a locally served model, and a
deterministic mock that replays fixture files. Fixture lookups are keyed by
(role, session, segment, prompt hash); misses raise, never default.
"""

from __future__ import annotations

import email.utils
import functools
import hashlib
import http.client
import json
import os
import select
import ssl
import sys
import threading
import time
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import timezone
from enum import Enum
from pathlib import Path
from typing import IO, Any, Iterable, Mapping
from urllib.parse import urlsplit

import requests

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
# the HTTP client's wire settings
TIMEOUT_S = 60.0
MAX_RETRIES = 2
BACKOFF_S = 0.25


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


@dataclass(frozen=True)
class BackendResponse:
    text: str
    latency_ms: float
    attempt: int  # 1 for the first try


FixtureKey = tuple[str, str, int | None, str]


class FixtureStore:
    """Canned texts keyed by (role, session_id, segment_index, prompt_hash).

    It holds one text per key and nothing else of a record. The key's strings
    are interned, so a role, a session id or a prompt hash that many fixtures
    share (every caption has the same prompt) is held once.
    """

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()):
        self._texts: dict[FixtureKey, str] = {}
        for record in records:
            self.add(record)

    @staticmethod
    def _key(record: Mapping[str, Any]) -> FixtureKey:
        seg = record["segment_index"]
        return (
            sys.intern(str(record["role"])),
            sys.intern(str(record["session_id"])),
            None if seg is None else int(seg),
            sys.intern(str(record["prompt_hash"])),
        )

    def add(self, record: Mapping[str, Any]) -> None:
        self._texts[self._key(record)] = record["text"]

    def __len__(self) -> int:
        return len(self._texts)

    def lookup(self, role: Role, session_id: str, segment_index: int | None, prompt_hash: str) -> str:
        key = (role.value, session_id, segment_index, prompt_hash)
        try:
            return self._texts[key]
        except KeyError:
            raise FixtureMissError(
                f"no fixture for role={role.value} session={session_id} "
                f"segment={segment_index} prompt_hash={prompt_hash[:12]}..."
            ) from None

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "FixtureStore":
        return cls(read_jsonl(path))


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
    """Deterministic fixture-backed backend; identical request, identical reply.

    Thread-safe; keeps a call counter so tests can assert cache behavior.
    """

    in_process = True

    backend_id = "mock"

    def __init__(self, store: FixtureStore):
        self._store = store
        self._lock = threading.Lock()
        self.call_count = 0

    def complete(self, request: BackendRequest) -> BackendResponse:
        with self._lock:
            self.call_count += 1
        text = self._store.lookup(
            request.role, request.session_id, request.segment_index, request.prompt_hash
        )
        return BackendResponse(text=text, latency_ms=0.0, attempt=1)


def parse_retry_after(value: str | None, now: float) -> float | None:
    """The wait a ``Retry-After`` value asks for, in seconds from ``now`` (epoch
    seconds): delay-seconds or an HTTP-date (RFC 9110 §10.2.3), never negative.
    None when the value is absent or malformed."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):
        return None
    if when.tzinfo is None:  # "-0000": a date in UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - now)


def tls_context(verify: bool | str) -> ssl.SSLContext:
    """The TLS context for requests' ``verify`` setting: True checks peers against
    requests' CA bundle, a path against that file or directory, False not at all."""
    if verify is False:
        context = ssl.create_default_context()
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
        return context
    path = requests.utils.DEFAULT_CA_BUNDLE_PATH if verify is True else verify
    if os.path.isdir(path):
        return ssl.create_default_context(capath=path)
    return ssl.create_default_context(cafile=path)


def _decoded(data: bytes, coding: str | None) -> bytes:
    """A body under its ``Content-Encoding``: gzip, or deflate (zlib-wrapped or raw)."""
    coding = (coding or "").strip().lower()
    if coding in ("gzip", "x-gzip"):
        return zlib.decompress(data, 16 + zlib.MAX_WBITS)
    if coding == "deflate":
        try:
            return zlib.decompress(data)
        except zlib.error:
            return zlib.decompress(data, -zlib.MAX_WBITS)
    return data


MAX_LINE = 65536  # longest status, header, chunk-size or trailer line, as http.client bounds them
MAX_HEADERS = 100  # most header lines in a response head, its blank line included


def _line(reader: IO[bytes]) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise http.client.LineTooLong("response line")
    return line


def _exactly(reader: IO[bytes], size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_response(reader: IO[bytes]) -> tuple[int, dict[str, str], bytes, bool]:
    """Read one HTTP/1.x response: its status, its headers (lowercase names; a
    repeated header keeps its first value), its body as framed on the wire (not
    yet decoded), and whether the connection must close after it.

    1xx responses are skipped; a 204 or 304 has no body. Otherwise the body is
    framed by ``Transfer-Encoding: chunked`` (extensions and trailers dropped),
    by ``Content-Length``, or by the connection closing. Errors are
    ``http.client``'s: a truncated body raises ``IncompleteRead``.
    """
    status = 100
    while status < 200:
        line = _line(reader)
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, *rest = line.split(None, 2) or [b""]
        try:
            status = int(rest[0])
        except (IndexError, ValueError):
            status = 0
        if not version.startswith(b"HTTP/") or not 100 <= status <= 999:
            raise http.client.BadStatusLine(line.decode("latin-1"))
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS):
            line = _line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if colon:
                headers.setdefault(name.lower(), value.lstrip(" \t").rstrip("\r\n"))
        else:
            raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
    connection = headers.get("connection", "").lower()
    if version in (b"HTTP/1.0", b"HTTP/0.9"):  # kept open only when the server says keep-alive
        close = not (headers.get("keep-alive") or "keep-alive" in connection
                     or "keep-alive" in headers.get("proxy-connection", "").lower())
    elif version.startswith(b"HTTP/1."):
        close = "close" in connection
    else:
        raise http.client.UnknownProtocol(version.decode("latin-1"))
    if status in (204, 304):
        return status, headers, b"", close
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = []
        while True:
            try:
                size = int(_line(reader).split(b";", 1)[0], 16)
            except ValueError:
                raise http.client.IncompleteRead(b"".join(chunks)) from None
            if not size:
                break
            chunks.append(_exactly(reader, size))
            _exactly(reader, 2)  # the chunk's CRLF
        while _line(reader) not in (b"\r\n", b"\n", b""):  # the trailer
            pass
        return status, headers, b"".join(chunks), close
    try:
        length = int(headers["content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:  # framed by the close
        return status, headers, reader.read(), True
    return status, headers, _exactly(reader, length), close


class HttpChatBackend(Backend):
    """Chat-completions client for locally served models.

    Sends ``POST {base_url}/v1/chat/completions`` with the prompt as a single
    user message. Session/segment/media context rides in a ``metadata`` object
    that standard servers ignore and fixture-replay servers key on. Timeouts,
    connection errors, 408, 429 and 5xx answers retry with exponential backoff
    up to MAX_RETRIES; a 429 or 503 with a valid ``Retry-After`` waits that long
    instead, capped at the longest backoff. Any 3xx (redirects are not followed)
    or other 4xx fails at once.

    The URL, headers, ``.netrc`` auth, proxies and CA bundle are resolved once,
    here, through ``requests``; an explicit ``api_key`` wins over ``.netrc``.
    The request head is built here too, as bytes. ``http.client`` only opens
    connections (TCP, a proxy's ``CONNECT`` tunnel, TLS): each calling thread
    keeps one, with one buffered reader, made on its first request and reopened
    after the server closes it or ``close()`` closed it. A request goes out in
    one write: the head, its ``Content-Length`` and the body. The response is
    read by ``_read_response``: 1xx skipped, a body framed by
    ``Content-Length``, chunks or the close, and coded as identity, gzip or
    deflate. The connection is closed after an HTTP/1.0 answer without
    keep-alive, a ``Connection: close``, a body framed by the close, or any
    error. Cookies the server sets are not kept.
    """

    def __init__(self, base_url: str, model: str = "local-model", api_key: str | None = None):
        self.model = model
        self.backend_id = f"http:{model}"
        self._local = threading.local()
        self._readers: dict[http.client.HTTPConnection, IO[bytes]] = {}  # each open connection's; close() closes them
        url = f"{base_url.rstrip('/')}/v1/chat/completions"
        with requests.Session() as session:
            try:
                # default headers, plus .netrc auth when the environment has an entry for the host
                prepared = session.prepare_request(
                    requests.Request("POST", url, headers={"Content-Type": "application/json"})
                )
                adapter = session.get_adapter(url)  # raises for a scheme no transport serves ("localhost:8000")
            except requests.RequestException as exc:
                raise EndpointError(str(exc)) from None
            # what Session.request derives from the environment on every call
            env = session.merge_environment_settings(url, {}, None, None, None)
        headers = dict(prepared.headers)
        headers.pop("Content-Length", None)  # each request's goes last
        headers["Accept-Encoding"] = "gzip, deflate"  # the codings _decoded reads
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        endpoint = urlsplit(prepared.url)
        tls = endpoint.scheme == "https"
        address = (endpoint.hostname, endpoint.port or (443 if tls else 80))
        # the Host line http.client writes: the host, bracketed if IPv6, with its port unless the default
        host = f"[{address[0]}]" if ":" in address[0] else address[0]
        if address[1] != (443 if tls else 80):
            host = f"{host}:{address[1]}"
        target = prepared.path_url
        self._tunnel = None
        proxy = requests.utils.select_proxy(url, env["proxies"])
        if proxy:
            proxy = requests.utils.prepend_scheme_if_needed(proxy, "http")
            via = urlsplit(proxy)
            if via.scheme != "http":
                raise EndpointError(f"proxy {via.scheme}://{via.hostname}: only http:// proxies are served")
            if tls:  # a CONNECT tunnel through the proxy, then TLS with the endpoint
                self._tunnel = (*address, adapter.proxy_headers(proxy))
            else:  # the proxy forwards the request, which names the absolute URL
                headers.update(adapter.proxy_headers(proxy))
                target = requests.utils.urldefragauth(prepared.url)
                host = urlsplit(target).netloc
            address = (via.hostname, via.port or 80)
        for name, value in headers.items():
            if "\r" in name + value or "\n" in name + value:  # the value is not shown: it may be a key
                raise ValueError(f"request header {name!r} holds a line break")
        lines = [f"POST {target} HTTP/1.1", f"Host: {host}", *(f"{k}: {v}" for k, v in headers.items())]
        self._head = "\r\n".join([*lines, "Content-Length: "]).encode("latin-1")
        self._connect = functools.partial(http.client.HTTPConnection, *address, timeout=TIMEOUT_S)
        if tls:  # through a tunnel too: TLS runs with the endpoint, inside it
            try:
                context = tls_context(env["verify"])
            except OSError as exc:
                raise EndpointError(f"CA bundle {env['verify']}: {exc}") from None
            self._connect = functools.partial(
                http.client.HTTPSConnection, *address, timeout=TIMEOUT_S, context=context
            )

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; one object for the thread's life, which
        _post_once connects again after it is closed."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
        return conn

    def _disconnect(self, conn: http.client.HTTPConnection) -> None:
        reader = self._readers.pop(conn, None)
        if reader is not None:  # the socket's descriptor stays open until its reader closes too
            reader.close()
        conn.close()

    def close(self) -> None:
        """Close every thread's connection; call it once no request is in flight."""
        for conn in list(self._readers):
            self._disconnect(conn)

    def _request_bytes(self, request: BackendRequest) -> bytes:
        """The request's bytes on the wire: the head, its Content-Length and the body."""
        body: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
            "metadata": {
                "role": request.role.value,
                "session_id": request.session_id,
                "segment_index": request.segment_index,
                "media_ref": request.media_ref,
                "frame_timestamps_s": (
                    None
                    if request.frame_timestamps_s is None
                    else list(request.frame_timestamps_s)
                ),
            },
        }
        if request.seed is not None:
            body["seed"] = request.seed
        # the bytes requests sends for json=body
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        return b"%s%d\r\n\r\n%s" % (self._head, len(data), data)

    def _post_once(self, wire: bytes) -> str:
        conn = self._connection()
        reader = self._readers.get(conn)
        # readable while idle: the server closed it (or spoke unasked); start afresh
        if reader is not None and select.select([conn.sock], [], [], 0)[0]:
            self._disconnect(conn)
            reader = None
        try:
            if reader is None:
                conn.connect()
                reader = self._readers[conn] = conn.sock.makefile("rb")
            conn.sock.sendall(wire)
            status, headers, data, close = _read_response(reader)
            data = _decoded(data, headers.get("content-encoding"))
        except TimeoutError as exc:
            self._disconnect(conn)
            raise BackendTimeoutError(f"{type(exc).__name__}: {exc}") from exc
        except (OSError, http.client.HTTPException, zlib.error) as exc:
            self._disconnect(conn)
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        if close:
            self._disconnect(conn)
        if status != 200:
            text = data.decode("utf-8", "replace")[:200]
            message = f"HTTP {status}: {text}"
            if 300 <= status < 400:
                message = f"HTTP {status} to {headers.get('location')}, not followed: {text}"
            if 300 <= status < 500 and status not in (408, 429):
                raise RequestRejectedError(message)
            wait = None
            if status in (429, 503):
                wait = parse_retry_after(headers.get("retry-after"), time.time())
            raise TransportError(message, retry_after_s=wait)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):  # also null content, sent for refusals and tool calls
            raise MalformedResponseError(f"unexpected response body: {data.decode('utf-8', 'replace')[:200]}")
        return content

    @staticmethod
    def _backoff_s(attempt: int, error: BackendError) -> float:
        if isinstance(error, TransportError) and error.retry_after_s is not None:
            return min(error.retry_after_s, BACKOFF_S * 2 ** (MAX_RETRIES - 1))
        return BACKOFF_S * 2 ** (attempt - 1)

    def complete(self, request: BackendRequest) -> BackendResponse:
        wire = self._request_bytes(request)
        started = time.perf_counter()
        attempts = MAX_RETRIES + 1
        last_error: BackendError | None = None
        for attempt in range(1, attempts + 1):
            try:
                text = self._post_once(wire)
            except (BackendTimeoutError, TransportError) as exc:
                last_error = exc
                if attempt <= MAX_RETRIES:
                    time.sleep(self._backoff_s(attempt, exc))
                continue
            latency_ms = (time.perf_counter() - started) * 1000.0
            return BackendResponse(text=text, latency_ms=latency_ms, attempt=attempt)
        assert last_error is not None
        raise BackendExhaustedError(attempts=attempts, last_error=last_error)


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
