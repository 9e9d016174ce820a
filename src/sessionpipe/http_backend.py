"""The HTTP backend: a chat-completions client for locally served models.

The only module that imports ``requests``, which resolves the endpoint's
headers, ``.netrc`` auth, proxies and CA bundle once, when a client is built.
The exchange itself is this module's own, over ``http.client`` connections.
``run`` loads it through ``orchestrator``; ``simulate`` and the fixture server
load ``backends`` alone.
"""

from __future__ import annotations

import email.utils
import functools
import http.client
import json
import os
import select
import ssl
import threading
import time
import zlib
from datetime import timezone
from typing import IO, Any
from urllib.parse import urlsplit

import requests

from .backends import (IDENTITY, MAX_TOKENS, TEMPERATURE, Backend, BackendError, BackendExhaustedError,
                       BackendRequest, BackendResponse, BackendTimeoutError, EndpointError, MalformedResponseError,
                       RequestRejectedError, TransportError, identity)

# the HTTP client's wire settings
TIMEOUT_S = 60.0
MAX_RETRIES = 2
BACKOFF_S = 0.25


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
    user message. The request's identity (``backends.identity``: role, session,
    segment, media reference, frame timestamps, prompt hash and seed) rides in
    a ``metadata`` object that standard servers ignore and fixture-replay
    servers key on. Timeouts, connection errors, 408, 429 and 5xx answers retry
    with exponential backoff up to MAX_RETRIES; a 429 or 503 with a valid
    ``Retry-After`` waits that long instead, capped at the longest backoff. Any
    3xx (redirects are not followed) or other 4xx fails at once.

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
            "metadata": dict(zip(IDENTITY, identity(request))),
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
