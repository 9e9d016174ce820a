"""A local chat-completions stub that replays fixture files.

Serves ``POST /v1/chat/completions`` and answers from a FixtureStore using the
same key as the in-process mock: the request's identity, read from the
``metadata`` the HTTP client sends, without its seed and with the hash of the
message actually sent. So the HTTP client and the mock are interchangeable end
to end.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .backends import FixtureMissError, FixtureStore, prompt_sha256


class _FixtureHandler(BaseHTTPRequestHandler):
    store: FixtureStore  # set by the server factory
    # connections stay open; a response leaves in one buffered write, never held ~40 ms by Nagle
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass

    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # and closes it once this response is sent
        self.end_headers()
        self.wfile.write(body)

    def _drop_chunked_body(self) -> None:
        """Read a chunked request body to its end, so the client's last chunk
        is not sent into a connection this server has closed."""
        while size := int(self.rfile.readline(65537).split(b";", 1)[0], 16):
            self.rfile.read(size + 2)  # the chunk and its CRLF
        while self.rfile.readline(65537) not in (b"\r\n", b"\n", b""):  # the trailer
            pass

    def do_POST(self):
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal() or "Transfer-Encoding" in self.headers:  # where the body ends is unknown
            if self.headers.get("Transfer-Encoding", "").lower() == "chunked":
                try:
                    self._drop_chunked_body()
                except ValueError:  # a chunk size that is no number: only closing is left
                    pass
            self._send(400, {"error": {"message": "bad request: a body needs a decimal Content-Length"}}, close=True)
            return
        raw = self.rfile.read(int(length))  # on every path, so the next request starts after it
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": {"message": f"unknown path {self.path}"}})
            return
        try:
            body = json.loads(raw)
            # the hash of the prompt sent, not one the metadata names
            key = FixtureStore.key({**body["metadata"], "prompt_hash": prompt_sha256(body["messages"][-1]["content"])})
        # IndexError: no messages; AttributeError: a content that is not a string
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            self._send(400, {"error": {"message": f"bad request: {exc}"}})
            return
        try:
            text = self.store.lookup(key)
        except FixtureMissError as exc:
            self._send(404, {"error": {"message": str(exc)}})
            return
        self._send(
            200,
            {
                "object": "chat.completion",
                "model": body.get("model", "fixture-replay"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
            },
        )


class _Server(ThreadingHTTPServer):
    # A client pool opens all its kept connections at once. With the stdlib's backlog
    # of 5, a pool of 8 overflows it and a dropped connect waits out a 1 s SYN retry.
    request_queue_size = socket.SOMAXCONN


class FixtureChatServer:
    """Threaded stub server; use as a context manager in tests and scripts."""

    def __init__(self, store: FixtureStore, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundFixtureHandler", (_FixtureHandler,), {"store": store})
        self._server = _Server((host, port), handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FixtureChatServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "FixtureChatServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
