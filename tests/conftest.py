import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sessionpipe.corpus import (
    ActivityTaxonomy,
    DatasetKind,
    GroundTruth,
    SessionManifest,
    TimelineEntry,
)


@pytest.fixture
def taxonomy():
    return ActivityTaxonomy(
        name="test-3",
        labels=("shared book reading", "singing, reciting", "toy play"),
        aliases={"book reading": "shared book reading"},
    )


@pytest.fixture
def diagnostic_manifest():
    return SessionManifest(
        session_id="diag-001",
        dataset=DatasetKind.DIAGNOSTIC,
        media_duration_s=64.0,
        video_ref="file:///diag-001.mp4",
        audio_ref="file:///diag-001.wav",
        ground_truth=GroundTruth(
            activity_timeline=(
                TimelineEntry(0.0, 32.0, "toy play"),
                TimelineEntry(32.0, 64.0, "shared book reading"),
            ),
            e1=True,
            e2=False,
            e3=False,
        ),
    )


@pytest.fixture
def naturalistic_manifest():
    return SessionManifest(
        session_id="nat-001",
        dataset=DatasetKind.NATURALISTIC,
        media_duration_s=900.0,
        video_ref="file:///nat-001.mp4",
        audio_ref="file:///nat-001.wav",
        ground_truth=GroundTruth(session_activities=frozenset({"toy play"})),
    )


CHAT_OK = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()


@dataclass(frozen=True)
class RecordedRequest:
    method: str
    path: str  # the absolute URL when the request came through as a proxy
    headers: dict[str, str]
    body: bytes
    client_port: int  # one per connection the client opened


class StubServer:
    """A threaded HTTP server that records each request and answers each with one
    scripted status, headers and body.

    With ``keep_alive_s`` it speaks HTTP/1.1 and keeps each connection open until
    it has been idle that long (HTTP/1.0 otherwise: one request per connection).
    ``framing`` sends the body after a Content-Length ("length"), in chunks
    ("chunked"), or cut to half its bytes before the connection is closed
    ("truncated").
    """

    def __init__(self, status: int, headers: dict[str, str], body: bytes,
                 keep_alive_s: float | None = None, framing: str = "length"):
        self.requests: list[RecordedRequest] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            if keep_alive_s is not None:
                protocol_version = "HTTP/1.1"
                timeout = keep_alive_s  # an idle connection's read times out, and the server closes it

            def log_message(self, *args):
                pass

            def do_POST(self):
                received = self.rfile.read(int(self.headers.get("Content-Length", "0")))
                stub.requests.append(RecordedRequest(
                    self.command, self.path, dict(self.headers.items()), received, self.client_address[1]
                ))
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                if framing == "chunked":
                    self.send_header("Transfer-Encoding", "chunked")
                    self.end_headers()
                    for at in range(0, len(body), 7):
                        piece = body[at:at + 7]
                        self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
                    self.wfile.write(b"0\r\n\r\n")
                    return
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if framing == "truncated":
                    self.wfile.write(body[:len(body) // 2])
                    self.close_connection = True
                    return
                self.wfile.write(body)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def stub_server():
    """Start recording stubs: ``stub_server(status=200, headers={}, body=CHAT_OK,
    keep_alive_s=None, framing="length")`` returns a running ``StubServer``;
    every one started stops at teardown."""
    servers: list[StubServer] = []

    def start(status: int = 200, headers: dict[str, str] | None = None, body: bytes = CHAT_OK,
              **options) -> StubServer:
        servers.append(StubServer(status, headers or {}, body, **options))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()
