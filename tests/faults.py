"""A deterministic fault-injecting backend wrapper for run and resume tests."""

from __future__ import annotations

from typing import Callable, Collection, Mapping

from sessionpipe.backends import Backend, BackendError, BackendRequest, BackendResponse, Role, utterances_to_json
from sessionpipe.orchestrator import cache_key
from sessionpipe.windowing import TimedUtterance


class Killed(BaseException):
    """Stands in for the process being killed: no handler in the run catches it."""


class FaultyBackend(Backend):
    """Answers through ``inner``, except where told otherwise, keyed by cache key.

    - ``raises`` maps a key to the ``BackendError`` class its request fails with.
    - ``torn`` keys are answered with a transcript that is not a JSON list.
    - With ``kill_after`` = N, the request after the N-th answer calls
      ``on_kill`` (while the run is still live) and raises ``Killed``.

    It runs inline, so answers reach the cache in request order. Told nothing
    else, it only counts: ``sent`` holds the key of every request the run sent.
    """

    in_process = True
    TORN_TRANSCRIPT = '[{"start_s": 0.0, "end_s": 1.5, "te'

    def __init__(self, inner: Backend, raises: Mapping[str, type[BackendError]] | None = None,
                 torn: Collection[str] = (), kill_after: int | None = None,
                 on_kill: Callable[[], None] = lambda: None):
        self.backend_id = inner.backend_id
        self._inner = inner
        self._raises = dict(raises or {})
        self._torn = set(torn)
        self._kill_after = kill_after
        self._on_kill = on_kill
        self.sent: list[str] = []  # the key of every request received
        self.raised: dict[str, str] = {}  # key -> class name of the error raised
        self.answers = 0

    def complete(self, request: BackendRequest) -> BackendResponse:
        if self.answers == self._kill_after:
            self._on_kill()
            raise Killed(f"killed after {self.answers} answers")
        key = cache_key(self.backend_id, request)
        self.sent.append(key)
        if key in self._raises:
            error = self._raises[key]
            self.raised[key] = error.__name__
            raise error(f"injected for {key[:12]}")
        if key in self._torn:
            response = BackendResponse(text=self.TORN_TRANSCRIPT, latency_ms=0.0, attempt=1)
        else:
            response = self._inner.complete(request)
        self.answers += 1
        return response


class EchoBackend(Backend):
    """Answers with what it was sent: a caption names the media and frames it
    was asked about, a transcript its media, and a reasoner answer quotes its
    prompt, which holds the caption and transcript it was built from.

    ``sent`` lists every request received. It runs inline.
    """

    backend_id = "echo"
    in_process = True

    def __init__(self):
        self.sent: list[BackendRequest] = []

    def complete(self, request: BackendRequest) -> BackendResponse:
        self.sent.append(request)
        if request.role is Role.CAPTIONER:
            text = f"seen in {request.media_ref} at {list(request.frame_timestamps_s)}"
        elif request.role is Role.TRANSCRIBER:
            text = utterances_to_json([TimedUtterance(0.0, 1.0, f"heard in {request.media_ref}")])
        else:
            text = request.prompt
        return BackendResponse(text=text, latency_ms=0.0, attempt=1)
