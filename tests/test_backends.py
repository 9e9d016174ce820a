import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sessionpipe.backends import (
    BackendExhaustedError,
    BackendRequest,
    FixtureMissError,
    FixtureStore,
    GenerationParams,
    HttpBackendConfig,
    HttpChatBackend,
    MalformedResponseError,
    MockBackend,
    RequestRejectedError,
    Role,
    UnparseableTimestampsError,
    parse_utterances_json,
    prompt_sha256,
    utterances_to_json,
    write_jsonl,
)
from sessionpipe.fixture_server import FixtureChatServer
from sessionpipe.windowing import TimedUtterance


def make_store(records):
    store = FixtureStore()
    for role, session_id, seg, prompt, text in records:
        store.add(
            {
                "role": role.value,
                "session_id": session_id,
                "segment_index": seg,
                "prompt_hash": prompt_sha256(prompt),
                "text": text,
            }
        )
    return store


@pytest.fixture
def caption_store():
    return make_store(
        [(Role.CAPTIONER, "s1", 3, "describe", "The child stacks blocks on the rug.")]
    )


class TestMockBackend:
    def test_fixture_identity(self, caption_store):
        backend = MockBackend(caption_store)
        request = BackendRequest(
            role=Role.CAPTIONER, session_id="s1", prompt="describe", segment_index=3, media_ref="v"
        )
        response = backend.complete(request)
        assert response.text == "The child stacks blocks on the rug."
        assert response.attempt == 1

    def test_miss_is_error_not_default(self, caption_store):
        backend = MockBackend(caption_store)
        request = BackendRequest(
            role=Role.CAPTIONER, session_id="s1", prompt="different prompt", segment_index=3, media_ref="v"
        )
        with pytest.raises(FixtureMissError):
            backend.complete(request)

    def test_determinism_across_calls_and_threads(self, caption_store):
        backend = MockBackend(caption_store)
        request = BackendRequest(
            role=Role.CAPTIONER, session_id="s1", prompt="describe", segment_index=3, media_ref="v"
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            texts = {r.text for r in pool.map(lambda _: backend.complete(request), range(64))}
        assert texts == {"The child stacks blocks on the rug."}
        assert backend.call_count == 64

    def test_fixtures_path_loaded_on_first_request(self, caption_store, tmp_path, monkeypatch):
        path = tmp_path / "fixtures.jsonl"
        write_jsonl(path, caption_store.records())
        loads = []
        real_load = FixtureStore.load_jsonl.__func__
        monkeypatch.setattr(
            FixtureStore, "load_jsonl",
            classmethod(lambda cls, p: loads.append(p) or real_load(cls, p)),
        )
        backend = MockBackend(path)
        assert loads == []
        request = BackendRequest(
            role=Role.CAPTIONER, session_id="s1", prompt="describe", segment_index=3, media_ref="v"
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = set(pool.map(lambda _: backend.complete(request).text, range(16)))
        assert texts == {"The child stacks blocks on the rug."}
        assert loads == [path]

    def test_missing_fixtures_path_fails_at_construction(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MockBackend(tmp_path / "absent.jsonl")

    def test_reason_identity(self):
        store = make_store([(Role.REASONER, "s1", 0, "which label?", "conversation")])
        backend = MockBackend(store)
        request = BackendRequest(role=Role.REASONER, session_id="s1", prompt="which label?", segment_index=0)
        assert backend.complete(request).text == "conversation"
        assert backend.complete(request).text == "conversation"


class TestRequestInvariants:
    def test_captioner_needs_media(self):
        with pytest.raises(ValueError):
            BackendRequest(role=Role.CAPTIONER, session_id="s", prompt="p")

    def test_reasoner_takes_no_media(self):
        with pytest.raises(ValueError):
            BackendRequest(role=Role.REASONER, session_id="s", prompt="p", media_ref="v")

    def test_prompt_hashed_once(self, monkeypatch):
        from sessionpipe import backends

        prompts = []
        monkeypatch.setattr(backends, "prompt_sha256",
                            lambda prompt: prompts.append(prompt) or prompt_sha256(prompt))
        request = BackendRequest(role=Role.REASONER, session_id="s", prompt="p")
        assert {request.prompt_hash for _ in range(3)} == {prompt_sha256("p")}
        assert prompts == ["p"]

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            BackendRequest(role=Role.REASONER, session_id="s", prompt="")


class TestTranscribe:
    def test_fixture_utterances(self):
        utterances = [TimedUtterance(0.0, 2.0, "hi"), TimedUtterance(3.0, 5.0, "lets play")]
        store = make_store([(Role.TRANSCRIBER, "s1", None, "transcribe", utterances_to_json(utterances))])
        backend = MockBackend(store)
        request = BackendRequest(role=Role.TRANSCRIBER, session_id="s1", prompt="transcribe", media_ref="a")
        assert parse_utterances_json(backend.complete(request).text) == utterances

    def test_silent_audio_is_empty(self):
        store = make_store([(Role.TRANSCRIBER, "s1", None, "transcribe", "[]")])
        backend = MockBackend(store)
        request = BackendRequest(role=Role.TRANSCRIBER, session_id="s1", prompt="transcribe", media_ref="a")
        assert parse_utterances_json(backend.complete(request).text) == []

    def test_out_of_order_timestamps_rejected(self):
        bad = json.dumps(
            [
                {"start_s": 5.0, "end_s": 6.0, "text": "b"},
                {"start_s": 0.0, "end_s": 1.0, "text": "a"},
            ]
        )
        with pytest.raises(UnparseableTimestampsError):
            parse_utterances_json(bad)

    def test_non_json_rejected(self):
        with pytest.raises(UnparseableTimestampsError):
            parse_utterances_json("it was a dark and stormy night")

    def test_roundtrip(self):
        utterances = [TimedUtterance(0.5, 2.25, "hello there")]
        assert parse_utterances_json(utterances_to_json(utterances)) == utterances


class TestFixtureStoreIO:
    def test_jsonl_roundtrip(self, tmp_path, caption_store):
        path = tmp_path / "fixtures.jsonl"
        write_jsonl(path, caption_store.records())
        loaded = FixtureStore.load_jsonl(path)
        assert loaded.records() == caption_store.records()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpBackend:
    def test_unreachable_endpoint_exhausts_after_three_attempts(self):
        config = HttpBackendConfig(
            base_url=f"http://127.0.0.1:{_free_port()}", max_retries=2, backoff_s=0.01, timeout_s=1.0
        )
        backend = HttpChatBackend(config)
        request = BackendRequest(role=Role.REASONER, session_id="s", prompt="p")
        with pytest.raises(BackendExhaustedError) as err:
            backend.complete(request)
        assert err.value.attempts == 3

    def test_malformed_response_not_retried(self):
        calls = []

        class Garbage(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                calls.append(1)
                body = b'{"nonsense": true}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Garbage)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            config = HttpBackendConfig(
                base_url=f"http://127.0.0.1:{server.server_address[1]}",
                max_retries=2,
                backoff_s=0.01,
            )
            backend = HttpChatBackend(config)
            request = BackendRequest(role=Role.REASONER, session_id="s", prompt="p")
            with pytest.raises(MalformedResponseError):
                backend.complete(request)
            assert len(calls) == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_stub_server_replays_fixtures(self, caption_store):
        with FixtureChatServer(caption_store) as server:
            backend = HttpChatBackend(HttpBackendConfig(base_url=server.base_url))
            request = BackendRequest(
                role=Role.CAPTIONER,
                session_id="s1",
                prompt="describe",
                segment_index=3,
                media_ref="v",
                frame_timestamps_s=(0.0, 1.0),
                params=GenerationParams(seed=7),
            )
            response = backend.complete(request)
            assert response.text == "The child stacks blocks on the rug."
            assert response.attempt == 1

    def test_stub_server_404_on_miss(self, caption_store):
        lookups = []
        lookup = caption_store.lookup
        caption_store.lookup = lambda *key: lookups.append(key) or lookup(*key)
        with FixtureChatServer(caption_store) as server:
            config = HttpBackendConfig(base_url=server.base_url, max_retries=2, backoff_s=0.01)
            backend = HttpChatBackend(config)
            request = BackendRequest(
                role=Role.CAPTIONER, session_id="unknown", prompt="describe", segment_index=0, media_ref="v"
            )
            with pytest.raises(RequestRejectedError, match="HTTP 404"):
                backend.complete(request)
        assert len(lookups) == 1  # a permanent error is not retried

    @pytest.mark.parametrize("status,posts", [(400, 1), (401, 1), (408, 3), (429, 3), (500, 3), (503, 3)])
    def test_only_transient_statuses_retried(self, status, posts):
        calls = []

        class Status(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                calls.append(1)
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

        server = ThreadingHTTPServer(("127.0.0.1", 0), Status)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            config = HttpBackendConfig(
                base_url=f"http://127.0.0.1:{server.server_address[1]}", max_retries=2, backoff_s=0.01
            )
            request = BackendRequest(role=Role.REASONER, session_id="s", prompt="p")
            expected = RequestRejectedError if posts == 1 else BackendExhaustedError
            with pytest.raises(expected, match=f"HTTP {status}"):
                HttpChatBackend(config).complete(request)
            assert len(calls) == posts
        finally:
            server.shutdown()
            server.server_close()

    def test_one_session_per_thread(self, caption_store):
        with FixtureChatServer(caption_store) as server:
            backend = HttpChatBackend(HttpBackendConfig(base_url=server.base_url))
            request = BackendRequest(
                role=Role.CAPTIONER, session_id="s1", prompt="describe", segment_index=3, media_ref="v"
            )
            barrier = threading.Barrier(3, timeout=30)

            def sessions_seen(_):
                barrier.wait()  # three threads alive at once, so none is reused
                first = backend._session()
                backend.complete(request)
                backend.complete(request)
                assert backend._session() is first
                return first

            with ThreadPoolExecutor(max_workers=3) as pool:
                sessions = list(pool.map(sessions_seen, range(3)))
        assert len({id(s) for s in sessions}) == 3

    def test_description_prompt_forwarded_verbatim(self, caption_store):
        captured = {}

        class Echo(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                captured["body"] = json.loads(self.rfile.read(length))
                body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            from sessionpipe.prompting import DESCRIPTION_PROMPT

            backend = HttpChatBackend(
                HttpBackendConfig(base_url=f"http://127.0.0.1:{server.server_address[1]}")
            )
            prompt = DESCRIPTION_PROMPT
            request = BackendRequest(
                role=Role.CAPTIONER, session_id="s1", prompt=prompt, segment_index=0, media_ref="v"
            )
            backend.complete(request)
            assert captured["body"]["messages"] == [{"role": "user", "content": prompt}]
            assert captured["body"]["metadata"]["session_id"] == "s1"
        finally:
            server.shutdown()
            server.server_close()
