import dataclasses
import hashlib
import json
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sessionpipe import config, orchestrator, scoring
from sessionpipe.backends import (
    IDENTITY,
    Backend,
    BackendRequest,
    FixtureMissError,
    FixtureStore,
    HttpChatBackend,
    MockBackend,
    RequestRejectedError,
    Role,
    TransportError,
    identity,
)
from sessionpipe.config import JOURNAL_NAME, RunConfig
from sessionpipe.corpus import TaskKind, load_corpus, load_taxonomy, read_jsonl, write_corpus
from sessionpipe.fixture_server import FixtureChatServer
from sessionpipe.orchestrator import ResponseCache, load_predictions, run
from sessionpipe.prompting import DESCRIPTION_PROMPT, TRANSCRIPTION_PROMPT, RefinementMode
from sessionpipe.scoring import report_row
from sessionpipe.simulator import NoiseSpec, SimConfig, generate_corpus
from sessionpipe.windowing import SUPPORTED_CHUNK_LENGTHS, UnsupportedChunkLengthError

from .faults import EchoBackend, Killed

ALL_MODES = tuple(RefinementMode)


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    td = tmp_path_factory.mktemp("sim")
    cfg = SimConfig(seed=0, n_sessions=6, duration_s=320.0)
    return generate_corpus(cfg, td, chunk_lens=(16, 64))


def make_config(sim, tmp_path, **overrides):
    defaults = dict(
        corpus_dir=sim.corpus_dir,
        taxonomy_path=sim.taxonomy_path,
        report_dir=tmp_path / "report",
        cache_dir=tmp_path / "cache",
        fixtures_path=sim.fixtures_path,
        modes=(RefinementMode.MULTIMODAL,),
        chunk_lens=(16,),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRun:
    def test_zero_noise_multimodal_recovers_truth(self, sim_out, tmp_path):
        report = run(make_config(sim_out, tmp_path))
        row = report_row(report, RefinementMode.MULTIMODAL, 16)
        assert row["metrics"]["activity_segmentation"] == 1.0
        assert row["metrics"]["activity_recognition"] == 1.0

    def test_report_files_written(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        report = run(cfg)
        assert json.loads((cfg.report_dir / "report.json").read_text()) == report
        assert (cfg.report_dir / "report.md").exists()
        assert (cfg.report_dir / "predictions.jsonl").exists()
        assert [p.name for p in cfg.cache_dir.iterdir()] == [JOURNAL_NAME]

    def test_warm_cache_issues_zero_calls(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        store = FixtureStore.load_jsonl(sim_out.fixtures_path)
        first = MockBackend(store)
        run(cfg, backend=first)
        assert first.call_count > 0
        second = MockBackend(store)
        run(cfg, backend=second)
        assert second.call_count == 0

    def test_new_seed_sends_every_request_again(self, sim_out, tmp_path):
        store = FixtureStore.load_jsonl(sim_out.fixtures_path)
        cold = MockBackend(store)
        run(make_config(sim_out, tmp_path, seed=0), backend=cold)
        reseeded = MockBackend(store)
        report = run(make_config(sim_out, tmp_path, seed=1), backend=reseeded)
        assert reseeded.call_count == cold.call_count > 0
        assert report["config"]["seed"] == 1

    def test_two_fresh_runs_byte_identical_report(self, sim_out, tmp_path):
        cfg1 = make_config(sim_out, tmp_path / "one")
        cfg2 = make_config(sim_out, tmp_path / "two")
        run(cfg1)
        run(cfg2)
        assert (cfg1.report_dir / "report.json").read_bytes() == (
            cfg2.report_dir / "report.json"
        ).read_bytes()

    def test_transcript_only_sweeps_chunk_lengths(self, sim_out, tmp_path):
        cfg = make_config(
            sim_out, tmp_path, modes=(RefinementMode.TRANSCRIPT_ONLY,), chunk_lens=(16, 64)
        )
        report = run(cfg)
        assert [(r["mode"], r["chunk_len_s"]) for r in report["rows"]] == [
            ("transcript_only", 16),
            ("transcript_only", 64),
        ]

    def test_multimodal_answers_sessions_shorter_than_half_a_chunk(self, tmp_path):
        # a 20 s session has one 16 s segment and an empty 64 s tiling; its
        # multimodal units still run, each with an empty transcript
        modes = (RefinementMode.VIDEO_ONLY, RefinementMode.MULTIMODAL)
        out = generate_corpus(SimConfig(seed=41, n_sessions=2, duration_s=20.0), tmp_path / "sim",
                              modes=modes, chunk_lens=(64,))
        cfg = make_config(out, tmp_path, modes=modes, chunk_lens=(64,))
        report = run(cfg)
        modes_seen = [p["mode"] for p in load_predictions(cfg.report_dir / "predictions.jsonl")]
        assert modes_seen.count("multimodal") == modes_seen.count("video_only") == 10
        assert report["failures"] == []
        assert (report_row(report, RefinementMode.MULTIMODAL, 64)["metrics"]
                == report_row(report, RefinementMode.VIDEO_ONLY)["metrics"])

    def test_zero_shot_runs_without_reasoner(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path, modes=(RefinementMode.ZERO_SHOT,))
        report = run(cfg)
        row = report_row(report, RefinementMode.ZERO_SHOT, None)
        assert row["metrics"]["activity_segmentation"] == 1.0
        roles = {record["role"] for record in read_jsonl(cfg.cache_dir / JOURNAL_NAME)}
        assert roles == {"captioner"}

    def test_results_independent_of_concurrency(self, sim_out, tmp_path):
        cfg1 = make_config(sim_out, tmp_path / "c1", concurrency=1)
        cfg2 = make_config(sim_out, tmp_path / "c8", concurrency=8)
        run(cfg1)
        run(cfg2)
        report1 = json.loads((cfg1.report_dir / "report.json").read_text())
        report2 = json.loads((cfg2.report_dir / "report.json").read_text())
        del report1["config"]["concurrency"], report2["config"]["concurrency"]
        assert report1 == report2

    def test_predictions_traceable_to_cache(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        run(cfg)
        cached_keys = {record["key"] for record in read_jsonl(cfg.cache_dir / JOURNAL_NAME)}
        preds = load_predictions(cfg.report_dir / "predictions.jsonl")
        assert preds
        assert all(p["cache_key"] in cached_keys for p in preds)


class TestExecution:
    def test_warm_run_loads_no_fixtures_and_sends_nothing(self, sim_out, tmp_path, monkeypatch):
        calls = []
        load_jsonl = FixtureStore.load_jsonl.__func__
        complete = MockBackend.complete
        monkeypatch.setattr(FixtureStore, "load_jsonl", classmethod(
            lambda cls, path: calls.append(("load_jsonl", path)) or load_jsonl(cls, path)))
        monkeypatch.setattr(MockBackend, "complete",
                            lambda self, request: calls.append("complete") or complete(self, request))
        cfg = make_config(sim_out, tmp_path)
        run(cfg)
        # cold: the fixture file is parsed once, before the first request reaches the mock
        assert calls[0] == ("load_jsonl", sim_out.fixtures_path)
        assert len(calls) > 1 and calls[1:] == ["complete"] * (len(calls) - 1)
        journal = cfg.cache_dir / JOURNAL_NAME

        def state():
            stat = journal.stat()
            return (journal.read_bytes(), stat.st_ino, stat.st_mtime_ns, stat.st_size,
                    sorted(p.name for p in cfg.cache_dir.iterdir()), (cfg.report_dir / "report.json").read_bytes())

        before = state()
        calls.clear()
        run(cfg)
        assert calls == []
        assert state() == before  # same bytes, and the journal neither rewritten nor touched

    @pytest.mark.parametrize("concurrency", [None, 1, 25])  # None: inline; 25: all 50 units in the window at once
    def test_key_planned_twice_is_sent_once(self, tmp_path, concurrency):
        # with every utterance dropped, the 16 s and 64 s chunks at one index
        # are both empty, so their prompts and cache keys are the same; on the
        # pool, the requests of chunk 0 fail
        modes, lens = (RefinementMode.TRANSCRIPT_ONLY,), (16, 64)
        sim = SimConfig(seed=0, n_sessions=1, duration_s=128.0, noise=NoiseSpec(transcript_drop_p=1.0))
        out = generate_corpus(sim, tmp_path / "sim", modes=modes, chunk_lens=lens)
        backend = MockBackend(FixtureStore.load_jsonl(out.fixtures_path))
        if concurrency is not None:
            backend = Remote(backend, fail=lambda request: request.segment_index == 0)
        cfg = make_config(out, tmp_path, modes=modes, chunk_lens=lens, concurrency=concurrency or 1)
        report = run(cfg, backend=backend)
        preds = load_predictions(cfg.report_dir / "predictions.jsonl")
        if concurrency is None:
            assert backend.call_count == 5 * 8 + 1  # the unit keys, plus the transcript
            assert len(preds) == 5 * (8 + 2)
            assert len({p["cache_key"] for p in preds}) == 5 * 8
        else:
            assert len(backend.sent) == len(set(backend.sent)) == 5 * 8 + 1
            # the 16 s and 64 s chunk 0 of each task share a key: both units fail
            failed = Counter((f["role"], f["segment_index"], f["prompt_hash"]) for f in report["failures"])
            assert sorted(failed.values()) == [2] * 5 and {index for _, index, _ in failed} == {0}
            assert len(preds) == 5 * (8 + 2) - 2 * 5

    def test_missing_fixtures_fail_at_build_time(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path, fixtures_path=tmp_path / "absent.jsonl")
        with pytest.raises(FileNotFoundError):
            orchestrator.build_backend(cfg)

    def test_the_backend_is_built_once_on_the_first_miss(self, sim_out, tmp_path, monkeypatch):
        builds = []

        def build(cfg):
            builds.append(cfg.endpoint)
            time.sleep(0.01)  # the other pool threads reach the check meanwhile
            return MockBackend(FixtureStore.load_jsonl(sim_out.fixtures_path))

        monkeypatch.setattr(orchestrator, "build_backend", build)
        cfg = make_config(sim_out, tmp_path, fixtures_path=None, endpoint="http://models.invalid", concurrency=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert builds == ["http://models.invalid"] and report["failures"] == []
        assert report["backend_id"] == "http:local-model"  # from the configuration, before any build
        assert run(cfg) == report and len(builds) == 1  # warm: nothing to send, nothing built

    def test_mock_run_starts_no_thread_pool(self, sim_out, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("an in-process backend must run inline")

        monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", no_pool)
        report = run(make_config(sim_out, tmp_path))
        assert report_row(report, RefinementMode.MULTIMODAL, 16)["metrics"]["activity_segmentation"] == 1.0

    def test_io_backend_runs_on_pool_bounded_by_concurrency(self, sim_out, tmp_path):
        remote = Remote(MockBackend(FixtureStore.load_jsonl(sim_out.fixtures_path)))
        inline_cfg = make_config(sim_out, tmp_path / "inline")
        run(inline_cfg)
        pool_cfg = make_config(sim_out, tmp_path / "pool", concurrency=3)
        run(pool_cfg, backend=remote)
        assert remote.peak <= 3
        assert threading.get_ident() not in remote.threads
        assert (pool_cfg.report_dir / "predictions.jsonl").read_bytes() == (
            inline_cfg.report_dir / "predictions.jsonl").read_bytes()

    @pytest.mark.parametrize("pooled", [False, True])
    def test_units_are_planned_only_as_the_window_frees(self, sim_out, tmp_path, monkeypatch, pooled):
        planned, parsed, gaps = [0], [0], []
        plan_units = orchestrator.plan_units

        def counted_plan(*args):
            for unit in plan_units(*args):
                planned[0] += 1
                gaps.append(planned[0] - parsed[0])  # units planned but not yet consumed
                yield unit

        def counted(parse):
            return lambda *args: parsed.__setitem__(0, parsed[0] + 1) or parse(*args)

        monkeypatch.setattr(orchestrator, "plan_units", counted_plan)
        monkeypatch.setattr(orchestrator, "parse_label", counted(orchestrator.parse_label))
        monkeypatch.setattr(orchestrator, "parse_binary", counted(orchestrator.parse_binary))
        backend = MockBackend(FixtureStore.load_jsonl(sim_out.fixtures_path))
        run(make_config(sim_out, tmp_path, concurrency=3), backend=Remote(backend) if pooled else backend)
        assert planned[0] == parsed[0] == 6 * 20 * 5
        assert max(gaps) == (2 * 3 if pooled else 1)

    def test_a_raise_in_a_pool_worker_cancels_the_queued_requests(self, tmp_path):
        sim = generate_corpus(SimConfig(seed=0, n_sessions=1, duration_s=320.0), tmp_path / "sim", chunk_lens=(16,))
        remote = Remote(MockBackend(FixtureStore.load_jsonl(sim.fixtures_path)), kill_at=50)
        cfg = make_config(sim, tmp_path, modes=ALL_MODES, concurrency=2)
        with pytest.raises(Killed):
            run(cfg, backend=remote)
        assert 50 <= len(remote.sent) <= 50 + 2 * 2  # of the run's 421 requests
        assert len((cfg.cache_dir / JOURNAL_NAME).read_bytes().splitlines()) < 50


class Remote(Backend):
    """A backend that is not in process, so the run sends its requests from a pool.

    ``kill_at`` = N raises ``Killed`` on the N-th call; ``fail`` says which
    requests fail with a ``TransportError``.
    """

    def __init__(self, inner, kill_at=None, fail=lambda request: False):
        self.backend_id = inner.backend_id
        self._inner = inner
        self._kill_at = kill_at
        self._fail = fail
        self._lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.threads = set()
        self.sent = []

    def complete(self, request):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.get_ident())
            self.sent.append(orchestrator.cache_key(self.backend_id, request))
            calls = len(self.sent)
        try:
            if calls == self._kill_at:
                raise Killed
            if self._fail(request):
                raise TransportError("injected")
            return self._inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


def _record(key, role="reasoner", text="ok"):
    return {"key": key, "role": role, "session_id": "s", "segment_index": 0,
            "prompt_hash": "h", "backend_id": "mock", "text": text}


def _hex_key(i: int) -> str:
    """A cache key: the lowercase hex of a 32-byte digest."""
    return hashlib.sha256(str(i).encode()).hexdigest()


KEYS = [_hex_key(i) for i in range(10)]
ANSWERS = ("Label: playing with blocks", "Yes, the child shows signs of anxiety.", "No")


def _retained_per_record(tmp_path, n, text_of) -> float:
    """Traced bytes a ResponseCache holds per record after loading a journal of n records."""
    lines = [json.dumps(_record(_hex_key(i), text=text_of(i)), sort_keys=True) + "\n" for i in range(n)]
    (tmp_path / JOURNAL_NAME).write_text("".join(lines))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = ResponseCache(tmp_path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.get(_hex_key(n - 1)) == text_of(n - 1)
    return held / n


class TestResponseCacheJournal:
    def test_failed_put_appends_nothing(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for i in range(3):
            cache.put(_record(KEYS[i]))
        before = (tmp_path / JOURNAL_NAME).read_bytes()  # three lines, written while the cache is open
        assert len(before.splitlines()) == 3
        with pytest.raises(TypeError):
            cache.put(_record(KEYS[9], text=object()))
        assert (tmp_path / JOURNAL_NAME).read_bytes() == before
        cache.put(_record(KEYS[3]))
        cache.flush()
        assert [r["key"] for r in read_jsonl(tmp_path / JOURNAL_NAME)] == KEYS[:4]
        reloaded = ResponseCache(tmp_path)
        assert reloaded.get(KEYS[9]) is None
        assert reloaded.get(KEYS[2]) == "ok"

    # fromhex alone would take upper case and spaces between the byte pairs
    @pytest.mark.parametrize("key", ["k", KEYS[0].upper(), " ".join(KEYS[0][i:i + 2] for i in range(0, 64, 2)),
                                     KEYS[0][:62], KEYS[0] + "00", 7],
                             ids=["short", "upper-case", "spaced", "31-bytes", "33-bytes", "int"])
    def test_a_key_that_is_not_a_digest_appends_nothing(self, tmp_path, key):
        cache = ResponseCache(tmp_path)
        cache.put(_record(KEYS[1]))
        before = (tmp_path / JOURNAL_NAME).read_bytes()
        with pytest.raises((ValueError, TypeError)):
            cache.put(_record(key))
        cache.flush()
        assert (tmp_path / JOURNAL_NAME).read_bytes() == before

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put(_record(KEYS[0]))
        cache.put(_record(KEYS[1], text="second"))
        cache.flush()
        journal = tmp_path / JOURNAL_NAME
        whole = journal.read_bytes()
        first_line = whole[: whole.index(b"\n") + 1]
        journal.write_bytes(whole[:-5])
        cache = ResponseCache(tmp_path)
        assert journal.read_bytes() == first_line
        assert (cache.get(KEYS[0]), cache.get(KEYS[1])) == ("ok", None)
        cache.put(_record(KEYS[1], text="second"))
        cache.flush()
        assert journal.read_bytes() == whole

    def test_an_answer_many_keys_share_is_held_once(self, tmp_path):
        # 64-character key strings and a copy of the text per record held about 210 B per record;
        # 32-byte keys and one text per distinct answer, about 102 B (tracemalloc, Python 3.11)
        assert _retained_per_record(tmp_path, 2000, lambda i: ANSWERS[i % 3]) < 150

    def test_answers_that_all_differ_cost_no_more_than_before(self, tmp_path):
        # 216.7 B per record with 64-character key strings; about 180 B with 32-byte keys, since the
        # index of distinct texts is dropped after loading (tracemalloc, Python 3.11)
        assert _retained_per_record(tmp_path, 2000, lambda i: f"{ANSWERS[i % 3]} ({i})") <= 216.7

    def test_equal_answers_are_held_once_across_puts_and_loads(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for i in range(3):
            cache.put(_record(KEYS[i], text="".join(["o", "k"])))  # equal texts, each its own object
        cache.flush()
        cache.put(_record(KEYS[3], text="".join(["o", "k"])))  # the journal opened again
        assert len({id(cache.get(k)) for k in KEYS[:4]}) == 1
        cache.flush()
        reloaded = ResponseCache(tmp_path)
        assert len({id(reloaded.get(k)) for k in KEYS[:4]}) == 1

    @pytest.mark.parametrize("damage", [b"{not json", b"[]", b'"text"', b'{"key": "k"}', b'{"key": "k", "text": 1}',
                                        b"", b"\xff", b'{"key": "k", "text": "t"}',
                                        b'{"key": "%s", "text": "t"}' % KEYS[0].upper().encode(),
                                        b'{"key": "%s", "text": "t"}' % KEYS[0][:62].encode(),
                                        b'{"key": 7, "text": "t"}'])
    def test_a_damaged_line_stops_the_run_and_is_named(self, sim_out, tmp_path, damage):
        cfg = make_config(sim_out, tmp_path)
        run(cfg)
        journal = cfg.cache_dir / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join([*lines[:2], damage + b"\n", *lines[3:]]))
        backend = MockBackend(FixtureStore.load_jsonl(sim_out.fixtures_path))
        with pytest.raises(orchestrator.DamagedJournalError,
                           match=rf"^{journal}: line 3 is not a JSON object with a string key and text"):
            run(cfg, backend=backend)
        assert backend.call_count == 0

    def test_other_jsonl_files_in_the_cache_dir_are_refused(self, tmp_path):
        (tmp_path / "captions.jsonl").write_text("")
        (tmp_path / JOURNAL_NAME).write_text("")
        with pytest.raises(ValueError, match="captions.jsonl") as err:
            RunConfig(corpus_dir=tmp_path, taxonomy_path=tmp_path, report_dir=tmp_path, cache_dir=tmp_path)
        assert "remove them" in str(err.value)


class TestFailureHandling:
    def _holey_backend(self, sim_out, drop_session):
        kept = [
            r for r in read_jsonl(sim_out.fixtures_path)
            if not (r["session_id"] == drop_session and r["role"] == "reasoner")
        ]
        return MockBackend(FixtureStore(kept))

    def test_session_with_missing_fixtures_marked_invalid(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        backend = self._holey_backend(sim_out, "sim-002")
        report = run(cfg, backend=backend)
        assert report["invalid_sessions"] == ["sim-002"]
        assert report["failures"]
        # remaining sessions still score perfectly
        row = report_row(report, RefinementMode.MULTIMODAL, 16)
        assert row["metrics"]["activity_segmentation"] == 1.0
        assert row["n_sessions"]["activity_segmentation"] == 5

    def test_invalid_session_excluded_from_pr_auc_ranking(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        backend = self._holey_backend(sim_out, "sim-002")
        report = run(cfg, backend=backend)
        row = report_row(report, RefinementMode.MULTIMODAL, 16)
        assert row["n_sessions"]["e1_overactivity"] <= 5

    def test_null_completion_content_fails_one_request_not_the_run(self, tmp_path):
        # chat servers send "content": null for refusals and tool calls
        modes = (RefinementMode.VIDEO_ONLY,)
        out = generate_corpus(SimConfig(seed=0, n_sessions=1, duration_s=64.0), tmp_path / "sim", modes=modes)
        records = list(read_jsonl(out.fixtures_path))
        refused = next(r for r in records if r["role"] == "reasoner" and r["segment_index"] == 2)
        refused_key = FixtureStore.key(refused)
        lookups = []

        class Refusing(FixtureStore):
            def lookup(self, key):
                lookups.append(key)
                return None if key == refused_key else super().lookup(key)

        with FixtureChatServer(Refusing(records)) as server:
            backend = HttpChatBackend(server.base_url)
            report = run(make_config(out, tmp_path, modes=modes, fixtures_path=None), backend=backend)
        assert lookups.count(refused_key) == 1  # malformed: not retried
        assert [(f["role"], f["segment_index"], f["prompt_hash"], f["error"].split(":")[0])
                for f in report["failures"]] == [("reasoner", 2, refused["prompt_hash"], "MalformedResponseError")]
        assert report["invalid_sessions"] == [refused["session_id"]]
        keys = {record["key"] for record in read_jsonl(tmp_path / "cache" / JOURNAL_NAME)}
        assert len(keys) == len(lookups) - 1


class TestNaturalisticCorpus:
    def test_tasks_without_gold_report_null_cells(self, sim_out, tmp_path):
        from sessionpipe.corpus import (
            DatasetKind,
            GroundTruth,
            SessionManifest,
            load_corpus,
            load_taxonomy,
            write_corpus,
        )

        taxonomy = load_taxonomy(sim_out.taxonomy_path)
        naturalistic = [
            SessionManifest(
                session_id=m.session_id,
                dataset=DatasetKind.NATURALISTIC,
                media_duration_s=m.media_duration_s,
                video_ref=m.video_ref,
                audio_ref=m.audio_ref,
                ground_truth=GroundTruth(session_activities=m.ground_truth.session_activities),
            )
            for m in load_corpus(sim_out.corpus_dir, taxonomy)
        ]
        corpus_dir = tmp_path / "nat-corpus"
        write_corpus(naturalistic, corpus_dir)
        cfg = make_config(sim_out, tmp_path, corpus_dir=corpus_dir)
        report = run(cfg)
        row = report_row(report, RefinementMode.MULTIMODAL, 16)
        assert row["metrics"]["activity_recognition"] == 1.0
        assert row["metrics"]["activity_segmentation"] is None
        assert row["metrics"]["e1_overactivity"] is None
        assert row["notes"]["activity_segmentation"] == "no sessions with gold labels"


class TestEvaluateFromPredictions:
    def test_rescoring_matches_run(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path)
        report = run(cfg)
        from sessionpipe.corpus import load_corpus, load_taxonomy

        taxonomy = load_taxonomy(cfg.taxonomy_path)
        manifests = load_corpus(cfg.corpus_dir, taxonomy)
        with closing(scoring.Scorer(manifests, tmp_path / "rescored")) as scorer:
            scorer.read(cfg.report_dir / "predictions.jsonl", taxonomy)
            assert scoring.evaluate_predictions(manifests, taxonomy, scorer, report) == report


class TestRunConfigValidation:
    def test_needs_mode_and_task(self, sim_out, tmp_path):
        with pytest.raises(ValueError):
            make_config(sim_out, tmp_path, modes=())

    def test_transcript_mode_needs_chunk_lens(self, sim_out, tmp_path):
        with pytest.raises(ValueError):
            make_config(sim_out, tmp_path, modes=(RefinementMode.TRANSCRIPT_ONLY,), chunk_lens=())

    def test_mode_order_canonicalized(self, sim_out, tmp_path):
        cfg = make_config(
            sim_out, tmp_path, modes=(RefinementMode.MULTIMODAL, RefinementMode.ZERO_SHOT)
        )
        assert cfg.modes == (RefinementMode.ZERO_SHOT, RefinementMode.MULTIMODAL)

    def test_backend_required(self, sim_out, tmp_path):
        cfg = make_config(sim_out, tmp_path, fixtures_path=None)
        with pytest.raises(ValueError):
            orchestrator.build_backend(cfg)

    def test_unsupported_chunk_len_rejected_before_any_request(self, sim_out, tmp_path):
        backend = MockBackend(FixtureStore.load_jsonl(sim_out.fixtures_path))
        with pytest.raises(UnsupportedChunkLengthError):
            run(make_config(sim_out, tmp_path, chunk_lens=(16, 32)), backend=backend)
        assert backend.call_count == 0
        assert not (tmp_path / "report").exists()


_REQUEST_FIELDS = {
    "role": st.sampled_from(Role),
    "session_id": st.text(min_size=1, max_size=8),
    "segment_index": st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
    "media_ref": st.text(min_size=1, max_size=8),  # left out of reasoner requests
    "frame_timestamps_s": st.one_of(st.none(), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                        max_size=3).map(tuple)),
    "prompt": st.text(min_size=1, max_size=40),
    "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=2**32)),
}
_KEY_FIELDS = {"backend_id": st.text(min_size=1, max_size=8), **_REQUEST_FIELDS}


def _request(fields):
    fields = {name: fields[name] for name in _REQUEST_FIELDS}
    return BackendRequest(**{**fields, "media_ref": None if fields["role"] is Role.REASONER else fields["media_ref"]})


def _key(fields):
    return orchestrator.cache_key(fields["backend_id"], _request(fields))


@given(fields=st.fixed_dictionaries(_KEY_FIELDS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_cache_key_changes_with_any_one_request_input(fields, data):
    name = data.draw(st.sampled_from(sorted(_KEY_FIELDS)))
    assume(not (name == "media_ref" and fields["role"] is Role.REASONER))
    value = data.draw(_KEY_FIELDS[name].filter(lambda v: v != fields[name]))
    assert _key(fields) == _key(dict(fields))
    assert _key({**fields, name: value}) != _key(fields)


def _pair(fields, other, kept):
    """Two requests: one of ``fields``, and one of ``other`` with the ``kept`` fields of the first."""
    return _request(fields), _request({**other, **{name: fields[name] for name in kept}})


_PAIRS = dict(fields=st.fixed_dictionaries(_REQUEST_FIELDS), other=st.fixed_dictionaries(_REQUEST_FIELDS),
              kept=st.sets(st.sampled_from(sorted(_REQUEST_FIELDS))))


@pytest.fixture(scope="module")
def served():
    """A fixture store, and an HTTP client of a fixture server that replays it."""
    store = FixtureStore()
    with FixtureChatServer(store) as server, closing(HttpChatBackend(server.base_url)) as client:
        yield store, client


@given(**_PAIRS)
@settings(max_examples=200, deadline=None)
def test_equal_cache_keys_exactly_when_the_client_sends_equal_bytes(served, fields, other, kept):
    _, client = served
    first, second = _pair(fields, other, kept)
    same_key = orchestrator.cache_key(client.backend_id, first) == orchestrator.cache_key(client.backend_id, second)
    assert same_key == (client._request_bytes(first) == client._request_bytes(second))


@given(**_PAIRS)
@settings(max_examples=100, deadline=None)
def test_the_fixture_store_and_the_fixture_server_find_the_same_fixtures(served, fields, other, kept):
    store, client = served
    stored, asked = _pair(fields, other, kept)
    store.add({**dict(zip(IDENTITY[:-1], identity(stored))), "text": json.dumps(identity(stored)[:-1])})
    for request in (stored, asked):
        try:
            expected = MockBackend(store).complete(request).text
        except FixtureMissError:
            expected = None
        try:
            served_text = client.complete(request).text
        except RequestRejectedError:
            served_text = None
        assert served_text == expected


@pytest.mark.parametrize("backend_id,request_,digest", [
    ("http:local-model",
     BackendRequest(role=Role.CAPTIONER, session_id="sim-000", prompt="describe", segment_index=3,
                    media_ref="file:///v.mp4", frame_timestamps_s=(48.0, 48.5), seed=0),
     "e0654ee7edd294b0379c5299fd4308deb6a18d37962e7dba2745ecefe170dd38"),
    ("mock",
     BackendRequest(role=Role.TRANSCRIBER, session_id="sim-001", prompt="transcribe", media_ref="file:///a.wav"),
     "88202d687a2ccb2c6ceb2f98106af6f6df678ec180728d900dea89128936c20a"),
    ("mock",
     BackendRequest(role=Role.REASONER, session_id="sim-001", prompt="Which activity?", segment_index=0, seed=42),
     "7c0076712a552fed3165b1bb86bba6c1b86c869a7a808526edc42e3bd7bde9a0"),
], ids=["caption", "transcript-without-seed", "reasoner"])
def test_cache_key_is_pinned_to_the_journal_name(backend_id, request_, digest):
    # every journal line is addressed by these digests: a key that changes must come with a new JOURNAL_NAME,
    # so that a cache written under the old key is refused instead of silently missed
    assert config.JOURNAL_NAME == "responses-v2.jsonl"
    assert orchestrator.cache_key(backend_id, request_) == digest


@pytest.mark.parametrize("changed", ["fps", "window_s", "video_ref", "audio_ref"])
def test_a_request_for_other_frames_or_media_is_sent_again(tmp_path, changed):
    # one cache, a second run that changes what the captioner or transcriber is sent: the
    # extraction requests it changes are sent again, and the run ends as a fresh run does
    tasks = (TaskKind.ACTIVITY_RECOGNITION,)
    out = generate_corpus(SimConfig(seed=0, n_sessions=1, duration_s=32.0), tmp_path / "sim",
                          tasks=tasks, modes=(RefinementMode.MULTIMODAL,), chunk_lens=(16,))
    changes = {"fps": {"fps": 2.0}, "window_s": {"window_s": 8.0}}.get(changed, {})
    if changed in ("video_ref", "audio_ref"):
        manifests = load_corpus(out.corpus_dir, load_taxonomy(out.taxonomy_path))
        write_corpus([dataclasses.replace(m, **{changed: getattr(m, changed) + ".moved"}) for m in manifests],
                     tmp_path / "moved")
        changes = {"corpus_dir": tmp_path / "moved"}
    run(make_config(out, tmp_path / "first", cache_dir=tmp_path / "cache", tasks=tasks), backend=EchoBackend())
    replayed, fresh = EchoBackend(), EchoBackend()
    run(make_config(out, tmp_path / "replay", cache_dir=tmp_path / "cache", tasks=tasks, **changes),
        backend=replayed)
    run(make_config(out, tmp_path / "fresh", tasks=tasks, **changes), backend=fresh)

    role = Role.TRANSCRIBER if changed == "audio_ref" else Role.CAPTIONER
    extraction = [r for r in fresh.sent if r.prompt in (DESCRIPTION_PROMPT, TRANSCRIPTION_PROMPT)]
    assert [r for r in replayed.sent if r in extraction] == [r for r in extraction if r.role is role]
    predictions = [tmp_path / name / "report" / "predictions.jsonl" for name in ("replay", "fresh")]
    assert predictions[0].read_bytes() == predictions[1].read_bytes()


def _fixture_keys(path):
    return {FixtureStore.key(r) for r in read_jsonl(path)}


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_sessions=st.integers(min_value=1, max_value=2),
    duration_s=st.integers(min_value=1, max_value=64),
    modes=st.sets(st.sampled_from(RefinementMode), min_size=1),
    tasks=st.sets(st.sampled_from(TaskKind), min_size=1),
    chunk_lens=st.sets(st.sampled_from(SUPPORTED_CHUNK_LENGTHS), min_size=1),
)
@settings(max_examples=25, deadline=None)
def test_run_requests_exactly_the_simulated_fixtures(seed, n_sessions, duration_s, modes, tasks, chunk_lens):
    with tempfile.TemporaryDirectory() as td:
        out = generate_corpus(
            SimConfig(seed=seed, n_sessions=n_sessions, duration_s=float(duration_s)),
            Path(td) / "sim", tasks=tuple(tasks), modes=tuple(modes), chunk_lens=tuple(chunk_lens),
        )
        cfg = RunConfig(
            corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path, report_dir=Path(td) / "report",
            cache_dir=Path(td) / "cache", fixtures_path=out.fixtures_path,
            modes=tuple(modes), tasks=tuple(tasks), chunk_lens=tuple(chunk_lens),
        )
        report = run(cfg)
        assert report["failures"] == []
        journal = cfg.cache_dir / JOURNAL_NAME  # made by the first answer, so absent if none was sent
        requested = _fixture_keys(journal) if journal.exists() else set()
        assert requested == _fixture_keys(out.fixtures_path)
