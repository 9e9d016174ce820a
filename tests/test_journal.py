"""Kill, fault and resume properties of the response journal.

A run appends each answer to the journal in its cache directory as it arrives. These
properties kill runs, fail requests and tear the journal with the
``FaultyBackend`` wrapper, then check what the journal holds, what the run
reports and that a rerun sends exactly the missing requests and ends
byte-identical to a run that was never disturbed.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessionpipe import windowing
from sessionpipe.backends import (
    BackendTimeoutError,
    FixtureStore,
    MalformedResponseError,
    MockBackend,
    TransportError,
)
from sessionpipe.config import JOURNAL_NAME, RunConfig
from sessionpipe.corpus import read_jsonl
from sessionpipe.orchestrator import load_predictions, run
from sessionpipe.simulator import NoiseSpec, SimConfig, SimOutput, generate_corpus

from .faults import FaultyBackend, Killed

SIM = SimConfig(seed=41, n_sessions=2, duration_s=64.0, noise=NoiseSpec(0.2, 0.1, 0.1))
CHUNK_LENS = (16, 64)
THRESHOLDS = (0.1, 0.25, 0.5)  # one failed segment of four is 25 %: invalid only at 0.1
ERRORS = (BackendTimeoutError, TransportError, MalformedResponseError)
TORN_ERROR = "UnparseableTimestampsError"  # what a transcript that is not a JSON list fails with


@dataclass(repr=False)  # kept short in Hypothesis reports
class Reference:
    """An undisturbed run of the corpus at each failure threshold."""

    sim: SimOutput
    store: FixtureStore
    outputs: dict[float, tuple[bytes, bytes]]  # threshold -> report.json, predictions.jsonl
    journal: bytes
    total: int  # requests the undisturbed run sends
    records: dict[str, dict]  # key -> journal record
    windows: dict[str, tuple[float, float]]  # key -> window of a unit request
    faultable: list[str]  # keys of one request and at most one unit, transcripts aside
    transcripts: list[str]


def _config(sim: SimOutput, report_dir: Path, threshold: float = 0.1) -> RunConfig:
    return RunConfig(corpus_dir=sim.corpus_dir, taxonomy_path=sim.taxonomy_path, report_dir=report_dir,
                     fixtures_path=sim.fixtures_path, chunk_lens=CHUNK_LENS, failure_threshold=threshold)


def _outputs(cfg: RunConfig) -> tuple[bytes, bytes]:
    return (cfg.report_dir / "report.json").read_bytes(), (cfg.report_dir / "predictions.jsonl").read_bytes()


def _journal(cfg: RunConfig) -> Path:
    return cfg.cache_dir / JOURNAL_NAME


@pytest.fixture(scope="module")
def ref(tmp_path_factory) -> Reference:
    root = tmp_path_factory.mktemp("journal")
    sim = generate_corpus(SIM, root / "sim", chunk_lens=CHUNK_LENS)
    store = FixtureStore.load_jsonl(sim.fixtures_path)
    outputs = {}
    for threshold in THRESHOLDS:
        backend = MockBackend(store)
        cfg = _config(sim, root / f"ref-{threshold}", threshold)
        report = run(cfg, backend=backend)
        assert report["failures"] == [] and report["invalid_sessions"] == []
        outputs[threshold] = _outputs(cfg)
    records = {r["key"]: r for r in read_jsonl(_journal(cfg))}
    predictions = load_predictions(cfg.report_dir / "predictions.jsonl")
    units = Counter(p["cache_key"] for p in predictions)
    return Reference(
        sim=sim, store=store, outputs=outputs, journal=_journal(cfg).read_bytes(), total=backend.call_count,
        records=records, windows={p["cache_key"]: (p["start_s"], p["end_s"]) for p in predictions},
        faultable=sorted(key for key, r in records.items() if units[key] <= 1 and r["role"] != "transcriber"),
        transcripts=sorted(key for key, r in records.items() if r["role"] == "transcriber"),
    )


def _lines(journal: Path) -> list[bytes]:
    return journal.read_bytes().splitlines(keepends=True) if journal.exists() else []


@given(share=st.floats(min_value=0.0, max_value=1.0))
@example(share=0.0)
@example(share=1.0)
@settings(max_examples=10, deadline=None)
def test_killed_run_resumes_with_exactly_the_missing_requests(ref, share):
    n = round(share * ref.total)  # answers before the kill
    with tempfile.TemporaryDirectory() as td:
        cfg = _config(ref.sim, Path(td) / "report")
        at_kill = []
        dying = FaultyBackend(MockBackend(ref.store), kill_after=n,
                              on_kill=lambda: at_kill.append(_lines(_journal(cfg))))
        if n < ref.total:
            with pytest.raises(Killed):
                run(cfg, backend=dying)
            # read while the dying run's journal is still open: each answer is a whole line on it
            assert len(at_kill[0]) == n and all(line.endswith(b"\n") for line in at_kill[0])
        else:
            run(cfg, backend=dying)
        resumed = MockBackend(ref.store)
        run(cfg, backend=resumed)
        assert resumed.call_count == ref.total - n
        assert _outputs(cfg) == ref.outputs[0.1]
        assert sorted(_lines(_journal(cfg))) == sorted(ref.journal.splitlines(keepends=True))


def _error_class(failure: dict) -> str:
    return failure["error"].split(":")[0]


def _invalid_oracle(ref: Reference, failed_keys: list[str], threshold: float) -> list[str]:
    """Sessions with more than ``threshold`` of their segments touched by a failure."""
    segments = {
        m: windowing.plan_segments(SIM.duration_s, RunConfig.window_s, RunConfig.fps, session_id=m)
        for m in {r["session_id"] for r in ref.records.values()}
    }
    failed: dict[str, set[int]] = {sid: set() for sid in segments}
    for key in failed_keys:
        record = ref.records[key]
        sid = record["session_id"]
        if key in ref.windows:  # a task unit fails the segments its window overlaps
            start, end = ref.windows[key]
            failed[sid].update(s.index for s in segments[sid] if s.start_s < end and s.end_s > start)
        elif record["role"] == "transcriber":
            failed[sid].update(s.index for s in segments[sid])
        else:
            failed[sid].add(record["segment_index"])
    return sorted(sid for sid, segs in segments.items() if len(failed[sid]) / len(segs) > threshold)


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_raised_faults_are_counted_and_a_rerun_repairs_them(ref, data):
    threshold = data.draw(st.sampled_from(THRESHOLDS), label="threshold")
    faulted = data.draw(st.lists(st.sampled_from(ref.faultable), unique=True, max_size=6), label="faulted")
    raises = {key: data.draw(st.sampled_from(ERRORS), label="error") for key in faulted}
    torn = set()
    for key in ref.transcripts:  # a failed transcript fails its whole session
        fate = data.draw(st.sampled_from(("answered", "raised", "torn")), label="transcript")
        if fate == "raised":
            raises[key] = data.draw(st.sampled_from(ERRORS), label="error")
        elif fate == "torn":
            torn.add(key)
    with tempfile.TemporaryDirectory() as td:
        cfg = _config(ref.sim, Path(td) / "report", threshold)
        faulty = FaultyBackend(MockBackend(ref.store), raises=raises, torn=torn)
        report = run(cfg, backend=faulty)

        identity = {(r["role"], r["session_id"], r["segment_index"], r["prompt_hash"]): key
                    for key, r in ref.records.items()}
        reported = sorted((identity[(f["role"], f["session_id"], f["segment_index"], f["prompt_hash"])],
                           _error_class(f)) for f in report["failures"])
        torn_sent = [key for key in torn if key in faulty.sent]
        assert reported == sorted([*faulty.raised.items(), *((key, TORN_ERROR) for key in torn_sent)])
        assert set(faulty.raised) <= set(raises)
        assert report["invalid_sessions"] == _invalid_oracle(ref, [*faulty.raised, *torn_sent], threshold)

        answered = len(_lines(_journal(cfg)))
        assert answered == len(faulty.sent) - len(faulty.raised) - len(torn_sent)  # a torn transcript is a failure
        rerun = MockBackend(ref.store)
        run(cfg, backend=rerun)
        assert rerun.call_count == ref.total - answered
        assert _outputs(cfg) == ref.outputs[threshold]


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_torn_tail_is_cut_and_fetched_again(ref, data):
    last = ref.journal.splitlines(keepends=True)[-1]
    cut = data.draw(st.integers(min_value=1, max_value=len(last) - 1), label="bytes cut")
    with tempfile.TemporaryDirectory() as td:
        cfg = _config(ref.sim, Path(td) / "report")
        cfg.cache_dir.mkdir(parents=True)
        _journal(cfg).write_bytes(ref.journal[:-cut])
        backend = MockBackend(ref.store)
        run(cfg, backend=backend)
        assert backend.call_count == 1
        journal = _journal(cfg).read_bytes()
        assert journal.endswith(b"\n")
        assert [json.loads(line) for line in journal.splitlines()] == [
            json.loads(line) for line in ref.journal.splitlines()]
        assert _outputs(cfg) == ref.outputs[0.1]


def test_a_journaled_torn_transcript_is_fetched_again(ref, tmp_path):
    # earlier versions journaled a transcript that does not parse; the rerun
    # asks for it again and the new line wins
    key = ref.transcripts[0]
    torn = json.dumps({**ref.records[key], "text": FaultyBackend.TORN_TRANSCRIPT}, sort_keys=True).encode() + b"\n"
    lines = [torn if json.loads(line)["key"] == key else line for line in ref.journal.splitlines(keepends=True)]
    cfg = _config(ref.sim, tmp_path / "report")
    cfg.cache_dir.mkdir(parents=True)
    _journal(cfg).write_bytes(b"".join(lines))
    backend = MockBackend(ref.store)
    run(cfg, backend=backend)
    assert backend.call_count == 1
    assert _outputs(cfg) == ref.outputs[0.1]
    assert _lines(_journal(cfg)) == [*lines, json.dumps(ref.records[key], sort_keys=True).encode() + b"\n"]
    again = MockBackend(ref.store)
    run(cfg, backend=again)
    assert again.call_count == 0


def test_old_role_files_appended_to_the_journal_make_a_warm_cache(ref, tmp_path):
    # journal lines in any order make a warm cache: here the per-role files of
    # older versions, each sorted by key, one after the other
    role_files: dict[str, list[bytes]] = {"captioner": [], "transcriber": [], "reasoner": []}
    for line in ref.journal.splitlines(keepends=True):
        role_files[json.loads(line)["role"]].append(line)
    cfg = _config(ref.sim, tmp_path / "report")
    cfg.cache_dir.mkdir(parents=True)
    _journal(cfg).write_bytes(b"".join(line for lines in role_files.values() for line in sorted(lines)))
    backend = MockBackend(ref.store)
    run(cfg, backend=backend)
    assert backend.call_count == 0
    assert _outputs(cfg) == ref.outputs[0.1]
