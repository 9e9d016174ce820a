"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live). Deliberately end-to-end: most criteria drive the full pipeline over
synthetic corpora with deterministic mock backends, no network, no GPU.
"""

import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe import orchestrator
from sessionpipe.aggregation import lift_session
from sessionpipe.backends import FixtureStore, MockBackend
from sessionpipe.config import NoiseSpec, RunConfig, SimConfig
from sessionpipe.corpus import ActivityTaxonomy, TaskKind
from sessionpipe.fixture_server import FixtureChatServer
from sessionpipe.http_backend import HttpChatBackend
from sessionpipe.metrics import RankedScore, macro_f1_multiclass, macro_f1_multilabel, pr_auc
from sessionpipe.prompting import DESCRIPTION_PROMPT, TRANSCRIPTION_PROMPT, RefinementMode
from sessionpipe.scoring import report_row
from sessionpipe.simulator import generate_corpus
from sessionpipe.windowing import fill_chunks, plan_segments, plan_transcript_chunks

from .faults import FaultyBackend
from .oracles import (
    brute_average_precision,
    brute_multiclass_macro_f1,
    brute_multilabel_macro_f1,
)
from .test_metrics import (
    contiguous_timeline,
    random_multiclass_instance,
    random_multilabel_instance,
    random_ranked_instance,
    seg,
)
from .test_windowing import sequential_utterances

ACCEPTANCE_SEED = 0  # pinned: covers all 6 labels in gold and has P/A sessions for E1-E3


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL {description}")
                raise
            print(f"[criterion {number:02d}] PASS {description}")
            return result

        return wrapper

    return decorate


def run_pipeline(tmp_path, sim_cfg, modes, tasks, chunk_lens, sim_dir="sim",
                 report_dir="report", cache_dir=None, backend=None):
    out = generate_corpus(sim_cfg, tmp_path / sim_dir, tasks=tasks, modes=modes,
                          chunk_lens=chunk_lens)
    cfg = RunConfig(
        corpus_dir=out.corpus_dir,
        taxonomy_path=out.taxonomy_path,
        report_dir=tmp_path / report_dir,
        cache_dir=None if cache_dir is None else tmp_path / cache_dir,
        fixtures_path=out.fixtures_path,
        modes=modes,
        tasks=tasks,
        chunk_lens=chunk_lens,
    )
    return orchestrator.run(cfg, backend=backend), out, cfg


@criterion(1, "metric implementations match brute-force oracles on 1000+ random instances")
def test_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(1000):
        pred, gold, classes = random_multilabel_instance(rng)
        taxonomy = ActivityTaxonomy(name="r", labels=tuple(classes))
        macro, _ = macro_f1_multilabel(pred, gold, taxonomy)
        oracle, _ = brute_multilabel_macro_f1(pred, gold, classes)
        assert abs(macro - oracle) <= 1e-9
    for _ in range(1000):
        preds, golds, classes = random_multiclass_instance(rng)
        taxonomy = ActivityTaxonomy(name="r", labels=tuple(classes))
        seg_preds = [(seg(i, i * 16.0, (i + 1) * 16.0), p) for i, p in enumerate(preds)]
        macro, _ = macro_f1_multiclass(seg_preds, {"s": contiguous_timeline(golds)}, taxonomy)
        oracle, _ = brute_multiclass_macro_f1(list(zip(preds, golds)), classes)
        assert abs(macro - oracle) <= 1e-9
    for _ in range(1000):
        items = random_ranked_instance(rng)
        scores = [RankedScore(f"s{i}", s, g) for i, (s, g) in enumerate(items)]
        assert abs(pr_auc(scores) - brute_average_precision(items)) <= 1e-9
    assert time.perf_counter() - started < 10.0


@criterion(2, "PR-AUC worked examples: 0.833333, all-tied k/n, perfect ranking 1.0")
def test_pr_auc_worked_examples():
    scores = [RankedScore("s1", 0.9, True), RankedScore("s2", 0.8, False), RankedScore("s3", 0.7, True)]
    assert pr_auc(scores) == pytest.approx(0.833333, abs=1e-6)

    for k, n in [(1, 4), (3, 10), (5, 5)]:
        tied = [RankedScore(f"s{i}", 0.5, i < k) for i in range(n)]
        assert pr_auc(tied) == k / n

    perfect = [RankedScore(f"p{i}", 1.0 - i * 0.01, True) for i in range(4)] + [
        RankedScore(f"n{i}", 0.5 - i * 0.01, False) for i in range(4)
    ]
    assert pr_auc(perfect) == 1.0


@criterion(3, "session activity set includes a label iff predicted in >= 6 of the 16 s segments")
def test_aggregation_threshold_law():
    for count in range(11):
        preds = [
            {"session_id": "s", "task": TaskKind.ACTIVITY_RECOGNITION.value, "mode": RefinementMode.MULTIMODAL.value,
             "chunk_len_s": 16, "unit_index": i, "start_s": i * 16.0, "end_s": (i + 1) * 16.0,
             "label": "toy play", "tier": "exact", "raw": "toy play", "cache_key": ""}
            for i in range(count)
        ]
        included = bool(preds) and "toy play" in lift_session(preds)
        assert included == (count >= 6), f"count={count}"


@criterion(4, "windowing laws: 900 s -> 56 x 16-frame segments; 64 s chunks nest 4 x 16 s chunks")
def test_windowing_laws():
    segments = plan_segments(900.0)
    assert len(segments) == 56
    assert all(len(s.frame_timestamps_s) == 16 for s in segments)

    @given(n_blocks=st.integers(min_value=1, max_value=8), utterances=sequential_utterances())
    @settings(max_examples=500, deadline=None)
    def nesting(n_blocks, utterances):
        duration = 64.0 * n_blocks
        chunks16 = fill_chunks(plan_transcript_chunks(duration, 16), utterances)
        chunks64 = fill_chunks(plan_transcript_chunks(duration, 64), utterances)
        for big in chunks64:
            parts = [c.text for c in chunks16[4 * big.index : 4 * big.index + 4] if c.text]
            assert big.text == " ".join(parts)

    nesting()


@criterion(5, "zero-noise synthetic corpus: multimodal run recovers AR/AS/E1-E3 perfectly")
def test_end_to_end_oracle_recovery(tmp_path):
    started = time.perf_counter()
    report, _, _ = run_pipeline(
        tmp_path,
        SimConfig(seed=ACCEPTANCE_SEED, n_sessions=20, duration_s=320.0),
        modes=(RefinementMode.MULTIMODAL,),
        tasks=tuple(TaskKind),
        chunk_lens=(16,),
    )
    row = report_row(report, RefinementMode.MULTIMODAL, 16)
    assert row["metrics"]["activity_recognition"] == 1.0
    assert row["metrics"]["activity_segmentation"] == 1.0
    assert row["metrics"]["e1_overactivity"] == 1.0
    assert row["metrics"]["e2_tantrums"] == 1.0
    assert row["metrics"]["e3_anxiety"] == 1.0
    assert time.perf_counter() - started < 60.0


@criterion(6, "mean AR macro-F1 over 20 seeds strictly decreases with reasoner flip noise")
def test_noise_monotonicity(tmp_path):
    tasks = (TaskKind.ACTIVITY_RECOGNITION,)
    modes = (RefinementMode.MULTIMODAL,)

    def mean_ar(flip_p):
        values = []
        for seed_index in range(20):
            report, _, _ = run_pipeline(
                tmp_path,
                SimConfig(seed=seed_index, n_sessions=20, duration_s=320.0,
                          noise=NoiseSpec(reasoner_flip_p=flip_p)),
                modes=modes,
                tasks=tasks,
                chunk_lens=(16,),
                sim_dir=f"sim-{flip_p}-{seed_index}",
                report_dir=f"report-{flip_p}-{seed_index}",
            )
            values.append(report_row(report, RefinementMode.MULTIMODAL, 16)["metrics"]["activity_recognition"])
        return sum(values) / len(values)

    means = [mean_ar(p) for p in (0.0, 0.25, 0.5)]
    assert means[0] - means[1] >= 0.05, means
    assert means[1] - means[2] >= 0.05, means


@criterion(7, "multimodal refinement tracks whichever modality still carries the label signal")
def test_modality_robustness_directions(tmp_path):
    modes = (RefinementMode.VIDEO_ONLY, RefinementMode.TRANSCRIPT_ONLY, RefinementMode.MULTIMODAL)
    tasks = (TaskKind.ACTIVITY_RECOGNITION,)

    def ar_by_mode(noise, tag):
        report, _, _ = run_pipeline(
            tmp_path,
            SimConfig(seed=ACCEPTANCE_SEED, n_sessions=20, duration_s=320.0, noise=noise),
            modes=modes,
            tasks=tasks,
            chunk_lens=(16,),
            sim_dir=f"sim-{tag}",
            report_dir=f"report-{tag}",
        )
        return {
            "video": report_row(report, RefinementMode.VIDEO_ONLY)["metrics"]["activity_recognition"],
            "transcript": report_row(report, RefinementMode.TRANSCRIPT_ONLY, 16)["metrics"]["activity_recognition"],
            "multimodal": report_row(report, RefinementMode.MULTIMODAL, 16)["metrics"]["activity_recognition"],
        }

    blind_video = ar_by_mode(NoiseSpec(caption_flip_p=1.0), "blind-video")
    assert blind_video["transcript"] - blind_video["video"] >= 0.3, blind_video
    assert blind_video["multimodal"] - blind_video["video"] >= 0.3, blind_video

    blind_audio = ar_by_mode(NoiseSpec(transcript_drop_p=1.0), "blind-audio")
    assert blind_audio["video"] - blind_audio["transcript"] >= 0.3, blind_audio
    assert blind_audio["multimodal"] - blind_audio["transcript"] >= 0.3, blind_audio


@criterion(8, "identical runs give byte-identical report.json; warm cache issues zero requests")
def test_determinism_and_idempotence(tmp_path):
    sim_cfg = SimConfig(seed=ACCEPTANCE_SEED, n_sessions=8, duration_s=320.0)
    modes = (RefinementMode.ZERO_SHOT, RefinementMode.MULTIMODAL)
    tasks = tuple(TaskKind)

    _, out, cfg1 = run_pipeline(tmp_path, sim_cfg, modes, tasks, (16,),
                                sim_dir="sim", report_dir="report1", cache_dir="cache1")
    cfg2 = RunConfig(
        corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path,
        report_dir=tmp_path / "report2", cache_dir=tmp_path / "cache2",
        fixtures_path=out.fixtures_path, modes=modes, tasks=tasks, chunk_lens=(16,),
    )
    orchestrator.run(cfg2)
    first = (cfg1.report_dir / "report.json").read_bytes()
    second = (cfg2.report_dir / "report.json").read_bytes()
    assert first == second

    warm = FaultyBackend(MockBackend(FixtureStore.load_jsonl(out.fixtures_path)))
    orchestrator.run(cfg2, backend=warm)
    assert warm.sent == []
    assert (cfg2.report_dir / "report.json").read_bytes() == second


@criterion(9, "description prompt matches the pinned sentence; every template matches its golden file")
def test_prompt_pinning():
    assert DESCRIPTION_PROMPT == (
        "Please provide a detailed description of the video, focusing on "
        "the main subjects, their actions, and the background scenes."
    )
    from .test_prompting import GOLDEN_DIR, GOLDEN_TAXONOMY, _golden_inputs
    from sessionpipe.prompting import build_task_prompt

    assert DESCRIPTION_PROMPT == (GOLDEN_DIR / "description.txt").read_text()
    assert TRANSCRIPTION_PROMPT == (GOLDEN_DIR / "transcription.txt").read_text()
    for task in TaskKind:
        for mode in RefinementMode:
            caption, transcript = _golden_inputs(mode)
            rendered = build_task_prompt(mode, task, caption, transcript, GOLDEN_TAXONOMY)
            golden = (GOLDEN_DIR / f"{task.value}.{mode.value}.txt").read_text(encoding="utf-8")
            assert rendered == golden, f"{task.value}.{mode.value}"


@criterion(10, "HTTP backend against a fixture-replay server reproduces the mock run exactly")
def test_wire_protocol_conformance(tmp_path):
    sim_cfg = SimConfig(seed=ACCEPTANCE_SEED, n_sessions=6, duration_s=320.0)
    modes = tuple(RefinementMode)
    tasks = tuple(TaskKind)
    chunk_lens = (16, 64)
    out = generate_corpus(sim_cfg, tmp_path / "sim", tasks=tasks, modes=modes, chunk_lens=chunk_lens)
    store = FixtureStore.load_jsonl(out.fixtures_path)

    def config(report_dir):
        return RunConfig(
            corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path,
            report_dir=tmp_path / report_dir, fixtures_path=out.fixtures_path,
            modes=modes, tasks=tasks, chunk_lens=chunk_lens, concurrency=8,
        )

    mock = MockBackend(store)
    orchestrator.run(config("report-mock"), backend=mock)

    with FixtureChatServer(store) as server:
        http_backend = HttpChatBackend(server.base_url, model="fixture-replay")
        # the backend id names the model in cache keys and reports: the same one makes them comparable
        http_backend.backend_id = mock.backend_id
        orchestrator.run(config("report-http"), backend=http_backend)

    mock_report = (tmp_path / "report-mock" / "report.json").read_bytes()
    http_report = (tmp_path / "report-http" / "report.json").read_bytes()
    assert mock_report == http_report
    mock_preds = (tmp_path / "report-mock" / "predictions.jsonl").read_bytes()
    http_preds = (tmp_path / "report-http" / "predictions.jsonl").read_bytes()
    assert mock_preds == http_preds
