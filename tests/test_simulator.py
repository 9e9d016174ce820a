import pytest

from sessionpipe.backends import prompt_sha256
from sessionpipe.config import BadSettingError, NoiseSpec, RunConfig, SimConfig
from sessionpipe.corpus import E_TASKS, TaskKind, load_corpus, load_taxonomy, read_jsonl
from sessionpipe.orchestrator import run
from sessionpipe.prompting import DESCRIPTION_PROMPT, RefinementMode
from sessionpipe.simulator import (
    ACTIVITY_DWELL_S,
    E_BASE_RATES,
    _build_session,
    generate_corpus,
)


def build_manifests(cfg):
    """The synthetic sessions alone, without writing a corpus or fixtures."""
    return [_build_session(cfg, i).manifest for i in range(cfg.n_sessions)]


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(BadSettingError):
            NoiseSpec(caption_flip_p=1.5)

    def test_bad_session_count(self):
        with pytest.raises(BadSettingError):
            SimConfig(seed=0, n_sessions=0)

    def test_bad_duration(self):
        with pytest.raises(BadSettingError):
            SimConfig(seed=0, duration_s=-1.0)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = SimConfig(seed=11, n_sessions=3)
        out1 = generate_corpus(cfg, tmp_path / "a", chunk_lens=(16,))
        out2 = generate_corpus(cfg, tmp_path / "b", chunk_lens=(16,))
        assert out1.fixtures_path.read_bytes() == out2.fixtures_path.read_bytes()
        for rel in sorted(p.relative_to(out1.corpus_dir) for p in out1.corpus_dir.rglob("*.json")):
            assert (out1.corpus_dir / rel).read_bytes() == (out2.corpus_dir / rel).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        out1 = generate_corpus(SimConfig(seed=1, n_sessions=2), tmp_path / "a", chunk_lens=(16,))
        out2 = generate_corpus(SimConfig(seed=2, n_sessions=2), tmp_path / "b", chunk_lens=(16,))
        assert out1.fixtures_path.read_bytes() != out2.fixtures_path.read_bytes()

    def test_narrowing_coverage_keeps_shared_records(self, tmp_path):
        cfg = SimConfig(seed=3, n_sessions=2)
        full = generate_corpus(cfg, tmp_path / "full", chunk_lens=(16,))
        narrow = generate_corpus(
            cfg, tmp_path / "narrow",
            tasks=(TaskKind.ACTIVITY_RECOGNITION,), modes=(RefinementMode.MULTIMODAL,),
            chunk_lens=(16,),
        )
        full_records = {
            (r["role"], r["session_id"], r["segment_index"], r["prompt_hash"]): r["text"]
            for r in read_jsonl(full.fixtures_path)
        }
        for record in read_jsonl(narrow.fixtures_path):
            key = (record["role"], record["session_id"], record["segment_index"], record["prompt_hash"])
            assert full_records[key] == record["text"]


class TestGeneratedCorpus:
    def test_loads_and_validates(self, tmp_path):
        cfg = SimConfig(seed=5, n_sessions=4)
        out = generate_corpus(cfg, tmp_path, chunk_lens=(16,))
        taxonomy = load_taxonomy(out.taxonomy_path)
        manifests = load_corpus(out.corpus_dir, taxonomy)
        assert len(manifests) == 4
        for manifest in manifests:
            gt = manifest.ground_truth
            assert gt.activity_timeline[0].start_s == 0.0
            assert gt.activity_timeline[-1].end_s == cfg.duration_s
            assert gt.session_activities is not None

    def test_zero_noise_captions_contain_true_label(self, tmp_path):
        cfg = SimConfig(seed=5, n_sessions=3)
        out = generate_corpus(cfg, tmp_path, modes=(RefinementMode.VIDEO_ONLY,), chunk_lens=(16,))
        taxonomy = load_taxonomy(out.taxonomy_path)
        manifests = {m.session_id: m for m in load_corpus(out.corpus_dir, taxonomy)}
        description_hash = prompt_sha256(DESCRIPTION_PROMPT)
        from sessionpipe import metrics, windowing

        checked = 0
        for record in read_jsonl(out.fixtures_path):
            if record["prompt_hash"] != description_hash:
                continue
            manifest = manifests[record["session_id"]]
            segments = windowing.plan_segments(manifest.media_duration_s, session_id=manifest.session_id)
            seg = segments[record["segment_index"]]
            true_label = metrics.resolve_segment_gold(seg, manifest.ground_truth.activity_timeline)
            assert true_label in record["text"]
            checked += 1
        assert checked == 3 * 20

    def test_timeline_dwells_within_range(self):
        cfg = SimConfig(seed=7, n_sessions=10)
        lo, hi = ACTIVITY_DWELL_S
        for manifest in build_manifests(cfg):
            timeline = manifest.ground_truth.activity_timeline
            assert timeline[0].start_s == 0.0
            assert timeline[-1].end_s == cfg.duration_s
            for prev, entry in zip(timeline, timeline[1:]):
                assert entry.start_s == prev.end_s
                assert entry.label != prev.label
            # every entry but the last, which the session end may cut short
            for entry in timeline[:-1]:
                assert lo <= entry.end_s - entry.start_s <= hi

    def test_e2_base_rate_matches_reported_skew(self):
        assert E_BASE_RATES[TaskKind.E2_TANTRUMS] == pytest.approx(7 / 83)
        # empirical presence fraction over many sessions stays near the rate
        cfg = SimConfig(seed=123, n_sessions=400)
        manifests = build_manifests(cfg)
        fraction = sum(1 for m in manifests if m.ground_truth.e2) / len(manifests)
        assert abs(fraction - 7 / 83) < 0.05

    def test_presence_sessions_have_cue_segments(self, tmp_path):
        cfg = SimConfig(seed=5, n_sessions=6)
        out = generate_corpus(cfg, tmp_path, modes=(RefinementMode.VIDEO_ONLY,),
                              tasks=E_TASKS, chunk_lens=(16,))
        taxonomy = load_taxonomy(out.taxonomy_path)
        manifests = load_corpus(out.corpus_dir, taxonomy)
        yes_by_session = {}
        for record in read_jsonl(out.fixtures_path):
            if record["role"] == "reasoner" and record["text"] == "Yes.":
                yes_by_session.setdefault(record["session_id"], 0)
                yes_by_session[record["session_id"]] += 1
        for manifest in manifests:
            has_presence = any(manifest.ground_truth.e_flag(t) for t in E_TASKS)
            if has_presence:
                assert yes_by_session.get(manifest.session_id, 0) >= 1


def test_fixtures_are_planned_at_the_runs_frame_rate(tmp_path, monkeypatch):
    # the simulator reads the run's default window and frame rate, so a run at that rate finds every caption
    monkeypatch.setattr(RunConfig, "fps", 2.0)
    modes = (RefinementMode.ZERO_SHOT, RefinementMode.VIDEO_ONLY)
    out = generate_corpus(SimConfig(seed=0, n_sessions=2, duration_s=64.0), tmp_path / "sim", modes=modes,
                          chunk_lens=(16,))
    report = run(RunConfig(corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path, report_dir=tmp_path / "report",
                           fixtures_path=out.fixtures_path, modes=modes, fps=2.0))
    assert report["failures"] == []
    assert report["invalid_sessions"] == []
