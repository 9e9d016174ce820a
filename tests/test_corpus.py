import json
from pathlib import Path

import pytest

from sessionpipe.corpus import (
    ActivityTaxonomy,
    CorpusError,
    DanglingAliasError,
    DatasetKind,
    DuplicateLabelError,
    GroundTruth,
    SchemaViolationError,
    SessionManifest,
    TimelineEntry,
    UnknownLabelError,
    load_corpus,
    load_taxonomy,
    manifest_from_dict,
    manifest_to_dict,
    save_taxonomy,
    write_corpus,
)

EXAMPLE_TAXONOMIES = Path(__file__).resolve().parent / "data"


def _write_taxonomy(tmp_path, doc):
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestTaxonomy:
    def test_load_preserves_order(self, tmp_path):
        path = _write_taxonomy(tmp_path, {"name": "t", "labels": ["A", "B", "C"], "aliases": {}})
        taxonomy = load_taxonomy(path)
        assert taxonomy.labels == ("A", "B", "C")

    def test_case_folded_duplicate_rejected(self, tmp_path):
        path = _write_taxonomy(tmp_path, {"name": "t", "labels": ["A", "a"], "aliases": {}})
        with pytest.raises(DuplicateLabelError):
            load_taxonomy(path)

    def test_dangling_alias_rejected(self, tmp_path):
        path = _write_taxonomy(
            tmp_path, {"name": "t", "labels": ["A"], "aliases": {"x": "missing"}}
        )
        with pytest.raises(DanglingAliasError):
            load_taxonomy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_taxonomy(tmp_path / "nope.json")

    def test_empty_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            ActivityTaxonomy(name="t", labels=())

    def test_normalized_duplicate_rejected(self):
        with pytest.raises(DuplicateLabelError):
            ActivityTaxonomy(name="t", labels=("make-believe play", "Make believe  play!"))

    def test_example_diagnostic_has_14_labels(self):
        assert len(load_taxonomy(EXAMPLE_TAXONOMIES / "taxonomy_diagnostic.json").labels) == 14

    def test_example_naturalistic_has_13_labels(self):
        taxonomy = load_taxonomy(EXAMPLE_TAXONOMIES / "taxonomy_naturalistic.json")
        assert len(taxonomy.labels) == 13
        assert "shared book reading" in taxonomy.labels

    def test_save_load_roundtrip(self, tmp_path, taxonomy):
        path = tmp_path / "t.json"
        save_taxonomy(taxonomy, path)
        assert load_taxonomy(path) == taxonomy


class TestManifestValidation:
    def test_duration_must_be_positive(self):
        with pytest.raises(SchemaViolationError):
            SessionManifest(
                session_id="s",
                dataset=DatasetKind.NATURALISTIC,
                media_duration_s=0.0,
                video_ref="v",
                audio_ref="a",
                ground_truth=GroundTruth(session_activities=frozenset()),
            )

    def test_naturalistic_requires_activity_set(self):
        with pytest.raises(SchemaViolationError):
            SessionManifest(
                session_id="s",
                dataset=DatasetKind.NATURALISTIC,
                media_duration_s=10.0,
                video_ref="v",
                audio_ref="a",
                ground_truth=GroundTruth(),
            )

    def test_diagnostic_requires_timeline_and_codes(self):
        with pytest.raises(SchemaViolationError):
            SessionManifest(
                session_id="s",
                dataset=DatasetKind.DIAGNOSTIC,
                media_duration_s=10.0,
                video_ref="v",
                audio_ref="a",
                ground_truth=GroundTruth(activity_timeline=(TimelineEntry(0, 5, "x"),)),
            )

    @pytest.mark.parametrize(
        "timeline",
        [
            (TimelineEntry(5.0, 5.0, "x"),),  # start == end
            (TimelineEntry(0.0, 20.0, "x"),),  # beyond duration
            (TimelineEntry(0.0, 6.0, "x"), TimelineEntry(5.0, 9.0, "y")),  # overlap
        ],
    )
    def test_bad_timelines_rejected(self, timeline):
        with pytest.raises(SchemaViolationError):
            SessionManifest(
                session_id="s",
                dataset=DatasetKind.DIAGNOSTIC,
                media_duration_s=10.0,
                video_ref="v",
                audio_ref="a",
                ground_truth=GroundTruth(activity_timeline=timeline, e1=False, e2=False, e3=False),
            )

    def test_unknown_timeline_label_rejected(self, taxonomy, diagnostic_manifest):
        bad = manifest_to_dict(diagnostic_manifest)
        bad["ground_truth"]["activity_timeline"][0]["label"] = "juggling"
        manifest = manifest_from_dict(bad)
        with pytest.raises(UnknownLabelError):
            manifest.validate_labels(taxonomy)


class TestCorpusIO:
    def test_write_then_load(self, tmp_path, taxonomy, diagnostic_manifest, naturalistic_manifest):
        write_corpus([naturalistic_manifest, diagnostic_manifest], tmp_path)
        loaded = load_corpus(tmp_path, taxonomy)
        assert [m.session_id for m in loaded] == ["diag-001", "nat-001"]
        assert loaded == [diagnostic_manifest, naturalistic_manifest]

    def test_empty_directory_loads_empty(self, tmp_path, taxonomy):
        assert load_corpus(tmp_path, taxonomy) == []

    def test_missing_directory(self, tmp_path, taxonomy):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "missing", taxonomy)

    def test_a_non_empty_directory_without_an_index_is_refused(self, tmp_path, taxonomy, naturalistic_manifest):
        write_corpus([naturalistic_manifest], tmp_path)
        (tmp_path / "index.json").unlink()
        with pytest.raises(CorpusError, match="no index.json in non-empty corpus directory"):
            load_corpus(tmp_path, taxonomy)

    def test_load_is_deterministic(self, tmp_path, taxonomy, diagnostic_manifest, naturalistic_manifest):
        write_corpus([diagnostic_manifest, naturalistic_manifest], tmp_path)
        assert load_corpus(tmp_path, taxonomy) == load_corpus(tmp_path, taxonomy)

    def test_serialize_roundtrip_is_canonical(self, tmp_path, taxonomy, diagnostic_manifest):
        write_corpus([diagnostic_manifest], tmp_path)
        loaded = load_corpus(tmp_path, taxonomy)
        assert manifest_to_dict(loaded[0]) == manifest_to_dict(diagnostic_manifest)

    def test_unknown_gold_label_rejected_on_load(self, tmp_path, taxonomy, naturalistic_manifest):
        doc = manifest_to_dict(naturalistic_manifest)
        doc["ground_truth"]["session_activities"] = ["juggling"]
        write_corpus([manifest_from_dict(doc)], tmp_path)
        with pytest.raises(UnknownLabelError):
            load_corpus(tmp_path, taxonomy)

    def test_89_naturalistic_sessions(self, tmp_path, taxonomy):
        manifests = [
            SessionManifest(
                session_id=f"nat-{i:03d}",
                dataset=DatasetKind.NATURALISTIC,
                media_duration_s=900.0,
                video_ref=f"file:///{i}.mp4",
                audio_ref=f"file:///{i}.wav",
                ground_truth=GroundTruth(session_activities=frozenset({"toy play"})),
            )
            for i in range(89)
        ]
        write_corpus(manifests, tmp_path)
        assert len(load_corpus(tmp_path, taxonomy)) == 89
