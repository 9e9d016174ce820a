"""Session manifests, activity taxonomies, and ground-truth schemas.

A corpus is a directory with an ``index.json`` listing per-session manifest
files. Two recording settings are supported: naturalistic sessions carry a
session-level activity set, diagnostic sessions carry an annotated activity
timeline plus three binary behavior codes. The JSONL helpers every other
module reads and writes its line files with live here, in the lowest module.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping


class TaskKind(Enum):
    """The five evaluation tasks."""

    ACTIVITY_RECOGNITION = "activity_recognition"
    ACTIVITY_SEGMENTATION = "activity_segmentation"
    E1_OVERACTIVITY = "e1_overactivity"
    E2_TANTRUMS = "e2_tantrums"
    E3_ANXIETY = "e3_anxiety"


ACTIVITY_TASKS = (TaskKind.ACTIVITY_RECOGNITION, TaskKind.ACTIVITY_SEGMENTATION)
E_TASKS = (TaskKind.E1_OVERACTIVITY, TaskKind.E2_TANTRUMS, TaskKind.E3_ANXIETY)


class DatasetKind(Enum):
    NATURALISTIC = "naturalistic"
    DIAGNOSTIC = "diagnostic"


class CorpusError(Exception):
    """Base class for corpus validation failures."""


class DuplicateLabelError(CorpusError):
    pass


class DanglingAliasError(CorpusError):
    pass


class SchemaViolationError(CorpusError):
    def __init__(self, where: str, field_name: str, detail: str):
        super().__init__(f"{where}: field '{field_name}': {detail}")
        self.where = where
        self.field_name = field_name
        self.detail = detail


class UnknownLabelError(CorpusError):
    def __init__(self, where: str, label: str):
        super().__init__(f"{where}: label '{label}' is not in the taxonomy")
        self.where = where
        self.label = label


@dataclass(frozen=True)
class ActivityTaxonomy:
    """Ordered label set with optional aliases.

    Label order is load order and defines report column order. Labels must be
    unique after ``parsing.normalize`` (case, punctuation and spacing folded);
    every alias must map to an existing label.
    """

    name: str
    labels: tuple[str, ...]
    aliases: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.labels:
            raise DuplicateLabelError(f"taxonomy '{self.name}' has no labels")
        seen: dict[str, str] = {}
        for form, label in self.match_forms[0]:
            if form in seen:
                raise DuplicateLabelError(
                    f"taxonomy '{self.name}': labels '{seen[form]}' and '{label}' are equal when normalized"
                )
            seen[form] = label
        for alias, target in self.aliases.items():
            if target not in self.labels:
                raise DanglingAliasError(
                    f"taxonomy '{self.name}': alias '{alias}' -> unknown label '{target}'"
                )

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    @cached_property
    def match_forms(self) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
        """(normalized label, label) and (normalized alias, target) pairs, built once."""
        from .parsing import normalize  # parsing imports this module

        return (
            tuple((normalize(label), label) for label in self.labels),
            tuple((normalize(alias), target) for alias, target in self.aliases.items()),
        )

    @cached_property
    def labels_block(self) -> str:
        """The labels as the ``- label`` lines task prompts list them in, rendered once."""
        return "\n".join(f"- {label}" for label in self.labels)


@dataclass(frozen=True)
class TimelineEntry:
    start_s: float
    end_s: float
    label: str


@dataclass(frozen=True)
class GroundTruth:
    """Per-session annotations; which fields are present depends on the dataset."""

    session_activities: frozenset[str] | None = None
    activity_timeline: tuple[TimelineEntry, ...] | None = None
    e1: bool | None = None
    e2: bool | None = None
    e3: bool | None = None

    def e_flag(self, task: TaskKind) -> bool | None:
        return {
            TaskKind.E1_OVERACTIVITY: self.e1,
            TaskKind.E2_TANTRUMS: self.e2,
            TaskKind.E3_ANXIETY: self.e3,
        }[task]


@dataclass(frozen=True)
class SessionManifest:
    session_id: str
    dataset: DatasetKind
    media_duration_s: float
    video_ref: str
    audio_ref: str
    ground_truth: GroundTruth

    def __post_init__(self):
        sid = self.session_id
        if not sid:
            raise SchemaViolationError("<manifest>", "session_id", "must be non-empty")
        if self.media_duration_s <= 0:
            raise SchemaViolationError(sid, "media_duration_s", "must be > 0")
        gt = self.ground_truth
        if self.dataset is DatasetKind.NATURALISTIC and gt.session_activities is None:
            raise SchemaViolationError(sid, "session_activities", "required for naturalistic sessions")
        if self.dataset is DatasetKind.DIAGNOSTIC:
            if gt.activity_timeline is None:
                raise SchemaViolationError(sid, "activity_timeline", "required for diagnostic sessions")
            for name in ("e1", "e2", "e3"):
                if getattr(gt, name) is None:
                    raise SchemaViolationError(sid, name, "required for diagnostic sessions")
        if gt.activity_timeline is not None:
            entries = sorted(gt.activity_timeline, key=lambda e: (e.start_s, e.end_s))
            prev_end = None
            for entry in entries:
                if not entry.start_s < entry.end_s:
                    raise SchemaViolationError(sid, "activity_timeline", f"interval {entry} has start >= end")
                if entry.start_s < 0 or entry.end_s > self.media_duration_s + 1e-9:
                    raise SchemaViolationError(sid, "activity_timeline", f"interval {entry} outside media duration")
                if prev_end is not None and entry.start_s < prev_end - 1e-9:
                    raise SchemaViolationError(sid, "activity_timeline", f"interval {entry} overlaps its predecessor")
                prev_end = entry.end_s

    def validate_labels(self, taxonomy: ActivityTaxonomy) -> None:
        """Check all ground-truth labels against the taxonomy."""
        gt = self.ground_truth
        if gt.session_activities is not None:
            for label in gt.session_activities:
                if label not in taxonomy:
                    raise UnknownLabelError(self.session_id, label)
        if gt.activity_timeline is not None:
            for entry in gt.activity_timeline:
                if entry.label not in taxonomy:
                    raise UnknownLabelError(self.session_id, entry.label)


# ---------------------------------------------------------------------------
# serialization


def load_taxonomy(path: str | Path) -> ActivityTaxonomy:
    """Load and validate a taxonomy.json document. Order is preserved."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"taxonomy file not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return taxonomy_from_dict(doc, where=str(path))


def taxonomy_from_dict(doc: Any, where: str = "<taxonomy>") -> ActivityTaxonomy:
    if not isinstance(doc, dict):
        raise SchemaViolationError(where, "<root>", "must be a JSON object")
    name = doc.get("name")
    labels = doc.get("labels")
    aliases = doc.get("aliases", {})
    if not isinstance(name, str):
        raise SchemaViolationError(where, "name", "must be a string")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaViolationError(where, "labels", "must be a list of strings")
    if not isinstance(aliases, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in aliases.items()
    ):
        raise SchemaViolationError(where, "aliases", "must map strings to strings")
    return ActivityTaxonomy(name=name, labels=tuple(labels), aliases=dict(aliases))


def taxonomy_to_dict(taxonomy: ActivityTaxonomy) -> dict:
    return {
        "name": taxonomy.name,
        "labels": list(taxonomy.labels),
        "aliases": dict(sorted(taxonomy.aliases.items())),
    }


def save_taxonomy(taxonomy: ActivityTaxonomy, path: str | Path) -> None:
    Path(path).write_text(json.dumps(taxonomy_to_dict(taxonomy), indent=2) + "\n", encoding="utf-8")


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SchemaViolationError(where, key, "missing")
    return doc[key]


def manifest_from_dict(doc: Any, where: str = "<session>") -> SessionManifest:
    if not isinstance(doc, dict):
        raise SchemaViolationError(where, "<root>", "must be a JSON object")
    session_id = _require(doc, "session_id", where)
    where = session_id if isinstance(session_id, str) and session_id else where
    dataset_raw = _require(doc, "dataset", where)
    try:
        dataset = DatasetKind(dataset_raw)
    except ValueError:
        raise SchemaViolationError(where, "dataset", f"unknown dataset kind {dataset_raw!r}") from None
    duration = _require(doc, "media_duration_s", where)
    if not isinstance(duration, (int, float)) or isinstance(duration, bool):
        raise SchemaViolationError(where, "media_duration_s", "must be a number")
    gt_doc = _require(doc, "ground_truth", where)
    if not isinstance(gt_doc, dict):
        raise SchemaViolationError(where, "ground_truth", "must be an object")

    activities = gt_doc.get("session_activities")
    if activities is not None:
        if not isinstance(activities, list) or not all(isinstance(x, str) for x in activities):
            raise SchemaViolationError(where, "session_activities", "must be a list of strings")
        activities = frozenset(activities)

    timeline = gt_doc.get("activity_timeline")
    if timeline is not None:
        entries = []
        for item in timeline:
            if not isinstance(item, dict) or not {"start_s", "end_s", "label"} <= set(item):
                raise SchemaViolationError(where, "activity_timeline", f"bad entry {item!r}")
            entries.append(TimelineEntry(float(item["start_s"]), float(item["end_s"]), str(item["label"])))
        timeline = tuple(entries)

    flags = {}
    for name in ("e1", "e2", "e3"):
        value = gt_doc.get(name)
        if value is None:
            flags[name] = None
        elif value in ("presence", "absence"):
            flags[name] = value == "presence"
        else:
            raise SchemaViolationError(where, name, "must be 'presence' or 'absence'")

    return SessionManifest(
        session_id=str(session_id),
        dataset=dataset,
        media_duration_s=float(duration),
        video_ref=str(_require(doc, "video_ref", where)),
        audio_ref=str(_require(doc, "audio_ref", where)),
        ground_truth=GroundTruth(
            session_activities=activities,
            activity_timeline=timeline,
            **flags,
        ),
    )


def manifest_to_dict(manifest: SessionManifest) -> dict:
    """Canonical JSON form: sorted activity sets, timeline sorted by start."""
    gt = manifest.ground_truth
    gt_doc: dict[str, Any] = {}
    if gt.session_activities is not None:
        gt_doc["session_activities"] = sorted(gt.session_activities)
    if gt.activity_timeline is not None:
        gt_doc["activity_timeline"] = [
            {"start_s": e.start_s, "end_s": e.end_s, "label": e.label}
            for e in sorted(gt.activity_timeline, key=lambda e: e.start_s)
        ]
    for name in ("e1", "e2", "e3"):
        flag = getattr(gt, name)
        if flag is not None:
            gt_doc[name] = "presence" if flag else "absence"
    return {
        "session_id": manifest.session_id,
        "dataset": manifest.dataset.value,
        "media_duration_s": manifest.media_duration_s,
        "video_ref": manifest.video_ref,
        "audio_ref": manifest.audio_ref,
        "ground_truth": gt_doc,
    }


def write_corpus(manifests: Iterable[SessionManifest], corpus_dir: str | Path) -> Path:
    """Write session manifests plus an index document under corpus_dir."""
    corpus_dir = Path(corpus_dir)
    sessions_dir = corpus_dir / "sessions"
    sessions_dir.mkdir(parents=True, exist_ok=True)
    rel_paths = []
    for manifest in sorted(manifests, key=lambda m: m.session_id):
        rel = f"sessions/{manifest.session_id}.json"
        (corpus_dir / rel).write_text(
            json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        rel_paths.append(rel)
    (corpus_dir / "index.json").write_text(
        json.dumps({"sessions": rel_paths}, indent=2) + "\n", encoding="utf-8"
    )
    return corpus_dir


def load_corpus(corpus_dir: str | Path, taxonomy: ActivityTaxonomy) -> list[SessionManifest]:
    """Load and validate every manifest listed in the corpus index.

    Returns manifests in deterministic session_id order. An empty directory
    (no index) loads as an empty corpus.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus_dir}")
    index_path = corpus_dir / "index.json"
    if not index_path.exists():
        if any(corpus_dir.iterdir()):
            raise FileNotFoundError(f"no index.json in non-empty corpus directory: {corpus_dir}")
        return []
    index = json.loads(index_path.read_text(encoding="utf-8"))
    if not isinstance(index, dict) or not isinstance(index.get("sessions"), list):
        raise SchemaViolationError(str(index_path), "sessions", "index must contain a 'sessions' list")

    manifests = []
    seen_ids: set[str] = set()
    for rel in index["sessions"]:
        doc = json.loads((corpus_dir / rel).read_text(encoding="utf-8"))
        manifest = manifest_from_dict(doc, where=str(rel))
        if manifest.session_id in seen_ids:
            raise SchemaViolationError(manifest.session_id, "session_id", "duplicate session_id in corpus")
        seen_ids.add(manifest.session_id)
        manifest.validate_labels(taxonomy)
        manifests.append(manifest)
    manifests.sort(key=lambda m: m.session_id)
    return manifests


# one encoder for every sorted-key JSONL line: ``json.dumps(..., sort_keys=True)`` builds one per call
SORTED_JSON = json.JSONEncoder(sort_keys=True)


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """The records of a JSONL file, one per non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


@contextmanager
def replacing(path: str | Path) -> Iterator[IO[str]]:
    """A temp text file that is renamed over ``path`` when the block ends; a failed
    write removes the temp file and leaves ``path`` whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> None:
    """Write one sorted-key JSON record per line, replacing ``path`` whole."""
    with replacing(path) as fh:
        for record in records:
            fh.write(SORTED_JSON.encode(record) + "\n")
