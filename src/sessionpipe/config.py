"""A run's settings: ``RunConfig`` and the checks that refuse values no run can use."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import aggregation, windowing
from .corpus import TaskKind
from .prompting import TRANSCRIPT_MODES, RefinementMode

ALL_MODES = tuple(RefinementMode)
ALL_TASKS = tuple(TaskKind)

JOURNAL_NAME = "responses-v2.jsonl"  # stands for orchestrator.cache_key's schema: rename it when the key changes


class BadSettingError(ValueError):
    """A RunConfig, SimConfig or NoiseSpec field set to a value no run can use; ``field`` names it."""

    def __init__(self, field: str, rule: str, value: Any):
        super().__init__(f"{field} must be {rule}, not {value!r}")
        self.field = field


@dataclass
class RunConfig:
    corpus_dir: Path
    taxonomy_path: Path
    report_dir: Path
    cache_dir: Path | None = None  # None: report_dir / "cache"
    modes: tuple[RefinementMode, ...] = ALL_MODES
    tasks: tuple[TaskKind, ...] = ALL_TASKS
    chunk_lens: tuple[int, ...] = (16,)
    fixtures_path: Path | None = None
    endpoint: str | None = None
    model: str = "local-model"
    api_key: str | None = None
    concurrency: int = 4
    seed: int = 0
    window_s: float = 16.0
    fps: float = 1.0
    min_activity_duration_s: float = aggregation.DEFAULT_MIN_ACTIVITY_DURATION_S
    failure_threshold: float = 0.1
    template_dir: Path | None = None

    def __post_init__(self):
        self.corpus_dir = Path(self.corpus_dir)
        self.taxonomy_path = Path(self.taxonomy_path)
        self.report_dir = Path(self.report_dir)
        self.cache_dir = Path(self.cache_dir) if self.cache_dir is not None else self.report_dir / "cache"
        if stale := sorted(p.name for p in self.cache_dir.glob("*.jsonl") if p.name != JOURNAL_NAME):
            raise ValueError(f"{self.cache_dir} holds cache files of an older layout: {', '.join(stale)}. Their "
                             f"keys are not this version's, so no run can reuse them: remove them.")
        # canonical ordering keeps reports byte-stable regardless of input order
        self.modes = tuple(m for m in RefinementMode if m in set(self.modes))
        self.tasks = tuple(t for t in TaskKind if t in set(self.tasks))
        self.chunk_lens = tuple(sorted(set(self.chunk_lens)))
        if not self.modes or not self.tasks:
            raise ValueError("need at least one mode and one task")
        if TRANSCRIPT_MODES & set(self.modes) and not self.chunk_lens:
            raise ValueError("chunk_lens must be non-empty for transcript-using modes")
        for name, valid, rule in (  # written so that NaN is out of range too
            ("concurrency", self.concurrency >= 1, ">= 1"),
            ("window_s", self.window_s > 0, "> 0"),
            ("fps", self.fps > 0, "> 0"),
            ("failure_threshold", 0 <= self.failure_threshold <= 1, "in [0, 1]"),
            ("min_activity_duration_s", self.min_activity_duration_s >= 0, ">= 0"),
            ("window_s", self.window_s < math.inf, "finite"),
            ("fps", self.fps < math.inf, "finite"),
            ("min_activity_duration_s", self.min_activity_duration_s < math.inf, "finite"),
        ):
            if not valid:
                raise BadSettingError(name, rule, getattr(self, name))
        windowing.check_chunk_lengths(self.chunk_lens)
