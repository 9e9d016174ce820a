"""The settings of a run (``RunConfig``) and of a simulation (``SimConfig``, ``NoiseSpec``), with
the checks that refuse values no run can use. The CLI's options default to their fields."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import aggregation, windowing
from .corpus import TaskKind
from .prompting import TRANSCRIPT_MODES, RefinementMode

ALL_MODES = tuple(RefinementMode)
ALL_TASKS = tuple(TaskKind)


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
        if (self.fixtures_path is None) == (self.endpoint is None):
            raise ValueError("a run needs exactly one backend: fixtures_path (--fixtures) or endpoint (--endpoint)")
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


@dataclass(frozen=True)
class NoiseSpec:
    """Independent corruption rates for the three content channels."""

    caption_flip_p: float = 0.0
    transcript_drop_p: float = 0.0
    reasoner_flip_p: float = 0.0

    def __post_init__(self):
        for name in ("caption_flip_p", "transcript_drop_p", "reasoner_flip_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise BadSettingError(name, "in [0, 1]", p)


@dataclass(frozen=True)
class SimConfig:
    """Corpus generation parameters."""

    seed: int = 0
    n_sessions: int = 20
    duration_s: float = 320.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.n_sessions < 1:
            raise BadSettingError("n_sessions", ">= 1", self.n_sessions)
        if not 0 < self.duration_s < math.inf:  # NaN fails too
            raise BadSettingError("duration_s", "finite and > 0", self.duration_s)
