#!/usr/bin/env python3
"""End-to-end demo: simulate a corpus, run every refinement mode, print the table.

Usage: python scripts/demo_run.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from sessionpipe import orchestrator
from sessionpipe.config import RunConfig
from sessionpipe.prompting import RefinementMode
from sessionpipe.simulator import NoiseSpec, SimConfig, generate_corpus


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="sessionpipe-demo-"))
    print(f"working in {workdir}")

    # mild noise so the table is not a wall of 1.000
    sim_cfg = SimConfig(
        seed=0,
        n_sessions=20,
        duration_s=320.0,
        noise=NoiseSpec(caption_flip_p=0.2, transcript_drop_p=0.1, reasoner_flip_p=0.1),
    )
    out = generate_corpus(sim_cfg, workdir / "sim", chunk_lens=(16, 64))

    cfg = RunConfig(
        corpus_dir=out.corpus_dir,
        taxonomy_path=out.taxonomy_path,
        report_dir=workdir / "report",
        cache_dir=workdir / "cache",
        fixtures_path=out.fixtures_path,
        modes=tuple(RefinementMode),
        chunk_lens=(16, 64),
    )
    orchestrator.run(cfg)
    print((cfg.report_dir / "report.md").read_text())
    print(f"full artifacts under {workdir}")


if __name__ == "__main__":
    main()
