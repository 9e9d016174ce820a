#!/usr/bin/env python3
"""Sweep reasoner flip noise and report mean AR macro-F1 across seeds.

Shows the degradation curve the acceptance suite checks for monotonicity.

Usage: python scripts/noise_sweep.py [--seeds N] [--levels 0,0.25,0.5]
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
from pathlib import Path

from sessionpipe import orchestrator
from sessionpipe.config import NoiseSpec, RunConfig, SimConfig
from sessionpipe.corpus import TaskKind
from sessionpipe.prompting import RefinementMode
from sessionpipe.scoring import report_row
from sessionpipe.simulator import generate_corpus


def ar_macro(workdir: Path, seed: int, flip_p: float) -> float:
    sim_cfg = SimConfig(seed=seed, n_sessions=20, duration_s=320.0,
                        noise=NoiseSpec(reasoner_flip_p=flip_p))
    out = generate_corpus(
        sim_cfg, workdir / f"sim-{flip_p}-{seed}",
        tasks=(TaskKind.ACTIVITY_RECOGNITION,),
        modes=(RefinementMode.MULTIMODAL,),
        chunk_lens=(16,),
    )
    cfg = RunConfig(
        corpus_dir=out.corpus_dir,
        taxonomy_path=out.taxonomy_path,
        report_dir=workdir / f"report-{flip_p}-{seed}",
        fixtures_path=out.fixtures_path,
        modes=(RefinementMode.MULTIMODAL,),
        tasks=(TaskKind.ACTIVITY_RECOGNITION,),
        chunk_lens=(16,),
    )
    report = orchestrator.run(cfg)
    return report_row(report, RefinementMode.MULTIMODAL, 16)["metrics"]["activity_recognition"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--levels", default="0,0.25,0.5")
    args = parser.parse_args()
    levels = [float(x) for x in args.levels.split(",")]

    with tempfile.TemporaryDirectory(prefix="sessionpipe-sweep-") as td:
        workdir = Path(td)
        print(f"{'flip_p':>8} {'mean AR':>9} {'stdev':>7}")
        for flip_p in levels:
            values = [ar_macro(workdir, seed, flip_p) for seed in range(args.seeds)]
            stdev = statistics.stdev(values) if len(values) > 1 else 0.0
            print(f"{flip_p:>8.2f} {statistics.mean(values):>9.4f} {stdev:>7.4f}")


if __name__ == "__main__":
    main()
