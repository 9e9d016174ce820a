"""Command-line entry points: simulate, run, evaluate, report."""

from __future__ import annotations

import json
import sys
from contextlib import closing
from dataclasses import fields
from pathlib import Path

import click

from . import scoring, windowing
from .config import BadSettingError, NoiseSpec, RunConfig, SimConfig
from .corpus import TaskKind, load_corpus, load_taxonomy, replacing
from .prompting import RefinementMode, check_chunk_len

_MODE_CHOICES = [m.value for m in RefinementMode]
_TASK_CHOICES = [t.value for t in TaskKind]
# inputs that must exist: a missing one exits 2 with a message naming its option
_EXISTING_DIR = click.Path(exists=True, file_okay=False, path_type=Path)
_EXISTING_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
# outputs: a path of the wrong kind exits 2 naming its option; the metavar stays PATH
_OUT_DIR = click.Path(file_okay=False, path_type=Path)
_OUT_FILE = click.Path(dir_okay=False, path_type=Path)
# what a run's report.json holds, and what of its config evaluate_predictions reads
_REPORT_KEYS = ("schema_version", "backend_id", "taxonomy", "taxonomy_labels", "config", "rows",
                "invalid_sessions", "failures")
_SCORING_KEYS = ("modes", "tasks", "chunk_lens", "min_activity_duration_s")


@click.group()
def main():
    """Session analysis pipeline over pluggable model backends."""


@main.command()
@click.option("--out", "out_dir", type=_OUT_DIR, metavar="PATH", required=True,
              help="Output directory for corpus/ and fixtures.jsonl.")
@click.option("--seed", type=int, default=SimConfig.seed, show_default=True)
@click.option("--n-sessions", type=int, default=SimConfig.n_sessions, show_default=True)
@click.option("--duration-s", type=float, default=SimConfig.duration_s, show_default=True)
@click.option("--caption-flip-p", type=float, default=NoiseSpec.caption_flip_p, show_default=True)
@click.option("--transcript-drop-p", type=float, default=NoiseSpec.transcript_drop_p, show_default=True)
@click.option("--reasoner-flip-p", type=float, default=NoiseSpec.reasoner_flip_p, show_default=True)
@click.option("--chunk-lens", default=",".join(map(str, windowing.SUPPORTED_CHUNK_LENGTHS)), show_default=True,
              help="Comma-separated transcript chunk lengths to cover.")
def simulate(out_dir, chunk_lens, **options):
    """Generate a synthetic corpus plus matching backend fixtures."""
    from . import simulator

    try:  # every other option's dest is a NoiseSpec or a SimConfig field
        noise = NoiseSpec(**{f.name: options.pop(f.name) for f in fields(NoiseSpec)})
        cfg = SimConfig(noise=noise, **options)
        lens = tuple(int(x) for x in chunk_lens.split(","))
        windowing.check_chunk_lengths(lens)
    except ValueError as exc:
        raise _usage_error(exc) from None
    out = simulator.generate_corpus(cfg, out_dir, chunk_lens=lens)
    click.echo(f"corpus:   {out.corpus_dir}")
    click.echo(f"taxonomy: {out.taxonomy_path}")
    click.echo(f"fixtures: {out.fixtures_path}")


def _usage_error(exc: ValueError) -> click.BadParameter:
    """A refused option value as a usage error (exit 2), naming the option when it is a BadSettingError's."""
    hint = f"--{exc.field.replace('_', '-')}" if isinstance(exc, BadSettingError) else None
    return click.BadParameter(str(exc), param_hint=hint)


def _parse_multi(value: str, choices: list[str], what: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in value.split(",") if p.strip())
    for part in parts:
        if part not in choices:
            raise click.BadParameter(f"unknown {what} '{part}' (choices: {', '.join(choices)})")
    return parts


@main.command(name="run")
@click.option("--corpus", "corpus_dir", type=_EXISTING_DIR, required=True)
@click.option("--taxonomy", "taxonomy_path", type=_EXISTING_FILE, required=True)
@click.option("--report-dir", type=_OUT_DIR, metavar="PATH", required=True)
@click.option("--cache-dir", type=_OUT_DIR, metavar="PATH", default=None,
              help="Defaults to REPORT_DIR/cache.")
@click.option("--fixtures", "fixtures_path", type=_EXISTING_FILE, default=None,
              help="Fixture JSONL for the deterministic mock backend.")
@click.option("--endpoint", default=None, help="Base URL of a chat-completions server.")
@click.option("--model", default=RunConfig.model, show_default=True)
@click.option("--api-key", default=None)
@click.option("--modes", default=",".join(_MODE_CHOICES), show_default=True)
@click.option("--tasks", default=",".join(_TASK_CHOICES), show_default=True)
@click.option("--chunk-lens", default=",".join(map(str, RunConfig.chunk_lens)), show_default=True)
@click.option("--concurrency", type=int, default=RunConfig.concurrency, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--window-s", type=float, default=RunConfig.window_s, show_default=True)
@click.option("--fps", type=float, default=RunConfig.fps, show_default=True)
@click.option("--min-activity-duration-s", type=float, default=RunConfig.min_activity_duration_s, show_default=True)
@click.option("--failure-threshold", type=float, default=RunConfig.failure_threshold, show_default=True)
@click.option("--allow-partial", is_flag=True,
              help="Exit zero even when sessions were marked invalid.")
@click.option("--template-dir", type=_EXISTING_DIR, default=None)
def run_command(modes, tasks, chunk_lens, allow_partial, **options):
    """Run extraction, refinement, aggregation, and evaluation."""
    from . import orchestrator
    from .backends import EndpointError, FixtureFileError

    try:  # every other option's dest is a RunConfig field
        cfg = RunConfig(
            modes=tuple(RefinementMode(m) for m in _parse_multi(modes, _MODE_CHOICES, "mode")),
            tasks=tuple(TaskKind(t) for t in _parse_multi(tasks, _TASK_CHOICES, "task")),
            chunk_lens=tuple(int(x) for x in chunk_lens.split(",")),
            **options,
        )
    except ValueError as exc:  # RunConfig rejects bad option values
        raise _usage_error(exc) from None
    try:
        report = orchestrator.run(cfg)
    except (orchestrator.DamagedJournalError, orchestrator.OldCacheLayoutError, FixtureFileError) as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(2)
    except EndpointError as exc:
        raise click.BadParameter(str(exc), param_hint="--endpoint") from None
    click.echo(f"report written to {cfg.report_dir}")
    if report["invalid_sessions"]:
        click.echo(f"invalid sessions: {', '.join(report['invalid_sessions'])}", err=True)
        if not allow_partial:
            sys.exit(1)


@main.command()
@click.option("--corpus", "corpus_dir", type=_EXISTING_DIR, required=True)
@click.option("--taxonomy", "taxonomy_path", type=_EXISTING_FILE, required=True)
@click.option("--predictions", "predictions_path", type=_EXISTING_FILE, required=True)
@click.option("--report-dir", type=_OUT_DIR, metavar="PATH", required=True)
def evaluate(corpus_dir, taxonomy_path, predictions_path, report_dir):
    """Re-score a run's predictions without touching any backend.

    The run's report.json next to the predictions says how they are scored:
    modes, tasks, chunk lengths, the activity duration threshold and the
    invalid sessions. The outputs equal the run's. Within each (mode, chunk
    length, task) group the lines must be in run order, by session and then
    window, as a run writes them. A line out of that order, or one that is not
    a prediction record, exits 2.
    """
    run_report = predictions_path.parent / "report.json"
    if not run_report.is_file():
        raise click.BadParameter(f"no report.json next to {predictions_path}", param_hint="--predictions")
    run_info = _read_run_report(run_report)
    taxonomy = load_taxonomy(taxonomy_path)
    manifests = load_corpus(corpus_dir, taxonomy)
    with closing(scoring.Scorer(manifests, report_dir)) as scorer:
        try:
            scorer.read(predictions_path, taxonomy)
        except scoring.BadPredictionsError as exc:  # not a prediction, or out of run order
            click.echo(f"Error: {exc}", err=True)
            sys.exit(2)
        report = scoring.evaluate_predictions(manifests, taxonomy, scorer, run_info)
        scoring.write_report_files(report, scorer, report_dir)
    click.echo(f"report written to {report_dir}")


def _check_row(row: dict) -> None:
    check_chunk_len(RefinementMode(row["mode"]), row["chunk_len_s"])
    metrics, per_class = row["metrics"], row["per_class"]
    if not isinstance(metrics, dict) or any(type(v) not in (int, float, type(None)) for v in metrics.values()):
        raise ValueError("metrics is not an object of numbers or nulls")
    if not isinstance(per_class, dict) or any(
            not isinstance(scores, dict) or any(type(v) not in (int, float) for v in scores.values())
            for scores in per_class.values()):
        raise ValueError("per_class is not an object of objects of numbers")


def _read_run_report(path: Path) -> dict:
    """A run's report.json, with every top-level key, the scoring settings of its
    config and the values report.md reads of each row; anything else exits 2, naming the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        if missing := [key for key in _REPORT_KEYS if key not in doc]:
            raise ValueError(f"no {', '.join(missing)}")
        config = doc["config"]
        if missing := [key for key in _SCORING_KEYS if key not in config]:
            raise ValueError(f"its config has no {', '.join(missing)}")
        for mode in config["modes"]:
            RefinementMode(mode)
        for task in config["tasks"]:
            TaskKind(task)
        windowing.check_chunk_lengths(config["chunk_lens"])
        if type(config["min_activity_duration_s"]) not in (int, float):
            raise ValueError(f"min_activity_duration_s {config['min_activity_duration_s']!r} is not a number")
        for number, row in enumerate(doc["rows"], 1):
            if not isinstance(row, dict) or not {"mode", "chunk_len_s", "metrics", "per_class"} <= row.keys():
                raise ValueError(f"row {number} is not an object with mode, chunk_len_s, metrics and per_class")
            try:
                _check_row(row)
            except ValueError as exc:
                raise ValueError(f"row {number}: {exc}") from None
    except (ValueError, TypeError) as exc:  # also a file that is not UTF-8, or a config that is no object
        click.echo(f"Error: {path}: not a run's report: {exc}", err=True)
        sys.exit(2)
    return doc


def _in_existing_dir(ctx, param, path: Path | None) -> Path | None:
    """An output file is written beside itself and renamed into place, so its directory must exist."""
    if path is not None and not path.parent.is_dir():
        raise click.BadParameter(f"directory '{path.parent}' does not exist")
    return path


@main.command(name="report")
@click.option("--report-json", type=_EXISTING_FILE, required=True)
@click.option("--out", "out_path", type=_OUT_FILE, metavar="PATH", default=None, callback=_in_existing_dir,
              help="Markdown output path; defaults next to report.json.")
def report_command(report_json, out_path):
    """Re-render report.md from an existing report.json."""
    from .reporting import render_markdown

    doc = _read_run_report(report_json)
    out_path = out_path if out_path is not None else report_json.with_name("report.md")
    with replacing(out_path) as fh:
        fh.write(render_markdown(doc))
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
