"""Metamorphic properties of a run's outputs.

Re-scoring a run with ``evaluate``, reordering the corpus index, sending
the requests on a thread pool of any size and running the corpus in two parts
must each leave the outputs as they were. Each property draws small corpora
(at most three sessions of at most 64 s) and drops a drawn share of the
fixture records, so that runs also meet failed requests and invalid sessions.
The last test checks that a run holds no predictions when scoring starts.
"""

import dataclasses
import gc
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpipe import orchestrator
from sessionpipe.backends import Backend, FixtureStore, MockBackend
from sessionpipe.cli import main
from sessionpipe.config import RunConfig
from sessionpipe.corpus import TaskKind, load_corpus, load_taxonomy, read_jsonl, write_corpus, write_jsonl
from sessionpipe.orchestrator import run
from sessionpipe.parsing import ParsedLabel
from sessionpipe.prompting import RefinementMode
from sessionpipe.simulator import NoiseSpec, SimConfig, generate_corpus
from sessionpipe.windowing import SUPPORTED_CHUNK_LENGTHS

SWEEP = st.fixed_dictionaries(
    {
        "sim_seed": st.integers(min_value=0, max_value=2**16),
        "n_sessions": st.integers(min_value=1, max_value=3),
        "duration_s": st.integers(min_value=8, max_value=64),
        "modes": st.sets(st.sampled_from(RefinementMode), min_size=1),
        "tasks": st.sets(st.sampled_from(TaskKind), min_size=1),
        "chunk_lens": st.sets(st.sampled_from(SUPPORTED_CHUNK_LENGTHS), min_size=1),
        "drop_share": st.sampled_from([0.0, 0.03, 0.3]),
        "rnd": st.randoms(use_true_random=False),
    }
)


def _simulate(td: Path, sweep: dict):
    """The sweep's simulated corpus, and a fixture file without a drawn share of its records."""
    out = generate_corpus(
        SimConfig(seed=sweep["sim_seed"], n_sessions=sweep["n_sessions"],
                  duration_s=float(sweep["duration_s"]),
                  noise=NoiseSpec(caption_flip_p=0.2, transcript_drop_p=0.1, reasoner_flip_p=0.1)),
        td / "sim", tasks=tuple(sweep["tasks"]), modes=tuple(sweep["modes"]),
        chunk_lens=tuple(sweep["chunk_lens"]),
    )
    fixtures = td / "fixtures.jsonl"
    kept = [r for r in read_jsonl(out.fixtures_path) if sweep["rnd"].random() >= sweep["drop_share"]]
    write_jsonl(fixtures, kept)
    return out, fixtures


def _run(out, fixtures: Path, sweep: dict, report_dir: Path, backend: Backend | None = None, **cfg) -> None:
    run(RunConfig(corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path, report_dir=report_dir,
                  cache_dir=report_dir / "cache", fixtures_path=fixtures, modes=tuple(sweep["modes"]),
                  tasks=tuple(sweep["tasks"]), chunk_lens=tuple(sweep["chunk_lens"]), **cfg), backend)


@given(sweep=SWEEP, run_seed=st.integers(min_value=0, max_value=2**31),
       min_activity_s=st.floats(min_value=0.0, max_value=128.0))
@settings(max_examples=10, deadline=None)
def test_evaluate_reproduces_the_run(sweep, run_seed, min_activity_s):
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        out, fixtures = _simulate(td, sweep)
        corpus = ["--corpus", str(out.corpus_dir), "--taxonomy", str(out.taxonomy_path)]
        runner = CliRunner()
        result = runner.invoke(main, [
            "run", *corpus, "--report-dir", str(td / "run"), "--fixtures", str(fixtures),
            "--modes", ",".join(m.value for m in sweep["modes"]),
            "--tasks", ",".join(t.value for t in sweep["tasks"]),
            "--chunk-lens", ",".join(map(str, sweep["chunk_lens"])),
            "--seed", str(run_seed), "--min-activity-duration-s", repr(min_activity_s), "--allow-partial",
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["evaluate", *corpus, "--predictions", str(td / "run" / "predictions.jsonl"),
                                      "--report-dir", str(td / "rescored")])
        assert result.exit_code == 0, result.output
        for name in ("report.json", "report.md", "predictions.jsonl"):
            assert (td / "rescored" / name).read_bytes() == (td / "run" / name).read_bytes(), name


@given(sweep=SWEEP, data=st.data())
@settings(max_examples=10, deadline=None)
def test_corpus_index_order_leaves_the_outputs_unchanged(sweep, data):
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        out, fixtures = _simulate(td, sweep)
        _run(out, fixtures, sweep, td / "indexed")
        index = out.corpus_dir / "index.json"
        doc = json.loads(index.read_text(encoding="utf-8"))
        doc["sessions"] = data.draw(st.permutations(doc["sessions"]))
        index.write_text(json.dumps(doc), encoding="utf-8")
        _run(out, fixtures, sweep, td / "permuted")
        for name in ("report.json", "predictions.jsonl"):
            assert (td / "permuted" / name).read_bytes() == (td / "indexed" / name).read_bytes(), name


class ThreadPoolMock(Backend):
    """The mock's answers, sent as a remote backend's are: on the run's thread pool."""

    def __init__(self, fixtures: Path):
        self._inner = MockBackend(FixtureStore.load_jsonl(fixtures))
        self.backend_id = self._inner.backend_id

    def complete(self, request):
        return self._inner.complete(request)


@given(sweep=SWEEP, concurrency=st.integers(min_value=1, max_value=8))
@settings(max_examples=10, deadline=None)
def test_concurrency_leaves_the_outputs_unchanged(sweep, concurrency):
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        out, fixtures = _simulate(td, sweep)
        inline, pooled = td / "inline", td / "pooled"
        _run(out, fixtures, sweep, inline, concurrency=1)
        _run(out, fixtures, sweep, pooled, backend=ThreadPoolMock(fixtures), concurrency=concurrency)
        assert (pooled / "predictions.jsonl").read_bytes() == (inline / "predictions.jsonl").read_bytes()
        expected, got = (json.loads((d / "report.json").read_text(encoding="utf-8")) for d in (inline, pooled))
        assert got["config"].pop("concurrency") == concurrency
        del expected["config"]["concurrency"]
        assert got == expected


@given(sweep=SWEEP.filter(lambda sweep: sweep["n_sessions"] > 1), data=st.data())
@settings(max_examples=10, deadline=None)
def test_a_corpus_run_in_two_parts_scores_as_one_run(sweep, data):
    # the parts' predictions, one file after the other, are in run order within each group
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        out, fixtures = _simulate(td, sweep)
        whole = td / "whole"
        _run(out, fixtures, sweep, whole)
        manifests = load_corpus(out.corpus_dir, load_taxonomy(out.taxonomy_path))
        cut = data.draw(st.integers(min_value=1, max_value=len(manifests) - 1), label="cut")
        merged = td / "merged" / "predictions.jsonl"
        merged.parent.mkdir()
        with open(merged, "wb") as fh:
            for name, part in (("first", manifests[:cut]), ("rest", manifests[cut:])):
                corpus_dir = write_corpus(part, td / name / "corpus")
                _run(dataclasses.replace(out, corpus_dir=corpus_dir), fixtures, sweep, td / name)
                fh.write((td / name / "predictions.jsonl").read_bytes())
        (merged.parent / "report.json").write_bytes((whole / "report.json").read_bytes())
        result = CliRunner().invoke(main, [
            "evaluate", "--corpus", str(out.corpus_dir), "--taxonomy", str(out.taxonomy_path),
            "--predictions", str(merged), "--report-dir", str(td / "rescored"),
        ])
        assert result.exit_code == 0, result.output
        for name in ("report.json", "report.md", "predictions.jsonl"):
            assert (td / "rescored" / name).read_bytes() == (whole / name).read_bytes(), name


def test_the_predictions_held_when_scoring_starts_do_not_grow_with_the_corpus(tmp_path, monkeypatch):
    live = {}
    evaluate_predictions = orchestrator.evaluate_predictions

    def counting(manifests, *args):
        tracked = gc.get_objects()
        # a record of strings, numbers and None is not tracked itself: look in what holds it
        records = [o for o in gc.get_referents(*tracked) if type(o) is dict and "cache_key" in o]
        live[len(manifests)] = len(records) + sum(isinstance(o, ParsedLabel) for o in tracked)
        return evaluate_predictions(manifests, *args)

    monkeypatch.setattr(orchestrator, "evaluate_predictions", counting)
    for n_sessions in (2, 6):
        out = generate_corpus(SimConfig(seed=5, n_sessions=n_sessions, duration_s=64.0), tmp_path / f"sim{n_sessions}")
        run(RunConfig(corpus_dir=out.corpus_dir, taxonomy_path=out.taxonomy_path,
                      report_dir=tmp_path / f"run{n_sessions}", fixtures_path=out.fixtures_path))
    written = sum(1 for _ in read_jsonl(tmp_path / "run2" / "predictions.jsonl"))
    assert live[2] < written and live[6] <= live[2]
