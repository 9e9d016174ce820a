import json

import pytest
from click.testing import CliRunner

from sessionpipe.backends import FixtureStore, write_jsonl
from sessionpipe.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def sim_tree(runner, tmp_path):
    result = runner.invoke(
        main,
        ["simulate", "--out", str(tmp_path / "sim"), "--seed", "0",
         "--n-sessions", "4", "--duration-s", "320", "--chunk-lens", "16"],
    )
    assert result.exit_code == 0, result.output
    return tmp_path / "sim"


def _run_args(sim_tree, tmp_path, **extra):
    args = [
        "run",
        "--corpus", str(sim_tree / "corpus"),
        "--taxonomy", str(sim_tree / "corpus" / "taxonomy.json"),
        "--report-dir", str(tmp_path / "report"),
        "--fixtures", str(sim_tree / "fixtures.jsonl"),
        "--modes", "multimodal",
        "--chunk-lens", "16",
    ]
    for key, value in extra.items():
        args.extend([key, value])
    return args


def _holey_run_args(sim_tree, tmp_path):
    # fixtures without sim-001's reasoner answers, so a run marks sim-001 invalid
    store = FixtureStore.load_jsonl(sim_tree / "fixtures.jsonl")
    kept = [r for r in store.records() if not (r["session_id"] == "sim-001" and r["role"] == "reasoner")]
    write_jsonl(tmp_path / "holey.jsonl", kept)
    return _run_args(sim_tree, tmp_path, **{"--fixtures": str(tmp_path / "holey.jsonl")})


def test_simulate_writes_tree(sim_tree):
    assert (sim_tree / "corpus" / "index.json").exists()
    assert (sim_tree / "corpus" / "taxonomy.json").exists()
    assert (sim_tree / "fixtures.jsonl").exists()


def test_run_writes_report(runner, sim_tree, tmp_path):
    result = runner.invoke(main, _run_args(sim_tree, tmp_path))
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["rows"][0]["metrics"]["activity_segmentation"] == 1.0
    # default cache location is inside the report dir
    assert (tmp_path / "report" / "cache" / "reasoner.jsonl").exists()


def test_run_exits_nonzero_on_invalid_session(runner, sim_tree, tmp_path):
    args = _holey_run_args(sim_tree, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "sim-001" in result.output

    result = runner.invoke(main, args + ["--allow-partial"])
    assert result.exit_code == 0


def test_evaluate_rescores_predictions(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--corpus", str(sim_tree / "corpus"),
            "--taxonomy", str(sim_tree / "corpus" / "taxonomy.json"),
            "--predictions", str(tmp_path / "report" / "predictions.jsonl"),
            "--report-dir", str(tmp_path / "rescored"),
        ],
    )
    assert result.exit_code == 0, result.output
    original = json.loads((tmp_path / "report" / "report.json").read_text())
    rescored = json.loads((tmp_path / "rescored" / "report.json").read_text())
    assert [r["metrics"] for r in rescored["rows"]] == [r["metrics"] for r in original["rows"]]


def test_evaluate_excluded_session_reproduces_run_rows(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _holey_run_args(sim_tree, tmp_path) + ["--allow-partial"]).exit_code == 0
    original = json.loads((tmp_path / "report" / "report.json").read_text())
    assert original["invalid_sessions"] == ["sim-001"]

    def rescored_rows(*extra):
        out = tmp_path / f"rescored{len(extra)}"
        result = runner.invoke(main, [
            "evaluate",
            "--corpus", str(sim_tree / "corpus"),
            "--taxonomy", str(sim_tree / "corpus" / "taxonomy.json"),
            "--predictions", str(tmp_path / "report" / "predictions.jsonl"),
            "--report-dir", str(out), *extra,
        ])
        assert result.exit_code == 0, result.output
        return json.loads((out / "report.json").read_text())["rows"]

    assert rescored_rows("--exclude-session", "sim-001") == original["rows"]
    assert rescored_rows() != original["rows"]  # sim-001 would be scored with no predictions


def test_report_rerenders_markdown(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    out_md = tmp_path / "again.md"
    result = runner.invoke(
        main,
        ["report", "--report-json", str(tmp_path / "report" / "report.json"), "--out", str(out_md)],
    )
    assert result.exit_code == 0, result.output
    assert out_md.read_text() == (tmp_path / "report" / "report.md").read_text()


@pytest.mark.parametrize(
    "option,value",
    [("--modes", "telepathy"), ("--modes", ""), ("--chunk-lens", "16,"), ("--chunk-lens", "32")],
)
def test_unknown_mode_rejected(runner, sim_tree, tmp_path, option, value):
    result = runner.invoke(main, _run_args(sim_tree, tmp_path, **{option: value}))
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("value", ["16,", "32"])
def test_simulate_rejects_bad_chunk_lens(runner, tmp_path, value):
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "sim"), "--chunk-lens", value])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "sim").exists()
