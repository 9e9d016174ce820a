import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sessionpipe
from sessionpipe import corpus
from sessionpipe.corpus import read_jsonl, write_jsonl
from sessionpipe.cli import main
from sessionpipe.orchestrator import JOURNAL_NAME


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
    kept = [r for r in read_jsonl(sim_tree / "fixtures.jsonl")
            if not (r["session_id"] == "sim-001" and r["role"] == "reasoner")]
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
    assert [p.name for p in (tmp_path / "report" / "cache").iterdir()] == [JOURNAL_NAME]


def test_run_refuses_an_older_cache_layout(runner, sim_tree, tmp_path):
    cache = tmp_path / "report" / "cache"
    cache.mkdir(parents=True)
    old = ["captions.jsonl", "reasoner.jsonl", "transcripts.jsonl"]
    for name in old:
        (cache / name).write_text('{"key": "k", "text": "t"}\n')
    result = runner.invoke(main, _run_args(sim_tree, tmp_path))
    assert result.exit_code != 0
    assert ", ".join(old) in result.output
    assert "remove them" in result.output
    assert sorted(p.name for p in cache.iterdir()) == old  # nothing deleted, nothing journaled
    assert not (tmp_path / "report" / "report.json").exists()


def test_run_names_a_damaged_journal_line(runner, sim_tree, tmp_path):
    args = _run_args(sim_tree, tmp_path)
    assert runner.invoke(main, args).exit_code == 0
    journal = tmp_path / "report" / "cache" / JOURNAL_NAME
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join([*lines[:2], b'{"key": "k", "te\n', *lines[3:]]))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"{journal}: line 3 is not a JSON object with a string key and text" in result.output
    assert "Traceback" not in result.output


def test_run_refuses_fixtures_without_a_key_field(runner, sim_tree, tmp_path):
    # fixtures simulated before the media reference and the frames were part of the key
    old = [{k: v for k, v in r.items() if k not in ("media_ref", "frame_timestamps_s")}
           for r in read_jsonl(sim_tree / "fixtures.jsonl")]
    write_jsonl(tmp_path / "old.jsonl", old)
    result = runner.invoke(main, _run_args(sim_tree, tmp_path, **{"--fixtures": str(tmp_path / "old.jsonl")}))
    assert result.exit_code == 2
    assert f"{tmp_path / 'old.jsonl'}: a fixture record has no 'media_ref'; simulate the fixtures again" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("endpoint,message", [
    ("localhost", "No scheme supplied"),
    ("localhost:8000", "No connection adapters were found"),  # parsed as the scheme "localhost"
    ("http://", "No host supplied"),
])
def test_run_rejects_an_endpoint_no_request_can_reach(runner, sim_tree, tmp_path, endpoint, message):
    args = _run_args(sim_tree, tmp_path)
    at = args.index("--fixtures")
    args[at:at + 2] = ["--endpoint", endpoint]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for --endpoint" in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report" / "cache").exists()


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_run_needs_either_fixtures_or_endpoint(runner, sim_tree, tmp_path, both):
    args = _run_args(sim_tree, tmp_path)
    if both:
        args += ["--endpoint", "http://127.0.0.1:1"]
    else:
        at = args.index("--fixtures")
        del args[at:at + 2]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--fixtures" in result.output and "--endpoint" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report").exists()


# (command, option, what it is given): a missing input, or an existing path of the wrong kind
PATH_CASES = [
    ("run", "--corpus", "absent"), ("run", "--taxonomy", "absent"), ("run", "--fixtures", "absent"),
    ("run", "--template-dir", "absent"),
    ("evaluate", "--corpus", "absent"), ("evaluate", "--taxonomy", "absent"), ("evaluate", "--predictions", "absent"),
    ("report", "--report-json", "absent"),
    ("run", "--report-dir", "file"), ("run", "--cache-dir", "file"), ("evaluate", "--report-dir", "file"),
    ("report", "--out", "directory"), ("simulate", "--out", "file"), ("report", "--out", "absent-parent"),
]
_PATH_MESSAGES = {"absent": "does not exist", "file": "is a file", "directory": "is a directory",
                  "absent-parent": "directory '{absent}' does not exist"}


@pytest.mark.parametrize("command,option,given", PATH_CASES,
                         ids=[f"{c}-{o}" + (f"-{g}" if g != "absent" else "") for c, o, g in PATH_CASES])
def test_a_missing_input_path_names_its_option(runner, sim_tree, tmp_path, command, option, given):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    if command == "run":
        args = _run_args(sim_tree, tmp_path / "again", **{"--template-dir": str(tmp_path),
                                                          "--cache-dir": str(tmp_path / "again" / "cache")})
    elif command == "report":
        args = ["report", "--report-json", str(tmp_path / "report" / "report.json"),
                "--out", str(tmp_path / "rescored")]
    elif command == "simulate":
        args = ["simulate", "--out", str(tmp_path / "again")]
    else:
        args = _evaluate_args(sim_tree, tmp_path / "report" / "predictions.jsonl", tmp_path / "rescored")
    wrong = {"absent": tmp_path / "absent", "file": tmp_path / "report" / "report.json", "directory": tmp_path,
             "absent-parent": tmp_path / "absent" / "again.md"}[given]
    args[args.index(option) + 1] = str(wrong)
    before = {p: p.read_bytes() for p in (tmp_path / "report").rglob("*") if p.is_file()}
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    message = _PATH_MESSAGES[given].format(absent=tmp_path / "absent")
    assert f"Invalid value for '{option}'" in result.output and message in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)  # no other exception
    assert not (tmp_path / "again").exists() and not (tmp_path / "rescored").exists()
    assert {p: p.read_bytes() for p in (tmp_path / "report").rglob("*") if p.is_file()} == before


def test_run_exits_nonzero_on_invalid_session(runner, sim_tree, tmp_path):
    args = _holey_run_args(sim_tree, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "sim-001" in result.output

    result = runner.invoke(main, args + ["--allow-partial"])
    assert result.exit_code == 0


def _evaluate_args(sim_tree, predictions, report_dir):
    return [
        "evaluate",
        "--corpus", str(sim_tree / "corpus"),
        "--taxonomy", str(sim_tree / "corpus" / "taxonomy.json"),
        "--predictions", str(predictions),
        "--report-dir", str(report_dir),
    ]


def test_evaluate_rescores_predictions(runner, sim_tree, tmp_path):
    run_args = _run_args(sim_tree, tmp_path, **{"--seed": "3", "--concurrency": "2",
                                                "--min-activity-duration-s": "48"})
    assert runner.invoke(main, run_args).exit_code == 0
    result = runner.invoke(main, _evaluate_args(sim_tree, tmp_path / "report" / "predictions.jsonl",
                                                tmp_path / "rescored"))
    assert result.exit_code == 0, result.output
    for name in ("report.json", "report.md", "predictions.jsonl"):
        assert (tmp_path / "rescored" / name).read_bytes() == (tmp_path / "report" / name).read_bytes()


def test_evaluate_with_no_flags_reproduces_the_holey_run(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _holey_run_args(sim_tree, tmp_path) + ["--allow-partial"]).exit_code == 0
    original = (tmp_path / "report" / "report.json").read_bytes()
    assert json.loads(original)["invalid_sessions"] == ["sim-001"]
    result = runner.invoke(main, _evaluate_args(sim_tree, tmp_path / "report" / "predictions.jsonl",
                                                tmp_path / "rescored"))
    assert result.exit_code == 0, result.output
    assert (tmp_path / "rescored" / "report.json").read_bytes() == original


def test_evaluate_needs_the_runs_report(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    alone = tmp_path / "alone" / "predictions.jsonl"
    alone.parent.mkdir()
    alone.write_bytes((tmp_path / "report" / "predictions.jsonl").read_bytes())
    result = runner.invoke(main, _evaluate_args(sim_tree, alone, tmp_path / "rescored"))
    assert result.exit_code == 2
    assert "report.json" in result.output
    assert not (tmp_path / "rescored").exists()


def test_evaluate_refuses_a_line_out_of_run_order(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    predictions = tmp_path / "report" / "predictions.jsonl"
    lines = predictions.read_bytes().splitlines(keepends=True)
    lines[4], lines[5] = lines[5], lines[4]  # windows 4 and 5 of sim-000's first group
    predictions.write_bytes(b"".join(lines))
    result = runner.invoke(main, _evaluate_args(sim_tree, predictions, tmp_path / "rescored"))
    assert result.exit_code == 2
    assert (f"Error: {predictions}: line 6 is out of run order: multimodal/16/activity_recognition: "
            "window 4 of session sim-000 comes after window 5") in result.output
    assert "Traceback" not in result.output
    assert list((tmp_path / "rescored").iterdir()) == []  # no report, and no spill file left behind


def _changed(line, *dropped, **changes):
    """A predictions.jsonl line with fields dropped and changed."""
    return json.dumps({**{k: v for k, v in json.loads(line).items() if k not in dropped}, **changes})


@pytest.mark.parametrize("damage,message", [
    (lambda line: line[:45], "is not a prediction: "),  # cut short: not JSON
    (lambda line: line.replace('"task": "activity_recognition"', '"task": "bogus"'),
     "is not a prediction: 'bogus' is not a valid TaskKind"),
    (lambda line: line.replace('"label": ', '"lable": '), "has no field 'label'"),
    (lambda line: "[]", "is not a prediction: "),
    (lambda line: _changed(line, task="activity_segmentation", label="juggling", tier="exact"),
     "is not a prediction: label 'juggling' is not in taxonomy "),
    (lambda line: _changed(line, "label", "tier", task="e1_overactivity", presence="yes"),
     "is not a prediction: presence 'yes' is not true, false or null"),
    (lambda line: _changed(line, label=7), "is not a prediction: label 7 is not a string or null"),
    (lambda line: _changed(line, unit_index="0"), "is not a prediction: unit_index '0' is not an integer"),
    (lambda line: _changed(line, label=None, tier="exact"),
     "is not a prediction: label None with tier exact: the label is null iff the tier is unknown"),
    (lambda line: _changed(line, note="hand-edited"), "is not a prediction: unknown field note"),
    (lambda line: _changed(line, end_s=float("nan")),
     "is not a prediction: start_s 32.0 and end_s nan are not a window"),
    (lambda line: _changed(line, mode="zero_shot"),
     "is not a prediction: chunk_len_s 16 with mode zero_shot: a positive integer iff the mode reads a transcript"),
    (lambda line: _changed(line, chunk_len_s=None),
     "is not a prediction: chunk_len_s None with mode multimodal: a positive integer iff the mode reads a transcript"),
    (lambda line: _changed(line, chunk_len_s=0),
     "is not a prediction: chunk_len_s 0 with mode multimodal: a positive integer iff the mode reads a transcript"),
], ids=["not_json", "unknown_task", "missing_field", "not_an_object", "segmentation_label_not_in_taxonomy",
        "presence_yes", "label_7", "unit_index_a_string", "exact_tier_null_label",
        "extra_field", "end_s_nan", "zero_shot_with_a_chunk_length", "multimodal_without_one",
        "chunk_length_zero"])
def test_evaluate_names_a_line_that_is_not_a_prediction(runner, sim_tree, tmp_path, damage, message):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    predictions = tmp_path / "report" / "predictions.jsonl"
    lines = predictions.read_text(encoding="utf-8").splitlines()
    lines[2] = damage(lines[2])
    predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, _evaluate_args(sim_tree, predictions, tmp_path / "rescored"))
    assert result.exit_code == 2
    assert f"Error: {predictions}: line 3 {message}" in result.output
    assert "Traceback" not in result.output
    assert list((tmp_path / "rescored").iterdir()) == []


def _with_config(text, **changes):
    doc = json.loads(text)
    doc["config"] = {k: v for k, v in {**doc["config"], **changes}.items() if v is not None}
    return json.dumps(doc)


def _with_row(text, **changes):
    doc = json.loads(text)
    doc["rows"][0].update(changes)
    return json.dumps(doc)


BAD_RUN_REPORTS = pytest.mark.parametrize("damage,message", [
    (lambda text: text[:40], "not a run's report: "),  # cut short: not JSON
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
     "not a run's report: no config"),
    (lambda text: '{"rows": []}',
     "not a run's report: no schema_version, backend_id, taxonomy, taxonomy_labels, config, invalid_sessions, "
     "failures"),
    (lambda text: _with_config(text, modes=None), "not a run's report: its config has no modes"),
    (lambda text: _with_config(text, modes=["telepathy"]),
     "not a run's report: 'telepathy' is not a valid RefinementMode"),
    (lambda text: _with_config(text, tasks=["juggling"]), "not a run's report: 'juggling' is not a valid TaskKind"),
    (lambda text: _with_config(text, chunk_lens=["16"]),
     "not a run's report: chunk length must be one of (16, 64), got '16'"),
    (lambda text: _with_config(text, min_activity_duration_s="90"),
     "not a run's report: min_activity_duration_s '90' is not a number"),
    (lambda text: text.replace('"config": {', '"config": 5, "unused": {', 1), "not a run's report: "),
    (lambda text: json.dumps({**json.loads(text), "rows": [{}]}),
     "not a run's report: row 1 is not an object with mode, chunk_len_s, metrics and per_class"),
    (lambda text: _with_row(text, mode="telepathy"),
     "not a run's report: row 1: 'telepathy' is not a valid RefinementMode"),
    (lambda text: _with_row(text, chunk_len_s="16"),
     "not a run's report: row 1: chunk_len_s '16' with mode multimodal: a positive integer iff the mode reads a "
     "transcript"),
    (lambda text: _with_row(text, mode="zero_shot"),
     "not a run's report: row 1: chunk_len_s 16 with mode zero_shot: a positive integer iff the mode reads a "
     "transcript"),
    (lambda text: _with_row(text, metrics={"e1_overactivity": "0.5"}),
     "not a run's report: row 1: metrics is not an object of numbers or nulls"),
    (lambda text: _with_row(text, metrics=[]),
     "not a run's report: row 1: metrics is not an object of numbers or nulls"),
    (lambda text: _with_row(text, per_class={"activity_recognition": {"toy play": None}}),
     "not a run's report: row 1: per_class is not an object of objects of numbers"),
    (lambda text: _with_row(text, per_class={"activity_recognition": [0.5]}),
     "not a run's report: row 1: per_class is not an object of objects of numbers"),
], ids=["torn", "no_config", "rows_only", "no_modes", "unknown_mode", "unknown_task", "chunk_len_not_a_number",
        "threshold_not_a_number", "config_not_an_object", "empty_row", "row_mode_unknown", "row_chunk_len_a_string",
        "row_chunk_len_without_a_transcript", "row_metric_a_string", "row_metrics_not_an_object",
        "row_per_class_null", "row_per_class_not_objects"])


@BAD_RUN_REPORTS
def test_evaluate_names_a_run_report_it_cannot_read(runner, sim_tree, tmp_path, damage, message):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    run_report = tmp_path / "report" / "report.json"
    run_report.write_text(damage(run_report.read_text(encoding="utf-8")), encoding="utf-8")
    result = runner.invoke(main, _evaluate_args(sim_tree, tmp_path / "report" / "predictions.jsonl",
                                                tmp_path / "rescored"))
    assert result.exit_code == 2
    assert f"Error: {run_report}: {message}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "rescored").exists()


@BAD_RUN_REPORTS
def test_report_names_a_run_report_it_cannot_read(runner, sim_tree, tmp_path, damage, message):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    run_report = tmp_path / "report" / "report.json"
    run_report.write_text(damage(run_report.read_text(encoding="utf-8")), encoding="utf-8")
    result = runner.invoke(main, ["report", "--report-json", str(run_report), "--out", str(tmp_path / "again.md")])
    assert result.exit_code == 2
    assert f"Error: {run_report}: {message}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "again.md").exists()


def test_a_report_write_that_fails_partway_leaves_the_previous_report(runner, sim_tree, tmp_path, monkeypatch):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    report_dir = tmp_path / "report"
    before = {p.name: p.read_bytes() for p in report_dir.iterdir() if p.is_file()}

    def disk_full_midway(file, *args, **kwargs):  # report.json's text stops halfway, as on a full disk
        fh = open(file, *args, **kwargs)
        if Path(file).name.startswith("report.json"):
            write = fh.write

            def half(text):
                write(text[:len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = half
        return fh

    monkeypatch.setattr(corpus, "open", disk_full_midway, raising=False)
    rerun = runner.invoke(main, _run_args(sim_tree, tmp_path, **{"--min-activity-duration-s": "48"}))
    assert isinstance(rerun.exception, OSError) and rerun.exception.errno == errno.ENOSPC
    assert {p.name: p.read_bytes() for p in report_dir.iterdir() if p.is_file()} == before


def test_evaluate_takes_the_groups_in_any_order(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    run_dir = tmp_path / "report"
    lines = (run_dir / "predictions.jsonl").read_bytes().splitlines(keepends=True)
    first = sum(json.loads(line)["task"] == "activity_recognition" for line in lines)  # the first group
    shuffled = tmp_path / "shuffled" / "predictions.jsonl"
    shuffled.parent.mkdir()
    shuffled.write_bytes(b"".join(lines[first:] + lines[:first]))
    (shuffled.parent / "report.json").write_bytes((run_dir / "report.json").read_bytes())
    result = runner.invoke(main, _evaluate_args(sim_tree, shuffled, tmp_path / "rescored"))
    assert result.exit_code == 0, result.output
    for name in ("report.json", "report.md", "predictions.jsonl"):
        assert (tmp_path / "rescored" / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_evaluate_takes_no_scoring_options(runner):
    help_text = runner.invoke(main, ["evaluate", "--help"]).output
    assert "--exclude-session" not in help_text
    assert "--min-activity-duration-s" not in help_text


def test_report_rerenders_markdown(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    out_md = tmp_path / "again.md"
    result = runner.invoke(
        main,
        ["report", "--report-json", str(tmp_path / "report" / "report.json"), "--out", str(out_md)],
    )
    assert result.exit_code == 0, result.output
    assert out_md.read_text() == (tmp_path / "report" / "report.md").read_text()


BAD_RUN_OPTIONS = [
    ("--modes", "telepathy", "unknown mode 'telepathy'"),
    ("--modes", "", "need at least one mode"),
    ("--chunk-lens", "16,", "invalid literal for int()"),
    ("--chunk-lens", "32", "chunk length must be one of (16, 64), got 32"),
    # out of range: each names its option, before any request
    ("--window-s", "0", "Invalid value for --window-s: window_s must be > 0, not 0.0"),
    ("--fps", "-1", "Invalid value for --fps: fps must be > 0, not -1.0"),
    ("--failure-threshold", "-0.1", "Invalid value for --failure-threshold: failure_threshold must be in [0, 1]"),
    ("--failure-threshold", "1.5", "Invalid value for --failure-threshold: failure_threshold must be in [0, 1]"),
    ("--failure-threshold", "nan", "Invalid value for --failure-threshold: failure_threshold must be in [0, 1]"),
    ("--min-activity-duration-s", "-1", "Invalid value for --min-activity-duration-s: "
                                        "min_activity_duration_s must be >= 0, not -1.0"),
    # not finite: inf is refused, and NaN too
    ("--window-s", "inf", "Invalid value for --window-s: window_s must be finite, not inf"),
    ("--window-s", "nan", "Invalid value for --window-s: window_s must be > 0, not nan"),
    ("--fps", "inf", "Invalid value for --fps: fps must be finite, not inf"),
    ("--fps", "nan", "Invalid value for --fps: fps must be > 0, not nan"),
    ("--min-activity-duration-s", "inf", "Invalid value for --min-activity-duration-s: "
                                         "min_activity_duration_s must be finite, not inf"),
    ("--min-activity-duration-s", "nan", "Invalid value for --min-activity-duration-s: "
                                         "min_activity_duration_s must be >= 0, not nan"),
    ("--concurrency", "0", "Invalid value for --concurrency: concurrency must be >= 1, not 0"),
]


@pytest.mark.parametrize("option,value,message", BAD_RUN_OPTIONS,
                         ids=[f"{option}-{value}" for option, value, _ in BAD_RUN_OPTIONS])
def test_unknown_mode_rejected(runner, sim_tree, tmp_path, option, value, message):
    result = runner.invoke(main, _run_args(sim_tree, tmp_path, **{option: value}))
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("value", ["16,", "32"])
def test_simulate_rejects_bad_chunk_lens(runner, tmp_path, value):
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "sim"), "--chunk-lens", value])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "sim").exists()


BAD_SIMULATE_OPTIONS = [
    ("--duration-s", "0", "Invalid value for --duration-s: duration_s must be finite and > 0, not 0.0"),
    ("--duration-s", "inf", "Invalid value for --duration-s: duration_s must be finite and > 0, not inf"),
    ("--duration-s", "nan", "Invalid value for --duration-s: duration_s must be finite and > 0, not nan"),
    ("--n-sessions", "0", "Invalid value for --n-sessions: n_sessions must be >= 1, not 0"),
    ("--caption-flip-p", "nan", "Invalid value for --caption-flip-p: caption_flip_p must be in [0, 1], not nan"),
]


@pytest.mark.parametrize("option,value,message", BAD_SIMULATE_OPTIONS,
                         ids=[f"{option}-{value}" for option, value, _ in BAD_SIMULATE_OPTIONS])
def test_simulate_names_an_option_out_of_range(runner, tmp_path, option, value, message):
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "sim"), option, value])
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "sim").exists()


# what only a run loads: the HTTP client, the thread pool, the run engine and the simulator
_RUN_ONLY_MODULES = ("requests", "http.client", "ssl", "concurrent.futures",
                     "sessionpipe.backends", "sessionpipe.orchestrator", "sessionpipe.simulator")
# what only a run loads of that, beyond the simulator and the fixture server
_HTTP_RUN_MODULES = ("requests", "sessionpipe.http_backend", "sessionpipe.orchestrator", "concurrent.futures")
_PROBE = """
import sys
{load}
print(" ".join(name for name in {modules!r} if name in sys.modules) or "none")
"""
_CLI = """from sessionpipe.cli import main
try:
    main(sys.argv[1:], prog_name="sessionpipe")
except SystemExit as exc:
    assert not exc.code, exc.code"""


def _loaded(load: str, modules: tuple[str, ...], *args: str) -> str:
    """Which of ``modules`` a fresh interpreter holds after running ``load`` with ``args``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(sessionpipe.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = subprocess.run([sys.executable, "-c", _PROBE.format(load=load, modules=modules), *args],
                           capture_output=True, text=True, env=env)
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.splitlines()[-1]


def test_evaluate_report_and_help_load_no_run_code(runner, sim_tree, tmp_path):
    assert runner.invoke(main, _run_args(sim_tree, tmp_path)).exit_code == 0
    report_json = tmp_path / "report" / "report.json"
    for args in (_evaluate_args(sim_tree, tmp_path / "report" / "predictions.jsonl", tmp_path / "rescored"),
                 ["report", "--report-json", str(report_json), "--out", str(tmp_path / "again.md")],
                 ["--help"]):
        assert _loaded(_CLI, _RUN_ONLY_MODULES, *args) == "none", args[0]
    assert (tmp_path / "rescored" / "report.json").read_bytes() == report_json.read_bytes()


def test_simulate_and_the_fixture_server_load_no_http_client(tmp_path):
    args = ["simulate", "--out", str(tmp_path / "sim"), "--n-sessions", "1", "--duration-s", "64"]
    assert _loaded(_CLI, _HTTP_RUN_MODULES, *args) == "none"
    assert (tmp_path / "sim" / "fixtures.jsonl").is_file()
    assert _loaded("import sessionpipe.fixture_server", _HTTP_RUN_MODULES) == "none"


def test_the_names_the_benchmark_tracer_wraps_resolve():
    """perfbench/traced_cli.py wraps these by name: a move breaks this test, not only its traced smoke run."""
    from sessionpipe import backends, http_backend, orchestrator, prompting

    assert _loaded("import sessionpipe.backends", ("requests", "sessionpipe.http_backend")) == "none"
    assert backends.HttpChatBackend is http_backend.HttpChatBackend
    assert orchestrator.build_task_prompt is prompting.build_task_prompt
