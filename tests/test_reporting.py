import pytest

from sessionpipe.config import RunConfig
from sessionpipe.orchestrator import run
from sessionpipe.prompting import RefinementMode
from sessionpipe.reporting import render_markdown
from sessionpipe.simulator import SimConfig, generate_corpus


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    td = tmp_path_factory.mktemp("reporting")
    out = generate_corpus(SimConfig(seed=0, n_sessions=4), td / "sim", chunk_lens=(16,))
    cfg = RunConfig(
        corpus_dir=out.corpus_dir,
        taxonomy_path=out.taxonomy_path,
        report_dir=td / "report",
        fixtures_path=out.fixtures_path,
        modes=(RefinementMode.ZERO_SHOT, RefinementMode.MULTIMODAL),
        chunk_lens=(16,),
    )
    return run(cfg)


def test_one_table_row_per_configuration(report):
    markdown = render_markdown(report)
    assert "| Zero-shot |" in markdown
    assert "| Multimodal (16s) |" in markdown


def test_per_class_rows_follow_taxonomy_order(report):
    markdown = render_markdown(report)
    lines = [l for l in markdown.splitlines() if l.startswith("| ")]
    ordered = report["taxonomy_labels"]
    per_class_rows = [l.split("|")[1].strip() for l in lines if l.split("|")[1].strip() in ordered]
    # every per-class block lists all labels, in taxonomy order
    n_blocks = len(per_class_rows) // len(ordered)
    assert n_blocks >= 1
    assert per_class_rows == ordered * n_blocks


def test_metric_cells_formatted(report):
    markdown = render_markdown(report)
    row_line = next(l for l in markdown.splitlines() if l.startswith("| Multimodal"))
    assert "1.000" in row_line


def test_json_dict_lists_every_row(report):
    assert {row["mode"] for row in report["rows"]} == {"zero_shot", "multimodal"}
    assert report["schema_version"] == 1
