"""Tests for the benchmark: span analysis, tracer parenting, smoke runs, lifecycle."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run as bench
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_union_of_overlapping_pool_children():
    spans = [
        ("orchestrator.run", 0.0, 10.0, 1, 0, 100),
        # two pool threads overlap on [3, 5]; the union they cover is [1, 7]
        ("backends.complete", 1.0, 5.0, 2, 1, 201),
        ("backends.complete", 3.0, 7.0, 3, 1, 202),
        # a child reaching past its parent's end is clipped to the parent
        ("orchestrator.write_report_files", 9.0, 11.0, 4, 1, 100),
        # a grandchild is charged to its own parent only
        ("reporting.render_markdown", 9.5, 10.5, 5, 4, 100),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(2.0 - 1.0)
    totals = tracing.by_name(spans)
    assert totals["backends.complete"] == {"calls": 2, "self_s": pytest.approx(8.0),
                                           "busy_s": pytest.approx(8.0)}


def test_union_length_merges_nested_and_touching_intervals():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 4), (1, 2), (4, 5), (7, 8)]) == pytest.approx(6.0)


def test_pool_thread_spans_are_children_of_the_main_thread_span():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def work(_):
        barrier.wait()  # both workers are inside their spans at once
        time.sleep(0.02)

    inner = tracer.span("inner", work)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(2)))

    tracer.span("outer", outer)()
    (outer_span,) = [s for s in tracer.spans if s[0] == "outer"]
    children = [s for s in tracer.spans if s[0] == "inner"]
    assert [s[4] for s in children] == [outer_span[3]] * 2
    assert len({s[5] for s in children}) == 2
    union = tracing.union_length([(s[1], s[2]) for s in children])
    busy = sum(s[2] - s[1] for s in children)
    assert union < busy  # the two children overlapped
    selfs = tracing.self_times(tracer.spans)
    assert selfs[outer_span[3]] == pytest.approx(outer_span[2] - outer_span[1] - union)


def test_counter_counts_calls_and_outcomes_across_threads():
    tracer = tracing.Tracer()
    get = tracer.counter("cache.get", lambda k: k if k % 2 else None,
                         on_result=lambda r: None if r is None else "hit")
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(get, range(1000)))
    counts = tracer.counts()
    assert counts["cache.get"] == 1000
    assert counts["cache.get.hit"] == 500


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([7.0], 99) == 7.0


def _run_bench(*args, work: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--smoke", "--seconds", "0",
         "--work-dir", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_traced_run_of_every_workload(tmp_path):
    out = _run_bench("--workload", "all", "--seed", "3", "--trace", "1", work=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC["per_layer"]]
    for wl in bench.SPEC["workloads"]:
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(f"{wl}.")}
        assert got == set(names)
        assert result["metrics"][f"{wl}.backends.complete.calls"]["value"] > 0
        assert result["metrics"][f"{wl}.orchestrator.ResponseCache.get.hit_ratio"]["value"] == 1.0
        assert (tmp_path / wl / "trace" / "cold.json").is_file()
        for metric in SPEC["end_to_end"]:
            assert f"  {metric['name']} " in out.stdout
    assert "failed_req_frac" in out.stdout


def test_smoke_untimed_result_has_every_end_to_end_metric(tmp_path):
    out = _run_bench("--workload", "mock_short", "--seed", "4", "--trace", "0", work=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("--workload", "mock_long", "--seed", "1", "--trace", "0",
                     work=tmp_path / "work", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_dead_fixture_server_fails_the_run_fast(tmp_path):
    children = bench.Children(deadline=time.perf_counter() + 60)
    wl = bench.workload("http_fixture", smoke=True)
    b = bench.Bench(wl, seed=5, children=children, work=tmp_path)
    sim = tmp_path / "sim"
    try:
        children.call(b.cli(["simulate", "--out", str(sim), "--n-sessions", "2",
                             "--duration-s", "64"], None), tmp_path / "sim.log")
        server, url = children.start_server(sim / "fixtures.jsonl", tmp_path / "server.log")
        server.kill()
        server.wait()
        start = time.perf_counter()
        with pytest.raises(bench.BenchError, match="fixture server exited"):
            children.call(b.cli(b.run_args(sim, tmp_path / "report", ["--endpoint", url]), None),
                          tmp_path / "cold.log", watch=server)
        assert time.perf_counter() - start < 10
    finally:
        children.stop_all()
