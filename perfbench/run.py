#!/usr/bin/env python3
"""sessionpipe benchmark: simulate, cold run, warm run and re-score, per workload.

    python3 perfbench/run.py --workload mock_long --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the repository root. Each command is a fresh child process running
the sources under ``src/``. A repetition generates the workload's corpus with
``sessionpipe simulate`` (and, for the HTTP workload, starts the fixture
server), runs ``run`` on an empty cache, runs ``run`` again on the filled
cache, then ``evaluate`` on the run's predictions, and checks the outputs.
Repetitions continue while another fits in ``--seconds`` (at least MIN_REPS);
each time metric is the upper quartile of its samples and each memory metric
the median (see STATISTICS). With ``--trace 1`` one more
repetition runs under ``traced_cli.py`` and the per-layer metrics come from
its span files. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))

MIN_REPS = 3
MAX_REPS = 40
# every invocation must end within 180 s; children still running at this
# point are killed and the run fails
TIME_LIMIT_S = 170.0
SERVER_START_TIMEOUT_S = 20.0


def _quartile(i: int):
    return lambda values: statistics.quantiles(values, n=4, method="inclusive")[i]


# On a shared host, other tenants switch each CPU between a slow state and one
# about 1.6x faster, for stretches of seconds to minutes. Under sustained load
# the slow state is the usual one, but runs differ in how much of the fast
# state they catch, and a time's median follows that share, not the program:
# over ten seeds it spread by up to a third of its value. The upper quartile
# reads the usual state and spread by about a tenth; so does the lower
# quartile of a rate. Peak RSS does not depend on speed and keeps the median.
STATISTICS = {"p75": _quartile(2), "p25": _quartile(0), "median": statistics.median}
END_TO_END = [
    ("setup_s", "s", "p75"),
    ("cold_run_s", "s", "p75"),
    ("cold_req_per_s", "1/s", "p25"),
    ("warm_run_s", "s", "p75"),
    ("rescore_s", "s", "p75"),
    ("cold_rss_mb", "MB", "median"),
    ("warm_rss_mb", "MB", "median"),
]
# warm runs and evaluates per repetition: they leave their inputs unchanged,
# and more samples of these shorter phases steady their quartile
REPEATS = 2

# per-layer self time, summed over the cold run, warm run and evaluate
SELF_TIMED = [
    "windowing.plan_segments",
    "windowing.plan_transcript_chunks",
    "windowing.fill_chunks",
    "windowing.chunk_covering",
    "prompting.build_task_prompt",
    "parsing.parse_label",
    "parsing.parse_binary",
    "backends.FixtureStore.load_jsonl",
    "backends.parse_utterances_json",
    "orchestrator.run",
    "orchestrator.ResponseCache.load",
    "orchestrator.ResponseCache.flush",
    "orchestrator.evaluate_predictions",
    "orchestrator.write_report_files",
    "orchestrator.load_predictions",
    "aggregation.lift_session",
    "metrics.macro_f1_multilabel",
    "metrics.macro_f1_multiclass",
    "metrics.pr_auc",
    "corpus.load_corpus",
    "reporting.render_markdown",
]
# per-layer call counts, summed the same way
COUNTED = [
    "windowing.plan_segments",
    "windowing.plan_transcript_chunks",
    "windowing.fill_chunks",
    "windowing.chunk_covering",
    "prompting.build_task_prompt",
    "parsing.parse_label",
]
PARSE_TIERS = ["exact", "alias", "fuzzy", "unknown"]
PHASES = ["setup", "cold", "warm", "rescore"]


class BenchError(Exception):
    """A command failed, a deadline passed, or an output check failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    n_sessions: int
    duration_s: float


def workload(name: str, smoke: bool) -> Workload:
    spec = SPEC["workloads"][name]
    size = SPEC["smoke"] if smoke else spec
    return Workload(name, spec["backend"], size["n_sessions"], size["duration_s"])


class Children:
    """Every process the benchmark starts; stop_all() kills and reaps them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self._procs: list[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def popen(self, argv: list[str], cpus: set[int] | None = None, **kwargs) -> subprocess.Popen:
        """Start a child; with cpus, the child (only) is pinned to those CPUs."""
        if cpus is None:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
        else:
            mine = os.sched_getaffinity(0)
            os.sched_setaffinity(0, cpus)  # inherited by the child at fork
            try:
                proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
            finally:
                os.sched_setaffinity(0, mine)
        self._procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self._procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self._procs.clear()

    @contextmanager
    def watchdog(self, proc: subprocess.Popen, watch: subprocess.Popen | None = None):
        """Kill proc if the deadline passes or the watched process exits.

        Yields a list that holds the reason when proc was killed.
        """
        reason: list[str] = []
        done = threading.Event()

        def guard():
            while not done.wait(0.1):
                if time.perf_counter() > self.deadline:
                    reason.append(f"time limit of {TIME_LIMIT_S:.0f} s reached")
                elif watch is not None and watch.poll() is not None:
                    reason.append(f"fixture server exited with code {watch.returncode}")
                else:
                    continue
                if proc.returncode is None:
                    proc.kill()
                return

        thread = threading.Thread(target=guard, daemon=True)
        thread.start()
        try:
            yield reason
        finally:
            done.set()
            thread.join()

    def call(self, argv: list[str], log: Path, watch: subprocess.Popen | None = None,
             cpus: set[int] | None = None) -> tuple[float, float]:
        """Run a child to completion; return (wall seconds, peak RSS in MB)."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = self.popen(argv, cpus, stdout=subprocess.DEVNULL, stderr=err)
            with self.watchdog(proc, watch) as killed:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            raise BenchError(f"{' '.join(argv[1:4])} killed: {killed[0]}")
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{' '.join(argv[1:4])} exited with {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def start_server(self, fixtures: Path, log: Path,
                     cpus: set[int] | None = None) -> tuple[subprocess.Popen, str]:
        """Start the fixture server and poll until it answers."""
        with open(log, "wb") as err:
            proc = self.popen([sys.executable, str(BENCH_DIR / "serve.py"), str(fixtures)], cpus,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        deadline = min(self.deadline, time.perf_counter() + SERVER_START_TIMEOUT_S)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(max(0.0, deadline - time.perf_counter()))
            url = proc.stdout.readline().decode().strip() if ready else ""
            if not url.startswith("http://"):
                raise BenchError(f"fixture server did not start: {log.read_text(errors='replace')[-2000:]}")
            while not _answers(url):
                if proc.poll() is not None:
                    raise BenchError(f"fixture server exited with code {proc.returncode}")
                if time.perf_counter() > deadline:
                    raise BenchError("fixture server did not answer in time")
                time.sleep(0.01)
        except BaseException:
            self.stop_server(proc)
            raise
        return proc, url

    @staticmethod
    def stop_server(proc: subprocess.Popen) -> None:
        if proc.returncode is not None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()


def split_cpus() -> tuple[set[int] | None, set[int] | None]:
    """(server CPUs, client CPUs): the fixture server gets a CPU of its own.

    The server stands in for a model endpoint on other hardware; sharing CPUs
    with the client made HTTP timings swing by a quarter between runs. With
    one CPU there is nothing to split.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def _answers(url: str) -> bool:
    """True once the server returns any HTTP response (a bad request gets 400)."""
    req = urllib.request.Request(f"{url}/v1/chat/completions", data=b"{}", method="POST",
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=1.0):
            return True
    except urllib.error.HTTPError:
        return True
    except (urllib.error.URLError, OSError):
        return False


def own_peak_rss_mb() -> float:
    """Peak RSS of this process's own memory image (VmHWM).

    A child's ru_maxrss is at least this, because the image it was forked
    from counts toward it; the figure is the child's own only when larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def file_digest(path: Path) -> tuple[str, int]:
    """(sha256, line count) of a file, read in blocks to keep own_peak_rss_mb() small."""
    sha, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
            lines += block.count(b"\n")
    return sha.hexdigest(), lines


@dataclass
class Outputs:
    """Digests and counts read from a report directory after a run."""

    report: dict
    digests: dict[str, str]
    requests: int
    failures: int

    @classmethod
    def read(cls, report_dir: Path) -> "Outputs":
        report_bytes = (report_dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
        digests = {"report.json": hashlib.sha256(report_bytes).hexdigest(),
                   "predictions.jsonl": file_digest(report_dir / "predictions.jsonl")[0]}
        records = 0
        for path in sorted((report_dir / "cache").glob("*.jsonl")):
            digests[path.name], lines = file_digest(path)
            records += lines
        failures = len(report["failures"])
        return cls(report, digests, records + failures, failures)

    def cache(self) -> dict[str, str]:
        return {k: v for k, v in self.digests.items() if k not in ("report.json", "predictions.jsonl")}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise BenchError(f"output check failed: {what}")


class Bench:
    def __init__(self, wl: Workload, seed: int, children: Children, work: Path):
        self.wl = wl
        self.seed = seed
        self.children = children
        self.work = work
        self.common = SPEC["common"]

    def cli(self, args: list[str], trace: Path | None) -> list[str]:
        if trace is None:
            return [sys.executable, "-m", "sessionpipe.cli", *args]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace), *args]

    def run_args(self, sim: Path, report: Path, backend: list[str]) -> list[str]:
        c = self.common
        return ["run", "--corpus", str(sim / "corpus"), "--taxonomy", str(sim / "corpus" / "taxonomy.json"),
                "--report-dir", str(report), "--modes", c["modes"], "--tasks", c["tasks"],
                "--chunk-lens", c["chunk_lens"], "--concurrency", str(c["concurrency"]),
                "--allow-partial", *backend]

    def repetition(self, rep_dir: Path, trace_dir: Path | None = None) -> tuple[dict, Outputs]:
        """One simulate / cold / warm / evaluate cycle; returns the samples and cold outputs.

        Samples are lists: warm runs and evaluates run REPEATS times (once when traced).
        """
        c, wl = self.common, self.wl
        trace = (lambda phase: trace_dir / f"{phase}.json") if trace_dir else (lambda phase: None)
        sim, report = rep_dir / "sim", rep_dir / "report"
        rep_dir.mkdir(parents=True)
        call = self.children.call
        start = time.perf_counter()
        call(self.cli(["simulate", "--out", str(sim), "--seed", str(self.seed),
                       "--n-sessions", str(wl.n_sessions), "--duration-s", str(wl.duration_s),
                       "--caption-flip-p", str(c["caption_flip_p"]),
                       "--transcript-drop-p", str(c["transcript_drop_p"]),
                       "--reasoner-flip-p", str(c["reasoner_flip_p"]),
                       "--chunk-lens", c["chunk_lens"]], trace("setup")), rep_dir / "simulate.log")
        server = client_cpus = None
        try:
            if wl.backend == "http":
                server_cpus, client_cpus = split_cpus()
                server, url = self.children.start_server(sim / "fixtures.jsonl", rep_dir / "server.log",
                                                         server_cpus)
                backend = ["--endpoint", url]
            else:
                backend = ["--fixtures", str(sim / "fixtures.jsonl")]
            setup_s = time.perf_counter() - start
            args = self.run_args(sim, report, backend)
            cold_s, cold_rss = call(self.cli(args, trace("cold")), rep_dir / "cold.log",
                                    watch=server, cpus=client_cpus)
            cold = Outputs.read(report)
            warm_s, warm_rss = [], []
            for i in range(1 if trace_dir else REPEATS):
                wall, rss = call(self.cli(args, trace("warm")), rep_dir / f"warm{i}.log",
                                 watch=server, cpus=client_cpus)
                warm_s.append(wall)
                warm_rss.append(rss)
                warm = Outputs.read(report)
                check(warm.digests["report.json"] == cold.digests["report.json"],
                      "warm report.json differs from the cold run's")
                check(warm.digests["predictions.jsonl"] == cold.digests["predictions.jsonl"],
                      "warm predictions.jsonl differs from the cold run's")
                check(warm.cache() == cold.cache(), "the warm run changed the cache files")
        finally:
            if server is not None:
                self.children.stop_server(server)
        rescore_s = []
        for i in range(1 if trace_dir else REPEATS):
            rescored = rep_dir / f"rescored{i}"
            wall, _ = call(self.cli(["evaluate", "--corpus", str(sim / "corpus"),
                                     "--taxonomy", str(sim / "corpus" / "taxonomy.json"),
                                     "--predictions", str(report / "predictions.jsonl"),
                                     "--report-dir", str(rescored)], trace("rescore")),
                           rep_dir / f"rescore{i}.log")
            rescore_s.append(wall)
            check(json.loads((rescored / "report.json").read_bytes())["rows"] == cold.report["rows"],
                  "evaluate did not reproduce the run's report rows")
            check(file_digest(rescored / "predictions.jsonl")[0] == cold.digests["predictions.jsonl"],
                  "evaluate did not reproduce predictions.jsonl")

        own_mb = own_peak_rss_mb()
        if min(cold_rss, *warm_rss) <= own_mb:
            raise BenchError(f"peak RSS of the runs ({cold_rss:.1f}, {min(warm_rss):.1f} MB) is not above "
                             f"the benchmark's own ({own_mb:.1f} MB), so it is not theirs")
        check(cold.requests > 0, "the cold run sent no requests")
        samples = {
            "setup_s": [setup_s],
            "cold_run_s": [cold_s],
            "cold_req_per_s": [cold.requests / cold_s],
            "warm_run_s": warm_s,
            "rescore_s": rescore_s,
            "cold_rss_mb": [cold_rss],
            "warm_rss_mb": warm_rss,
            "failed_req_frac": [cold.failures / cold.requests],
        }
        return samples, cold

    def interchange(self, sim: Path) -> None:
        """A mock run on the HTTP workload's corpus must give the same rows and predictions."""
        http_dir, mock_dir = self.work / "last" / "report", self.work / "interchange"
        self.children.call(
            self.cli(self.run_args(sim, mock_dir, ["--fixtures", str(sim / "fixtures.jsonl")]), None),
            self.work / "interchange.log")
        http, mock = Outputs.read(http_dir), Outputs.read(mock_dir)
        check(mock.report["rows"] == http.report["rows"], "mock and HTTP runs give different report rows")
        check(mock.report["failures"] == http.report["failures"],
              "mock and HTTP runs give different failures")

        def predictions(report_dir: Path) -> list[dict]:
            with open(report_dir / "predictions.jsonl", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            for record in records:
                record.pop("cache_key")
            return records

        check(predictions(mock_dir) == predictions(http_dir),
              "mock and HTTP runs give different predictions")


def layer_metrics(trace_dir: Path, traced_cold_s: float, untraced_cold_s: float) -> dict[str, float]:
    docs = {phase: tracing.load(str(trace_dir / f"{phase}.json")) for phase in PHASES}
    names = {phase: tracing.by_name(doc["spans"]) for phase, doc in docs.items()}
    cold, warm = docs["cold"], docs["warm"]

    def total(name: str, stat: str) -> float:
        return sum(names[p].get(name, {}).get(stat, 0) for p in ("cold", "warm", "rescore"))

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = total(name, "calls")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = total(name, "self_s")
    out["simulator.generate_corpus.self_s"] = names["setup"]["simulator.generate_corpus"]["self_s"]
    parses = names["cold"].get("parsing.parse_label", {}).get("calls", 0)
    for tier in PARSE_TIERS:
        out[f"parsing.parse_label.tier_{tier}"] = cold["parse_tiers"].get(tier, 0)
    out["parsing.normalize.per_parse"] = cold["counts"].get("parsing.normalize", 0) / max(parses, 1)
    latencies = [(s[2] - s[1]) * 1000.0 for s in cold["spans"] if s[0] == "backends.complete"]
    requests = len(latencies)
    out["backends.complete.calls"] = requests
    out["backends.complete.busy_s"] = sum(latencies) / 1000.0
    out["backends.complete.p50_ms"] = tracing.percentile(latencies, 50) if latencies else 0.0
    out["backends.complete.p99_ms"] = tracing.percentile(latencies, 99) if latencies else 0.0
    out["backends.complete.retries"] = cold["retries"]
    out["backends.complete.errors"] = sum(cold["errors"].values())
    out["backends.prompt_sha256.per_request"] = (
        cold["counts"].get("backends.prompt_sha256", 0) / max(requests, 1))
    gets = warm["counts"].get("orchestrator.ResponseCache.get", 0)
    out["orchestrator.ResponseCache.get.hit_ratio"] = (
        warm["counts"].get("orchestrator.ResponseCache.get.hit", 0) / max(gets, 1))
    out["bench.cold_run.trace_overhead_s"] = traced_cold_s - untraced_cold_s
    check(not any(s[0] == "backends.complete" for s in warm["spans"]),
          "the warm run sent backend requests")
    summary = {phase: {"by_name": names[phase], "counts": doc["counts"], "errors": doc["errors"],
                       "retries": doc["retries"], "parse_tiers": doc["parse_tiers"]}
               for phase, doc in docs.items()}
    (trace_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out


def measure(wl: Workload, seed: int, seconds: float, trace: bool, children: Children,
            work: Path) -> dict:
    """Run one workload; return the result object (raises BenchError on a failed check)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, seed, children, work)
    samples: dict[str, list[float]] = {}
    first: dict[str, str] | None = None
    attempted = failed = reps = 0
    start = time.perf_counter()
    # stop when the next repetition, at the mean pace so far, would not fit
    while reps < MIN_REPS or ((time.perf_counter() - start) * (reps + 1) / reps <= seconds
                              and reps < MAX_REPS):
        rep_dir = work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        sample, cold = bench.repetition(rep_dir)
        check(first is None or cold.digests == first, "outputs differ between repetitions of one seed")
        first = cold.digests
        reps += 1
        for key, values in sample.items():
            samples.setdefault(key, []).extend(values)
        print(f"{wl.name} repetition {reps}: "
              + " ".join(f"{k}={','.join(f'{v:.4g}' for v in vs)}" for k, vs in sample.items()),
              file=sys.stderr)
        attempted += cold.requests
        failed += cold.failures
    shutil.rmtree(work / "last", ignore_errors=True)
    rep_dir.rename(work / "last")
    if wl.backend == "http":
        bench.interchange(work / "last" / "sim")
    (work / "samples.json").write_text(json.dumps(samples, indent=1) + "\n")
    rows = END_TO_END + [("failed_req_frac", "1", "median")]
    values = {name: STATISTICS[stat](samples[name]) for name, _, stat in rows}

    print(f"workload {wl.name}: {wl.n_sessions} sessions x {wl.duration_s:g} s, {wl.backend} backend, "
          f"seed {seed}, {reps} repetitions")
    for name, digest in first.items():
        print(f"  digest {name:<18} {digest[:16]}")
    for name, unit, stat in rows:
        vs = samples[name]
        median = "" if stat == "median" else f"  (median {statistics.median(vs):.4f})"
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<4} {stat} of n={len(vs)}{median}")

    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": {}}
    if not trace:
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        return result

    trace_dir = work / "trace"
    trace_dir.mkdir()
    sample, cold = bench.repetition(work / "traced", trace_dir)
    check(cold.digests == first, "the traced run's outputs differ from the untraced runs'")
    attempted += cold.requests
    failed += cold.failures
    layers = layer_metrics(trace_dir, sample["cold_run_s"][0], statistics.median(samples["cold_run_s"]))
    print(f"  traced repetition: cold_run_s {sample['cold_run_s'][0]:.4f} s, spans in {trace_dir}")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<48} {layers[name]:>14.6f} {unit}")
    result.update(attempted=attempted, failed=failed,
                  metrics={name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER})
    return result


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [(f"{n}.calls", "count", "lower") for n in COUNTED]
    out += [(f"{n}.self_s", "s", "lower") for n in SELF_TIMED + ["simulator.generate_corpus"]]
    out += [(f"parsing.parse_label.tier_{t}", "count", "higher" if t in ("exact", "alias") else "lower")
            for t in PARSE_TIERS]
    out += [
        ("parsing.normalize.per_parse", "count", "lower"),
        ("backends.complete.calls", "count", "lower"),
        ("backends.complete.busy_s", "s", "lower"),
        ("backends.complete.p50_ms", "ms", "lower"),
        ("backends.complete.p99_ms", "ms", "lower"),
        ("backends.complete.retries", "count", "lower"),
        ("backends.complete.errors", "count", "lower"),
        ("backends.prompt_sha256.per_request", "count", "lower"),
        ("orchestrator.ResponseCache.get.hit_ratio", "1", "higher"),
        ("bench.cold_run.trace_overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def check_sources(children: Children) -> None:
    """Fail unless the sessionpipe sources of this checkout are importable."""
    if not (SRC / "sessionpipe" / "cli.py").is_file():
        raise BenchError(f"no sessionpipe sources under {SRC}; run from a full checkout")
    out = subprocess.run([sys.executable, "-c", "import click, requests, sessionpipe; print(sessionpipe.__file__)"],
                         env=children.env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0 or not out.stdout.strip().startswith(str(SRC)):
        raise BenchError(f"cannot import sessionpipe from {SRC}: {out.stderr.strip()[-500:]}")


def run_each(args: argparse.Namespace) -> int:
    """--workload all: each workload in a process of its own.

    A child's peak RSS includes the peak of the process that started it, so
    one workload's memory must not carry over into the next one's figures.
    """
    results, code = {}, 0
    for name in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", str(args.work_dir)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            last = ""
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.terminate()  # lets it stop its own children
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        if proc.returncode == 2:
            return 2
        if proc.returncode != 0:
            code = 1
        if last.startswith("{"):
            results[name] = json.loads(last)
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": max(1, sum(r["attempted"] for r in results.values())),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="use the tiny smoke sizes from workloads.json")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_work",
                        help="scratch directory for corpora, reports and span files")
    args = parser.parse_args(argv)

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    if args.workload == "all":
        return run_each(args)
    children = Children(deadline=time.perf_counter() + TIME_LIMIT_S)
    try:
        check_sources(children)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    try:
        result = measure(workload(args.workload, args.smoke), args.seed, args.seconds, bool(args.trace),
                         children, args.work_dir / args.workload)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        children.stop_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
