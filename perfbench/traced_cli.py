"""Run one sessionpipe CLI command with tracing wrappers installed.

    python3 perfbench/traced_cli.py SPANS_OUT.json run --corpus ...

Each wrapper replaces a public function at the module or class attribute
where the pipeline looks it up (``orchestrator`` imports ``parse_label``,
``build_task_prompt`` and ``parse_utterances_json`` by name, so those are
wrapped in ``orchestrator``). The span file is written when the command ends,
whether it succeeds or fails.
"""

from __future__ import annotations

import sys

from tracing import Tracer

# (module, attribute, span name); the span name is the layer and function
SPANNED = [
    ("windowing", "plan_segments", "windowing.plan_segments"),
    ("windowing", "plan_transcript_chunks", "windowing.plan_transcript_chunks"),
    ("windowing", "fill_chunks", "windowing.fill_chunks"),
    ("windowing", "chunk_covering", "windowing.chunk_covering"),
    ("orchestrator", "build_task_prompt", "prompting.build_task_prompt"),
    ("prompting", "build_task_prompt", "prompting.build_task_prompt"),
    ("orchestrator", "parse_binary", "parsing.parse_binary"),
    ("orchestrator", "parse_utterances_json", "backends.parse_utterances_json"),
    ("orchestrator", "load_corpus", "corpus.load_corpus"),
    ("cli", "load_corpus", "corpus.load_corpus"),
    ("orchestrator", "run", "orchestrator.run"),
    ("orchestrator", "evaluate_predictions", "orchestrator.evaluate_predictions"),
    ("orchestrator", "write_report_files", "orchestrator.write_report_files"),
    ("orchestrator", "load_predictions", "orchestrator.load_predictions"),
    ("aggregation", "lift_session", "aggregation.lift_session"),
    ("metrics", "macro_f1_multilabel", "metrics.macro_f1_multilabel"),
    ("metrics", "macro_f1_multiclass", "metrics.macro_f1_multiclass"),
    ("metrics", "pr_auc", "metrics.pr_auc"),
    ("reporting", "render_markdown", "reporting.render_markdown"),
    ("simulator", "generate_corpus", "simulator.generate_corpus"),
]


def install(tracer: Tracer) -> None:
    import importlib

    from sessionpipe import backends, orchestrator, parsing

    for module_name, attr, name in SPANNED:
        module = importlib.import_module(f"sessionpipe.{module_name}")
        setattr(module, attr, tracer.span(name, getattr(module, attr)))

    orchestrator.parse_label = tracer.span(
        "parsing.parse_label", orchestrator.parse_label,
        on_result=lambda parsed: tracer.tiers.update([parsed.tier.value]),
    )
    load_jsonl = backends.FixtureStore.load_jsonl.__func__
    backends.FixtureStore.load_jsonl = classmethod(
        tracer.span("backends.FixtureStore.load_jsonl", load_jsonl)
    )
    cache = orchestrator.ResponseCache
    cache.__init__ = tracer.span("orchestrator.ResponseCache.load", cache.__init__)
    cache.flush = tracer.span("orchestrator.ResponseCache.flush", cache.flush)
    cache.get = tracer.counter(
        "orchestrator.ResponseCache.get", cache.get,
        on_result=lambda record: None if record is None else "hit",
    )
    for backend_cls in (backends.MockBackend, backends.HttpChatBackend):
        backend_cls.complete = tracer.span(
            "backends.complete", backend_cls.complete,
            on_result=tracer.record_response, on_error=tracer.record_error,
        )
    parsing.normalize = tracer.counter("parsing.normalize", parsing.normalize)
    backends.prompt_sha256 = tracer.counter("backends.prompt_sha256", backends.prompt_sha256)


def main() -> None:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from sessionpipe import cli

    try:
        cli.main(args=cli_args, prog_name="sessionpipe")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
