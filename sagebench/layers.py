"""Per-layer metrics: which program calls are traced, and how the spans
become the ``<module>.<metric>`` numbers of ``BENCHMARK.json``.

Every time and count is per traced operation (one sweep, edit, request or
fuzz campaign), so runs of different length compare.  A layer that did no
work in a workload reports 0; that is the predicted split (for example,
no parse calls on ``warm_serve``).
"""

from __future__ import annotations

from tracing import NAME, NOTE, PARENT, Tracer, self_times

#: Per-layer metric name → unit, in reporting order.
PER_LAYER = {
    "repro.import_ms": "ms",
    "rfc.substrate_ms": "ms",
    "nlp.chunk_calls": "count",
    "nlp.chunk_self_ms": "ms",
    "parsing.parse_calls": "count",
    "parsing.parse_self_ms": "ms",
    "parsing.parse_yield": "ratio",
    "parsing.retry_calls": "count",
    "parsing.span_reuse_rate": "ratio",
    "parsing.budget_drops": "count",
    "core.parse_stage_hit_ratio": "ratio",
    "core.winnow_stage_hit_ratio": "ratio",
    "core.parse_stage_self_ms": "ms",
    "disambiguation.winnow_calls": "count",
    "disambiguation.winnow_self_ms": "ms",
    "disambiguation.forms_in": "count",
    "disambiguation.survival_ratio": "ratio",
    "codegen.generate_calls": "count",
    "codegen.generate_self_ms": "ms",
    "codegen.assemble_self_ms": "ms",
    "codegen.render_self_ms": "ms",
    "api.from_run_self_ms": "ms",
    "api.encode_self_ms": "ms",
    "api.encode_bytes": "B",
    "api.decode_self_ms": "ms",
    "cache.disk_gets": "count",
    "cache.disk_puts": "count",
    "cache.disk_self_ms": "ms",
    "server.overhead_p50_ms": "ms",
    "server.gen_late_tail_ms": "ms",
    "server.backlog_max": "count",
    "server.parse_misses": "count",
    "server.tail_ms_hi": "ms",
    "server.max_rps": "1/s",
    "runtime.replay_self_ms.reference": "ms",
    "runtime.replay_self_ms.python": "ms",
    "runtime.replay_self_ms.interp": "ms",
    "fuzz.oracle_self_ms": "ms",
    "fuzz.generate_self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.overhead_pct": "%",
}

#: Spans of the sentence pipeline (chunk → parse → winnow → generate).
PIPELINE_SPANS = ("nlp.chunk", "parsing.parse", "core.parse_stage",
                  "core.winnow_stage", "disambiguation.winnow",
                  "codegen.generate", "codegen.assemble")


def _length(_args, _kwargs, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every traced layer."""
    from importlib import import_module

    # import_module, because a package may re-export a function under its
    # module's name (repro.disambiguation.winnow).
    (api, binenc, contracts, store, stages, winnow_module, fuzz_generator,
     fuzz_runner, oracles, chunker, indexed, pool, chart, ir) = (
        import_module("repro." + name) for name in (
            "api", "api.binenc", "api.contracts", "cache.store",
            "core.stages", "disambiguation.winnow", "fuzz.generator",
            "fuzz.runner", "fuzz.oracles", "nlp.chunker", "parsing.indexed",
            "server.pool", "ccg.chart", "codegen.ir"))

    tracer.wrap(chunker.NounPhraseChunker, "chunk_text", "nlp.chunk")
    parse_yield = (lambda _a, _k, result: bool(result.logical_forms))
    tracer.wrap(chart.CCGChartParser, "parse", "parsing.parse", note=parse_yield)
    tracer.wrap(indexed.IndexedChartParser, "parse", "parsing.parse",
                note=parse_yield)
    tracer.wrap(stages.ParseStage, "run", "core.parse_stage",
                note=lambda _a, _k, result: result.from_cache)
    tracer.wrap(stages.WinnowStage, "run", "core.winnow_stage")
    tracer.wrap(winnow_module, "winnow", "disambiguation.winnow",
                note=lambda args, kwargs, trace: (
                    len(args[1] if len(args) > 1 else kwargs["forms"]),
                    trace.final_count),
                also=(stages,))
    tracer.wrap(stages.GenerateStage, "generate", "codegen.generate")
    tracer.wrap(stages.GenerateStage, "assemble", "codegen.assemble")
    tracer.wrap(ir.Program, "render_c", "codegen.render")
    tracer.wrap(ir.Program, "render_python", "codegen.render")
    tracer.wrap(contracts.ProcessResponse, "from_run", "api.from_run")
    tracer.wrap(contracts, "to_json", "api.encode", note=_length,
                also=(api, pool))
    tracer.wrap(binenc, "to_bytes", "api.encode", note=_length,
                also=(api, pool))
    tracer.wrap(contracts, "from_json", "api.decode", also=(api,))
    tracer.wrap(binenc, "from_bytes", "api.decode", also=(api, pool))
    tracer.wrap(store.CacheStore, "get", "cache.disk_get")
    tracer.wrap(store.CacheStore, "put", "cache.disk_put")
    tracer.wrap(fuzz_runner.DifferentialRunner, "trace",
                lambda args, kwargs: "runtime.replay."
                + (args[2] if len(args) > 2 else kwargs["backend"]))
    tracer.wrap(oracles, "check_trace", "fuzz.oracle", also=(fuzz_runner,))
    tracer.wrap(fuzz_generator.TraceGenerator, "episodes", "fuzz.generate")


def parse_counters() -> dict:
    """The parser's own counters this benchmark reads (repro.parsing.profile)."""
    from repro.parsing.profile import PROFILE

    return {"span_memo_hits": PROFILE.span_memo_hits,
            "span_memo_misses": PROFILE.span_memo_misses,
            "budget_drops": PROFILE.budget_drops}


def retries(spans: list[list]) -> int:
    """Subject-supply re-parses: parse calls after the first inside one
    ``ParseStage.run``."""
    per_stage: dict[int, int] = {}
    for record in spans:
        parent = record[PARENT]
        if (record[NAME] == "parsing.parse" and parent is not None
                and spans[parent][NAME] == "core.parse_stage"):
            per_stage[parent] = per_stage.get(parent, 0) + 1
    return sum(count - 1 for count in per_stage.values())


def winnow_stage_misses(spans: list[list]) -> int:
    """``WinnowStage.run`` calls that ran the checks (not a cache hit)."""
    return len({record[PARENT] for record in spans
                if record[NAME] == "disambiguation.winnow"
                and record[PARENT] is not None
                and spans[record[PARENT]][NAME] == "core.winnow_stage"})


def layer_metrics(span_lists: list[list[list]], counts: dict,
                  ops: int) -> dict:
    """Per-layer metrics over the spans of ``ops`` traced operations.

    ``span_lists`` holds one span list per process; ``counts`` the summed
    :func:`parse_counters` deltas.  Setup, server and overhead metrics are
    filled in by the workload; they default to 0 here.
    """
    ops = max(ops, 1)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    notes: dict[str, list] = {}
    retry_calls = stage_misses = spans_total = 0
    for spans in span_lists:
        spans_total += len(spans)
        retry_calls += retries(spans)
        stage_misses += winnow_stage_misses(spans)
        for record, seconds in zip(spans, self_times(spans)):
            name = record[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + seconds * 1000.0
            if record[NOTE] is not None:
                notes.setdefault(name, []).append(record[NOTE])

    def per_op_ms(*names: str) -> float:
        return sum(self_ms.get(name, 0.0) for name in names) / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    parse_notes = notes.get("parsing.parse", [])
    stage_notes = notes.get("core.parse_stage", [])
    winnow_notes = notes.get("disambiguation.winnow", [])
    forms_in = sum(n for n, _ in winnow_notes)
    memo_probes = counts.get("span_memo_hits", 0) + counts.get(
        "span_memo_misses", 0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "nlp.chunk_calls": calls.get("nlp.chunk", 0) / ops,
        "nlp.chunk_self_ms": per_op_ms("nlp.chunk"),
        "parsing.parse_calls": calls.get("parsing.parse", 0) / ops,
        "parsing.parse_self_ms": per_op_ms("parsing.parse"),
        "parsing.parse_yield": ratio(sum(parse_notes), len(parse_notes)),
        "parsing.retry_calls": retry_calls / ops,
        "parsing.span_reuse_rate": ratio(counts.get("span_memo_hits", 0),
                                         memo_probes),
        "parsing.budget_drops": counts.get("budget_drops", 0) / ops,
        "core.parse_stage_hit_ratio": ratio(sum(stage_notes),
                                            len(stage_notes)),
        "core.winnow_stage_hit_ratio": ratio(
            calls.get("core.winnow_stage", 0) - stage_misses,
            calls.get("core.winnow_stage", 0)),
        "core.parse_stage_self_ms": per_op_ms("core.parse_stage"),
        "disambiguation.winnow_calls": calls.get("disambiguation.winnow", 0)
        / ops,
        "disambiguation.winnow_self_ms": per_op_ms("disambiguation.winnow"),
        "disambiguation.forms_in": forms_in / ops,
        "disambiguation.survival_ratio": ratio(
            sum(kept for _, kept in winnow_notes), forms_in),
        "codegen.generate_calls": calls.get("codegen.generate", 0) / ops,
        "codegen.generate_self_ms": per_op_ms("codegen.generate"),
        "codegen.assemble_self_ms": per_op_ms("codegen.assemble"),
        "codegen.render_self_ms": per_op_ms("codegen.render"),
        "api.from_run_self_ms": per_op_ms("api.from_run"),
        "api.encode_self_ms": per_op_ms("api.encode"),
        "api.encode_bytes": sum(notes.get("api.encode", [])) / ops,
        "api.decode_self_ms": per_op_ms("api.decode"),
        "cache.disk_gets": calls.get("cache.disk_get", 0) / ops,
        "cache.disk_puts": calls.get("cache.disk_put", 0) / ops,
        "cache.disk_self_ms": per_op_ms("cache.disk_get", "cache.disk_put"),
        "runtime.replay_self_ms.reference": per_op_ms(
            "runtime.replay.reference"),
        "runtime.replay_self_ms.python": per_op_ms("runtime.replay.python"),
        "runtime.replay_self_ms.interp": per_op_ms("runtime.replay.interp"),
        "fuzz.oracle_self_ms": per_op_ms("fuzz.oracle"),
        "fuzz.generate_self_ms": per_op_ms("fuzz.generate"),
        "trace.spans_per_op": spans_total / ops,
    })
    return metrics


def pipeline_calls(span_lists: list[list[list]]) -> int:
    """How many sentence-pipeline spans were recorded."""
    return sum(1 for spans in span_lists for record in spans
               if record[NAME] in PIPELINE_SPANS)
