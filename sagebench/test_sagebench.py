"""Tests of the benchmark itself: its input generator, its span arithmetic
and its output checks."""

import json
import pathlib
import time

import pytest

import checks
import compare
import layers
import speed
import stats
from edits import corpus_sentences, edit_pool, seeded_edits
from run import END_TO_END
from tracing import NAME, PARENT, Tracer, self_times

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def corpus():
    from repro.rfc.registry import ProtocolRegistry

    registry = ProtocolRegistry(cache_dir=None)
    return corpus_sentences(registry), registry.dictionary().all_terms()


def take(corpus, seed, count=200):
    sentences, terms = corpus
    return seeded_edits(sentences, terms, seed, count)


# -- the spec_edit generator --------------------------------------------------
def test_edits_are_deterministic_per_seed(corpus):
    assert take(corpus, 7) == take(corpus, 7)


def test_edits_differ_across_seeds_only_in_order(corpus):
    first, second = take(corpus, 0), take(corpus, 1)
    assert [s.text for s in first] != [s.text for s in second]
    assert sorted(s.text for s in first) == sorted(s.text for s in second)


def test_a_shorter_pool_is_a_prefix_of_a_longer_one(corpus):
    sentences, terms = corpus
    assert edit_pool(sentences, terms, 50) == \
        edit_pool(sentences, terms, 120)[:50]


def test_edits_are_single_term_swaps_in_context(corpus):
    sentences, _terms = corpus
    originals = {s.text for s in sentences}
    edits = take(corpus, 3, 500)
    texts = [s.text for s in edits]
    assert len(set(texts)) == len(texts)  # every edit misses the caches
    assert not originals & set(texts)
    contexts = {(s.protocol, s.message, s.field, s.kind) for s in sentences}
    assert all((s.protocol, s.message, s.field, s.kind) in contexts
               for s in edits)


def test_edit_check_names_every_changed_outcome():
    reference = checks.load_expected()["edit_outcomes"][:5]
    assert checks.mismatched_edits(list(reference), reference) == []
    changed = list(reference)
    changed[3] = ("0" if changed[3][0] != "0" else "1") + changed[3][1:]
    assert checks.mismatched_edits(changed, reference) == [3]
    assert checks.mismatched_edits(reference[:4], reference)


# -- spans and self time --------------------------------------------------------
def span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", 0.0, 10.0),
        span("parse", 1.0, 4.0, parent=0),
        span("chunk", 1.5, 2.0, parent=1),
        span("winnow", 5.0, 9.0, parent=0),
        span("cache", 6.0, 7.0, parent=3),
        span("cache", 7.5, 8.0, parent=3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    # Children from two threads overlap, and one outlives its parent.
    spans = [span("op", 0.0, 10.0), span("a", 2.0, 6.0, parent=0),
             span("b", 4.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_records_nesting_and_restores_functions():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", note=lambda a, k, result: result)
    assert Layer().outer(3) == 7
    names = [record[NAME] for record in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][PARENT] == 0
    assert tracer.spans[1][-1] == 6
    tracer.unwrap_all()
    Layer().outer(1)
    assert len(tracer.spans) == 2


def test_layer_metrics_split_retries_and_cache_hits():
    spans = [
        span("core.parse_stage", 0.0, 4.0),
        span("parsing.parse", 0.5, 1.5, parent=0),
        span("parsing.parse", 2.0, 3.0, parent=0),
        span("core.winnow_stage", 4.0, 5.0),
        span("disambiguation.winnow", 4.1, 4.9, parent=3),
        span("core.winnow_stage", 5.0, 5.1),
    ]
    spans[1][-1] = False
    spans[2][-1] = True
    spans[0][-1] = False
    spans[4][-1] = (4, 1)
    metrics = layers.layer_metrics([spans], {}, ops=2)
    assert metrics["parsing.parse_calls"] == 1.0
    assert metrics["parsing.retry_calls"] == 0.5
    assert metrics["parsing.parse_yield"] == 0.5
    assert metrics["core.winnow_stage_hit_ratio"] == 0.5
    assert metrics["disambiguation.survival_ratio"] == 0.25
    assert metrics["parsing.parse_self_ms"] == pytest.approx(1000.0)
    assert set(metrics) == set(layers.PER_LAYER)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_q(2000) == 99.0
    assert stats.tail_q(200) == pytest.approx(95.0)
    assert stats.tail_q(12) == 50.0
    assert stats.percentile(range(101), 95) == pytest.approx(95.0)


def test_gauge_scales_by_the_readings_around_an_operation():
    gauge = speed.Gauge()
    gauge.moments = [0.0, 1.0, 1.1, 1.2, 3.0]
    gauge.readings = [speed.REFERENCE_MS * value
                      for value in (1.0, 2.0, 4.0, 2.0, 8.0)]
    # Readings within SPAN_S of [1.05, 1.15]: 1.0, 1.1 and 1.2.
    assert gauge.scale(1.05, 1.15) == pytest.approx(0.5)
    # No interval: every reading.
    assert gauge.scale() == pytest.approx(0.5)


def test_gauge_ticks_only_after_its_period():
    gauge = speed.Gauge()
    value = gauge.read(3)
    assert gauge.readings == [value] and value > 0
    gauge.moments[-1] = time.perf_counter() + 60.0
    gauge.tick()
    assert len(gauge.readings) == 1
    gauge.moments[-1] = time.perf_counter() - speed.PERIOD_S
    gauge.tick()
    assert len(gauge.readings) == 2


# -- output checks ----------------------------------------------------------------
def test_golden_check_fails_on_one_flipped_byte():
    golden = (ROOT / "tests" / "golden" / "icmp_revised.c").read_text()
    source = golden[:-1]
    assert checks.check_golden(source, golden) == []
    index = len(source) // 2
    flipped = source[:index] + chr(ord(source[index]) ^ 1) + source[index + 1:]
    assert checks.check_golden(flipped, golden)


def test_status_count_check_fails_on_a_wrong_count():
    expected = checks.load_expected()["status_counts"]
    observed = {name: dict(counts) for name, counts in expected.items()}
    assert checks.check_status_counts(observed, expected) == []
    observed["ICMP"]["ok"] += 1
    assert checks.check_status_counts(observed, expected)


def test_digest_check_fails_on_a_changed_trace_digest():
    expected = checks.load_expected()["fuzz_traces"]["0"]
    assert checks.check_digest("traces", expected, expected) == []
    changed = ("0" if expected[0] != "0" else "1") + expected[1:]
    assert checks.check_digest("traces", changed, expected)


def test_expected_outcomes_cover_every_edit_of_a_run():
    from workloads import edit_count

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stored = checks.load_expected()["edit_outcomes"]
    assert len(stored) == edit_count(spec["run_seconds"])


def test_compare_refuses_results_from_another_host():
    base = {"host": {"nproc": 2}, "workload": "spec_edit", "trace": 0}
    assert compare.refusal(base, dict(base)) is None
    assert compare.refusal(base, dict(base, host={"nproc": 4}))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER
