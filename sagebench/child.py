"""The measured side of each workload, run in a fresh interpreter.

Usage: ``python3 sagebench/child.py ROLE ARGS_JSON``.  The parent (see
``workloads.py``) starts the clock when it starts the process; the child
prints ``READY <cpu seconds>`` once set-up is done, then measures and
prints one JSON object as its last line.  Every operation is timed as
``[wall, CPU, scaled CPU]`` seconds: wall time, CPU time
(:func:`cpu_seconds`), and CPU time scaled to the reference host's speed
by the readings of a :class:`speed.Gauge` taken around it, which the
bounded metrics use.  Set-up records carry ``setup_scale``, the scale of
the gauge reading taken at process start; ``READY`` leaves that reading's
CPU time out.  Roles:

* ``cold`` — one ``cold_corpus`` sample: a 4-protocol revised sweep with
  C and Python artifacts and no disk cache, between two gauge readings
  taken with both CPUs busy (the parent scales the sample);
* ``edit`` — the ``spec_edit`` loop over a fresh disk cache;
* ``oracle`` — ``spec_edit`` outcome hashes of a range of pool edits on
  the reference parser;
* ``interop`` — the ``interop_replay`` fuzz loop;
* ``replay`` — ``warm_serve``'s in-process replay of each request kind
  (the service time the server adds its overhead to).

With ``"setup_only"`` a child exits after ``READY``.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import pathlib
import resource
import sys
import time

import checks
import speed
from edits import corpus_sentences, outcome_hash, reference_hashes, \
    seeded_edits


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (a fork pool).

    Linux charges a task only for the time it ran, not for time the
    hypervisor gave its CPU to another guest, so on a shared virtual
    machine this is steady where wall time is not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def ready(excluded: float = 0.0) -> None:
    """Report set-up done, with the CPU seconds it took less ``excluded``."""
    print(f"READY {cpu_seconds() - excluded!r}", flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_import() -> float:
    started = time.perf_counter()
    import repro.api  # noqa: F401  (the cost being measured)
    import repro.fuzz  # noqa: F401
    import repro.server.pool  # noqa: F401
    return (time.perf_counter() - started) * 1000.0


def build_substrate(registry) -> float:
    """Registry dictionary, chunker, lexicon, parser and every corpus."""
    started = time.perf_counter()
    registry.dictionary()
    registry.chunker()
    registry.lexicon()
    registry.parser()
    for name in registry.protocols():
        registry.load_corpus(name)
    return (time.perf_counter() - started) * 1000.0


def new_tracer(fork_dir=None):
    from layers import install, parse_counters
    from tracing import Tracer

    tracer = Tracer(fork_dir=fork_dir, counters=parse_counters)
    install(tracer)
    return tracer


def measure(tracer, op, traced: bool, call):
    """Time ``call``: as traced operation ``op`` when ``traced``, else
    with the tracer (if any) switched off.  Returns the :func:`timed`
    sample and result."""
    if tracer is not None:
        tracer.enabled = traced
        tracer.op = op
    if traced:
        from layers import parse_counters

        before = parse_counters()
        with tracer.span("bench.op"):
            sample, result = timed(call)
        tracer.add_counts(before, parse_counters())
    else:
        sample, result = timed(call)
    if tracer is not None:
        tracer.enabled = True
    return sample, result


def timed(call):
    """([wall, CPU, start] seconds, result); :func:`scale_samples` later
    replaces the start with the scaled CPU time."""
    wall, cpu = time.perf_counter(), cpu_seconds()
    result = call()
    return [time.perf_counter() - wall, cpu_seconds() - cpu, wall], result


def scale_samples(samples: list[list], gauge) -> None:
    """Replace each sample's start by its CPU time scaled by the gauge
    readings around it."""
    for sample in samples:
        wall, cpu, start = sample
        sample[2] = cpu * gauge.scale(start, start + wall)


def start_gauge() -> tuple:
    """A gauge read once at process start, before set-up: (the gauge, the
    scale of that reading, the CPU seconds the reading took).  Read there,
    the gauge sees the host as set-up begins and not the heap that set-up
    leaves behind: read right after ``spec_edit``'s set-up it gave
    readings that jumped between 0.6 and 1.0 ms from run to run."""
    started = time.process_time()
    gauge = speed.Gauge()
    gauge.read(speed.SETUP_CALLS)
    return gauge, gauge.scale(), time.process_time() - started


def read_both_cpus(gauge) -> None:
    """A set-up-sized gauge reading taken while a forked copy of this
    process runs the same computation on the other CPU, so the reading
    sees the two CPUs as busy as a pooled sweep keeps them."""
    pid = os.fork()
    if pid == 0:
        try:
            deadline = time.perf_counter() + 2 * speed.SETUP_CALLS / 1000.0
            while time.perf_counter() < deadline:
                speed.kernel()
        finally:
            os._exit(0)
    try:
        gauge.read(speed.SETUP_CALLS)
    finally:
        os.waitpid(pid, 0)


class FullGcClock:
    """CPU seconds spent in the collector's full (generation 2)
    collections.  In ``spec_edit``'s 470 MB heap a run has four to six,
    each 0.3 to 1.2 s, and their cost follows the host's memory system
    more than the gauge: ``spec_edit`` and ``interop_replay`` report them
    beside their bounded times instead of inside them (see
    ``WORKLOADS.md``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.process_time()
        else:
            self.seconds += time.process_time() - self._started
            self.count += 1


class PutClock:
    """CPU seconds spent inside ``CacheStore.put``, the cache's file
    writes, less any full collection ``full_gc`` saw meanwhile.  Nearly
    all of it is kernel time whose cost follows the file system's state
    rather than the program: after many files on the disk were deleted,
    the same writes cost up to five times as much system time for
    minutes.  ``spec_edit`` reports it beside its bounded times instead of
    inside them (see ``WORKLOADS.md``)."""

    def __init__(self, full_gc: FullGcClock) -> None:
        from repro.cache.store import CacheStore

        self.seconds = 0.0
        self.calls = 0
        original = CacheStore.put

        def put(store, *args, **kwargs):
            started = time.process_time()
            collected = full_gc.seconds
            try:
                return original(store, *args, **kwargs)
            finally:
                self.seconds += (time.process_time() - started
                                 - (full_gc.seconds - collected))
                self.calls += 1

        CacheStore.put = put


def compiled_units(service) -> dict:
    """The revised-mode code unit of every fuzzed protocol."""
    from repro.fuzz import PROTOCOLS

    runs = service.engine("revised").process_corpora(list(PROTOCOLS),
                                                     parallel=False)
    return {name: run.code_unit for name, run in runs.items()}


def setup_record(import_ms: float, substrate_ms: float,
                 setup_scale: float) -> dict:
    return {"import_ms": import_ms, "substrate_ms": substrate_ms,
            "setup_scale": setup_scale}


# -- roles --------------------------------------------------------------------
def role_cold(args: dict) -> None:
    gauge, setup_scale, gauge_cpu = start_gauge()
    import_ms = timed_import()
    from repro.api import SageService
    from repro.rfc.registry import ProtocolRegistry

    registry = ProtocolRegistry()
    substrate_ms = build_substrate(registry)
    service = SageService(registry)
    ready(gauge_cpu)
    sweep_gauge = speed.Gauge()
    read_both_cpus(sweep_gauge)
    tracer = new_tracer(args["fork_dir"]) if args["trace"] else None
    sample, response = measure(
        tracer, 0, tracer is not None,
        lambda: service.sweep(artifacts=("c", "python")))
    read_both_cpus(sweep_gauge)
    problems = []
    counts = {}
    for name, reply in response.responses.items():
        counts[name] = reply.status_counts
        sources = {artifact.backend: artifact.source
                   for artifact in reply.artifacts}
        if not sources.get("c") or not sources.get("python"):
            problems.append(f"{name}: missing C or Python artifact")
        if name == "ICMP":
            golden = pathlib.Path(args["golden"]).read_text()
            problems += checks.check_golden(sources.get("c", ""), golden)
    problems += checks.check_status_counts(
        counts, checks.load_expected()["status_counts"])
    record = {"sample": sample, "sweep_readings": sweep_gauge.readings,
              "peak_rss_mb": peak_rss_mb(),
              "sentences": sum(r.sentence_count
                               for r in response.responses.values()),
              "problems": problems,
              **setup_record(import_ms, substrate_ms, setup_scale)}
    if tracer is not None:
        from tracing import load_fork_spans

        workers = load_fork_spans(args["fork_dir"])
        record["spans"] = [tracer.spans] + [w["spans"] for w in workers]
        for worker in workers:
            tracer.add_counts(dict.fromkeys(worker["counts"], 0),
                              worker["counts"])
        record["counts"] = tracer.counts
    emit(record)


def role_edit(args: dict) -> None:
    gauge, setup_scale, gauge_cpu = start_gauge()
    import_ms = timed_import()
    from repro.api import SageService
    from repro.rfc.registry import ProtocolRegistry

    full_gc = FullGcClock()
    puts = PutClock(full_gc)
    registry = ProtocolRegistry(cache_dir=args["cache_dir"])
    substrate_ms = build_substrate(registry)
    service = SageService(registry)
    engine = service.engine("revised")
    engine.process_corpora(parallel=False)
    setup_put_s = puts.seconds
    ready(setup_put_s + gauge_cpu)
    if args["setup_only"]:
        emit(setup_record(import_ms, substrate_ms, setup_scale))
        return
    edits = seeded_edits(corpus_sentences(registry),
                         registry.dictionary().all_terms(), args["seed"],
                         args["edits"])
    tracer = new_tracer() if args["trace"] else None
    samples, traced_samples, hashes, put_seconds = [], [], [], []
    gc_seconds, gc_count = full_gc.seconds, full_gc.count
    statuses = collections.Counter()
    for index, spec in enumerate(edits):
        traced = tracer is not None and index % 2 == 1
        gauge.tick()
        before, collected = puts.seconds, full_gc.seconds
        sample, result = measure(
            tracer, index, traced,
            lambda spec=spec: engine.process_sentence(spec))
        put_seconds.append(puts.seconds - before)
        sample[1] -= put_seconds[-1] + full_gc.seconds - collected
        (traced_samples if traced else samples).append(sample)
        hashes.append(outcome_hash(result))
        statuses[str(getattr(result.status, "value", result.status))] += 1
    gauge.read(speed.OP_CALLS)
    scale_samples(samples + traced_samples, gauge)
    record = {"samples": samples, "traced_samples": traced_samples,
              "edits": len(hashes), "hashes": hashes,
              "statuses": dict(statuses), "put_seconds": put_seconds,
              "setup_put_s": setup_put_s, "puts": puts.calls,
              "full_gc_s": full_gc.seconds - gc_seconds,
              "full_gcs": full_gc.count - gc_count,
              "peak_rss_mb": peak_rss_mb(),
              **setup_record(import_ms, substrate_ms, setup_scale)}
    if tracer is not None:
        record["spans"] = [tracer.spans]
        record["counts"] = tracer.counts
    emit(record)


def role_oracle(args: dict) -> None:
    ready()
    emit({"hashes": reference_hashes(args["start"], args["stop"])})


def role_interop(args: dict) -> None:
    gauge, setup_scale, gauge_cpu = start_gauge()
    import_ms = timed_import()
    from repro.api import SageService
    from repro.fuzz import run_fuzz
    from repro.rfc.registry import ProtocolRegistry

    registry = ProtocolRegistry()
    substrate_ms = build_substrate(registry)
    service = SageService(registry)
    # The service's fuzz endpoint runs the pipeline and compiles every
    # generated program; afterwards only the generated code runs.
    warm = service.fuzz(seed=args["seed"], episodes=12)
    units = compiled_units(service)
    ready(gauge_cpu)
    if args["setup_only"]:
        emit(setup_record(import_ms, substrate_ms, setup_scale))
        return
    problems = [] if warm["clean"] else ["set-up fuzz campaign not clean"]
    full_gc = FullGcClock()
    tracer = new_tracer() if args["trace"] else None
    samples, traced_samples = [], []
    order = checks.campaign_order(args["seed"])
    failed = 0
    for campaign in range(args["cycles"] * len(order)):
        cycle, position = divmod(campaign, len(order))
        fuzz_seed = order[position]
        # Each campaign is traced in every other cycle.
        traced = tracer is not None and (campaign + cycle) % 2 == 1
        gauge.tick()
        collected = full_gc.seconds
        sample, report = measure(
            tracer, campaign, traced,
            lambda fuzz_seed=fuzz_seed: run_fuzz(
                units, seed=fuzz_seed, episodes=checks.FUZZ_EPISODES))
        sample[1] -= full_gc.seconds - collected
        (traced_samples if traced else samples).append(sample)
        wrong = []
        if report.divergences or report.violations or not report.clean:
            wrong.append(f"campaign {fuzz_seed}: {len(report.divergences)} "
                         f"divergences, {len(report.violations)} violations")
        wrong += checks.check_digest(
            f"campaign {fuzz_seed} traces", report.traces_sha1,
            args["expected_traces"][str(fuzz_seed)])
        if wrong:
            failed += 1
            problems += wrong
    gauge.read(speed.OP_CALLS)
    scale_samples(samples + traced_samples, gauge)
    record = {"samples": samples, "traced_samples": traced_samples,
              "campaigns": campaign + 1, "failed": failed,
              "problems": problems,
              "episodes": checks.FUZZ_EPISODES, "peak_rss_mb": peak_rss_mb(),
              "full_gc_s": full_gc.seconds, "full_gcs": full_gc.count,
              **setup_record(import_ms, substrate_ms, setup_scale)}
    if tracer is not None:
        record["spans"] = [tracer.spans]
        record["counts"] = tracer.counts
    emit(record)


def role_replay(args: dict) -> None:
    gauge, setup_scale, gauge_cpu = start_gauge()
    import_ms = timed_import()
    from repro.api import SageService
    from repro.rfc.registry import ProtocolRegistry
    from repro.server.pool import run_endpoint

    registry = ProtocolRegistry(cache_dir=args["cache_dir"])
    substrate_ms = build_substrate(registry)
    service = SageService(registry)
    ready(gauge_cpu)
    tracer = new_tracer() if args["trace"] else None
    by_kind = collections.defaultdict(list)
    samples, traced_samples = [], []
    # Round 0 finds every kind in the disk cache only, as each server
    # worker does at first; it is traced in a traced run and not sampled
    # otherwise.  Later rounds are memory-warm, and a traced run
    # alternates untraced and traced ones.
    for round_index in range(args["rounds"]):
        traced = tracer is not None and round_index % 2 == 0
        for op, (label, endpoint, body, binary, params) in enumerate(
                args["kinds"]):
            gauge.tick()
            sample, _reply = measure(
                tracer, (round_index, op), traced,
                lambda: run_endpoint(service, endpoint, bytes.fromhex(body),
                                     binary_in=binary, binary_out=binary,
                                     params=params))
            if traced:
                traced_samples.append(sample)
            elif round_index:
                by_kind[label].append(sample)
                samples.append(sample)
    gauge.read(speed.OP_CALLS)
    scale_samples(samples + traced_samples, gauge)
    record = {"by_kind": by_kind, "samples": samples,
              "traced_samples": traced_samples,
              **setup_record(import_ms, substrate_ms, setup_scale)}
    if tracer is not None:
        record["spans"] = [tracer.spans]
        record["counts"] = tracer.counts
    emit(record)


ROLES = {"cold": role_cold, "edit": role_edit, "oracle": role_oracle,
         "interop": role_interop, "replay": role_replay}

if __name__ == "__main__":
    ROLES[sys.argv[1]](json.loads(sys.argv[2]))
