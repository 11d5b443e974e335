"""The four workloads, driven from the benchmark process.

Each workload function takes ``(bench, seed, seconds, trace)`` and returns
a :class:`Outcome`.  ``bench`` is the :class:`Bench` holding the checkout
paths and the environment every child process gets: ``PYTHONPATH`` on the
checkout's ``src``, temporary files inside the checkout, and
``REPRO_CACHE_DIR`` removed, so each workload alone decides whether a
disk cache exists.  See ``WORKLOADS.md`` for why each workload exists.
"""

from __future__ import annotations

import compileall
import concurrent.futures
import dataclasses
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import checks
import layers
import speed
import stats
from edits import edit_order

#: ``spec_edit`` and ``interop_replay`` set up this many times per run
#: (``cold_corpus`` sets up once per sample, ``warm_serve`` boots this
#: many servers); ``setup_s`` is the median.
SETUPS = 5
#: Fewest ``cold_corpus`` samples, however short ``--seconds`` is.
MIN_COLD_SAMPLES = 5
#: ``spec_edit`` runs a fixed number of edits per second of ``--seconds``
#: (about what the reference host completes), so every run does the same
#: work and the memos grow alike: memory and late-run latency then compare
#: across runs and machine speeds.
EDITS_PER_SECOND = 70
#: ``interop_replay`` runs this many cycles of its campaigns per second of
#: ``--seconds`` (a cycle takes 3.5-5 s of CPU time on the reference
#: host), so every run does the same work: each campaign runs equally
#: often, and the campaigns differ in cost.
CYCLES_PER_SECOND = 0.25
#: Seconds a child or server may take for one step before the run fails.
CHILD_TIMEOUT = 120.0


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list
    #: End-to-end metrics (name → value), see ``run.END_TO_END``.
    metrics: dict
    #: Per-layer metrics (traced runs only).
    layers: dict
    #: The workload's metrics under their descriptive names, and the run
    #: accounting per phase, for the printed report.
    report: dict


class Bench:
    def __init__(self, root: pathlib.Path) -> None:
        # Byte-compile the program once, as an installed package is, so no
        # measured process pays for compiling sources (which it would do
        # on every start where writing bytecode is disabled).
        compileall.compile_dir(str(root / "src"), quiet=1)
        compileall.compile_dir(str(pathlib.Path(__file__).parent), quiet=1,
                               maxlevels=0)
        self.root = root
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=self.work))
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(self.tmp)
        self.env = env
        self.child_script = str(pathlib.Path(__file__).with_name("child.py"))

    def fresh_dir(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=name + "-", dir=self.tmp)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- child processes ------------------------------------------------------
    def child(self, role: str, args: dict) -> tuple[list, dict]:
        """Run one child to completion: ([wall, CPU, scaled CPU] seconds to
        READY, its record)."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, self.child_script, role, json.dumps(args)],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root,
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, kill_group, (proc,))
        watchdog.start()
        try:
            line = proc.stdout.readline().split()
            setup = [time.perf_counter() - started,
                     float(line[1]) if len(line) == 2 else 0.0]
            output = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            kill_group(proc)
        if line[:1] != ["READY"] or proc.returncode != 0:
            raise RuntimeError(f"{role} child failed (exit {proc.returncode})")
        record = json.loads(output.strip().splitlines()[-1])
        setup.append(setup[1] * record.get("setup_scale", 1.0))
        return setup, record

    def children(self, role: str, args_list: list[dict]) -> list[dict]:
        """Run one child per entry of ``args_list`` at once, one per CPU at
        most; their records in order."""
        workers = min(len(args_list), os.cpu_count() or 1)
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            return [record for _setup, record in
                    pool.map(lambda args: self.child(role, args), args_list)]


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child started in its own session together with any process
    it forked (a ``cold_corpus`` child's pool workers outlive it when it
    is killed), and wait until all of them have ended.  Killed orphans
    are reaped by init, so the wait is bounded: where init does not reap,
    they stay zombies, which run nothing."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def latency_metrics(seconds_list: list[float]) -> dict:
    """Lower quartile, median, bounded tail and highest reportable tail of
    per-operation seconds, in ms."""
    millis = [value * 1000.0 for value in seconds_list]
    q, tail_ms = stats.tail(millis, cap=stats.BOUNDED_TAIL)
    top_q, top_ms = stats.tail(millis)
    return {"p25_ms": stats.percentile(millis, 25.0),
            "p50_ms": stats.median(millis), "tail_ms": tail_ms,
            "tail_percentile": q, f"p{top_q:g}_ms": top_ms}


def split(samples: list[list]) -> tuple[list[float], ...]:
    """[wall, CPU, scaled CPU] samples → (wall, CPU, scaled CPU) lists."""
    return tuple([s[column] for s in samples] for column in range(3))


def op_metrics(setups: list[list], peak_rss_mb: float, samples: list[list],
               per_cpu_second: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a closed-loop workload, from scaled CPU
    time (``per_cpu_second`` too), and the wall and raw CPU views of the
    same operations for the report."""
    setup_wall, setup_cpu, setup_scaled = split(setups)
    wall, cpu, scaled = split(samples)
    scaled_latency = latency_metrics(scaled)
    metrics = {
        "setup_s": stats.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
        "op_cpu_p50_ms": scaled_latency["p50_ms"],
        "op_cpu_tail_ms": scaled_latency["tail_ms"],
        "ops_per_cpu_s": per_cpu_second,
    }
    report = {"setup_wall_s": stats.median(setup_wall),
              "setup_cpu_s": stats.median(setup_cpu),
              "setup_scaled_cpu_s": metrics["setup_s"],
              "peak_rss_mb": peak_rss_mb,
              "wall_latency": latency_metrics(wall),
              "cpu_latency": latency_metrics(cpu),
              "scaled_cpu_latency": scaled_latency}
    return metrics, report


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    if not untraced or not traced:
        return 0.0
    base = stats.median(untraced)
    return (stats.median(traced) - base) / base * 100.0


def traced_layers(records: list[dict], ops: int, untraced: list[list],
                  traced: list[list]) -> dict:
    """Per-layer metrics over the traced operations of ``records``; the
    operation time and tracing overhead are in CPU time."""
    span_lists = [spans for record in records for spans in record["spans"]]
    counts: dict[str, int] = {}
    for record in records:
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
    metrics = layers.layer_metrics(span_lists, counts, ops)
    untraced_cpu, traced_cpu = split(untraced)[2], split(traced)[2]
    metrics["trace.op_ms"] = (stats.median(traced_cpu) * 1000.0
                              if traced_cpu else 0.0)
    metrics["trace.overhead_pct"] = overhead_pct(untraced_cpu, traced_cpu)
    metrics["repro.import_ms"] = stats.median(r["import_ms"] for r in records)
    metrics["rfc.substrate_ms"] = stats.median(
        r["substrate_ms"] for r in records)
    return metrics


# -- cold_corpus --------------------------------------------------------------
def cold_corpus(bench: Bench, seed: int, seconds: float,
                trace: bool) -> Outcome:
    """Fresh process per sample: import, substrate, one 4-protocol sweep.

    The corpus is the input, so ``seed`` does not change it."""
    golden = str(bench.root / "tests" / "golden" / "icmp_revised.c")
    fork_dir = bench.fresh_dir("spans")
    samples, traced_samples, problems = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(samples) < MIN_COLD_SAMPLES):
        is_traced = trace and len(samples) > len(traced_samples)
        setup, record = bench.child("cold", {
            "trace": is_traced, "fork_dir": fork_dir, "golden": golden})
        record["setup"] = setup
        (traced_samples if is_traced else samples).append(record)
        if record["problems"]:
            failed += 1
            problems += record["problems"]
    everything = samples + traced_samples
    # A sweep keeps both CPUs busy for about 1.5 s; its scale is the
    # run's median two-CPU reading, two per sample (see WORKLOADS.md).
    scale = speed.REFERENCE_MS / stats.median(
        r for s in everything for r in s["sweep_readings"])
    for record in everything:
        record["sample"][2] = record["sample"][1] * scale
    sweeps = [s["sample"] for s in samples]
    sentences = samples[0]["sentences"]
    metrics, report = op_metrics(
        [s["setup"] for s in everything],
        stats.median(s["peak_rss_mb"] for s in samples), sweeps,
        sentences / stats.median(split(sweeps)[2]))
    report.update({
        "cold_sweep_s": stats.median(split(sweeps)[0]),
        "sentences_per_sweep": sentences,
        "phases": {"sweep": {"attempted": len(everything),
                             "succeeded": len(everything) - failed,
                             "failed": failed,
                             "traced": len(traced_samples)}},
    })
    layer_metrics = {}
    if trace:
        layer_metrics = traced_layers(
            traced_samples, len(traced_samples), sweeps,
            [s["sample"] for s in traced_samples])
        # Summed over the pool's workers, so it can exceed 1.
        share = (layer_metrics["parsing.parse_self_ms"]
                 / layer_metrics["trace.op_ms"])
        report["predicted_split"] = {"parse_self_share_of_sweep": share,
                                     "holds": share > 0.5}
    return Outcome(len(everything), failed, problems, metrics, layer_metrics,
                   report)


# -- spec_edit ----------------------------------------------------------------
def edit_count(seconds: float) -> int:
    return max(1, round(EDITS_PER_SECOND * seconds))


def reference_edit_hashes(bench: Bench, edits: int) -> list[str]:
    """The oracle's outcome hashes of the first ``edits`` pool edits: from
    ``expected.json``, or else computed on the reference parser in fresh
    processes, each taking an equal share of the edits."""
    stored = checks.load_expected()["edit_outcomes"]
    if len(stored) >= edits:
        return stored[:edits]
    shares = os.cpu_count() or 1
    cuts = [edits * share // shares for share in range(shares + 1)]
    records = bench.children("oracle", [
        {"start": start, "stop": stop} for start, stop in zip(cuts, cuts[1:])])
    return [value for record in records for value in record["hashes"]]


def spec_edit(bench: Bench, seed: int, seconds: float,
              trace: bool) -> Outcome:
    """Seeded single-term edits through ``SageEngine.process_sentence`` in
    one warm process over a fresh disk cache."""
    setups = [bench.child("edit", {"cache_dir": bench.fresh_dir("cache"),
                                   "setup_only": True})[0]
              for _ in range(SETUPS - 1)]
    edits = edit_count(seconds)
    setup, record = bench.child("edit", {
        "cache_dir": bench.fresh_dir("cache"), "setup_only": False,
        "seed": seed, "trace": trace, "edits": edits})
    setups.append(setup)
    reference = reference_edit_hashes(bench, edits)
    order = edit_order(seed, edits)
    wrong = checks.mismatched_edits(record["hashes"],
                                    [reference[index] for index in order])
    problems = []
    if wrong:
        problems.append(f"{len(wrong)} of {edits} edits differ from the "
                        f"reference outcome, the first at edit {wrong[0]}")
    samples = record["samples"]
    wall, _cpu, scaled = split(samples)
    metrics, report = op_metrics(setups, record["peak_rss_mb"], samples,
                                 len(scaled) / sum(scaled))
    attempted = record["edits"]
    failed = len(wrong)
    put_ms = [value * 1000.0 for value in record["put_seconds"]]
    report.update({
        "edit_sentences_per_s": len(wall) / sum(wall),
        "statuses": record["statuses"],
        "cache_puts": record["puts"],
        "cache_put_cpu_ms_per_edit": sum(put_ms) / len(put_ms),
        "cache_put_cpu_ms_p50": stats.median(put_ms),
        "setup_cache_put_cpu_s": record["setup_put_s"],
        "full_gc_cpu_s": record["full_gc_s"],
        "full_gcs": record["full_gcs"],
        "phases": {"setup": {"attempted": SETUPS, "succeeded": SETUPS,
                             "failed": 0},
                   "edit": {"attempted": attempted,
                            "succeeded": attempted - failed,
                            "failed": failed,
                            "traced": len(record["traced_samples"]),
                            "oracle_checked": attempted}},
    })
    layer_metrics = {}
    if trace:
        layer_metrics = traced_layers(
            [record], len(record["traced_samples"]), samples,
            record["traced_samples"])
        hit_ratio = layer_metrics["core.parse_stage_hit_ratio"]
        report["predicted_split"] = {"parse_stage_hit_ratio": hit_ratio,
                                     "holds": hit_ratio < 0.05}
    return Outcome(attempted, failed, problems, metrics, layer_metrics,
                   report)


# -- interop_replay -----------------------------------------------------------
def interop_replay(bench: Bench, seed: int, seconds: float,
                   trace: bool) -> Outcome:
    """Seeded differential fuzz campaigns over the compiled programs."""
    setups = [bench.child("interop", {"seed": seed, "setup_only": True})[0]
              for _ in range(SETUPS - 1)]
    setup, record = bench.child("interop", {
        "seed": seed, "setup_only": False,
        "cycles": max(1, round(CYCLES_PER_SECOND * seconds)),
        "trace": trace,
        "expected_traces": checks.load_expected()["fuzz_traces"]})
    setups.append(setup)
    samples = record["samples"]
    wall, _cpu, scaled = split(samples)
    metrics, report = op_metrics(setups, record["peak_rss_mb"], samples,
                                 record["episodes"] * len(scaled)
                                 / sum(scaled))
    attempted = record["campaigns"]
    failed = record["failed"]
    if record["problems"] and not failed:
        failed = 1  # the set-up campaign was not clean
    report.update({
        "interop_episodes_per_s": record["episodes"] * len(wall) / sum(wall),
        "full_gc_cpu_s": record["full_gc_s"],
        "full_gcs": record["full_gcs"],
        "phases": {"fuzz": {"attempted": attempted,
                            "succeeded": attempted - failed,
                            "failed": failed,
                            "episodes_per_campaign": record["episodes"],
                            "traced": len(record["traced_samples"])}},
    })
    layer_metrics = {}
    if trace:
        layer_metrics = traced_layers(
            [record], len(record["traced_samples"]), samples,
            record["traced_samples"])
        pipeline = layers.pipeline_calls(record["spans"])
        report["predicted_split"] = {"pipeline_spans_in_measured_phase":
                                     pipeline, "holds": pipeline == 0}
    return Outcome(attempted, failed, record["problems"], metrics,
                   layer_metrics, report)


# -- warm_serve ---------------------------------------------------------------
def warm_serve(bench: Bench, seed: int, seconds: float,
               trace: bool) -> Outcome:
    from serve_load import run_warm_serve

    return run_warm_serve(bench, seed, seconds, trace)


WORKLOADS = {
    "cold_corpus": cold_corpus,
    "spec_edit": spec_edit,
    "warm_serve": warm_serve,
    "interop_replay": interop_replay,
}
