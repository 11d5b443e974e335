"""``warm_serve``: an open-loop rate ladder against ``python -m repro serve``.

Set-up fills a fresh cache directory (one boot that answers every request
kind once), then boots the server :data:`workloads.SETUPS` times over it;
``setup_s`` runs from process start to ``/stats`` answering from every
worker.  The last boot is measured: a closed-loop warm-up pass, then the
ladder.  Requests are due on a fixed schedule whatever the server does
(an open loop); two keep-alive connections send them in due order, and
each latency is timed from when the request was due, so a stall also
delays the requests queued behind it.

The bounded times are the server's own CPU time per round of the request
mix at the low step: the client reads the CPU time of the server and its
workers as it sends the first request of each round, so HTTP handling,
the worker pool's dispatch and the workers' service time all count.  They
are scaled to the reference host's speed (see ``speed.py``) by gauge
readings the load process's main thread takes while its connection
threads send, and before each boot for ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from http.client import HTTPConnection

import checks
import speed
import stats
from workloads import CHILD_TIMEOUT, SETUPS, Outcome, kill_group, \
    latency_metrics, op_metrics, traced_layers

BINARY = "application/x-repro-bin"
CONNECTIONS = 2
#: The rate ladder (requests/s) and each step's share of ``--seconds``,
#: fixed from this benchmark's reference host (2 CPUs), where two
#: closed-loop connections complete 165-220 requests/s of this mix
#: depending on the machine's load.  ``LOW`` and ``HIGH`` name the two
#: reported steps (about a quarter and 60% of that capacity); the probes
#: cross the knee, and the top step stays past it, where the completion
#: rate is the server's capacity.  The low step, whose rounds give the
#: bounded times, takes the largest share.
LADDER = ((50, 0.45), (130, 0.2), (160, 0.05), (190, 0.05), (220, 0.05),
          (250, 0.05), (280, 0.05), (310, 0.1))
LOW, HIGH = 50, 130
#: A step meets the limit when its tail latency (from due time, at the
#: highest percentile with 10 samples beyond it, at most p99) is at most
#: this and its backlog does not grow.
LATENCY_LIMIT_MS = 250.0
#: A step whose unsent requests at its end exceed this share of the
#: step's requests has a growing backlog.
BACKLOG_LIMIT = 0.1
PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")
#: Rounds of the traced in-process replay of every kind; the first is
#: disk-warm.
REPLAY_ROUNDS = 61
#: Seconds between the gauge readings taken during the open loop.
GAUGE_PERIOD_S = 0.05


def traffic_mix() -> list[tuple]:
    """(label, method, path, endpoint, body, binary, params) per kind: the
    load-harness kinds — process JSON and binary for every protocol, the
    batch sweep, GET parse — plus a process request with a C artifact."""
    from repro.api.binenc import to_bytes
    from repro.api.contracts import ProcessRequest

    kinds = []
    for protocol in PROTOCOLS:
        fields = {"protocol": protocol, "include_sentences": False}
        kinds.append((f"process-{protocol.lower()}", "POST", "/v1/process",
                      "process", json.dumps(fields).encode(), False, {}))
        kinds.append((f"process-{protocol.lower()}-bin", "POST",
                      "/v1/process", "process",
                      to_bytes(ProcessRequest(**fields)), True, {}))
    kinds.append(("sweep", "POST", "/v1/sweep", "sweep",
                  json.dumps({"parallel": False,
                              "include_sentences": False}).encode(),
                  False, {}))
    kinds.append(("parse-icmp", "GET", "/v1/parse/ICMP", "parse", b"", False,
                  {"protocol": "ICMP"}))
    kinds.append(("process-icmp-c", "POST", "/v1/process", "process",
                  json.dumps({"protocol": "ICMP", "include_sentences": False,
                              "artifacts": ["c"]}).encode(), False, {}))
    return kinds


def ladder_schedule(seconds: float) -> list[tuple[int, float, float]]:
    """(rate, start offset, duration) per step."""
    steps, offset = [], 0.0
    for rate, share in LADDER:
        steps.append((rate, offset, seconds * share))
        offset += seconds * share
    return steps


class Server:
    """One ``python -m repro serve`` process tree."""

    def __init__(self, bench, cache_dir: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=bench.env, cwd=bench.root, start_new_session=True,
        )
        try:
            banner = self.proc.stdout.readline().split()
            # "serving on http://127.0.0.1:PORT (process mode, N workers; ..."
            host_port = banner[2].split("//")[1]
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            self.workers = int(banner[5])
            deadline = time.perf_counter() + CHILD_TIMEOUT
            while self.stats()["service"]["worker_count"] < self.workers:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server workers never all answered")
        except Exception:
            self.close()
            raise
        #: The server and its workers, all running once every worker
        #: has answered.
        self.pids = self.tree()
        #: [wall, CPU] seconds from start to every worker answering.
        self.setup = [time.perf_counter() - self.started, self.cpu_seconds()]

    def get(self, path: str) -> tuple[int, bytes]:
        conn = HTTPConnection(self.host, self.port, timeout=CHILD_TIMEOUT)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)["data"]

    def tree(self) -> list[int]:
        """The server process and its workers."""
        pids = [self.proc.pid]
        for entry in pathlib.Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    fields = (entry / "stat").read_text().rsplit(")", 1)[1]
                except OSError:
                    continue
                if int(fields.split()[1]) == self.proc.pid:
                    pids.append(int(entry.name))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS (VmHWM) of the server and its workers."""
        total_kb = 0
        for pid in self.pids:
            for line in pathlib.Path(f"/proc/{pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """CPU time the server and its workers have run (schedstat), which
        excludes time the hypervisor gave to other guests."""
        return sum(int(pathlib.Path(f"/proc/{pid}/schedstat").read_text()
                       .split()[0]) for pid in self.pids) / 1e9

    def close(self) -> None:
        """Interrupt the server (it shuts its pool down), then make sure
        the whole process group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc)
        self.proc.stdout.close()


def send(conn: HTTPConnection, kind: tuple) -> tuple[int, bytes]:
    _label, method, path, _endpoint, body, binary, _params = kind
    headers = {"Content-Type": BINARY, "Accept": BINARY} if binary else {}
    conn.request(method, path, body=body or None, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def closed_pass(server: Server, kinds: list[tuple], rounds: int) -> list:
    """Each kind ``rounds`` times on each connection, one at a time."""
    results = []
    for _ in range(CONNECTIONS):
        conn = HTTPConnection(server.host, server.port, timeout=CHILD_TIMEOUT)
        try:
            for _ in range(rounds):
                for kind in kinds:
                    results.append((kind[0],) + send(conn, kind))
        finally:
            conn.close()
    return results


def open_loop(server: Server, kinds: list[tuple], order: list[int],
              dues: list[float], gauge) -> tuple[list[list], dict, dict,
                                                 float]:
    """Send request ``i`` (kind ``order[i]``) at ``dues[i]`` seconds from
    the returned origin (a ``perf_counter`` time) or as soon after as a
    connection is free.  Records per request: [due, sent, done, status,
    body digest, kind label], relative to the origin; bodies are kept by
    digest.  The server's CPU seconds are read just before each round's
    first request (``i`` a multiple of ``len(kinds)``) is sent.  Meanwhile
    this thread reads ``gauge`` every :data:`GAUGE_PERIOD_S`."""
    records = [None] * len(dues)
    round_cpu: dict[int, float] = {}
    bodies: dict[str, tuple[str, bytes]] = {}
    cursor = [0]
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def client() -> None:
        conn = HTTPConnection(server.host, server.port, timeout=CHILD_TIMEOUT)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(dues):
                        return
                    cursor[0] += 1
                due = origin + dues[index]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if index % len(kinds) == 0:
                    round_cpu[index // len(kinds)] = server.cpu_seconds()
                sent = time.perf_counter()
                kind = kinds[order[index]]
                try:
                    status, body = send(conn, kind)
                except OSError:
                    conn.close()
                    conn = HTTPConnection(server.host, server.port,
                                          timeout=CHILD_TIMEOUT)
                    status, body = 0, b""
                done = time.perf_counter()
                digest = hashlib.sha1(body).hexdigest()
                with lock:
                    bodies.setdefault(digest, (kind[0], body))
                records[index] = [due - origin, sent - origin, done - origin,
                                  status, digest, kind[0]]
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        gauge.read(speed.OP_CALLS)
        time.sleep(GAUGE_PERIOD_S)
    for thread in threads:
        thread.join()
    return records, bodies, round_cpu, origin


def step_summary(records: list[list], rate: int, end: float) -> dict:
    """Latency from due, generator lateness and backlog of one step that
    ends ``end`` seconds into the ladder."""
    latencies = [(r[2] - r[0]) * 1000.0 for r in records]
    late = [(r[1] - r[0]) * 1000.0 for r in records]
    dues = [r[0] for r in records]
    sent = sorted(r[1] for r in records)
    # Backlog when each request was sent: requests already due, not sent.
    backlog = [bisect_right(dues, r[1]) - index
               for index, r in enumerate(records)]
    backlog_end = len(records) - bisect_right(sent, end)
    failed = sum(1 for r in records if r[3] != 200)
    tail_ms = stats.tail(latencies)[1]
    if failed:
        tail_ms = float("inf")  # a failed request misses every limit
    growing = backlog_end > BACKLOG_LIMIT * len(records)
    return {"rate": rate, "requests": len(records), "failed": failed,
            "latencies_ms": latencies, "labels": [r[5] for r in records],
            "tail_ms": tail_ms, "late_tail_ms": stats.tail(late)[1],
            "backlog_max": max(backlog), "backlog_end": backlog_end,
            "meets_limit": tail_ms <= LATENCY_LIMIT_MS and not growing}


def max_rate(steps: list[dict]) -> float:
    """The highest ladder rate meeting the latency limit, interpolated on
    the tail latency towards the step above it."""
    passing = [i for i, step in enumerate(steps) if step["meets_limit"]]
    if not passing:
        first = steps[0]
        return first["rate"] * LATENCY_LIMIT_MS / first["tail_ms"]
    best = steps[passing[-1]]
    if passing[-1] + 1 == len(steps):
        return best["rate"]
    above = steps[passing[-1] + 1]
    rise = above["tail_ms"] - best["tail_ms"]
    share = (LATENCY_LIMIT_MS - best["tail_ms"]) / rise if rise > 0 else 0.0
    return best["rate"] + (above["rate"] - best["rate"]) * min(1.0, share)


def check_bodies(bodies: dict, expected_counts: dict) -> tuple[list, set]:
    """Decode every distinct response body; returns (problems, digests of
    bodies that failed)."""
    from repro.api import binenc, contracts

    problems, bad = [], set()
    decoded: dict[str, object] = {}
    for digest, (label, body) in bodies.items():
        try:
            if label.endswith("-bin"):
                value = binenc.from_bytes(body)
            elif label == "parse-icmp":
                value = json.loads(body)
                if value.get("kind") != "parse_diagnostics":
                    raise ValueError(f"kind {value.get('kind')!r}")
            else:
                value = contracts.from_json(body.decode("utf-8"))
        except Exception as exc:  # any decode failure is a wrong output
            problems.append(f"{label}: response does not decode ({exc})")
            bad.add(digest)
            continue
        counts = {}
        if label == "sweep":
            counts = {name: reply.status_counts
                      for name, reply in value.responses.items()}
        elif label.startswith("process-"):
            counts = {value.protocol: value.status_counts}
        wrong = checks.check_status_counts(counts, expected_counts)
        if wrong:
            problems += [f"{label}: {w}" for w in wrong]
            bad.add(digest)
        decoded.setdefault(label, value)
    for protocol in PROTOCOLS:
        json_label = f"process-{protocol.lower()}"
        bin_label = json_label + "-bin"
        if (json_label in decoded and bin_label in decoded
                and decoded[json_label] != decoded[bin_label]):
            problems.append(f"{protocol}: JSON and binary responses differ")
    if not all(f"process-{p.lower()}-bin" in decoded for p in PROTOCOLS):
        problems.append("no JSON/binary response pair decoded")
    return problems, bad


def run_warm_serve(bench, seed: int, seconds: float, trace: bool) -> Outcome:
    kinds = traffic_mix()
    cache_dir = bench.fresh_dir("cache")
    filler = Server(bench, cache_dir)
    try:
        fill = closed_pass(filler, kinds, rounds=1)
    finally:
        filler.close()
    setups, server = [], None
    gauge = speed.Gauge()
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.close()
            # Read before the boot: the booting workers would slow the
            # gauge on the other CPU.
            setup_ms = gauge.read(speed.SETUP_CALLS)
            server = Server(bench, cache_dir)
            setups.append(server.setup
                          + [server.setup[1] * speed.REFERENCE_MS / setup_ms])
        warmup = closed_pass(server, kinds, rounds=2)
        before = server.stats()["service"]["parse_cache"]["misses"]
        rng = random.Random(seed)
        steps = ladder_schedule(seconds)
        dues, bounds = [], []
        for rate, offset, duration in steps:
            first = len(dues)
            dues += [offset + i / rate for i in range(int(rate * duration))]
            bounds.append((rate, first, len(dues), offset, offset + duration))
        # Every block of len(kinds) requests holds each kind once, in a
        # seeded order, so seeds share the mix and differ in its order.
        order = []
        while len(order) < len(dues):
            order += rng.sample(range(len(kinds)), len(kinds))
        order = order[:len(dues)]
        cpu_before = server.cpu_seconds()
        records, bodies, round_cpu, origin = open_loop(server, kinds, order,
                                                       dues, gauge)
        server_cpu = server.cpu_seconds() - cpu_before
        parse_misses = server.stats()["service"]["parse_cache"]["misses"] - before
        peak_rss = server.peak_rss_mb()
        tree_changed = sorted(server.tree()) != sorted(server.pids)
    finally:
        if server is not None:
            server.close()

    problems, bad = check_bodies(bodies, checks.load_expected()["status_counts"])
    if tree_changed:
        problems.append("the server's processes changed during the run")
    for label, status, _body in fill + warmup:
        if status != 200:
            problems.append(f"set-up {label} answered {status}")
    for record in records:
        if record[3] == 200 and record[4] in bad:
            record[3] = -1  # answered, but with a wrong output
    summaries = [step_summary(records[first:last], rate, end)
                 for rate, first, last, _start, end in bounds]
    # Past the knee the server is never idle: its completion rate over the
    # top step, whatever step the requests were due in, is its capacity.
    _rate, _first, _last, top_start, top_end = bounds[-1]
    capacity = sum(1 for r in records
                   if top_start <= r[2] < top_end) / (top_end - top_start)
    by_rate = {s["rate"]: s for s in summaries}
    failed = sum(s["failed"] for s in summaries)
    if failed:
        problems.append(f"{failed} requests failed or answered wrongly")
    low, high = by_rate[LOW], by_rate[HIGH]
    low_latency = latency_metrics([ms / 1000.0 for ms in low["latencies_ms"]])
    high_latency = latency_metrics(
        [ms / 1000.0 for ms in high["latencies_ms"]])
    max_rps = max_rate(summaries)
    # One operation is one round of the mix (each kind once) at the low
    # step: kinds differ several-fold in cost, so a per-request median
    # jumps between kinds.  Its wall time spans the round's schedule.
    _rate, first, last, _start, _end = bounds[0]
    rounds = []
    for k in range(first // len(kinds), last // len(kinds)):
        start = records[k * len(kinds)][1]
        end = records[(k + 1) * len(kinds)][1]
        cpu = round_cpu[k + 1] - round_cpu[k]
        rounds.append([end - start, cpu,
                       cpu * gauge.scale(origin + start, origin + end)])
    # Throughput is taken at the low step too.  Over the whole ladder it
    # spread by 0.12 over eight seeds: past the knee the backlog grows and
    # the CPU a request costs moves with the host.  And the server is busy
    # less than half of the time only at the low step, so that only there
    # the median gauge reading is one taken while the other CPU is idle.
    metrics, report = op_metrics(
        setups, peak_rss, rounds,
        len(rounds) * len(kinds) / sum(r[2] for r in rounds))
    del report["wall_latency"]
    report.update({
        "serve_latency_lo": low_latency,
        "serve_latency_hi": high_latency,
        "serve_max_rps": max_rps,
        "serve_capacity_rps": capacity,
        "server_cpu_ms_per_request": server_cpu * 1000.0 / len(records),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "workers": server.workers,
        "parse_misses_measured": parse_misses,
        "phases": {
            "fill": {"attempted": len(fill),
                     "failed": sum(1 for r in fill if r[1] != 200)},
            "warmup": {"attempted": len(warmup),
                       "failed": sum(1 for r in warmup if r[1] != 200)},
            **{f"rate_{s['rate']}": {
                "attempted": s["requests"],
                "succeeded": s["requests"] - s["failed"],
                "failed": s["failed"],
                "tail_ms": s["tail_ms"], "late_tail_ms": s["late_tail_ms"],
                "backlog_max": s["backlog_max"],
                "backlog_end": s["backlog_end"],
                "meets_limit": s["meets_limit"]} for s in summaries},
        },
    })
    layer_metrics = {}
    if trace:
        replay = bench.child("replay", {
            "cache_dir": cache_dir, "rounds": REPLAY_ROUNDS, "trace": trace,
            "kinds": [(k[0], k[3], k[4].hex(), k[5], k[6]) for k in kinds]})[1]
        layer_metrics = replay_layers(replay, low)
        layer_metrics.update({
            "server.gen_late_tail_ms": low["late_tail_ms"],
            "server.backlog_max": max(s["backlog_max"] for s in summaries),
            "server.parse_misses": parse_misses,
            "server.tail_ms_hi": high["tail_ms"],
            "server.max_rps": max_rps,
        })
        report["predicted_split"] = {"parse_misses_measured": parse_misses,
                                     "holds": parse_misses == 0}
    return Outcome(len(records), failed, problems, metrics, layer_metrics,
                   report)


def replay_layers(replay: dict, low: dict) -> dict:
    """Per-layer split of the server's work, from the traced in-process
    replay of every kind over the same cache directory, and the client
    latency at the low rate minus the in-process wall time of the same
    kind."""
    traced = replay["traced_samples"]
    metrics = traced_layers([replay], len(traced), replay["samples"], traced)
    service_ms = {label: stats.median(s[0] for s in samples) * 1000.0
                  for label, samples in replay["by_kind"].items()}
    metrics["server.overhead_p50_ms"] = stats.median(
        latency - service_ms[label]
        for latency, label in zip(low["latencies_ms"], low["labels"]))
    return metrics
