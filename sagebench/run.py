"""Benchmark of the SAGE pipeline: one workload per run, from a seed.

Usage (from the repository root)::

    python3 sagebench/run.py --workload cold_corpus --seed 0 --seconds 15 --trace 0

Workloads: ``cold_corpus``, ``spec_edit``, ``warm_serve``,
``interop_replay`` (see ``WORKLOADS.md``).  The run checks the program's
outputs, prints a report (metrics under their descriptive names, run
accounting per phase, host fingerprint, commit) and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, measured from spans around calls into the program.  The
full record is also saved under ``.bench_results/`` for ``compare.py``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metric → unit; every workload reports all of them.  Times
#: are CPU time scaled to the reference host's speed (see ``speed.py`` and
#: ``WORKLOADS.md``); raw CPU and wall times are in the report.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_cpu_p50_ms": "ms",
    "op_cpu_tail_ms": "ms",
    "ops_per_cpu_s": "1/s",
}


def host_fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine()}


def commit_id() -> str:
    """The git commit, or a digest of ``src/`` where there is no git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Bench
    from layers import PER_LAYER

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    # Turn SIGTERM into SystemExit, so that the clean-up below stops every
    # child process and server this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored in every child; the server stops cleanly only
    # on SIGINT.  A handled signal is reset to the default in children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    bench = Bench(ROOT)
    started = time.time()
    try:
        outcome = WORKLOADS[args.workload](bench, args.seed, args.seconds,
                                           bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: the {args.workload} run did not complete",
              file=sys.stderr)
        return 1
    finally:
        bench.close()

    correct = not outcome.problems and outcome.failed == 0
    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": started, "host": host_fingerprint(),
        "commit": commit_id(), "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems, "report": outcome.report,
        "metrics": metrics,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"commit {record['commit']}")
    print("host " + json.dumps(record["host"]))
    print(f"failed_frac {record['failed_frac']:.6g}  "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for key, value in outcome.report.items():
        print(f"report {key} = {json.dumps(value)}")
    for metric, entry in metrics.items():
        print(f"metric {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
