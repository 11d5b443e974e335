"""Write ``expected.json``: the values the benchmark's output checks use.

Run from the repository root at a commit whose outputs are known good::

    PYTHONPATH=src python3 sagebench/make_expected.py

It records the per-protocol status counts of a revised-mode sweep, the
oracle's outcome hash of every ``spec_edit`` pool edit that a run of
``BENCHMARK.json``'s ``run_seconds`` makes (reference parser backend, no
disk cache), and the ``traces_sha1`` of every ``interop_replay`` fuzz
campaign.  A longer ``spec_edit`` run computes its reference values
instead.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib

import checks
from child import compiled_units
from edits import reference_hashes
from workloads import edit_count


def main() -> int:
    os.environ.pop("REPRO_CACHE_DIR", None)
    spec = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    edits = edit_count(json.loads(spec.read_text())["run_seconds"])

    from repro.api import SageService
    from repro.fuzz import run_fuzz
    from repro.rfc.registry import ProtocolRegistry

    service = SageService(ProtocolRegistry())
    sweep = service.sweep(parallel=False)
    status_counts = {name: reply.status_counts
                     for name, reply in sweep.responses.items()}
    units = compiled_units(service)
    fuzz_traces = {
        str(seed): run_fuzz(units, seed=seed,
                            episodes=checks.FUZZ_EPISODES).traces_sha1
        for seed in range(checks.FUZZ_CAMPAIGNS)
    }
    shares = os.cpu_count() or 1
    cuts = [edits * share // shares for share in range(shares + 1)]
    with multiprocessing.get_context("spawn").Pool(shares) as pool:
        edit_outcomes = [value for hashes in pool.starmap(
            reference_hashes, zip(cuts, cuts[1:])) for value in hashes]
    checks.EXPECTED_PATH.write_text(json.dumps({
        "status_counts": status_counts,
        "edit_outcomes": edit_outcomes,
        "fuzz_episodes": checks.FUZZ_EPISODES,
        "fuzz_traces": fuzz_traces,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
