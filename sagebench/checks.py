"""Output checks and the expected values they compare against.

``expected.json`` is written by ``make_expected.py`` at a commit whose
outputs are known good: per-protocol status counts of a revised-mode
sweep, the ``spec_edit`` oracle's outcome hash of every edit of the pool
(reference parser) that a run of ``BENCHMARK.json``'s length draws from,
and the ``traces_sha1`` of every ``interop_replay`` fuzz campaign.  A
longer ``spec_edit`` run computes its reference values in fresh processes
instead.  Each check returns a list of problems (or of mismatches); an
empty list passes.
"""

from __future__ import annotations

import json
import pathlib
import random

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")

#: Episodes per ``interop_replay`` fuzz campaign (4 rounds of the 12
#: protocol × family scenarios).
FUZZ_EPISODES = 48
#: The fuzz seeds of the ``interop_replay`` campaigns, the same for every
#: run; the timed loop cycles through them in an order the run's seed
#: shuffles (see ``WORKLOADS.md``).
FUZZ_CAMPAIGNS = 32


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def campaign_order(seed: int) -> list[int]:
    order = list(range(FUZZ_CAMPAIGNS))
    random.Random(seed).shuffle(order)
    return order


def check_golden(source: str, golden: str) -> list[str]:
    """A generated C artifact against its golden file (which ends in one
    newline more than the rendered source)."""
    if source + "\n" == golden:
        return []
    rendered = (source + "\n").splitlines()
    wanted = golden.splitlines()
    for line, (got, want) in enumerate(zip(rendered, wanted), start=1):
        if got != want:
            return [f"golden mismatch at line {line}: {got!r} != {want!r}"]
    return [f"golden mismatch: {len(rendered)} lines rendered, "
            f"{len(wanted)} expected"]


def check_status_counts(observed: dict, expected: dict) -> list[str]:
    """Per-protocol sentence status counts, e.g. ``{"ICMP": {"ok": 35}}``;
    only the protocols in ``observed`` are compared."""
    problems = []
    for protocol, counts in sorted(observed.items()):
        want = expected.get(protocol)
        if dict(counts) != want:
            problems.append(f"{protocol} status counts {dict(counts)} != "
                            f"{want}")
    return problems


def mismatched_edits(observed: list[str], expected: list[str]) -> list[int]:
    """Indices of the edits whose outcome hash differs from the
    reference's; both lists are in the run's order."""
    if len(observed) != len(expected):
        return list(range(max(len(observed), len(expected))))
    return [index for index, (got, want) in enumerate(zip(observed, expected))
            if got != want]


def check_digest(what: str, observed: str, expected: str) -> list[str]:
    if observed == expected:
        return []
    return [f"{what} digest {observed} != expected {expected}"]
