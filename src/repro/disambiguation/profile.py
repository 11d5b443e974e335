"""Instrumentation counters for the winnow hot path.

The process-global :data:`PROFILE` (a :class:`~repro.counters.Counters`)
accumulates what the §4.2 checks (:mod:`.checks`) and the cached
:class:`~repro.core.stages.WinnowStage` actually did: winnow calls and
form flow, the per-node span/calls traversal caches, and the stage-level
winnow result cache.

Consumers:

* ``SageService.winnow_diagnostics`` wraps a corpus winnow in a delta and
  reports it under the ``"profile"`` key;
* ``python -m repro winnow --profile`` renders the same delta;
* ``benchmarks/pipeline_smoke.py`` records the warm sweep's counters into
  ``BENCH_pipeline.json`` under ``winnow_profile``.
"""

from __future__ import annotations

from ..counters import Counters

__all__ = ["COUNTER_NAMES", "PROFILE", "profile_snapshot", "reset_profile",
           "profile_delta"]

#: The raw counter names, in reporting order.
COUNTER_NAMES = (
    "winnows",              # winnow() calls (cache misses at the stage level)
    "forms_in",             # base logical forms entering winnow()
    "forms_survived",       # survivors leaving winnow()
    "span_cache_hits",      # per-node span_of results answered
    "span_cache_misses",
    "calls_cache_hits",     # per-node iter_calls tuples answered
    "calls_cache_misses",
    "stage_cache_hits",     # WinnowStage result-cache probes answered
    "stage_cache_misses",
)

#: The process-global profile every winnow in this process reports into.
PROFILE = Counters(COUNTER_NAMES, (
    ("span_cache_hits", "span_cache_misses", "span_cache_hit_rate"),
    ("calls_cache_hits", "calls_cache_misses", "calls_cache_hit_rate"),
    ("stage_cache_hits", "stage_cache_misses", "stage_cache_hit_rate"),
))

profile_snapshot = PROFILE.snapshot
reset_profile = PROFILE.reset
profile_delta = PROFILE.delta
