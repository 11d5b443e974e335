"""Process-global instrumentation counters with derived hit rates.

A :class:`Counters` bundle is a set of named, monotonically increasing
ints — the hot paths bump them with plain attribute increments
(``PROFILE.agenda_pops += 1``), which is noise next to the work they
describe — plus a list of (hits, misses, rate) triples.  Counting is always
on, so a snapshot is always truthful for the process, and a *delta* between
two snapshots is truthful for any bracketed region (one batch parse, one
benchmark sweep).

Hit *rates* are derived at snapshot time, never stored: a rate is only
meaningful relative to the window it was measured over.

Each layer builds one bundle: :mod:`repro.parsing.profile` and
:mod:`repro.disambiguation.profile`.
"""

from __future__ import annotations

__all__ = ["Counters"]


class Counters:
    """Named monotonic counters plus the hit rates derived from them."""

    def __init__(self, names: tuple[str, ...],
                 rates: tuple[tuple[str, str, str], ...] = ()) -> None:
        self.names = names
        self.rates = rates
        self.reset()

    def reset(self) -> None:
        """Zero every counter (test/benchmark bracketing)."""
        for name in self.names:
            setattr(self, name, 0)

    def counts(self) -> dict:
        """The raw counters as a plain dict (JSON-safe)."""
        return {name: getattr(self, name) for name in self.names}

    def snapshot(self) -> dict:
        """Raw counters plus the derived hit rates (JSON-safe)."""
        return self.with_rates(self.counts())

    def delta(self, before: dict, after: dict) -> dict:
        """The counter delta ``after - before``, with rates recomputed over
        the delta window.  Both arguments are ``counts()``/``snapshot()``
        dicts."""
        return self.with_rates(
            {name: after[name] - before[name] for name in self.names})

    def with_rates(self, counts: dict) -> dict:
        """``counts`` plus one derived rate per (hits, misses) pair."""
        out = dict(counts)
        for hits, misses, rate in self.rates:
            total = counts[hits] + counts[misses]
            out[rate] = (counts[hits] / total) if total else 0.0
        return out
