"""Host speed, measured beside the program so its CPU times can be scaled.

The reference host is a 2-vCPU share of a bigger machine whose speed
comes in phases: the same fixed computation takes up to 60% more CPU time
for seconds or minutes at a time (see ``WORKLOADS.md``, "Bounded times
are scaled to the reference host's speed").
CPU time alone therefore moves with the host's phase as much as with the
program.  A :class:`Gauge` times a fixed reference computation
(:func:`kernel`, benchmark code that calls nothing of the program) between
the measured operations.  An operation's *scaled* CPU time is its CPU time
times :data:`REFERENCE_MS` over the median kernel time read around it:
CPU ms at the reference host's speed.  The bounded metrics use scaled
times and the report keeps the raw ones.  A change to the program does not
change the kernel's cost, so scaled times move with the program and not
with the host (``WORKLOADS.md`` states the limits of this).

The kernel allocates and frees small dicts, tuples, lists and strings, as
the program's parser and memos do.  Over a minute of a fixed fuzz
campaign, cut into 5 s windows, this kernel's time followed the campaign's
own (scaled coefficient of variation 0.017 against 0.137 raw), where pure
interpreter loops (0.039) or scattered reads of a large heap (0.051 to
0.101) followed it less closely.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: CPU ms of one :func:`kernel` call on the reference host in a fast
#: phase.  It fixes only the scale of the scaled times.
REFERENCE_MS = 0.55
#: Readings at most this many seconds before an operation starts or after
#: it ends set its scale; the host's phases last a second or more.
SPAN_S = 0.25
#: Kernel calls per set-up reading (see :meth:`Gauge.read`).
SETUP_CALLS = 25
#: Kernel calls per reading between operations: the first call after an
#: operation finds the caches holding the operation's data, and the
#: median drops it.
OP_CALLS = 3
#: Seconds :meth:`Gauge.tick` leaves between readings.
PERIOD_S = 0.02


def kernel() -> int:
    """A fixed amount of allocation-heavy interpreter work."""
    built = []
    for step in range(1500):
        built.append({"step": step, "pair": (step, str(step)),
                      "list": [step]})
    return len(built)


class Gauge:
    """Timed :func:`kernel` readings, each with the moment it was taken
    (``time.perf_counter``)."""

    def __init__(self) -> None:
        self.moments: list[float] = []
        self.readings: list[float] = []
        kernel()

    def read(self, calls: int = 1) -> float:
        """Run the kernel ``calls`` times; record and return the median
        CPU ms of one call.  The time is the calling thread's, so other
        threads of the process do not count, and the collector is off
        meanwhile, so the program's heap does not bill its scans to the
        kernel."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            values = []
            for _ in range(calls):
                started = time.thread_time()
                kernel()
                values.append((time.thread_time() - started) * 1000.0)
        finally:
            if enabled:
                gc.enable()
        value = statistics.median(values)
        self.moments.append(time.perf_counter())
        self.readings.append(value)
        return value

    def tick(self) -> None:
        """Take a reading of :data:`OP_CALLS` calls if the last one is
        :data:`PERIOD_S` old."""
        if not self.moments or (time.perf_counter() - self.moments[-1]
                                >= PERIOD_S):
            self.read(OP_CALLS)

    def scale(self, start: float | None = None,
              end: float | None = None) -> float:
        """:data:`REFERENCE_MS` over the median reading taken within
        :data:`SPAN_S` of ``[start, end]``, or of every reading when no
        interval is given.  Callers read the gauge right before each
        operation, so the interval always holds a reading."""
        chosen = self.readings
        if start is not None:
            chosen = self.readings[
                bisect.bisect_left(self.moments, start - SPAN_S):
                bisect.bisect_right(self.moments, end + SPAN_S)]
        return REFERENCE_MS / statistics.median(chosen)
