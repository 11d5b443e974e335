"""In-memory spans recorded around calls into the program.

The benchmark measures each layer from outside: :meth:`Tracer.wrap`
replaces a public function or method of a ``repro`` module with a wrapper
that records one span per call — name, start, end, the enclosing span and
the current operation id (one sentence, request or fuzz batch) — and
optionally a note computed from the call's arguments and result.  Spans
stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).

Fork-based worker pools inherit the wrappers.  A forked process starts
with an empty span list and writes its spans to ``fork_dir`` when it
exits through :mod:`multiprocessing` (``multiprocessing.util.Finalize``),
which the parent merges with :func:`load_fork_spans`.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time

#: Index of each field in a span record.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    def __init__(self, fork_dir: str | os.PathLike | None = None,
                 counters=None) -> None:
        self.spans: list[list] = []
        #: Zero-argument callable returning the program's own counters
        #: (a flat dict of ints); their deltas over traced operations
        #: accumulate in :attr:`counts`.
        self.counters = counters
        self.counts: dict[str, int] = {}
        self._fork_base: dict[str, int] = {}
        self.enabled = True
        #: The operation the next spans belong to (sentence / request id).
        self.op = None
        self.fork_dir = pathlib.Path(fork_dir) if fork_dir else None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._forked = False
        if self.fork_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    # -- installing ---------------------------------------------------------
    def wrap(self, owner, attr: str, name, note=None, also=()) -> None:
        """Trace calls to ``owner.attr`` (a module function, a method, a
        classmethod or a staticmethod defined on ``owner``).

        ``name`` is the span name, or a callable ``(args, kwargs) -> str``;
        ``note`` is an optional ``(args, kwargs, result) -> value`` stored
        with the span.  ``also`` lists modules that imported the function
        by name; their binding is replaced too.
        """
        raw = vars(owner)[attr]
        wrapper_type = type(raw) if isinstance(
            raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if wrapper_type else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if tracer._forked:
                tracer._adopt_fork()
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            record = [span_name, time.perf_counter(), None,
                      stack[-1] if stack else None, tracer.op, None]
            index = len(tracer.spans)
            tracer.spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper_type(traced) if wrapper_type else traced)
        self._undo.append((owner, attr, raw))
        for module in also:
            if vars(module).get(attr) is func:
                setattr(module, attr, traced)
                self._undo.append((module, attr, func))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def span(self, name: str):
        """A context manager recording one span from the benchmark itself."""
        return _Span(self, name)

    def add_counts(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            self.counts[key] = self.counts.get(key, 0) + value - before[key]

    # -- fork support -------------------------------------------------------
    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self.counts = {}
        self._fork_base = self.counters() if self.counters else {}
        self._forked = True

    def _adopt_fork(self) -> None:
        # Registered on first use, because a multiprocessing child clears
        # the finalizer registry after fork.
        from multiprocessing import util

        self._forked = False
        util.Finalize(self, self._write_fork_spans, exitpriority=10)

    def _write_fork_spans(self) -> None:
        if self.counters:
            self.add_counts(self._fork_base, self.counters())
        path = self.fork_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.record = [self.name, time.perf_counter(), None,
                       stack[-1] if stack else None, tracer.op, None]
        tracer.spans.append(self.record)
        stack.append(len(tracer.spans) - 1)
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record[END] = time.perf_counter()
        self.tracer._stack.pop()


def load_fork_spans(fork_dir: str | os.PathLike) -> list[dict]:
    """What forked children wrote (``{"spans", "counts"}`` per process);
    the files are removed."""
    records = []
    for path in sorted(pathlib.Path(fork_dir).glob("spans-*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    return records


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span of one process, in seconds: its duration
    minus the union of its direct children's intervals clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append(
                (record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result

