"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:class:`Tracer` wraps public functions of each layer where their callers
look them up (a class attribute, or the module global an importer bound by
name), records one span per call and restores every original on
:meth:`Tracer.uninstall`.  A span is ``(name, start, end, span_id,
parent_id, request_id, value)``: ``parent_id`` is the innermost traced call
open on the same thread, and ``request_id`` is set through a thread-local
at each ``Procedure.run`` boundary, so the engine and lock spans of one
transaction share it.  Spans stay in per-thread lists until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

SPAN_NAME, SPAN_START, SPAN_END, SPAN_ID, SPAN_PARENT, SPAN_REQUEST, \
    SPAN_VALUE = range(7)


class _ThreadSpans:
    __slots__ = ("thread_name", "spans", "stack", "request", "next_id",
                 "tid")

    def __init__(self, tid: int, thread_name: str) -> None:
        self.tid = tid
        self.thread_name = thread_name
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.request: Optional[int] = None
        self.next_id = 0


class Tracer:
    """Installs span-recording wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._requests = itertools.count(1)
        #: (owner, attribute, original, owned) for every installed wrapper;
        #: ``owned`` records whether the attribute lived in the owner's own
        #: ``__dict__`` (an inherited one is deleted instead of restored).
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _thread(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads),
                                     threading.current_thread().name)
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn: Callable, *,
             request_boundary: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``before(args)`` is evaluated on entry and ``after(args, result)``
        on a normal return; the span's value is whichever is given (a pair
        when both are).
        """
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = (state.tid, state.next_id)
            state.next_id += 1
            if request_boundary:
                state.request = next(tracer._requests)
            entry = before(args) if before is not None else None
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                exit_value = after(args, result) if after is not None \
                    else None
                if before is not None and after is not None:
                    value = (entry, exit_value)
                else:
                    value = entry if before is not None else exit_value
                state.spans.append((name, start, end, span_id, parent,
                                    state.request, value))

        return traced

    def record(self, name: str, start: float, end: float,
               value: object = None) -> None:
        """Record a span the benchmark timed itself (e.g. an API poll)."""
        state = self._thread()
        span_id = (state.tid, state.next_id)
        state.next_id += 1
        parent = state.stack[-1] if state.stack else None
        state.spans.append((name, start, end, span_id, parent,
                            state.request, value))

    # -- patching -------------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str,
              **options) -> None:
        """Replace ``owner.attribute`` with a traced wrapper."""
        owned = attribute in vars(owner)
        original = vars(owner)[attribute] if owned \
            else getattr(owner, attribute)
        self._patches.append((owner, attribute, original, owned))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- views ------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [span for state in threads for span in state.spans]

    def thread_names(self) -> dict[int, str]:
        with self._lock:
            return {state.tid: state.thread_name for state in self._threads}

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        names = self.thread_names()
        spans = self.spans()
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "name": span[SPAN_NAME], "start": span[SPAN_START],
                    "end": span[SPAN_END], "id": list(span[SPAN_ID]),
                    "parent": list(span[SPAN_PARENT])
                    if span[SPAN_PARENT] else None,
                    "request": span[SPAN_REQUEST],
                    "thread": names[span[SPAN_ID][0]],
                    "value": span[SPAN_VALUE],
                }, default=str) + "\n")
        return len(spans)


def by_name(spans: Iterable[tuple]) -> dict[str, list[tuple]]:
    grouped: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        grouped[span[SPAN_NAME]].append(span)
    return grouped


def self_times(spans: list[tuple], name: str) -> list[float]:
    """Durations of the ``name`` spans minus the time their children cover.

    Children of one span run on its thread and are strictly nested, so
    their union is the sum of their durations.
    """
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span[SPAN_PARENT] is not None:
            covered[span[SPAN_PARENT]] += span[SPAN_END] - span[SPAN_START]
    return [span[SPAN_END] - span[SPAN_START] - covered[span[SPAN_ID]]
            for span in spans if span[SPAN_NAME] == name]


def durations(spans: Iterable[tuple]) -> list[float]:
    return [span[SPAN_END] - span[SPAN_START] for span in spans]
