"""Span-context tracing for the pipeline hot paths.

A **span** is one timed stage execution (cleaning, PEA, one zone's
DBSCAN, one spot's tier-2 analysis, a snapshot publish ...) with a
name, wall-clock start, duration, free-form attributes and a parent; a
**trace** is the tree of spans sharing one correlation id — one batch
pipeline run, or one streaming replay window.

Design constraints, in order:

1. **Off by default, output-neutral.**  Code under instrumentation
   always runs through :data:`NULL_TRACER` unless a real
   :class:`Tracer` was wired in; the null path allocates nothing and
   the real path only ever *observes* (clocks, counters), never feeds
   anything back into detection.
2. **Cheap when on.**  Spans bracket stages, not records; the only
   per-record work tracing ever adds is two ``perf_counter`` calls in
   the streaming window accounting (see
   :class:`~repro.service.replay.StreamReplayer`).
3. **Deterministic ids.**  Trace and span ids are counters, not
   random, so tests can compare whole trace trees.

Thread model: each thread owns a span stack (``threading.local``), so
the replay thread and HTTP threads nest independently.  Finished spans
buffer per trace and are handed to the sink only when the root span
closes — trace-level sampling therefore keeps *complete* trees, never
orphaned fragments.

Stages timed outside the tracer (the streaming replayer aggregates its
per-window stage times itself) are recorded as plain :func:`worker_span`
dicts and emitted as one finished trace with :meth:`Tracer.emit_window`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Sequence


def worker_span(
    name: str,
    start_ts: float,
    duration_s: float,
    attrs: Optional[Dict[str, Any]] = None,
) -> dict:
    """A span measured outside the tracer, as a plain dict; a child
    for :meth:`Tracer.emit_window`."""
    return {
        "name": name,
        "start_ts": start_ts,
        "duration_s": duration_s,
        "attrs": dict(attrs or {}),
    }


class Span:
    """One in-flight span; a context manager that times its block."""

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_ts",
        "duration_s",
        "_start_perf",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: Dict[str, Any],
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_ts = 0.0
        self.duration_s = 0.0
        self._start_perf = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start_ts = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration_s = time.perf_counter() - self._start_perf
        self._tracer._finish(self)
        return False

    def to_dict(self) -> dict:
        """The span as one JSONL-ready record (see ``SPAN_SCHEMA``)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The shared do-nothing span the null tracer hands out."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start_ts = 0.0
    duration_s = 0.0

    @property
    def attrs(self) -> dict:
        return {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a reference to *some* tracer and calls it
    unconditionally; with this one the cost is one attribute check or
    an empty method call, so tracing-off stays effectively free.
    """

    enabled = False

    def trace(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def emit_window(
        self, name: str, start_ts: float, duration_s: float,
        attrs: Optional[dict] = None, children: Sequence[dict] = (),
    ) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """The enabled tracer: buffers span trees and samples whole traces.

    Args:
        sink: receiver of finished traces; anything with a
            ``write_trace(spans: List[dict])`` method (a
            :class:`~repro.obs.export.TraceWriter`, an
            :class:`~repro.obs.export.InMemorySink`, ...).
        sample: keep every ``sample``-th trace (1 = keep all).  The
            decision is made when the root span opens, so a kept trace
            is always complete.
    """

    enabled = True

    def __init__(self, sink, sample: int = 1):
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.sink = sink
        self.sample = int(sample)
        self._lock = threading.Lock()
        self._trace_count = 0
        self._span_count = 0
        self._local = threading.local()

    # -- id allocation -----------------------------------------------------------

    def _next_trace_id(self) -> tuple:
        with self._lock:
            index = self._trace_count
            self._trace_count += 1
        return f"t{index:06d}", index

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_count += 1
            return f"s{self._span_count:08d}"

    # -- thread-local trace state ------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {
                "stack": [],      # open Span objects, root first
                "buffer": [],     # finished span dicts of the live trace
                "trace_id": None,
                "sampled": True,
            }
        return state

    # -- span API ----------------------------------------------------------------

    def trace(self, name: str, **attrs: Any):
        """Open a root span (= start a new trace) on this thread.

        Nested calls degrade gracefully: a ``trace`` inside an open
        trace behaves like :meth:`span`.
        """
        state = self._state()
        if state["trace_id"] is not None:
            return self.span(name, **attrs)
        trace_id, index = self._next_trace_id()
        state["trace_id"] = trace_id
        state["sampled"] = index % self.sample == 0
        if not state["sampled"]:
            # The trace is dropped wholesale; keep only enough state to
            # know when the (null) root closes.
            return _DroppedRoot(self, state)
        span = Span(self, trace_id, self._next_span_id(), None, name, dict(attrs))
        state["stack"].append(span)
        return span

    def span(self, name: str, **attrs: Any):
        """Open a child span of the innermost open span on this thread.

        Without an open trace, the span becomes its own single-span
        trace (so library code can be instrumented independently of
        whether a caller opened a pipeline-level root).
        """
        state = self._state()
        if state["trace_id"] is None:
            return self.trace(name, **attrs)
        if not state["sampled"]:
            return NULL_SPAN
        stack = state["stack"]
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            self,
            state["trace_id"],
            self._next_span_id(),
            parent_id,
            name,
            dict(attrs),
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        state = self._state()
        stack = state["stack"]
        # Exits run strictly LIFO under ``with``; tolerate a foreign
        # span object gracefully rather than corrupting the stack.
        if stack and stack[-1] is span:
            stack.pop()
        state["buffer"].append(span.to_dict())
        if not stack:
            self._flush(state)

    def _flush(self, state: dict) -> None:
        buffer, state["buffer"] = state["buffer"], []
        state["trace_id"] = None
        state["sampled"] = True
        if buffer:
            self.sink.write_trace(buffer)

    def emit_window(
        self,
        name: str,
        start_ts: float,
        duration_s: float,
        attrs: Optional[dict] = None,
        children: Sequence[dict] = (),
    ) -> None:
        """Emit one pre-measured trace (root + children) in one call.

        The streaming replayer aggregates stage timings per replay
        window and emits the finished window as a whole — there is no
        open-span window to bracket with ``with`` blocks.  Sampling
        applies exactly as for :meth:`trace`.
        """
        trace_id, index = self._next_trace_id()
        if index % self.sample != 0:
            return
        root_id = self._next_span_id()
        buffer = [
            {
                "trace_id": trace_id,
                "span_id": root_id,
                "parent_id": None,
                "name": name,
                "start_ts": start_ts,
                "duration_s": duration_s,
                "attrs": dict(attrs or {}),
            }
        ]
        for child in children:
            buffer.append(
                {
                    "trace_id": trace_id,
                    "span_id": self._next_span_id(),
                    "parent_id": root_id,
                    "name": child["name"],
                    "start_ts": child["start_ts"],
                    "duration_s": child["duration_s"],
                    "attrs": dict(child.get("attrs", {})),
                }
            )
        self.sink.write_trace(buffer)


class _DroppedRoot:
    """Root-span stand-in for a trace the sampler dropped.

    Behaves like a span but records nothing; closing it resets the
    thread's trace state so the next root starts a fresh trace.
    """

    __slots__ = ("_tracer", "_state")

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start_ts = 0.0
    duration_s = 0.0

    def __init__(self, tracer: Tracer, state: dict):
        self._tracer = tracer
        self._state = state

    @property
    def attrs(self) -> dict:
        return {}

    def set(self, **attrs: Any):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self._state["trace_id"] = None
        self._state["sampled"] = True
        self._state["buffer"] = []
        return False
