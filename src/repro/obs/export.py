"""JSONL trace export, the span schema and its validator.

One trace file is a sequence of JSON objects, one span per line, in
trace-completion order.  The schema (:data:`SPAN_SCHEMA`) is the
contract the CI observability job and ``taxiqueue trace summarize``
validate against; it is expressed as standard JSON Schema but checked
with the small stdlib-only validator below (no ``jsonschema``
dependency in the container).

A ``.gz`` path is handled transparently everywhere (:func:`open_text`):
``--trace-out traces.jsonl.gz`` writes gzip, and the summarizer, the
validator and ``taxiqueue history query`` read either encoding.
"""

from __future__ import annotations

import gzip
import json
import threading
from pathlib import Path
from typing import IO, List, Optional, Union


def open_text(path: Union[str, Path], mode: str = "rt") -> IO[str]:
    """Open a text file, gzip-compressed when the name ends ``.gz``.

    ``mode`` is a text mode (``"rt"``/``"wt"``/``"at"``); the gzip
    branch passes it through so callers never see a bytes handle.
    """
    path = Path(path)
    if path.name.endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode.replace("t", "") or "r", encoding="utf-8")

#: JSON Schema of one exported span (one JSONL line).
SPAN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "taxiqueue trace span",
    "type": "object",
    "required": [
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ts",
        "duration_s",
        "attrs",
    ],
    "properties": {
        "trace_id": {"type": "string", "minLength": 1},
        "span_id": {"type": "string", "minLength": 1},
        "parent_id": {"type": ["string", "null"]},
        "name": {"type": "string", "minLength": 1},
        "start_ts": {"type": "number", "minimum": 0},
        "duration_s": {"type": "number", "minimum": 0},
        "attrs": {"type": "object"},
    },
    "additionalProperties": False,
}


#: Span attributes with a fixed meaning: the process's peak and
#: current resident set size in MB, and its age in seconds when a root
#: opened (see :mod:`repro.obs.tracer`).
PROCESS_ATTRS = ("hwm_mb", "rss_mb", "startup_s")


def validate_span(obj: object) -> List[str]:
    """Check one decoded JSONL line against :data:`SPAN_SCHEMA`.

    Returns:
        A list of human-readable violations; empty means valid.
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"span must be an object, got {type(obj).__name__}"]
    required = SPAN_SCHEMA["required"]
    for key in required:
        if key not in obj:
            errors.append(f"missing required field {key!r}")
    for key in obj:
        if key not in SPAN_SCHEMA["properties"]:
            errors.append(f"unknown field {key!r}")
    for key, expect in (
        ("trace_id", str),
        ("span_id", str),
        ("name", str),
    ):
        value = obj.get(key)
        if key in obj and (not isinstance(value, expect) or not value):
            errors.append(f"{key} must be a non-empty string")
    if "parent_id" in obj and obj["parent_id"] is not None:
        if not isinstance(obj["parent_id"], str) or not obj["parent_id"]:
            errors.append("parent_id must be null or a non-empty string")
    for key in ("start_ts", "duration_s"):
        value = obj.get(key)
        if key in obj:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{key} must be a number")
            elif value < 0:
                errors.append(f"{key} must be non-negative")
    if "attrs" in obj and not isinstance(obj["attrs"], dict):
        errors.append("attrs must be an object")
    elif "attrs" in obj:
        # What a stage or pipeline span records of the process.
        for key in PROCESS_ATTRS:
            value = obj["attrs"].get(key)
            if key in obj["attrs"] and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value < 0
            ):
                errors.append(f"attrs.{key} must be a non-negative number")
    return errors


def validate_trace_file(path: Union[str, Path]) -> List[str]:
    """Validate a whole JSONL trace file.

    Checks every line against the span schema plus two file-level
    invariants: span ids are unique and every non-null ``parent_id``
    refers to a span in the same trace.

    Returns:
        A list of ``line N: message`` violations; empty means valid.
    """
    errors: List[str] = []
    seen_ids = set()
    by_trace: dict = {}
    spans: List[dict] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            for message in validate_span(obj):
                errors.append(f"line {lineno}: {message}")
            if not isinstance(obj, dict):
                continue
            span_id = obj.get("span_id")
            if isinstance(span_id, str):
                if span_id in seen_ids:
                    errors.append(f"line {lineno}: duplicate span_id {span_id!r}")
                seen_ids.add(span_id)
            trace_id = obj.get("trace_id")
            if isinstance(trace_id, str):
                by_trace.setdefault(trace_id, set()).add(span_id)
            spans.append((lineno, obj))
    for lineno, obj in spans:
        parent = obj.get("parent_id")
        trace_id = obj.get("trace_id")
        if parent is not None and parent not in by_trace.get(trace_id, ()):
            errors.append(
                f"line {lineno}: parent_id {parent!r} not in trace {trace_id!r}"
            )
    return errors


def load_spans(path: Union[str, Path]) -> List[dict]:
    """All spans of a JSONL trace file, in file order.

    Raises:
        ValueError: when any line fails schema validation.
    """
    errors = validate_trace_file(path)
    if errors:
        head = "; ".join(errors[:5])
        raise ValueError(f"invalid trace file {path}: {head}")
    spans: List[dict] = []
    with open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


class TraceWriter:
    """Thread-safe JSONL trace sink backed by one file.

    Whole traces are written atomically under a lock, so spans of a
    trace are contiguous in the file even when multiple threads finish
    traces concurrently.  A ``.gz`` path writes gzip-compressed JSONL.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # Opened eagerly: an unwritable path must fail *here*, before
        # any pipeline work runs (see the CLI's fail-fast contract).
        self._fh: Optional[IO[str]] = open_text(self.path, "wt")
        self._lock = threading.Lock()
        self.traces_written = 0
        self.spans_written = 0

    def write_trace(self, spans: List[dict]) -> None:
        lines = "".join(
            json.dumps(span, sort_keys=True) + "\n" for span in spans
        )
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(lines)
            self._fh.flush()
            self.traces_written += 1
            self.spans_written += len(spans)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class InMemorySink:
    """Trace sink collecting into memory (tests, summaries)."""

    def __init__(self):
        self.traces: List[List[dict]] = []
        self._lock = threading.Lock()

    def write_trace(self, spans: List[dict]) -> None:
        with self._lock:
            self.traces.append(list(spans))

    @property
    def spans(self) -> List[dict]:
        """Every span across every collected trace, in arrival order."""
        with self._lock:
            return [span for trace in self.traces for span in trace]
