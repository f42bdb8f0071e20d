"""Span recording for the traced benchmark run.

Spans are recorded only when a run is started with ``--trace 1``.  Each
span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open on the same thread when it started (its
parent) and the request id shared by every span of one benchmark op.
Spans stay in memory and are written out once, when the run ends.

The program itself is not modified: :func:`instrument` wraps the public
functions at each layer boundary (``Database.execute``,
``PartitionEngine.map``, ``ColumnarStore.publish``,
``WriteAheadLog.append``, ``reservoir_sample`` and
``RegisteredModel.score_batch``) for the duration of a traced run and
restores them afterwards.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    request: "int | None"
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Statement:
    """One executed statement's ``QueryMetrics`` plus its result size."""

    metrics: "dict[str, Any]"
    rows_out: int
    #: the engine ran this statement on threads although it is a
    #: process engine (``PartitionEngine.last_process_fallback``)
    process_fallback: bool


class Tracer:
    """Collects spans and statement records in memory.

    A thread inside :meth:`request` with ``traced=False`` records
    nothing, so a traced run can alternate traced and untraced ops and
    compare their latencies.  Threads that never enter a request (the
    serving layer's flusher thread) record spans without a request id
    whenever the tracer is enabled.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: "list[Span]" = []
        self.statements: "list[Statement]" = []
        #: ``ColumnarStore.publish`` calls that wrote a new version
        self.fresh_publishes = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    # ---------------------------------------------------------- recording
    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.recording = True
        return local

    def recording(self) -> bool:
        return self.enabled and self._state().recording

    @contextlib.contextmanager
    def request(self, traced: bool) -> Iterator[None]:
        """Scope of one benchmark op: spans opened inside share one
        request id (or are not recorded at all when not *traced*)."""
        state = self._state()
        if not (self.enabled and traced):
            state.recording = False
            try:
                yield
            finally:
                state.recording = True
            return
        state.request = next(self._requests)
        try:
            yield
        finally:
            state.request = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.recording():
            yield
            return
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            span = Span(
                span_id, name, start, end, parent, state.request,
                threading.get_ident(),
            )
            with self._lock:
                self.spans.append(span)

    def record_statement(self, db: Any, metrics: Any, rows_out: int) -> None:
        if metrics is None or not self.recording():
            return
        fallback = bool(db._executor.engine.last_process_fallback)
        record = Statement(metrics.to_dict(), rows_out, fallback)
        with self._lock:
            self.statements.append(record)

    # ----------------------------------------------------------- analysis
    def self_seconds(self) -> "dict[int, float]":
        """Each span's duration minus the part its children cover."""
        children: "dict[int, list[Span]]" = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children[span.span_id], key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.seconds - covered
        return result

    def durations(self, name: str) -> "list[float]":
        return [s.seconds for s in self.spans if s.name == name]

    def self_ms_per_request(self) -> "dict[str, float]":
        """Mean self time per traced op, by span name, in ms."""
        own = self.self_seconds()
        requests = {s.request for s in self.spans if s.request is not None}
        totals: "dict[str, float]" = defaultdict(float)
        for span in self.spans:
            totals[span.name] += own[span.span_id]
        count = max(1, len(requests))
        return {name: 1e3 * total / count for name, total in sorted(totals.items())}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _wrap(tracer: Tracer, name: str, function: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry points with spans while tracing."""
    from repro.dbms import sampling
    from repro.dbms.columnar import ColumnarStore
    from repro.dbms.database import Database
    from repro.dbms.engine import PartitionEngine
    from repro.dbms.wal import WriteAheadLog
    from repro.serving.registry import RegisteredModel

    execute = Database.execute
    execute_batch = Database.execute_batch
    publish = ColumnarStore.publish

    def traced_execute(db: Any, sql: str) -> Any:
        with tracer.span("database.execute"):
            result = execute(db, sql)
        tracer.record_statement(db, result.metrics, len(result.rows))
        return result

    def traced_execute_batch(db: Any, statements: Any) -> Any:
        with tracer.span("database.execute_batch"):
            results = execute_batch(db, statements)
        # A consolidated batch shares one metrics record; a refused one
        # ran each statement through execute(), which recorded them.
        shared = results[0].metrics
        if len(results) > 1 and all(r.metrics is shared for r in results):
            tracer.record_statement(
                db, shared, sum(len(r.rows) for r in results)
            )
        return results

    def traced_publish(store: Any, table: Any) -> Any:
        with tracer.span("columnar.publish"):
            descriptor = publish(store, table)
        if descriptor.get("fresh") and tracer.recording():
            tracer.fresh_publishes += 1
        return descriptor

    patches = [
        (Database, "execute", traced_execute),
        (Database, "execute_batch", traced_execute_batch),
        (PartitionEngine, "map", _wrap(tracer, "engine.map", PartitionEngine.map)),
        (ColumnarStore, "publish", traced_publish),
        (WriteAheadLog, "append",
         _wrap(tracer, "wal.append", WriteAheadLog.append)),
        (sampling, "reservoir_sample",
         _wrap(tracer, "sampling.reservoir_sample", sampling.reservoir_sample)),
        (RegisteredModel, "score_batch",
         _wrap(tracer, "batcher.score_batch", RegisteredModel.score_batch)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
