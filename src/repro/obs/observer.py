"""The observer facade the checker is instrumented against.

Instrumented code (``core/explorer.py``, ``core/revisits.py``,
``models/base.py``, the baselines) talks to exactly one small
interface — ``phase``/``emit``/``inc``/``tick`` — and never knows
whether anything is listening.  Two implementations exist:

* :data:`NULL_OBSERVER`, the default: every method is a no-op and
  ``enabled``/``trace_enabled`` are False, so hot paths can guard any
  non-trivial argument construction behind a plain attribute check.
  This is what makes the instrumentation cost ~nothing when off.
* :class:`Observer`, which fans out to a
  :class:`~repro.obs.metrics.MetricsRegistry`, an optional
  :class:`~repro.obs.trace.TraceWriter`, an optional
  :class:`~repro.obs.progress.ProgressReporter`, and times phases on a
  :class:`~repro.obs.spans.SpanTracer` stack.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .progress import ProgressReporter
from .spans import NULL_TRACER, SpanTracer
from .trace import FileSink, MemorySink, TraceWriter


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullContext()


class NullObserver:
    """Observer that observes nothing, as cheaply as possible."""

    #: False ⇒ skip metric/phase work (and arg construction) entirely
    enabled: bool = False
    #: False ⇒ skip building trace-record fields entirely
    trace_enabled: bool = False
    #: the span tracer (NULL by default; see repro.obs.spans)
    tracer = NULL_TRACER

    def phase(self, name: str):
        return _NULL_CTX

    def phase_scope(self):
        return _NULL_CTX

    def emit(self, type_: str, **fields) -> None:
        pass

    def inc(self, name: str, by: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def tick(self, **counts) -> None:
        pass

    def phase_report(self) -> dict:
        return {}

    def metrics_snapshot(self) -> dict:
        return {}

    def finish(self, **counts) -> None:
        pass

    def close(self) -> None:
        pass


#: the shared do-nothing observer; safe to use from anywhere
NULL_OBSERVER = NullObserver()


class Observer(NullObserver):
    """Fan observations out to metrics, an optional trace and an
    optional progress reporter."""

    enabled = True

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceWriter | None = None,
        progress: ProgressReporter | None = None,
        tracer=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        self.progress = progress
        self.trace_enabled = trace is not None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # phases time on the tracer's stack; without a tracer, on a
        # private one that opens no spans and so never emits any
        self._timer = self.tracer if self.tracer.enabled else SpanTracer()

    # -- construction helpers -------------------------------------------

    @classmethod
    def to_file(
        cls,
        path: str,
        progress: ProgressReporter | None = None,
        buffer_size: int = 512,
    ) -> "Observer":
        """An observer tracing to a JSONL file at ``path``."""
        return cls(
            trace=TraceWriter(FileSink(path, buffer_size=buffer_size)),
            progress=progress,
        )

    @classmethod
    def in_memory(
        cls, capacity: int = 10_000, progress: ProgressReporter | None = None
    ) -> "Observer":
        """An observer tracing into a bounded in-memory ring buffer."""
        return cls(
            trace=TraceWriter(MemorySink(capacity)), progress=progress
        )

    # -- the instrumented interface -------------------------------------

    def phase(self, name: str):
        return self._timer.phase(name)

    def phase_scope(self):
        return self._timer.phase_scope()

    def emit(self, type_: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(type_, **fields)

    def inc(self, name: str, by: float = 1) -> None:
        self.metrics.inc(name, by)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def tick(self, **counts) -> None:
        if self.progress is not None:
            self.progress.tick(**counts)

    # -- reporting -------------------------------------------------------

    def phase_report(self) -> dict:
        return self._timer.phase_report()

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def records(self) -> list[dict]:
        """The buffered records, when tracing to a MemorySink."""
        if self.trace is not None and isinstance(self.trace.sink, MemorySink):
            return list(self.trace.sink.records)
        return []

    def finish(self, **counts) -> None:
        if self.progress is not None:
            self.progress.finish(**counts)

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()
