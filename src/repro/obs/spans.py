"""End-to-end span tracing: one trace_id across every layer of a run.

A **span** is one timed operation — an HTTP submit, a queued job, a
suite task, a worker subprocess exploring a subtree — recorded as
plain JSON-ready data::

    {"trace_id": ..., "span_id": ..., "parent_id": ...,
     "name": "explore:SB", "cat": "worker",
     "start": <epoch seconds>, "dur": <seconds>,
     "pid": ..., "tid": ..., "attrs": {...}}

A **phase** (``replay``, ``check:coherence``, ...) is timed on the same
stack but aggregated: all activations of one name under one parent
become a single ``cat="phase"`` span whose ``dur`` is their total and
whose ``attrs`` carry ``calls`` and ``self_s``.  This is the only timer
in the package; ``VerificationResult.phase_times`` is read from it.

``start`` is wall-clock *aligned* but monotonically *measured*: each
tracer pins ``time.time()`` to ``perf_counter()`` once at construction
and derives every timestamp from the perf clock, so spans within one
process never go backwards while spans from different processes still
line up on one timeline (the processes share the system clock).

The tracer is deliberately stdlib-only and NULL-patterned like the
rest of :mod:`repro.obs`: :data:`NULL_TRACER` answers ``enabled``
False and no-ops everything, so instrumentation sites guard span
construction behind one attribute check and cost ~nothing when
tracing is off (the same <5% budget the observer holds).

Context crosses process boundaries as a **propagation token** — a
plain picklable dict ``{"trace_id": ..., "span_id": ...}`` riding the
existing payload tuples (the suite's pool job payloads).  The
worker builds its own :class:`SpanTracer` adopting the remote parent,
returns ``tracer.snapshot()`` with its result, and the coordinator
folds the segments back with :meth:`SpanTracer.absorb` — the same
shape as the PR-5 worker-metrics merge.

Three exporters:

* :func:`to_perfetto` — Chrome trace-event JSON (``chrome://tracing``
  / https://ui.perfetto.dev), validated by :func:`validate_perfetto`.
* :func:`flame_tree` / :func:`format_flame` — a terminal
  flamegraph-style self-time tree (``hmc trace flame``).
* :func:`span_summary` — per-name duration families rendered by
  :func:`repro.obs.export.to_prometheus`.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import uuid

#: version stamp carried by exported span documents
SPAN_SCHEMA_VERSION = 1

#: default bounded-ring capacity per tracer (finished spans retained;
#: older spans are dropped and counted once the ring is full)
DEFAULT_SPAN_CAPACITY = 20_000


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def make_span(
    name: str,
    *,
    trace_id: str,
    start: float,
    dur: float,
    cat: str = "span",
    parent_id: str | None = None,
    attrs: dict | None = None,
) -> dict:
    """A finished span record built outside any tracer (e.g. the HTTP
    submit span, timed by the server before an executor tracer
    exists)."""
    return {
        "trace_id": trace_id,
        "span_id": uuid.uuid4().hex[:12],
        "parent_id": parent_id,
        "name": name,
        "cat": cat,
        "start": start,
        "dur": max(0.0, dur),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
        "attrs": dict(attrs or {}),
    }


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracer that traces nothing, as cheaply as possible."""

    #: False ⇒ skip span construction (and arg building) entirely
    enabled: bool = False
    trace_id: str | None = None
    dropped: int = 0

    def span(self, name: str, cat: str = "span", **attrs):
        return _NULL_SCOPE

    def start_span(self, name, cat="span", parent=None, **attrs):
        return None

    def end_span(self, span, **attrs) -> None:
        pass

    def current_context(self) -> dict | None:
        return None

    def absorb(self, spans) -> None:
        pass

    def snapshot(self) -> list[dict]:
        return []


#: the shared do-nothing tracer; safe to use from anywhere
NULL_TRACER = NullTracer()


class _Node:
    """A tracer stack entry: a ``with``-able phase node aggregating every
    activation of ``name`` under one parent, or a plain frame (an open
    ``span``, a phase scope, the root).  ``kids`` are the phase nodes
    under it; ``child`` their seconds in the current activation."""

    __slots__ = (
        "tracer", "name", "span", "calls", "total", "self_time", "first",
        "start", "child", "kids",
    )

    def __init__(self, tracer, name=None, span=None) -> None:
        self.tracer = tracer
        self.name = name
        self.span = span
        self.calls = 0
        self.total = self.self_time = self.first = 0.0
        self.start = self.child = 0.0
        self.kids: dict[str, _Node] = {}

    def __enter__(self) -> None:
        self.child = 0.0
        self.tracer._stack.append(self)
        self.start = self.tracer._clock()

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        duration = tracer._clock() - self.start
        stack = tracer._stack
        stack.pop()
        if not self.calls:
            self.first = self.start
        self.calls += 1
        self.total += duration
        self.self_time += duration - self.child
        stack[-1].child += duration
        return False


def _phase_report(kids: dict) -> dict[str, dict]:
    """Phase nodes summed by name into ``{name: {"calls", "total",
    "self"}}`` (the shape of ``VerificationResult.phase_times``),
    ordered by self time."""
    flat: dict[str, tuple] = {}
    todo = list(kids.values())
    while todo:
        node = todo.pop()
        calls, total, own = flat.get(node.name, (0, 0.0, 0.0))
        flat[node.name] = (
            calls + node.calls, total + node.total, own + node.self_time
        )
        todo.extend(node.kids.values())
    ordered = sorted(flat.items(), key=lambda kv: -kv[1][2])
    return {
        name: {"calls": calls, "total": round(total, 6), "self": round(own, 6)}
        for name, (calls, total, own) in ordered
    }


def _merge_phases(into: dict, kids: dict) -> None:
    """Merge the phase nodes ``kids`` into the sibling map ``into``."""
    for name, node in kids.items():
        mine = into.setdefault(name, node)
        if mine is not node:
            mine.first = min(mine.first, node.first)
            mine.calls += node.calls
            mine.total += node.total
            mine.self_time += node.self_time
            _merge_phases(mine.kids, node.kids)


class SpanTracer(NullTracer):
    """Collects spans for one trace into a bounded ring, and times
    phases on the same stack.

    Single-threaded by design (one tracer per coordinator thread or
    worker process).  ``remote_parent`` adopts a propagation token from
    another process: spans opened with no local parent attach there,
    stitching the worker's segment under the coordinator's span.

    Each phase node finishes as one ``cat="phase"`` span (``dur`` its
    total, ``attrs.calls`` and ``attrs.self_s``) when its enclosing
    span closes; phases outside every span stay on the root, where
    :meth:`phase_report` reads them.

    ``on_finish`` (when given) receives each span dict as it finishes
    — the service streams them onto the job event ring this way.
    """

    enabled = True

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        remote_parent: str | None = None,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        clock=time.perf_counter,
        on_finish=None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.remote_parent = remote_parent
        self.capacity = max(1, capacity)
        self.on_finish = on_finish
        self.finished: list[dict] = []
        self.dropped = 0
        self._clock = clock
        # per-tracer unique span-id prefix: os.getpid() alone is unsafe
        # (pids recycle across pool rebuilds), a fresh random prefix is
        # unique per tracer regardless
        self._prefix = uuid.uuid4().hex[:8]
        self._seq = 0
        #: open spans, scopes and phases over the root frame
        self._stack: list[_Node] = [_Node(self)]
        self._wall0 = time.time()
        self._perf0 = clock()
        self._pid = os.getpid()
        self._tid = threading.get_native_id()

    # -- internals --------------------------------------------------------

    def _new_id(self) -> str:
        self._seq += 1
        return f"{self._prefix}-{self._seq:x}"

    def _record(self, span_id, parent_id, name, cat, t0, dur, attrs) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": str(name),
            "cat": str(cat),
            "start": self._wall0 + (t0 - self._perf0),
            "dur": dur,
            "pid": self._pid,
            "tid": self._tid,
            "attrs": attrs,
        }

    def _open(self, name, cat, parent_id, attrs) -> dict:
        t0 = self._clock()
        span = self._record(
            self._new_id(), parent_id, name, cat, t0, 0.0,
            dict(attrs) if attrs else {},
        )
        span["_t0"] = t0
        return span

    def _finish(self, span: dict, extra_attrs: dict | None = None) -> None:
        t0 = span.pop("_t0", None)
        if t0 is not None:
            span["dur"] = self._clock() - t0
        if extra_attrs:
            span["attrs"].update(extra_attrs)
        self.finished.append(span)
        if len(self.finished) > self.capacity:
            overflow = len(self.finished) - self.capacity
            del self.finished[:overflow]
            self.dropped += overflow
        if self.on_finish is not None:
            self.on_finish(span)

    def _parent_id(self, parent) -> str | None:
        """Resolve an explicit parent (span dict | span_id | None =
        innermost stacked span, else the adopted remote parent)."""
        if parent is None:
            for frame in reversed(self._stack):
                if frame.span is not None:
                    return frame.span["span_id"]
            return self.remote_parent
        if isinstance(parent, dict):
            return parent.get("span_id")
        return parent

    def _close(self, frame: _Node) -> None:
        """Take a span or scope frame off the stack.  A span finishes
        with its phases; a scope hands its phases to the enclosing
        frame."""
        stack = self._stack
        stack.remove(frame)
        outer = stack[-1]
        outer.child += frame.child
        if frame.span is None:
            _merge_phases(outer.kids, frame.kids)
            return
        self._finish_phases(frame.kids, frame.span["span_id"])
        self._finish(frame.span)

    def _finish_phases(self, kids: dict, parent_id: str) -> None:
        """Finish one ``cat="phase"`` span per node, each after the
        phases nested in it (the order stacked spans finish in)."""
        for node in kids.values():
            span_id = self._new_id()
            self._finish_phases(node.kids, span_id)
            self._finish(
                self._record(
                    span_id, parent_id, node.name, "phase", node.first,
                    node.total,
                    {"calls": node.calls, "self_s": node.self_time},
                )
            )

    # -- the tracing interface --------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "span", parent=None, **attrs):
        """A ``with``-able span nested under the current span (the
        tracer keeps a stack).  ``parent`` optionally overrides the
        stack — e.g. nesting under a *detached* span that lifetimes
        prevent from being stacked."""
        span = self._open(name, cat, self._parent_id(parent), attrs)
        frame = _Node(self, span=span)
        self._stack.append(frame)
        try:
            yield span
        finally:
            self._close(frame)

    def phase(self, name: str) -> _Node:
        """A ``with``-able phase timer: the node of ``name`` under the
        current stack entry.  Self times exclude nested phases."""
        kids = self._stack[-1].kids
        node = kids.get(name)
        if node is None:
            node = kids[name] = _Node(self, name)
        return node

    @contextlib.contextmanager
    def phase_scope(self):
        """A ``with``-able frame collecting the phases opened inside it
        (one run's ``phase_times``).  It yields a dict that is filled
        in ``phase_report`` shape on exit, when the phases join the
        enclosing frame.  It records no span."""
        frame = _Node(self)
        self._stack.append(frame)
        report: dict = {}
        try:
            yield report
        finally:
            report.update(_phase_report(frame.kids))
            self._close(frame)

    def phase_report(self) -> dict[str, dict]:
        """JSON-ready per-phase breakdown of the phases recorded
        outside every span, ordered by self time."""
        return _phase_report(self._stack[0].kids)

    def start_span(self, name, cat="span", parent=None, **attrs) -> dict:
        """Begin a *detached* span: not on the nesting stack, so
        overlapping lifetimes (suite tasks in flight concurrently) are
        fine.  ``parent`` is a span dict, a span_id string, or None
        (= current span / remote parent).  Finish with
        :meth:`end_span`."""
        return self._open(name, cat, self._parent_id(parent), attrs)

    def end_span(self, span, **attrs) -> None:
        """Finish a span from :meth:`start_span` (no-op on None, so
        callers need no guard when tracing was off)."""
        if span is not None:
            self._finish(span, attrs or None)

    def current_context(self) -> dict | None:
        """The propagation token for the innermost active span (falls
        back to the adopted remote parent): ship this dict to another
        process and build its tracer with
        ``SpanTracer(trace_id=ctx["trace_id"],
        remote_parent=ctx["span_id"])``."""
        span_id = self._parent_id(None)
        if span_id is None:
            return None
        return {"trace_id": self.trace_id, "span_id": span_id}

    def absorb(self, spans) -> None:
        """Fold finished span records from another tracer (typically a
        worker's :meth:`snapshot` that crossed the process boundary)
        into this ring, preserving their ids and timestamps."""
        for span in spans or ():
            if isinstance(span, dict) and "span_id" in span:
                self._finish(dict(span))

    def snapshot(self) -> list[dict]:
        """The finished spans, as picklable plain data (open spans are
        not included — finish them first)."""
        return [dict(span) for span in self.finished]


# -- Chrome/Perfetto export --------------------------------------------------


def to_perfetto(spans, trace_id: str | None = None) -> dict:
    """Render spans as a Chrome trace-event JSON document.

    Every span becomes one complete ("X") event with microsecond
    ``ts``/``dur``; span identity rides in ``args`` so the parent
    chain survives the format.  A span whose parent is not in the
    document (its segment was dropped from a full ring, or the caller
    filtered) is re-parented to the root and marked
    ``args.orphan_of`` — the document stays loadable and
    :func:`validate_perfetto`-clean either way.
    """
    chosen = [
        s
        for s in spans
        if isinstance(s, dict)
        and "span_id" in s
        and (trace_id is None or s.get("trace_id") == trace_id)
    ]
    known = {s["span_id"] for s in chosen}
    events = []
    trace_ids = sorted({s.get("trace_id") for s in chosen if s.get("trace_id")})
    for span in sorted(chosen, key=lambda s: s.get("start", 0.0)):
        args = {
            "trace_id": span.get("trace_id"),
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
        }
        parent = span.get("parent_id")
        if parent is not None and parent not in known:
            args["parent_id"] = None
            args["orphan_of"] = parent
        for key, value in sorted(span.get("attrs", {}).items()):
            args[f"attr.{key}"] = value
        events.append(
            {
                "name": span.get("name", "?"),
                "cat": span.get("cat", "span"),
                "ph": "X",
                "ts": round(span.get("start", 0.0) * 1e6, 3),
                "dur": round(max(0.0, span.get("dur", 0.0)) * 1e6, 3),
                "pid": int(span.get("pid", 0)),
                "tid": int(span.get("tid", 0)),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SPAN_SCHEMA_VERSION,
            "generator": "repro.obs.spans",
            "trace_ids": trace_ids,
        },
    }


#: required keys (and types) of every Perfetto "X" event we emit
_PERFETTO_EVENT_SCHEMA = {
    "name": str,
    "cat": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
    "args": dict,
}


def validate_perfetto(
    doc: dict, trace_id: str | None = None, min_pids: int = 1
) -> dict:
    """Schema-check a :func:`to_perfetto` document.

    Raises :class:`ValueError` on the first problem; returns a summary
    dict (event/pid/trace counts) on success.  ``trace_id`` asserts
    every event belongs to that trace; ``min_pids`` asserts spans from
    at least that many distinct processes are present (the e2e
    acceptance check: coordinator *and* pool worker on one timeline).
    """
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        raise ValueError("not a trace-event document: traceEvents missing")
    events = doc["traceEvents"]
    if not events:
        raise ValueError("trace-event document has no events")
    span_ids: set[str] = set()
    pids: set[int] = set()
    trace_ids: set[str] = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key, kind in _PERFETTO_EVENT_SCHEMA.items():
            if key not in event:
                raise ValueError(f"event {i} ({event.get('name')}): no {key!r}")
            if not isinstance(event[key], kind) or isinstance(
                event[key], bool
            ):
                raise ValueError(
                    f"event {i} ({event.get('name')}): {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if event["ph"] != "X":
            raise ValueError(f"event {i}: ph must be 'X', got {event['ph']!r}")
        if event["ts"] < 0 or event["dur"] < 0:
            raise ValueError(f"event {i}: negative ts/dur")
        args = event["args"]
        span_id = args.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            raise ValueError(f"event {i}: args.span_id missing")
        if span_id in span_ids:
            raise ValueError(f"duplicate span_id {span_id!r}")
        span_ids.add(span_id)
        pids.add(event["pid"])
        if args.get("trace_id"):
            trace_ids.add(args["trace_id"])
        if trace_id is not None and args.get("trace_id") != trace_id:
            raise ValueError(
                f"event {i} ({event['name']}): trace_id "
                f"{args.get('trace_id')!r} != expected {trace_id!r}"
            )
    for i, event in enumerate(events):
        parent = event["args"].get("parent_id")
        if parent is not None and parent not in span_ids:
            raise ValueError(
                f"event {i} ({event['name']}): parent_id {parent!r} "
                "resolves to no span in the document"
            )
    if len(pids) < min_pids:
        raise ValueError(
            f"spans from {len(pids)} process(es), expected >= {min_pids}"
        )
    return {
        "events": len(events),
        "pids": len(pids),
        "trace_ids": sorted(trace_ids),
    }


# -- flamegraph / self-time tree ---------------------------------------------


class FlameNode:
    """One aggregation node: all spans sharing a name path."""

    __slots__ = ("name", "cat", "total", "self_time", "calls", "children")

    def __init__(self, name: str, cat: str = "span") -> None:
        self.name = name
        self.cat = cat
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.children: dict[str, FlameNode] = {}


def flame_tree(spans) -> FlameNode:
    """Aggregate spans into a flamegraph tree by name path.

    Roots are spans with no (resolvable) parent; a span's self time is
    its duration minus its direct children's durations (clamped at 0 —
    absorbed segments from other processes can overlap their parent).
    Same-named siblings merge into one node with a call count, like a
    collapsed flamegraph; an aggregated record counts its
    ``attrs.calls``.
    """
    records = [s for s in spans if isinstance(s, dict) and "span_id" in s]
    by_id = {s["span_id"]: s for s in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in records:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    root = FlameNode("<root>", cat="root")

    def _fold(span: dict, node: FlameNode) -> None:
        name = span.get("name", "?")
        child = node.children.get(name)
        if child is None:
            child = node.children[name] = FlameNode(
                name, span.get("cat", "span")
            )
        dur = max(0.0, span.get("dur", 0.0))
        kids = children.get(span["span_id"], ())
        kid_time = sum(max(0.0, k.get("dur", 0.0)) for k in kids)
        child.total += dur
        child.self_time += max(0.0, dur - kid_time)
        child.calls += span.get("attrs", {}).get("calls", 1)
        for kid in sorted(kids, key=lambda s: s.get("start", 0.0)):
            _fold(kid, child)

    for span in sorted(roots, key=lambda s: s.get("start", 0.0)):
        _fold(span, root)
    root.total = sum(c.total for c in root.children.values())
    root.calls = sum(c.calls for c in root.children.values())
    return root


def format_flame(
    spans, *, width: int = 30, min_frac: float = 0.0
) -> str:
    """Render spans as an indented self-time tree with duration bars.

    ``width`` is the bar width in characters; ``min_frac`` hides
    subtrees below that fraction of the root total (0 shows all).
    """
    spans = list(spans or ())
    root = flame_tree(spans)
    if not root.children:
        return "(no spans)"

    def _max_total(node: FlameNode) -> float:
        return max(
            node.total,
            max((_max_total(c) for c in node.children.values()), default=0.0),
        )

    # an async child can outlive its root (an http:submit span closes at
    # 202-accept while the job it spawned keeps running), so scale bars
    # by the largest node, not the root sum — identical when roots
    # dominate, bounded when they don't
    scale = _max_total(root) or 1.0
    lines = [
        f"trace flame: {len(spans)} spans, {root.total:.4f}s total "
        "(self-time tree; bar = share of total)"
    ]

    def _emit(node: FlameNode, depth: int) -> None:
        frac = node.total / scale
        # prune on the subtree's peak, not the node: a short async
        # parent must not hide the long-running work under it
        if _max_total(node) / scale < min_frac:
            return
        bar = "#" * max(1, round(frac * width))
        lines.append(
            f"  {'  ' * depth}{node.name:<{max(1, 36 - 2 * depth)}} "
            f"total={node.total:9.4f}s self={node.self_time:9.4f}s "
            f"calls={node.calls:<5d} {bar}"
        )
        for child in sorted(
            node.children.values(), key=lambda n: -n.total
        ):
            _emit(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda n: -n.total):
        _emit(child, 0)
    return "\n".join(lines)


# -- Prometheus summary + JSONL IO -------------------------------------------


def span_summary(spans) -> dict:
    """Per-name duration families: ``name -> {calls, seconds, cat}``,
    sorted by name.  This is what run manifests carry and
    :func:`repro.obs.export.to_prometheus` renders as
    ``repro_span_seconds_total`` / ``repro_span_calls_total``."""
    summary: dict[str, dict] = {}
    for span in spans or ():
        if not isinstance(span, dict) or "span_id" not in span:
            continue
        name = span.get("name", "?")
        entry = summary.setdefault(
            name, {"calls": 0, "seconds": 0.0, "cat": span.get("cat", "span")}
        )
        entry["calls"] += span.get("attrs", {}).get("calls", 1)
        entry["seconds"] += max(0.0, span.get("dur", 0.0))
    for entry in summary.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return {name: summary[name] for name in sorted(summary)}


def write_spans(path: str, spans) -> int:
    """Write spans as JSONL; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
            count += 1
    return count


def read_spans(path: str) -> list[dict]:
    """Read spans from JSONL written by :func:`write_spans` — or from a
    job event stream dump, whose span records carry ``t == "span"``
    plus ring stamps that are stripped here.  Non-span records (other
    event types, malformed lines) are skipped."""
    spans: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("t") is not None and record.get("t") != "span":
                continue
            record = {
                k: v
                for k, v in record.items()
                if k not in ("t", "seq", "ts", "worker")
            }
            if "span_id" in record and "trace_id" in record:
                spans.append(record)
    return spans
