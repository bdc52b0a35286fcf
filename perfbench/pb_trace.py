"""The traced pass: spans around calls into each layer, recorded from
outside the program.

:func:`instrument` swaps the public functions named in :data:`LAYERS`
for timing wrappers (every module-level reference to a function under
``repro``, or the method on its class) and restores them on exit.  The
program itself is not edited.

Each thread keeps its own span stack, because the service workload
runs the client, the HTTP handlers and the executor on different
threads.  A span's self time is its duration minus the time covered by
its child spans.  Hot calls are aggregated: repeated calls with the
same name under the same parent fold into one node that counts calls
and accumulates total and self time, so memory stays bounded by the
shape of the call tree rather than the number of calls.  Nodes are
written at exit as one span each in the :mod:`repro.obs.spans` JSONL
shape, with ``dur`` the node's total, so ``hmc trace flame`` renders
them unchanged and recovers the same self times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
import uuid
import weakref

#: (module, attribute, span name, counts true results).  A dotted
#: attribute names a method on a class; a plain one a function, patched
#: at every module-level reference to it under ``repro``.
LAYERS = (
    ("repro.core.explorer", "Explorer.run", "core.explorer", False),
    ("repro.core.revisits", "backward_revisits", "core.revisits", False),
    ("repro.lang", "replay", "lang.replay", False),
    ("repro.graphs.graph", "ExecutionGraph.copy", "graphs.copy", False),
    ("repro.graphs.hashing", "canonical_key", "graphs.canonical_key", False),
    ("repro.graphs.incremental", "acyclic_check", "graphs.acyclic_check", False),
    ("repro.models.base", "MemoryModel.is_consistent", "models.is_consistent", True),
    ("repro.models.base", "MemoryModel.coherence_ok", "models.coherence_ok", False),
    ("repro.cat.model", "CatModel.axiom_holds", "cat.axiom", False),
    ("repro.core.parallel", "verify_parallel", "core.parallel.verify_parallel", False),
    ("repro.core.parallel", "split_frontier", "core.parallel.split", False),
    ("repro.core.parallel", "PoolSupervisor.run", "core.parallel.pool", False),
    ("repro.suite.scheduler", "run_suite", "suite.run_suite", False),
    ("repro.suite.cache", "task_key", "suite.task_key", False),
    ("repro.suite.cache", "ResultCache.load", "suite.cache_load", False),
    ("repro.suite.cache", "ResultCache.store", "suite.cache_store", False),
    ("repro.core.estimate", "estimate_explorations", "core.estimate", False),
    ("repro.litmus.runner", "verdict_from_result", "litmus.verdict", False),
    ("repro.service.client", "ServiceClient.submit", "service.submit", False),
    ("repro.service.client", "ServiceClient.wait", "service.wait", False),
)


class Node:
    """One span record: a single call, or every call of one name under
    one parent on one thread."""

    __slots__ = (
        "span_id", "parent", "name", "cat", "tid",
        "first", "total", "self_time", "calls", "accepted", "kids",
    )

    def __init__(self, span_id, parent, name, cat, tid) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.tid = tid
        self.first = None
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.accepted = 0
        #: aggregated children by name; only the owning thread writes it
        self.kids: dict[str, Node] = {}


#: tracers alive in this process, switched off in forked children
_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_FORK_HOOKED = False


def _disable_in_child() -> None:
    # a forked pool worker inherits the wrappers; its spans could never
    # be collected, and it must not touch state another thread of the
    # parent was mutating mid-fork
    for tracer in list(_TRACERS):
        tracer.active = False


class Tracer:
    """Per-thread span stacks with aggregated hot spans."""

    def __init__(self) -> None:
        global _FORK_HOOKED
        self.active = True
        self.trace_id = uuid.uuid4().hex[:16]
        self.pid = os.getpid()
        self.nodes: list[Node] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()
        _TRACERS.add(self)
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_disable_in_child)
            _FORK_HOOKED = True

    def _state(self):
        local = self._local
        try:
            return local.stack, local.roots
        except AttributeError:
            local.stack, local.roots = [], {}
            return local.stack, local.roots

    def _new_node(self, parent, name, cat) -> Node:
        node = Node(next(self._ids), parent, name, cat, threading.get_ident())
        self.nodes.append(node)
        return node

    def enter(self, name: str, cat: str = "call",
              distinct: bool = False) -> list:
        """Open a span; returns the frame to hand to :meth:`exit`.
        ``distinct`` spans get a record of their own instead of folding
        into their same-named siblings."""
        stack, roots = self._state()
        parent = stack[-1][0] if stack else None
        if distinct:
            node = self._new_node(parent, name, cat)
        else:
            kids = parent.kids if parent is not None else roots
            node = kids.get(name)
            if node is None:
                node = kids[name] = self._new_node(parent, name, cat)
        frame = [node, time.perf_counter(), 0.0]
        if node.first is None:
            node.first = frame[1]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        node, start, child = frame
        dur = end - start
        node.total += dur
        node.self_time += dur - child
        node.calls += 1
        stack = self._state()[0]
        while stack and stack.pop() is not frame:
            pass
        if stack:
            stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "bench", distinct: bool = True):
        frame = self.enter(name, cat, distinct)
        try:
            yield frame[0]
        finally:
            self.exit(frame)

    def depth(self) -> int:
        """Open spans on the calling thread."""
        return len(self._state()[0])

    def wrap(self, fn, name: str, count_true: bool = False):
        """``fn`` timed as span ``name``; with ``count_true`` the node
        also counts calls that returned a true value."""
        tracer = self

        if count_true:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer.enter(name)
                try:
                    ok = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if ok:
                    frame[0].accepted += 1
                return ok
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)

        return functools.update_wrapper(wrapper, fn)

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total, self and accepted, summed over
        nodes (a name recursing into itself counts its total twice)."""
        out: dict[str, dict] = {}
        for node in list(self.nodes):
            entry = out.setdefault(
                node.name,
                {"calls": 0, "total": 0.0, "self": 0.0, "accepted": 0},
            )
            entry["calls"] += node.calls
            entry["total"] += node.total
            entry["self"] += node.self_time
            entry["accepted"] += node.accepted
        return out

    def total_of(self, name: str) -> float:
        return sum(n.total for n in list(self.nodes) if n.name == name)

    def records(self) -> list[dict]:
        """Every node as a span record in the repro.obs.spans shape."""
        out = []
        for node in self.nodes:
            if node.first is None:
                continue
            attrs = {"calls": node.calls, "self_s": node.self_time}
            if node.accepted:
                attrs["accepted"] = node.accepted
            out.append({
                "trace_id": self.trace_id,
                "span_id": f"{node.span_id:x}",
                "parent_id": (
                    f"{node.parent.span_id:x}"
                    if node.parent is not None else None
                ),
                "name": node.name,
                "cat": node.cat,
                "start": self._wall0 + (node.first - self._perf0),
                "dur": node.total,
                "pid": self.pid,
                "tid": node.tid,
                "attrs": attrs,
            })
        return out


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def instrument(tracer: Tracer, layers=LAYERS):
    """Wrap every layer function for the duration of the block."""
    undo = []
    try:
        for module, attribute, span, count_true in layers:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            wrapped = tracer.wrap(original, span, count_true)
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
                undo.append((owner, name, original))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
