"""The pinned corpus: fixed programs verified end to end through
``repro.verify``, serially and, for the entries in :data:`SHARDED`,
with ``jobs=2``.

Each entry pins its executions, its outcome multiset and its error
verdict (``pinned.json``); a mismatch is a failed operation.  The other
exploration counts (blocked, duplicates, events added, consistency
checks, revisits performed) are pinned per mode and reported when they
move, never failed: the optimisations this corpus exists to measure
are expected to change them.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass

from pb_stats import cpu_seconds

#: (entry name, family, arguments, model).  A model ``"x.cat"`` is the
#: shipped ``src/repro/models/cat/x.cat`` loaded with ``repro.load_cat``;
#: any other model is a registry name.
ENTRIES = (
    ("seqlock(2,2)/rc11", "seqlock", (2, 2), "rc11"),
    ("seqlock(2,2)/tso", "seqlock", (2, 2), "tso"),
    ("fib(3)/tso", "fib", (3,), "tso"),
    ("ticket(3)/sc", "ticket_lock", (3,), "sc"),
    ("barrier(3)/ra", "barrier", (3,), "ra"),
    ("ainc(4)/imm", "ainc", (4,), "imm"),
    ("ticket(4)/sc", "ticket_lock", (4,), "sc"),
    ("treiber(2,2)/imm", "treiber_stack", (2, 2), "imm"),
    ("fib(3)/tso.cat", "fib", (3,), "tso.cat"),
    ("barrier(3)/ra.cat", "barrier", (3,), "ra.cat"),
)

#: The hand-coded entries also verified with ``jobs=2``.  The other
#: hand-coded entries stay serial only: on a shared 2-core host, a
#: shard's time varies by about 15 % from call to call while both cores
#: are busy, and jobs=2 calls of ticket(4), treiber(2,2) and the two
#: seqlocks would add about 19 s of that noise to every pass (these
#: four add about 2.5 s), leaving room for only one pass per run.
#: ainc(4)/imm keeps the jobs=2 duplicate baseline (1295 duplicates
#: against 85 serially).
SHARDED = ("ainc(4)/imm", "fib(3)/tso", "ticket(3)/sc", "barrier(3)/ra")

#: Hand-written safe (True) / unsafe (False) answers from the T5 and T6
#: verdict tables (benchmarks/test_t5_locks.py, test_t6_datastructures.py)
#: for the families those tables cover under the same model.  The
#: corpus verdict must agree.  seqlock(2,2)/rc11 is not held to the T5
#: seqlock/rc11 row: that row is about seqlock(1,1).  With two writers,
#: a writer whose increment reads an odd sequence number blocks only
#: after its increment is visible, so a reader can accept a torn
#: snapshot; the checker's error verdict for it is pinned instead.
HAND_WRITTEN_SAFE = {
    "ticket(3)/sc": True,
    "ticket(4)/sc": True,
    "barrier(3)/ra": True,
    "treiber(2,2)/imm": True,
    "barrier(3)/ra.cat": True,
}

#: the counts printed per entry and per mode
COUNTS = (
    "executions",
    "blocked",
    "duplicates",
    "events_added",
    "consistency_checks",
    "revisits_performed",
)

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


@dataclass
class Entry:
    name: str
    program: object
    model: object  #: registry name or a loaded CatModel


def build_entries(root: str) -> list[Entry]:
    """Build every corpus program and load the ``.cat`` models."""
    from repro import load_cat
    from repro.bench import datastructures, workloads

    cat_dir = os.path.join(root, "src", "repro", "models", "cat")
    families = {
        "seqlock": workloads.seqlock,
        "fib": workloads.fib_bench,
        "ticket_lock": workloads.ticket_lock,
        "barrier": workloads.barrier,
        "ainc": workloads.ainc,
        "treiber_stack": datastructures.treiber_stack,
    }
    cats: dict[str, object] = {}
    entries = []
    for name, family, args, model in ENTRIES:
        if model.endswith(".cat"):
            if model not in cats:
                cats[model] = load_cat(os.path.join(cat_dir, model))
            model = cats[model]
        entries.append(Entry(name, families[family](*args), model))
    return entries


def load_pinned() -> dict:
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def outcome_multiset(result) -> list:
    """The outcome Counter as a sorted, JSON-comparable list."""
    return sorted(
        [[list(map(list, key)), count] for key, count in result.outcomes.items()]
    )


def counts_of(result) -> dict[str, int]:
    """Exploration counts of a result: :data:`COUNTS` plus what the
    per-layer ratios need."""
    stats = result.stats
    return {
        "executions": result.executions,
        "blocked": result.blocked,
        "duplicates": result.duplicates,
        "events_added": stats.events_added,
        "consistency_checks": stats.consistency_checks,
        "revisits_performed": stats.revisits_performed,
        "revisits_considered": stats.revisits_considered,
        "shards": result.meta.get("tasks", 0),
    }


def counts_of_doc(doc: dict) -> dict[str, int]:
    """:func:`counts_of` for a result document (``to_dict`` shape)."""
    stats = doc["stats"]
    return {
        "executions": doc["executions"],
        "blocked": doc["blocked"],
        "duplicates": doc["duplicates"],
        "events_added": stats["events_added"],
        "consistency_checks": stats["consistency_checks"],
        "revisits_performed": stats["revisits_performed"],
        "revisits_considered": stats["revisits_considered"],
        "shards": doc["meta"].get("tasks", 0),
    }


def check(entry: Entry, result, pinned: dict) -> list[str]:
    """Reasons the result is wrong; empty when it is right."""
    pin = pinned[entry.name]
    problems = []
    if result.truncated:
        problems.append("search truncated")
    if result.executions != pin["executions"]:
        problems.append(
            f"executions {result.executions} != pinned {pin['executions']}"
        )
    if outcome_multiset(result) != pin["outcomes"]:
        problems.append("outcome multiset differs from the pinned one")
    unsafe = bool(result.errors)
    if unsafe != pin["unsafe"]:
        problems.append(f"error verdict {unsafe} != pinned {pin['unsafe']}")
    safe = HAND_WRITTEN_SAFE.get(entry.name)
    if safe is not None and unsafe == safe:
        problems.append(f"hand-written answer is safe={safe}")
    return problems


def run_pass(ops: list[tuple], tracer=None) -> list[tuple]:
    """Verify each ``(entry, jobs)`` once, in the given order; returns
    ``(entry, jobs, result, seconds, cpu)`` per operation.  ``cpu``
    includes the jobs=2 pool's workers, which are reaped before
    ``verify`` returns."""
    from repro import verify

    out = []
    for entry, jobs in ops:
        span = (
            tracer.span(f"corpus:{entry.name} jobs={jobs}")
            if tracer is not None else contextlib.nullcontext()
        )
        with span:
            cpu = cpu_seconds()
            start = time.perf_counter()
            result = verify(
                entry.program, entry.model, stop_on_error=False, jobs=jobs
            )
            seconds = time.perf_counter() - start
            cpu = cpu_seconds() - cpu
        out.append((entry, jobs, result, seconds, cpu))
    return out
