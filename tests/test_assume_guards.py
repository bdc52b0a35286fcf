"""Early assume guards (repro.lang.guards).

The explorer runs every program through :func:`guard_assumes`, which
inserts an early ``Assume(conjunct, taint=False)`` for each ``&&``
conjunct of an ``assume`` whose registers are defined before some of
the block's loads.  A guard only makes a doomed thread block sooner,
so everything but the blocked (and erroneous) graph counts must be
identical with the transformation on and off.  The differential
below replaces it with the identity and compares executions,
duplicates, the outcome multiset, canonical keys and the error
verdict; it runs serially and, under ``REPRO_JOBS=2``, through the
sharded path.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import repro.models
from repro import verify
from repro.baselines.exhaustive import brute_force
from repro.bench.datastructures import mp_queue, rw_lock
from repro.bench.workloads import peterson, seqlock
from repro.cli import main
from repro.core import explorer as explorer_mod
from repro.events import FenceKind, MemOrder
from repro.graphs import canonical_key
from repro.lang import (
    Assume,
    If,
    Load,
    ProgramBuilder,
    Repeat,
    ReplayStatus,
    guard_assumes,
    replay,
)
from repro.lang.guards import conjuncts
from repro.litmus import catalog
from repro.models import load_cat
from repro.obs import Observer
from repro.util.randprog import RandomProgramGenerator

MODELS = ("sc", "tso", "pso", "ra", "rc11", "imm", "armv8", "power", "coherence")
CAT_MODELS = ("tso.cat", "ra.cat")
CAT_DIR = Path(repro.models.__file__).parent / "cat"


def _guards(stmts):
    return [i for i, st in enumerate(stmts) if isinstance(st, Assume) and not st.taint]


def _model(name):
    return load_cat(str(CAT_DIR / name)) if name.endswith(".cat") else name


# -- the transformation ------------------------------------------------------


class TestTransformation:
    def test_seqlock_reader_guard_follows_the_first_load(self):
        program = seqlock(1, 1)
        guarded = guard_assumes(program)
        writer, reader = guarded.threads
        assert writer is program.threads[0]  # FAI defines its register
        assert _guards(reader) == [1]
        assert isinstance(reader[0], Load) and reader[0].loc.base == "seq"
        original = program.threads[1]
        parity = conjuncts(original[4].cond)[1]
        assert reader[1].cond is parity
        # the original assume is still there, unchanged
        assert reader[5] is original[4] and original[4].taint

    def test_unchanged_program_is_the_same_object(self):
        for test in catalog.all_litmus_tests():
            assert guard_assumes(test.program) is test.program, test.name
        program = peterson()  # `||` is never split
        assert guard_assumes(program) is program

    def test_idempotent(self):
        guarded = guard_assumes(seqlock(2, 1))
        assert guard_assumes(guarded) is guarded

    @pytest.mark.parametrize(
        "barrier",
        [
            lambda t: t.store("z", 1),
            lambda t: t.cas("z", 0, 1),
            lambda t: t.fai("z", 1),
            lambda t: t.xchg("z", 1),
            lambda t: t.fence(FenceKind.MFENCE),
            lambda t: t.assert_(t.load("w").eq(0)),
            lambda t: t.if_(t.load("w").eq(0), lambda b: b.store("z", 1)),
        ],
        ids=["store", "cas", "fai", "xchg", "fence", "assert", "if"],
    )
    def test_nothing_crosses_a_barrier(self, barrier):
        p = ProgramBuilder("barrier")
        t = p.thread()
        r = t.load("x")
        barrier(t)
        t.load("y")
        t.assume(r.eq(1))
        program = p.build()
        thread = guard_assumes(program).threads[0]
        [guard] = _guards(thread)
        # right after the barrier, never before it
        assert guard == len(program.threads[0]) - 2
        # with no load between the barrier and the assume: no guard
        p = ProgramBuilder("tight")
        t = p.thread()
        r = t.load("x")
        barrier(t)
        t.assume(r.eq(1))
        program = p.build()
        assert guard_assumes(program) is program

    def test_assign_defining_a_register_stops_the_walk(self):
        p = ProgramBuilder("assign")
        t = p.thread()
        r = t.load("x")
        s = t.fresh_reg()
        t.assign(s, r + 1)
        t.load("y")
        t.assume(s.eq(2))
        thread = guard_assumes(p.build()).threads[0]
        assert _guards(thread) == [2]

    def test_only_loads_are_worth_a_guard(self):
        p = ProgramBuilder("assigns")
        t = p.thread()
        r = t.load("x")
        s = t.fresh_reg()
        t.assign(s, 3)
        t.assume(r.eq(1))
        program = p.build()
        assert guard_assumes(program) is program

    def test_guards_stay_in_their_block(self):
        p = ProgramBuilder("nested")
        t = p.thread()
        r = t.load("x")
        t.if_(r.eq(0), lambda b: (b.load("y"), b.assume(r.eq(0))))
        t.repeat(2, lambda b: (b.load("y"), b.assume(r.eq(0))))
        guarded = guard_assumes(p.build()).threads[0]
        branch, loop = guarded[1], guarded[2]
        assert isinstance(branch, If) and isinstance(loop, Repeat)
        assert _guards(branch.then) == [0]
        assert _guards(loop.body) == [0]
        assert _guards(guarded) == []

    def test_every_conjunct_goes_to_its_own_definition(self):
        p = ProgramBuilder("conj")
        t = p.thread()
        a = t.load("x")
        t.load("y")
        b = t.load("z")
        t.load("w")
        t.assume(a.eq(1).and_(b.eq(2)).and_(a.ne(b)))
        thread = guard_assumes(p.build()).threads[0]
        assert _guards(thread) == [1, 4, 5]


# -- the interpreter ---------------------------------------------------------


class TestReplay:
    def test_guard_blocks_early_with_a_prefix_of_the_labels(self):
        original = seqlock(1, 1).threads[1]
        guarded = guard_assumes(seqlock(1, 1)).threads[1]
        # an odd sequence number: the guard blocks after one load
        early = replay(guarded, 1, [1, 0, 0, 1])
        late = replay(original, 1, [1, 0, 0, 1])
        assert early.status is late.status is ReplayStatus.BLOCKED
        assert early.labels == late.labels[:1]
        assert early.site == "4:guard" and late.site == "4"

    def test_passing_a_guard_adds_no_control_dependency(self):
        original = seqlock(1, 1).threads[1]
        guarded = guard_assumes(seqlock(1, 1)).threads[1]
        for values in ([0, 0, 0, 0], [2, 1, 1, 2], [0, 1, 2, 2]):
            a = replay(guarded, 1, values)
            b = replay(original, 1, values)
            assert a.labels == b.labels  # ctrl_deps included
            assert a.status is b.status


# -- the search: guards on vs off ---------------------------------------------


_ORDERS = (MemOrder.RLX, MemOrder.ACQ, MemOrder.REL, MemOrder.SC)


def conjunctive_program(seed: int):
    """A small random program whose threads load (or FAI) early, load
    once more, and then ``assume`` a two-conjunct condition over both
    registers before a write other threads can observe — so the first
    conjunct gets a guard and early blocking changes the others'
    search."""
    rng = random.Random(seed)
    p = ProgramBuilder(f"conj-{seed}")
    for _ in range(rng.randint(2, 3)):
        t = p.thread()
        loc = rng.choice(("x", "y"))
        kind = rng.choice(("load", "load", "store", "fai"))
        if kind == "store":
            t.store(loc, rng.choice((1, 2)), rng.choice(_ORDERS))
            t.load(rng.choice(("x", "y")))
            continue
        if kind == "load":
            first = t.load(loc, rng.choice(_ORDERS))
        else:
            first = t.fai(loc, 1, rng.choice(_ORDERS))
        last = t.load(rng.choice(("x", "y")))
        t.assume(first.ne(rng.choice((1, 2))).and_(last.le(rng.choice((0, 1, 2)))))
        t.store(rng.choice(("x", "y")), 3)
        if rng.random() < 0.5:
            t.assert_(first.ne(3), "saw a post-assume write")
    return p.build()


def random_programs():
    gen = RandomProgramGenerator(
        seed=2024, with_assumes=True, max_threads=3, max_stmts=4
    )
    return list(gen.programs(20)) + [conjunctive_program(s) for s in range(20)]


PROGRAMS = [
    seqlock(1, 1),
    seqlock(2, 1),
    mp_queue(),
    rw_lock(),
    peterson(),
] + random_programs()


def test_the_program_set_exercises_guards():
    guarded = [p for p in PROGRAMS if guard_assumes(p) is not p]
    assert len(guarded) >= 15


def _signature(program, model):
    result = verify(
        program,
        _model(model),
        stop_on_error=False,
        collect_keys=True,
    )
    return {
        "executions": result.executions,
        "outcomes": Counter(result.outcomes),
        "keys": Counter(rec.key for rec in result.execution_records),
        "error": bool(result.errors),
        "duplicates": result.duplicates,
    }


def _unguarded(monkeypatch):
    # pool workers fork from this process, so a jobs>1 run's workers
    # explore unguarded too
    monkeypatch.setattr(explorer_mod, "guard_assumes", lambda program: program)


@pytest.mark.parametrize("model", MODELS + CAT_MODELS)
def test_differential_against_unguarded_search(model, monkeypatch):
    guarded = [_signature(p, model) for p in PROGRAMS]
    with monkeypatch.context() as patch:
        _unguarded(patch)
        plain = [_signature(p, model) for p in PROGRAMS]
    for program, a, b in zip(PROGRAMS, guarded, plain):
        assert a == b, f"{program.name} under {model}"


@pytest.mark.parametrize("model", ("tso", "imm", "power"))
def test_complete_executions_have_identical_labels(model, monkeypatch):
    def labelled(program):
        result = verify(
            program, model, stop_on_error=False, collect_executions=True
        )
        return Counter(
            (
                canonical_key(g),
                tuple(
                    tuple(g.label(ev) for ev in g.thread_events(tid))
                    for tid in g.thread_ids()
                ),
            )
            for g in result.execution_graphs
        )

    programs = [p for p in PROGRAMS if guard_assumes(p) is not p][:12]
    guarded = [labelled(p) for p in programs]
    with monkeypatch.context() as patch:
        _unguarded(patch)
        plain = [labelled(p) for p in programs]
    for program, a, b in zip(programs, guarded, plain):
        assert a == b, program.name


@pytest.mark.parametrize("model", ("sc", "tso", "ra", "imm", "power"))
def test_brute_force_equality_on_random_programs_with_assumes(model):
    # RandomProgramGenerator's single-conjunct assumes seldom sit behind
    # a load, so the conjunctive programs carry most of the guards
    gen = RandomProgramGenerator(
        seed=91, with_assumes=True, max_threads=2, max_stmts=4
    )
    checked = Counter()
    for program in [*gen.programs(24), *map(conjunctive_program, range(20))]:
        try:
            bf = brute_force(program, model, max_candidates=10_000)
        except RuntimeError:
            continue
        result = verify(
            program, model, stop_on_error=False, collect_executions=True
        )
        keys = {canonical_key(g) for g in result.execution_graphs}
        assert keys == bf.keys, f"{program.name} under {model}"
        assert set(result.outcomes) == bf.outcomes
        checked["guarded" if guard_assumes(program) is not program else "plain"] += 1
        checked["random"] += program.name.startswith("rand-")
    assert checked["random"] >= 20
    assert checked["guarded"] >= 6


def test_seqlock_22_blocked_counts():
    for model, bound in (("rc11", 3602), ("tso", 3558)):
        result = verify(seqlock(2, 2), model, stop_on_error=False)
        assert result.executions == 18
        assert result.errors  # unsafe with two writers
        assert result.blocked <= bound


# -- observability ----------------------------------------------------------


class TestBlockedSites:
    def _counters(self, program, model, **options):
        observer = Observer()
        result = verify(
            program, model, stop_on_error=False, observer=observer, **options
        )
        counters = observer.metrics_snapshot()["counters"]
        blocked = {k: v for k, v in counters.items() if k.startswith("blocked:")}
        return result, blocked

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_counters_sum_to_blocked(self, jobs):
        result, blocked = self._counters(seqlock(2, 1), "tso", jobs=jobs)
        if jobs > 1:
            assert result.meta["tasks"] > 0  # worker counters merged
        assert result.blocked > 0
        assert sum(blocked.values()) == result.blocked
        assert any(k.endswith(":guard") for k in blocked)

    def test_sites_name_thread_and_statement(self):
        _, blocked = self._counters(seqlock(1, 1), "tso")
        assert set(blocked) <= {"blocked:t1:4", "blocked:t1:4:guard"}
        assert blocked.get("blocked:t1:4:guard", 0) > 0

    def test_dead_ends_are_counted(self):
        # a CAS whose write cannot be placed atomically after the other
        # RMW is a dead end, not an assume
        p = ProgramBuilder("dead-end")
        for _ in range(2):
            t = p.thread()
            t.cas("x", 0, 1)
        result, blocked = self._counters(p.build(), "sc")
        assert sum(blocked.values()) == result.blocked
        assert set(blocked) <= {"blocked:dead-end"}

    def test_stats_prints_blocked_sites(self, capsys):
        assert main(["verify", "seqlock", "--n", "1", "--model", "tso", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "blocked graphs by cause" in out
        assert "blocked:t1:4:guard" in out
