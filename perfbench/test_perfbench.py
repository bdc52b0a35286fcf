"""Self-tests for the benchmark's own bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pb_corpus  # noqa: E402
import pb_service  # noqa: E402
import run  # noqa: E402
from pb_stats import (  # noqa: E402
    REFERENCE_ROUNDS_PER_S, HostSpeed, percentile, tail_percentile,
)
from pb_trace import Tracer, instrument  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_traced_wall():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _busy(0.002), "leaf")

    def middle():
        _busy(0.001)
        for _ in range(3):
            leaf()

    middle = tracer.wrap(middle, "middle")
    start = time.perf_counter()
    with tracer.span("root"):
        for _ in range(20):
            middle()
            _busy(0.001)
    wall = time.perf_counter() - start
    self_sum = sum(n.self_time for n in tracer.nodes)
    assert abs(self_sum - wall) / wall < 0.01
    totals = tracer.totals()
    assert totals["middle"]["calls"] == 20
    assert totals["leaf"]["calls"] == 60


def test_self_times_sum_to_traced_wall_on_a_real_verification():
    from repro import verify
    from repro.bench.workloads import fib_bench

    tracer = Tracer()
    with instrument(tracer):
        start = time.perf_counter()
        with tracer.span("pass"):
            verify(fib_bench(2), "tso", stop_on_error=False, jobs=1)
        wall = time.perf_counter() - start
    self_sum = sum(n.self_time for n in tracer.nodes)
    assert abs(self_sum - wall) / wall < 0.01
    names = set(tracer.totals())
    assert {"core.explorer", "graphs.copy", "models.is_consistent"} <= names


def test_instrument_restores_every_function():
    import repro
    from repro.core import explorer
    from repro.graphs.graph import ExecutionGraph

    before = (repro.run_suite, explorer.replay, ExecutionGraph.copy)
    with instrument(Tracer()):
        assert explorer.replay is not before[1]
        assert ExecutionGraph.copy is not before[2]
    assert (repro.run_suite, explorer.replay, ExecutionGraph.copy) == before


def test_a_call_that_raises_still_pops_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    boom = tracer.wrap(boom, "boom")
    with tracer.span("outer") as outer:
        with pytest.raises(ValueError):
            boom()
        assert tracer.depth() == 1
    assert tracer.depth() == 0
    node = next(n for n in tracer.nodes if n.name == "boom")
    assert node.calls == 1 and node.parent is outer


def test_span_stacks_stay_per_thread_under_stress():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: [leaf() for _ in range(3)], "outer")
    threads_n, calls = 8, 2000
    errors = []
    # every thread stays alive until all are done, so no thread id is
    # reused and nodes can be grouped by thread
    done = threading.Barrier(threads_n, timeout=60)

    def worker():
        try:
            for _ in range(calls):
                outer()
            assert tracer.depth() == 0
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        done.wait()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    by_thread = {}
    for node in tracer.nodes:
        if node.parent is not None:
            assert node.parent.tid == node.tid
        by_thread.setdefault(node.tid, {})[node.name] = node.calls
    assert len(by_thread) == threads_n
    for counts in by_thread.values():
        assert counts == {"outer": calls, "leaf": 3 * calls}


def test_span_stacks_stay_per_thread_under_the_service_workload(tmp_path):
    jobs = pb_service.build_jobs(ROOT)[:6]
    service = pb_service.Service(str(tmp_path))
    tracer = Tracer()
    try:
        with instrument(tracer):
            out = pb_service.run_round(service, jobs, tracer)
    finally:
        service.close()
    assert not out["failures"]
    assert tracer.depth() == 0
    main = threading.get_ident()
    for node in tracer.nodes:
        if node.parent is not None:
            assert node.parent.tid == node.tid
    roots = {(n.tid == main, n.name) for n in tracer.nodes if n.parent is None}
    assert (True, "service.job") in roots
    assert (False, "suite.run_suite") in roots
    assert len(out["overheads_ms"]) == len(jobs)


def test_spans_render_with_trace_flame(tmp_path):
    from repro.obs.spans import flame_tree, format_flame, read_spans, write_spans

    tracer = Tracer()
    leaf = tracer.wrap(lambda: _busy(0.001), "leaf")
    with tracer.span("root"):
        for _ in range(5):
            leaf()
    path = str(tmp_path / "spans.jsonl")
    write_spans(path, tracer.records())
    spans = read_spans(path)
    assert len(spans) == len(tracer.nodes)
    tree = flame_tree(spans)
    root = tree.children["root"]
    node = next(n for n in tracer.nodes if n.name == "root")
    assert root.self_time == pytest.approx(node.self_time, rel=1e-9, abs=1e-12)
    assert "leaf" in format_flame(spans)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(range(1, 280)) == (95.0, percentile(range(1, 280), 95))
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tail_percentile(range(1, 11)) is None
    # ties at the percentile value do not count as beyond it
    assert tail_percentile([1] * 270 + [2] * 9) is None


def test_percentile_is_nearest_rank():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(range(1, 11), 95) == 10
    assert percentile(range(1, 101), 90) == 90


def test_same_seed_same_order():
    entries = [name for name, *_ in pb_corpus.ENTRIES]
    jobs = [(j.test, j.model) for j in pb_service.build_jobs(ROOT)]
    for items in (entries, jobs):
        a, b, c = random.Random(7), random.Random(7), random.Random(8)
        first = [run.order(items, a) for _ in range(3)]
        assert first == [run.order(items, b) for _ in range(3)]
        assert first != [run.order(items, c) for _ in range(3)]
        assert sorted(first[0]) == sorted(items)


def test_service_round_is_the_litmus_matrix():
    jobs = pb_service.build_jobs(ROOT)
    assert len(jobs) == 31 * 9
    assert len({(j.test, j.model) for j in jobs}) == len(jobs)


def test_pins_cover_the_corpus():
    pinned = pb_corpus.load_pinned()["corpus"]
    assert set(pinned) == {name for name, *_ in pb_corpus.ENTRIES}
    for name, _family, _args, model in pb_corpus.ENTRIES:
        modes = set(pinned[name]["counts"])
        assert modes == ({"serial", "jobs2"} if name in pb_corpus.SHARDED else {"serial"})
    assert all(not model.endswith(".cat")
               for name, _f, _a, model in pb_corpus.ENTRIES if name in pb_corpus.SHARDED)


def test_corpus_time_is_the_sum_of_each_calls_fastest():
    def rows(*times):
        return {"rows": [("serial", name, w, c, {}) for name, w, c in times]}

    passes = [rows(("a", 2.0, 1.5), ("b", 1.0, 1.0)), rows(("a", 1.5, 1.6))]
    wall, cpu = run.CorpusWorkload.timing(None, passes, 0.0)
    assert (wall, cpu) == (2.5, 2.5)


def test_a_cut_pass_ends_the_run_before_its_deadline():
    class Steps:
        CUTS = True
        slowest = 0.02

        def run_pass(self, rng, tracer=None, deadline=None):
            ran = 0
            for _ in range(5):
                if deadline is not None and time.perf_counter() + self.slowest > deadline:
                    break
                _busy(0.01)
                ran += 1
            return {"wall": 0.05, "cut": ran < 5, "attempted": ran}

    start = time.perf_counter()
    records = run.measure(Steps(), random.Random(1), 0.12)
    assert time.perf_counter() - start <= 0.12
    assert [r["attempted"] for r in records][:2] == [5, 5]
    assert all(r["attempted"] for r in records)
    # only the last pass can be cut; an empty one is dropped
    assert not any(r["cut"] for r in records[:-1])


def test_host_speed_slices_are_paced_and_scale_times():
    host = HostSpeed()
    host.tick()
    rounds, seconds = host.rounds, host.seconds
    assert rounds > 0 and seconds >= HostSpeed.SLICE
    assert 0 < host.cpu_seconds <= 2 * seconds
    host.tick()  # under EVERY seconds after the last slice: skipped
    assert (host.rounds, host.seconds) == (rounds, seconds)
    host.last -= HostSpeed.EVERY
    host.tick()
    assert host.rounds > rounds
    rate = host.rounds / host.seconds
    assert host.to_reference(2.0) == pytest.approx(2.0 * rate / REFERENCE_ROUNDS_PER_S)
