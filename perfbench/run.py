"""The repository benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The workloads (see README.md):

* ``corpus`` -- the pinned corpus through ``verify(..., jobs=1)``, and
  four of its hand-coded entries through ``verify(..., jobs=2)``;
* ``service-litmus`` -- closed-loop litmus jobs against an in-process
  service: a round on an emptied result cache, then the same jobs again,
  served from the cache.

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics, their times scaled to a reference host speed
(``pb_stats.HostSpeed``).  ``--trace 1`` measures passes untraced for half
the time, then the same number traced, reports the per-layer metrics
and the tracing overhead, and writes the spans to ``perfbench/out/``.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The seed only
permutes entry and job order; the programs are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from statistics import median

import pb_corpus
import pb_service
from pb_stats import (
    REFERENCE_ROUNDS_PER_S, HostSpeed, cpu_seconds, peak_rss_mb, percentile,
    tail_percentile,
)
from pb_trace import Tracer, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: set-up repetitions per run; set-up time is their median
SETUP_REPS = 3


def import_repro() -> float:
    """Import the checkout's ``src/repro``, which exits non-zero when the
    checkout holds no sources.  Returns the median over
    :data:`SETUP_REPS` fresh interpreters of the seconds ``import
    repro`` takes once bytecode is cached."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "start = time.perf_counter(); import repro; "
        "print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return median(times)


def order(items, rng: random.Random) -> list:
    """One pass's order: a permutation drawn from the seeded stream."""
    return rng.sample(list(items), len(items))


# -- workloads ---------------------------------------------------------------


class CorpusWorkload:
    #: mode name per jobs value
    MODES = {1: "serial", 2: "jobs2"}
    #: a pass can be cut short at a deadline
    CUTS = True

    def __init__(self, host: HostSpeed) -> None:
        self.host = host

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            entries = pb_corpus.build_entries(ROOT)
            times.append(time.perf_counter() - start)
        self.ops = [(e, 1) for e in entries]
        self.ops += [(e, 2) for e in entries if e.name in pb_corpus.SHARDED]
        self.pinned = pb_corpus.load_pinned()["corpus"]
        #: the slowest time seen per operation, to tell what still fits
        self.slowest = {}
        return median(times)

    def run_pass(self, rng, tracer=None, deadline=None) -> dict:
        """One pass over the operations in a seeded order.  With a
        ``deadline``, an operation whose slowest earlier time would take
        it past the deadline is skipped, so the run ends close to its
        budget rather than up to a pass early."""
        start = time.perf_counter()
        runs = []
        cut = False
        for entry, jobs in order(self.ops, rng):
            self.host.tick()
            slowest = self.slowest.get((entry.name, jobs))
            if (deadline is not None and slowest is not None
                    and time.perf_counter() + slowest > deadline):
                cut = True
                continue
            runs += pb_corpus.run_pass([(entry, jobs)], tracer)
            self.slowest[entry.name, jobs] = max(runs[-1][3], slowest or 0.0)
        wall = time.perf_counter() - start
        failures = []
        for entry, jobs, result, _seconds, _cpu in runs:
            problems = pb_corpus.check(entry, result, self.pinned)
            if problems:
                failures.append(f"{entry.name} jobs={jobs}: {'; '.join(problems)}")
        # counts only: results are dropped so passes do not pile up memory
        rows = [
            (self.MODES[jobs], entry.name, seconds, cpu,
             pb_corpus.counts_of(result))
            for entry, jobs, result, seconds, cpu in runs
        ]
        return {
            "wall": wall,
            "cut": cut,
            "attempted": len(runs),
            "failures": failures,
            "explored": [c for mode, *_, c in rows if mode == "serial"],
            "sharded": [c for mode, *_, c in rows if mode != "serial"],
            "rows": rows,
        }

    def timing(self, passes, cpu_s) -> tuple[float, float]:
        """``wall_s`` and ``cpu_s``: the sum over the corpus calls of
        each call's fastest wall and CPU time in the run, passes cut
        short included.  On a shared host the speed of the same code
        drifts by tens of percent over seconds; a call's fastest time
        is the one that drift touched least.  A call has two or three
        samples, too few for a median to drop a slow one."""
        best = {}
        for p in passes:
            for mode, name, seconds, cpu, _counts in p["rows"]:
                wall0, cpu0 = best.get((mode, name), (seconds, cpu))
                best[mode, name] = (min(wall0, seconds), min(cpu0, cpu))
        return sum(w for w, _ in best.values()), sum(c for _, c in best.values())

    def report(self, passes, say) -> None:
        """The exact count blocks of the first pass, against the pins."""
        rows = sorted(passes[0]["rows"], key=lambda row: row[:2])
        for mode in self.MODES.values():
            say(f"counts ({mode}; '!=' marks a change from the pinned value):")
            say(f"  {'entry':<20}{'seconds':>9}"
                + "".join(f"{c:>22}" for c in pb_corpus.COUNTS))
            for row_mode, entry, seconds, _cpu, got in rows:
                if row_mode != mode:
                    continue
                pins = self.pinned[entry]["counts"]
                cells = []
                for name in pb_corpus.COUNTS:
                    cell = str(got[name])
                    if pins[mode][name] != got[name]:
                        cell += f" !={pins[mode][name]}"
                    if mode != "serial" and pins["serial"][name] != got[name]:
                        cell += f" (serial {pins['serial'][name]})"
                    cells.append(f"{cell:>22}")
                say(f"  {entry:<20}{seconds:9.3f}" + "".join(cells))

    def teardown(self) -> None:
        pass


class ServiceWorkload:
    CUTS = False

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.service = None

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPS):
            self.teardown()  # the previous set-up's server, untimed
            start = time.perf_counter()
            self.jobs = pb_service.build_jobs(ROOT)
            self.service = pb_service.Service(OUT)
            self.service.run_job(pb_service.WARMUP)
            times.append(time.perf_counter() - start)
        return median(times)

    def run_pass(self, rng, tracer=None, deadline=None) -> dict:
        """One miss round and one hit round (``deadline`` is unused)."""
        self.service.cache.clear()
        start = time.perf_counter()
        miss = pb_service.run_round(
            self.service, order(self.jobs, rng), tracer, self.host
        )
        hit = pb_service.run_round(
            self.service, order(self.jobs, rng), tracer, self.host
        )
        wall = time.perf_counter() - start
        return {
            "wall": wall,
            "miss_ms": miss["latencies_ms"],
            "hit_ms": hit["latencies_ms"],
            "by_job_ms": {
                (kind, job): ms
                for kind, rnd in (("miss", miss), ("hit", hit))
                for job, ms in rnd["by_job_ms"].items()
            },
            "failures": miss["failures"] + hit["failures"],
            "explored": [
                pb_corpus.counts_of_doc(doc)
                for doc in miss["fresh"] + hit["fresh"]
            ],
            "sharded": [],
            "hits": (miss["hits"], hit["hits"]),
            "overheads_ms": miss["overheads_ms"] + hit["overheads_ms"],
            "attempted": 2 * len(self.jobs),
        }

    def timing(self, passes, cpu_s) -> tuple[float, float]:
        """``wall_s``: the sum over the jobs of each job's median
        latency in the run, for its miss and for its hit.  A job has
        four or five samples, enough for a median to drop the ones a
        slow spell of the host hit; the fastest would drift with the
        number of passes.  ``cpu_s``: the run's CPU per pass, taken
        after teardown has reaped the pool's workers, less the CPU the
        host-speed slices took."""
        samples = {}
        for p in passes:
            for key, ms in p["by_job_ms"].items():
                samples.setdefault(key, []).append(ms)
        wall_s = sum(median(ms) for ms in samples.values()) / 1000.0
        return wall_s, (cpu_s - self.host.cpu_seconds) / len(passes)

    def report(self, passes, say) -> None:
        hits = [p["hits"] for p in passes]
        say(f"cache hits per (miss, hit) round: {hits} of {len(self.jobs)} jobs")
        for kind in ("miss", "hit"):
            samples = [x for p in passes for x in p[f"{kind}_ms"]]
            tail = tail_percentile(samples)
            say(f"{kind} rounds: {len(samples)} jobs, p50 {median(samples):.3f} ms"
                + (f", p{tail[0]:g} {tail[1]:.3f} ms" if tail else ""))

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {
    "corpus": CorpusWorkload,
    "service-litmus": ServiceWorkload,
}


# -- measuring ---------------------------------------------------------------


def measure(workload, rng, seconds: float, passes: int | None = None,
            tracer=None, whole: bool = False) -> list[dict]:
    """Exactly ``passes`` whole passes, or passes for ``seconds``.  A
    workload that can cut a pass short (``CUTS``) runs passes until one
    is cut at the deadline, unless ``whole``; any other runs at least
    one, then more while another one of the last one's length fits."""
    records = []
    start = time.perf_counter()
    cuts = workload.CUTS and passes is None and not whole
    deadline = start + seconds if cuts else None
    while True:
        if tracer is not None:
            with tracer.span("pass"):
                records.append(workload.run_pass(rng, tracer))
        else:
            records.append(workload.run_pass(rng, deadline=deadline))
        if len(records) == 1:
            # a later pass can only add to it (the service keeps a job
            # history), so the peak is taken where every run has been
            records[0]["peak_rss_mb"] = peak_rss_mb()
        if passes is not None:
            if len(records) >= passes:
                return records
        elif cuts:
            if records[-1]["cut"]:
                if not records[-1]["attempted"]:
                    records.pop()
                return records
        elif time.perf_counter() - start + records[-1]["wall"] > seconds:
            return records


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metrics: name -> unit.  Times and counts are per traced
#: pass; a layer the workload does not reach reads 0.
PER_LAYER_UNITS = {
    "core.explorer.self_s": "s/pass",
    "core.explorer.executions": "count",
    "core.explorer.blocked": "count",
    "core.explorer.duplicates": "count",
    "core.explorer.events_added": "count",
    "core.explorer.consistency_checks": "count",
    "lang.replay_calls": "count",
    "lang.replay_s": "s/pass",
    "graphs.copy_calls": "count",
    "graphs.copy_s": "s/pass",
    "graphs.canonical_key_calls": "count",
    "graphs.canonical_key_s": "s/pass",
    "graphs.acyclic_check_s": "s/pass",
    "models.is_consistent_calls": "count",
    "models.is_consistent_s": "s/pass",
    "models.coherence_ok_s": "s/pass",
    "models.consistent_ratio": "ratio",
    "cat.axiom_calls": "count",
    "cat.axiom_s": "s/pass",
    "core.revisits.calls": "count",
    "core.revisits.self_s": "s/pass",
    "core.revisits.performed": "count",
    "core.revisits.kept_ratio": "ratio",
    "core.parallel.split_s": "s/pass",
    "core.parallel.pool_s": "s/pass",
    "core.parallel.merge_s": "s/pass",
    "core.parallel.shards": "count",
    "core.parallel.dup_ratio": "ratio",
    "suite.run_suite_self_s": "s/pass",
    "suite.task_key_s": "s/pass",
    "suite.cache_load_calls": "count",
    "suite.cache_load_s": "s/pass",
    "suite.cache_store_calls": "count",
    "suite.cache_store_s": "s/pass",
    "suite.cache_hit_ratio": "ratio",
    "core.estimate.s": "s/pass",
    "litmus.verdict_s": "s/pass",
    "service.submit_ms": "ms/call",
    "service.wait_ms": "ms/call",
    "service.overhead_ms": "ms/job",
    "service.miss_p50_ms": "ms/job",
    "service.miss_p95_ms": "ms/job",
    "service.hit_p50_ms": "ms/job",
    "service.hit_p95_ms": "ms/job",
    "trace_overhead_frac": "ratio",
}


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics, per traced pass."""
    n = len(traced)
    spans = tracer.totals()

    def span(name, field="total"):
        return spans.get(name, {}).get(field, 0) / n

    def count(field, kind="explored"):
        # "explored": results searched whole; "sharded": jobs=2 results
        return sum(e[field] for p in traced for e in p[kind]) / n

    def latency(kind, pct):
        # end-to-end latencies, so taken from the untraced passes
        samples = [x for p in untraced for x in p.get(f"{kind}_ms", ())]
        return percentile(samples, pct) if samples else 0.0

    checks = spans.get("models.is_consistent", {})
    jobs_run = sum(p.get("attempted", 0) for p in traced)
    hits = sum(sum(p.get("hits", ())) for p in traced)
    overheads = [x for p in traced for x in p.get("overheads_ms", [])]
    submit = spans.get("service.submit", {})
    wait = spans.get("service.wait", {})
    values = {
        "core.explorer.self_s": span("core.explorer", "self"),
        "core.explorer.executions": count("executions"),
        "core.explorer.blocked": count("blocked"),
        "core.explorer.duplicates": count("duplicates"),
        "core.explorer.events_added": count("events_added"),
        "core.explorer.consistency_checks": count("consistency_checks"),
        "lang.replay_calls": span("lang.replay", "calls"),
        "lang.replay_s": span("lang.replay"),
        "graphs.copy_calls": span("graphs.copy", "calls"),
        "graphs.copy_s": span("graphs.copy"),
        "graphs.canonical_key_calls": span("graphs.canonical_key", "calls"),
        "graphs.canonical_key_s": span("graphs.canonical_key"),
        "graphs.acyclic_check_s": span("graphs.acyclic_check"),
        "models.is_consistent_calls": span("models.is_consistent", "calls"),
        "models.is_consistent_s": span("models.is_consistent"),
        "models.coherence_ok_s": span("models.coherence_ok"),
        "models.consistent_ratio": ratio(
            checks.get("accepted", 0), checks.get("calls", 0)
        ),
        "cat.axiom_calls": span("cat.axiom", "calls"),
        "cat.axiom_s": span("cat.axiom"),
        "core.revisits.calls": span("core.revisits", "calls"),
        "core.revisits.self_s": span("core.revisits", "self"),
        "core.revisits.performed": count("revisits_performed"),
        "core.revisits.kept_ratio": ratio(
            count("revisits_performed"), count("revisits_considered")
        ),
        "core.parallel.split_s": span("core.parallel.split"),
        "core.parallel.pool_s": span("core.parallel.pool"),
        "core.parallel.merge_s": span("core.parallel.verify_parallel", "self"),
        "core.parallel.shards": count("shards", "sharded"),
        "core.parallel.dup_ratio": ratio(
            count("duplicates", "sharded"),
            count("executions", "sharded") + count("duplicates", "sharded"),
        ),
        "suite.run_suite_self_s": span("suite.run_suite", "self"),
        "suite.task_key_s": span("suite.task_key"),
        "suite.cache_load_calls": span("suite.cache_load", "calls"),
        "suite.cache_load_s": span("suite.cache_load"),
        "suite.cache_store_calls": span("suite.cache_store", "calls"),
        "suite.cache_store_s": span("suite.cache_store"),
        "suite.cache_hit_ratio": ratio(hits, jobs_run),
        "core.estimate.s": span("core.estimate"),
        "litmus.verdict_s": span("litmus.verdict"),
        "service.submit_ms": 1000.0 * ratio(submit.get("total", 0.0), submit.get("calls", 0)),
        "service.wait_ms": 1000.0 * ratio(wait.get("total", 0.0), wait.get("calls", 0)),
        "service.overhead_ms": sum(overheads) / len(overheads) if overheads else 0.0,
        "service.miss_p50_ms": latency("miss", 50.0),
        "service.miss_p95_ms": latency("miss", 95.0),
        "service.hit_p50_ms": latency("hit", 50.0),
        "service.hit_p95_ms": latency("hit", 95.0),
        "trace_overhead_frac": (
            median([p["wall"] for p in traced])
            / median([p["wall"] for p in untraced]) - 1.0
        ),
    }
    return values


def end_to_end(workload, passes, setup_s, cpu_s) -> dict:
    """The end-to-end metrics, times as measured: :func:`main` scales
    them to the reference host speed."""
    wall_s, cpu_s = workload.timing(passes, cpu_s)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }


END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the run is hermetic: no REPRO_* knob from the caller's environment
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    import_s = import_repro()
    os.makedirs(OUT, exist_ok=True)

    def say(line: str) -> None:
        print(line, flush=True)

    rng = random.Random(args.seed)
    host = HostSpeed()
    workload = WORKLOADS[args.workload](host)
    say(f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}")
    try:
        setup_s = import_s + workload.setup()
        cpu0 = cpu_seconds()
        # a trace run spends half its time untraced, half traced
        # passes to compare with traced ones are whole
        passes = measure(
            workload, rng, args.seconds / 2 if args.trace else args.seconds,
            whole=bool(args.trace),
        )
        traced = []
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                traced = measure(
                    workload, rng, args.seconds, passes=len(passes),
                    tracer=tracer,
                )
        workload.report(passes, say)
    finally:
        workload.teardown()
    cpu_s = cpu_seconds() - cpu0

    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    for failure in failures:
        say(f"FAILED {failure}")
    say(f"operations: {attempted} attempted, {len(failures)} failed, "
        f"fail_frac {len(failures) / attempted:.4f}")
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    say(f"passes: {len(passes)} timed, {len(traced)} traced; "
        f"timed pass wall: {walls} s")

    if args.trace:
        values = per_layer(tracer, traced, passes)
        units = PER_LAYER_UNITS
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        from repro.obs.spans import write_spans

        count = write_spans(path, tracer.records())
        traced_wall = sum(p["wall"] for p in traced)
        say("self time by span, per traced pass, as a share of the traced "
            "wall (threads overlap, so shares can sum past 100%):")
        for name, t in sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self"]):
            say(f"  {name:<34} {t['self'] / len(traced):10.4f} s "
                f"{t['self'] / traced_wall:7.1%}  calls {t['calls']}")
        say(f"spans: {count} written to {os.path.relpath(path, ROOT)} "
            f"(render with: hmc trace flame {os.path.relpath(path, ROOT)})")
    else:
        measured = end_to_end(workload, passes, setup_s, cpu_s)
        say(f"host speed: {host.rounds_per_s():.3f} calibration rounds/s "
            f"over {host.seconds:.3f} s of slices; times as measured, before "
            f"scaling to {REFERENCE_ROUNDS_PER_S:g} rounds/s:")
        for name in ("wall_s", "cpu_s", "setup_s"):
            say(f"  {name:<36} {measured[name]:14.6f} s")
        values = dict(measured)
        for name in ("wall_s", "cpu_s", "setup_s"):
            values[name] = host.to_reference(measured[name])
        units = END_TO_END_UNITS
    say("metrics:")
    for name, value in values.items():
        say(f"  {name:<36} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
