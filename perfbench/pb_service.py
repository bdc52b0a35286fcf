"""Closed-loop litmus traffic through an in-process verification
service.

One client keeps one job in flight: it submits a ``litmus`` job, waits
for its result, checks the verdict, and only then submits the next.
A round is one job per (catalog test x model), 31 x 9 = 279 jobs, in
an order drawn from the workload seed.  A pass is a miss round on an
emptied result cache, which computes and stores every verdict, then a
hit round that is served from what the miss round stored.  The expected verdict always
comes from ``repro.litmus.expectations.ALLOWED``, never from the
checker.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass

#: hand-coded registry models, then the shipped .cat twins of tso/ra
MODELS = ("sc", "tso", "ra", "rc11", "imm", "armv8", "power", "tso.cat", "ra.cat")

#: the job submitted (and excluded from timing) after each start
WARMUP = {"kind": "litmus", "test": "SB", "model": "sc"}

#: seconds a single job may take before the client gives up on it
JOB_TIMEOUT = 120.0


@dataclass
class Job:
    test: str
    model: str  #: label: a registry name or "x.cat"
    payload: dict
    expected: bool  #: ALLOWED[test][model], the .cat twins as their model


def build_jobs(root: str) -> list[Job]:
    from repro import litmus_names
    from repro.litmus.expectations import ALLOWED

    cat_dir = os.path.join(root, "src", "repro", "models", "cat")
    specs = {}
    for model in MODELS:
        if model.endswith(".cat"):
            with open(os.path.join(cat_dir, model)) as handle:
                specs[model] = {"cat": handle.read()}
        else:
            specs[model] = model
    return [
        Job(
            test,
            model,
            {"kind": "litmus", "test": test, "model": specs[model]},
            ALLOWED[test][model.removesuffix(".cat")],
        )
        for test in litmus_names()
        for model in MODELS
    ]


class Service:
    """A started ``VerificationService(jobs=2)`` with a fresh result
    cache directory of its own, plus a client for it."""

    def __init__(self, workdir: str) -> None:
        from repro import ServiceClient
        from repro.service.server import VerificationService
        from repro.suite.cache import ResultCache

        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.cache = ResultCache(self.cache_dir)
        self.server = VerificationService(jobs=2, cache=self.cache)
        self.server.start()
        self.client = ServiceClient(self.server.url, timeout=JOB_TIMEOUT)

    def run_job(self, payload: dict) -> dict:
        """Submit one job and wait for its result document."""
        job = self.client.submit(payload)
        return self.client.wait(job["id"], timeout=JOB_TIMEOUT)

    def close(self) -> None:
        """Stop the server (its pool workers are joined) and remove the
        cache directory."""
        try:
            self.server.stop()
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def run_round(service: Service, jobs: list[Job], tracer=None,
              host=None) -> dict:
    """One closed-loop round.  Returns per-job latencies (ms), in run
    order and by ``(test, model)``, failure reasons, cache hits, the
    uncached results (the explorer ran for those) and, when traced,
    each job's latency minus the time its ``run_suite`` call took.
    ``host``, a :class:`pb_stats.HostSpeed`, is sampled between jobs."""
    from repro import ServiceError

    latencies, overheads, failures, fresh = [], [], [], []
    by_job = {}
    hits = 0
    for job in jobs:
        if host is not None:
            host.tick()
        before = tracer.total_of("suite.run_suite") if tracer else 0.0
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("service.job", distinct=False):
                    doc = service.run_job(job.payload)
            else:
                doc = service.run_job(job.payload)
        except (ServiceError, OSError) as exc:
            failures.append(f"{job.test}/{job.model}: {exc}")
            continue
        latency = time.perf_counter() - start
        latencies.append(latency * 1000.0)
        by_job[job.test, job.model] = latency * 1000.0
        if tracer is not None:
            suite_s = tracer.total_of("suite.run_suite") - before
            overheads.append((latency - suite_s) * 1000.0)
        verdict = doc.get("verdict") or {}
        if verdict.get("observed") is not job.expected:
            failures.append(
                f"{job.test}/{job.model}: observed={verdict.get('observed')}"
                f" but ALLOWED says {job.expected}"
            )
            continue
        if doc.get("cached"):
            hits += 1
        else:
            fresh.append(doc["result"])
    return {
        "latencies_ms": latencies,
        "by_job_ms": by_job,
        "overheads_ms": overheads,
        "failures": failures,
        "hits": hits,
        "fresh": fresh,
    }
