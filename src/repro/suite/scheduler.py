"""The batch execution engine, and the one shard/merge path.

``run_suite`` takes an arbitrary mix of tasks — litmus tests, programs,
declarative ``.cat`` models, per-task options — and drives them all
through **one** :class:`~repro.core.parallel.PoolSupervisor`, instead
of spinning a pool up and down per verification.  It is also the only
implementation of subtree sharding: ``verify(jobs=N)`` is a one-task
suite (:func:`~repro.core.parallel.verify_parallel`).  Scheduling is
task-level:

* Each task is first looked up in the content-addressed
  :class:`~repro.suite.cache.ResultCache`; hits are served without
  touching the pool (``--force`` recomputes, ``--rerun-failed``
  re-runs only tasks whose cached result has errors or truncation).
* Cache misses are sized with the paper's Knuth-style exploration
  estimator (:func:`~repro.core.estimate.estimate_explorations`) and
  dispatched **longest-expected-first**, so a big task never starts
  last and leaves the pool idling behind it.  A lone miss with
  ``shard_threshold=0`` skips the estimate.
* A task whose estimate crosses ``shard_threshold`` (deduplication on)
  is split into subtree shards via
  :func:`~repro.core.parallel.split_frontier`; small tasks run whole,
  one task per worker.  All shards and whole tasks share the same pool
  and the same fault semantics (timeout, retry, serial fallback).  A
  budgeted sharded task draws from its own
  :class:`~repro.core.parallel.GlobalBudget`, and a ``stop_on_error``
  sharded task stops at its first erroring shard without stopping the
  other tasks.

Results are finalised *as they complete* — merged (for sharded tasks,
with their parallel accounting and folded worker traces),
probe-evaluated (for litmus tasks) with
:func:`~repro.litmus.runner.verdict_from_result` so batched verdicts
are bit-identical to individual :func:`~repro.litmus.run_litmus`
calls, and written to the cache immediately, so an interrupted suite
resumes where it stopped on the next run.
"""

from __future__ import annotations

import multiprocessing
import time

from dataclasses import dataclass, field, replace

from ..core.config import ExplorationOptions, resolve_options
from ..core.estimate import estimate_explorations
from ..core.explorer import Explorer, effective_jobs
from ..core.parallel import (
    NO_FAULTS,
    GlobalBudget,
    PoolSupervisor,
    _maybe_inject_fault,
    _model_spec,
    split_frontier,
)
from ..core.report import from_dict
from ..core.result import VerificationResult
from ..lang import Program
from ..litmus.catalog import LitmusTest, get_litmus, litmus_names
from ..litmus.expectations import allowed
from ..litmus.runner import (
    LITMUS_DEFAULTS,
    LitmusVerdict,
    verdict_from_result,
)
from ..models import MemoryModel, get_model
from ..obs import NULL_OBSERVER, FileSink, Observer, TraceWriter
from ..obs.spans import NULL_TRACER, SpanTracer
from ..obs.trace import read_trace_prefix
from .cache import ResultCache, task_key
from .result import SuiteResult, TaskResult

#: estimated executions above which a task is worth sharding across
#: the pool rather than running whole on one worker
DEFAULT_SHARD_THRESHOLD = 2000

#: random walks per task for the scheduling estimate (ordering only,
#: so a rough figure is plenty)
DEFAULT_ESTIMATE_WALKS = 6


@dataclass(frozen=True)
class SuiteTask:
    """One unit of suite work: a program under a model with options.

    Build these with :func:`program_task`, :func:`litmus_task` or
    :func:`litmus_matrix` rather than directly — the constructors
    resolve model names and apply the right option defaults.
    """

    program: Program
    model: MemoryModel
    options: ExplorationOptions
    kind: str = "program"  #: "program" or "litmus"
    probe: LitmusTest | None = None  #: set iff kind == "litmus"

    @property
    def id(self) -> str:
        name = self.probe.name if self.probe is not None else self.program.name
        return f"{name}:{self.model.name}"


def program_task(
    program: Program,
    model: MemoryModel | str,
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> SuiteTask:
    """A plain verification task.  Defaults ``stop_on_error=False`` so
    the suite reports full counts (compare/bench semantics); pass
    ``stop_on_error=True`` for fail-fast."""
    model = get_model(model) if isinstance(model, str) else model
    options = resolve_options(options, option_overrides, stop_on_error=False)
    return SuiteTask(program=program, model=model, options=options)


def litmus_task(
    test: LitmusTest | str,
    model: MemoryModel | str,
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> SuiteTask:
    """A litmus verdict task, with :func:`~repro.litmus.run_litmus`'s
    option defaults so batched verdicts match individual calls."""
    if isinstance(test, str):
        test = get_litmus(test)
    model = get_model(model) if isinstance(model, str) else model
    options = resolve_options(options, option_overrides, **LITMUS_DEFAULTS)
    if not options.collect_executions:
        raise ValueError("litmus evaluation needs collect_executions")
    return SuiteTask(
        program=test.program,
        model=model,
        options=options,
        kind="litmus",
        probe=test,
    )


def litmus_matrix(
    tests=None,
    models=("sc", "tso", "ra"),
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> list[SuiteTask]:
    """The full ``tests × models`` grid as suite tasks (every catalog
    test when ``tests`` is None)."""
    names = litmus_names() if tests is None else list(tests)
    grid = []
    for entry in names:
        test = entry if isinstance(entry, LitmusTest) else get_litmus(entry)
        for model in models:
            grid.append(
                litmus_task(
                    test, model, options=options, **option_overrides
                )
            )
    return grid


# -- worker side -----------------------------------------------------------

#: the shared budgets of budgeted sharded plans (plan position ->
#: GlobalBudget), installed per worker by the pool initializer (shared
#: ctypes cannot ride along inside pickled payloads)
_WORKER_BUDGETS: dict = {}


def _init_worker(budgets: dict) -> None:
    global _WORKER_BUDGETS
    _WORKER_BUDGETS = budgets


def _run_suite_job(payload):
    """Pool entry point: run one whole task or one subtree shard.

    ``payload`` is ``(job, attempt, program, model_spec, options,
    prefix, budget_key, trace_path, collect_metrics, span_ctx)``;
    ``prefix`` None means explore the whole program, ``budget_key``
    looks up the plan's :class:`~repro.core.parallel.GlobalBudget`
    (none installed: the options' own limits apply), and
    ``trace_path`` (set when the coordinator traces to a file) is where
    this attempt writes its own trace.  Returns ``(result, metrics snapshot | None, spans | None,
    trace_path)`` — when a span context rides in, the worker's
    exploration (and every phase inside it) is recorded as spans
    parented on the coordinator's suite-task span and shipped back for
    the coordinator to absorb.
    """
    job, attempt, program, model_spec, options, prefix, budget_key, \
        trace_path, collect, span_ctx = payload
    _maybe_inject_fault(job, attempt)
    tracer = NULL_TRACER
    if span_ctx is not None:
        tracer = SpanTracer(
            trace_id=span_ctx["trace_id"],
            remote_parent=span_ctx["span_id"],
        )
    observer = NULL_OBSERVER
    if trace_path is not None:
        observer = Observer(
            trace=TraceWriter(FileSink(trace_path)), tracer=tracer
        )
    elif collect or tracer.enabled:
        observer = Observer(tracer=tracer)
    try:
        with tracer.span(
            f"explore:{program.name}", cat="worker", job=job, attempt=attempt
        ):
            result = Explorer(
                program,
                model_spec,
                options,
                observer=observer,
                root=prefix,
                budget=_WORKER_BUDGETS.get(budget_key),
            ).run()
    finally:
        observer.close()
    snapshot = observer.metrics_snapshot() if collect else None
    spans = tracer.snapshot() if tracer.enabled else None
    return result, snapshot, spans, trace_path


# -- coordinator side ------------------------------------------------------


@dataclass
class _Plan:
    """A cache-miss task scheduled for execution."""

    pos: int  #: index into the caller's task list
    task: SuiteTask
    key: str
    estimate: float = 0.0
    prefixes: list | None = None  #: subtree shards; None = run whole
    partial: VerificationResult | None = None  #: accumulated while splitting
    budget: GlobalBudget | None = None  #: shared limit of a sharded plan
    pieces: dict = field(default_factory=dict)  #: job index -> result
    traces: dict = field(default_factory=dict)  #: job -> worker trace file
    remaining: int = 0  #: pool jobs not yet collected
    fallbacks: int = 0  #: shards re-run inline after their retries ran out
    done: bool = False  #: finalised (completed, or stopped on an error)
    span: dict | None = None  #: the open suite-task span (tracer on)


def _worker_trace_base(observer) -> str | None:
    """The coordinator's trace file path, when it traces to a file."""
    trace = getattr(observer, "trace", None)
    if trace is not None and isinstance(trace.sink, FileSink):
        return trace.sink.path
    return None


def _trace_path(base: str | None, job: int, attempt: int) -> str | None:
    """Per-attempt worker trace path (retries must not clobber the
    evidence a failed attempt left behind)."""
    if base is None:
        return None
    if attempt == 0:
        return f"{base}.worker{job}"
    return f"{base}.worker{job}.retry{attempt}"


def _fold_worker_traces(observer, indexed_paths: list[tuple[int, str]]) -> None:
    """Re-emit each worker's trace records into the coordinator trace.

    Records keep their type and fields, gain a ``worker`` index, and are
    re-stamped with the coordinator's ``seq``/``ts`` (per-worker files
    stay on disk for debugging).  ``trace_start`` records are skipped so
    the merged file has a single header.  Only the *winning* attempt of
    each task is folded — failed attempts' partial traces would make
    ``trace-summary`` disagree with the merged result — and a file cut
    off mid-record (worker terminated while writing) contributes its
    valid prefix plus a ``trace_truncated`` marker instead of being
    discarded wholesale.
    """
    for index, path in sorted(indexed_paths):
        try:
            records, truncated = read_trace_prefix(path)
        except OSError:
            continue  # a cancelled worker may have left nothing behind
        for record in records:
            type_ = record.pop("t")
            if type_ == "trace_start":
                continue
            record.pop("seq", None)
            record.pop("ts", None)
            observer.emit(type_, worker=index, **record)
        if truncated:
            observer.emit("trace_truncated", worker=index, kept=len(records))


def _worker_skew(pieces: dict[int, VerificationResult]) -> dict:
    """Load-balance summary across a task's shards: how unevenly the
    search was carved up.  ``max/mean`` executions is the headline
    number — 1.0 means perfectly balanced shards, large values mean one
    subtree dominated the run (`trace-summary` surfaces the same figure
    from ``worker_metrics`` records)."""
    executions = [r.executions for r in pieces.values()]
    elapsed = [r.elapsed for r in pieces.values()]
    mean = sum(executions) / len(executions)
    return {
        "tasks": len(executions),
        "min_executions": min(executions),
        "max_executions": max(executions),
        "mean_executions": round(mean, 3),
        "imbalance": round(max(executions) / mean, 3) if mean else 1.0,
        "min_elapsed": round(min(elapsed), 6),
        "max_elapsed": round(max(elapsed), 6),
    }


def _expected(task: SuiteTask) -> bool | None:
    if task.kind != "litmus" or task.probe is None:
        return None
    try:
        return allowed(task.probe.name, task.model.name)
    except KeyError:
        return None


def _cached_task_result(
    task: SuiteTask, key: str, entry: dict
) -> TaskResult | None:
    """Rebuild a TaskResult from a cache entry, or None when the entry
    cannot serve this task (e.g. a litmus task whose entry predates
    verdict storage)."""
    observed = entry.get("observed")
    if task.kind == "litmus" and not isinstance(observed, bool):
        return None
    result = from_dict(entry["result"])
    verdict = None
    if task.kind == "litmus":
        verdict = LitmusVerdict(
            test=task.probe.name,
            model=task.model.name,
            observed=observed,
            executions=result.executions,
            duplicates=result.duplicates,
            elapsed=result.elapsed,
        )
    return TaskResult(
        task_id=task.id,
        kind=task.kind,
        program=task.program.name,
        model=task.model.name,
        key=key,
        cached=True,
        shards=0,
        result=result,
        verdict=verdict,
        expected=_expected(task),
    )


def run_suite(
    tasks,
    *,
    jobs: int | None = None,
    cache=None,
    force: bool = False,
    rerun_failed: bool = False,
    task_timeout: float | None = None,
    task_retries: int = 2,
    observer=NULL_OBSERVER,
    shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
    estimate_walks: int = DEFAULT_ESTIMATE_WALKS,
    seed: int = 0,
    supervisor: PoolSupervisor | None = None,
) -> SuiteResult:
    """Run every task in ``tasks`` through one shared worker pool.

    ``jobs`` follows :func:`~repro.core.explorer.effective_jobs`
    resolution (None → ``REPRO_JOBS`` or serial; 0 → one per CPU).
    ``cache`` is a :class:`ResultCache`, a directory path, None for
    the default store (``REPRO_SUITE_CACHE_DIR`` or
    ``.repro/suite-cache``), or False to disable caching.  ``force``
    recomputes everything; ``rerun_failed`` recomputes only tasks whose
    cached result has errors or was truncated.  ``task_timeout`` /
    ``task_retries`` are the pool's PR-3 fault knobs.

    ``supervisor`` lets a long-lived caller (the verification service)
    pass its own persistent :class:`~repro.core.parallel.PoolSupervisor`
    so worker processes stay warm across suites; the caller owns its
    lifetime, and this run sets its timeout/retry knobs and observer.
    """
    tasks = list(tasks)
    start = time.perf_counter()
    jobs = effective_jobs(ExplorationOptions(jobs=jobs))
    store = None
    if cache is not False:
        store = cache if isinstance(cache, ResultCache) else ResultCache(cache)

    obs = observer
    tracer = obs.tracer
    results: dict[int, TaskResult] = {}
    plans: list[_Plan] = []

    # -- cache pass -------------------------------------------------------
    for pos, task in enumerate(tasks):
        key = task_key(
            task.program,
            task.model,
            task.options,
            kind=task.kind,
            probe=task.probe.name if task.probe is not None else None,
        )
        served = None
        if store is not None and not force:
            entry = store.load(key)
            if entry is not None:
                served = _cached_task_result(task, key, entry)
                if served is not None and rerun_failed and (
                    served.result.errors or served.result.truncated
                ):
                    served = None
        if served is not None:
            results[pos] = served
            if tracer.enabled:
                # a near-instant span so cache hits show on the timeline
                tracer.end_span(
                    tracer.start_span(
                        f"suite:{task.id}", cat="task", cached=True
                    ),
                    executions=served.result.executions,
                )
            if obs.trace_enabled:
                obs.emit(
                    "suite_task_cached",
                    task=task.id,
                    executions=served.result.executions,
                )
        else:
            plans.append(_Plan(pos=pos, task=task, key=key))

    ctx = multiprocessing.get_context()
    #: the supervisor once this run dispatched to it (its ``acct`` is
    #: this run's pool accounting from then on)
    pool = None

    def _shard_meta(plan: _Plan, merged: VerificationResult) -> None:
        """Parallel accounting of a task that went through the split."""
        cancelled = plan.remaining
        merged.truncated = (
            merged.truncated
            or cancelled > 0
            or (plan.budget is not None and plan.budget.limit_hit)
        )
        merged.meta.update(
            {
                "jobs": jobs,
                "tasks": len(plan.prefixes),
                "tasks_cancelled": cancelled,
                "tasks_fallback": plan.fallbacks,
                "oversubscription": plan.task.options.oversubscription,
                **(pool.acct if pool is not None else NO_FAULTS),
            }
        )
        if plan.budget is not None:
            merged.meta.update(plan.budget.snapshot())
        if obs.enabled and plan.pieces:
            merged.meta["worker_skew"] = _worker_skew(plan.pieces)
            if obs.trace_enabled:
                for job in sorted(plan.pieces):
                    piece = plan.pieces[job]
                    obs.emit(
                        "worker_metrics",
                        worker=job,
                        executions=piece.executions,
                        blocked=piece.blocked,
                        errors=len(piece.errors),
                        elapsed=round(piece.elapsed, 6),
                    )

    def _finalize(plan: _Plan) -> None:
        task = plan.task
        plan.done = True
        merged = plan.partial
        for job in sorted(plan.pieces):
            piece = plan.pieces[job]
            merged = piece if merged is None else merged.merge(piece)
        if merged is None:  # pragma: no cover - every plan has >=1 piece
            raise RuntimeError(f"suite task {task.id} produced no result")
        if plan.prefixes is not None:
            _shard_meta(plan, merged)
        if plan.traces:
            _fold_worker_traces(obs, sorted(plan.traces.items()))
        if not task.options.collect_keys:
            merged.execution_records = []
        shards = max(1, len(plan.prefixes or ()))
        verdict = None
        if task.kind == "litmus":
            verdict = verdict_from_result(task.probe, task.model.name, merged)
        if store is not None:
            store.store(
                plan.key,
                merged,
                task={
                    "id": task.id,
                    "kind": task.kind,
                    "program": task.program.name,
                    "model": task.model.name,
                },
                observed=verdict.observed if verdict is not None else None,
            )
        results[plan.pos] = TaskResult(
            task_id=task.id,
            kind=task.kind,
            program=task.program.name,
            model=task.model.name,
            key=plan.key,
            cached=False,
            shards=shards,
            result=merged,
            verdict=verdict,
            expected=_expected(task),
        )
        if plan.span is not None:
            tracer.end_span(
                plan.span,
                shards=shards,
                executions=merged.executions,
                errors=len(merged.errors),
            )
            plan.span = None
        if obs.trace_enabled:
            obs.emit(
                "suite_task_done",
                task=task.id,
                shards=shards,
                executions=merged.executions,
                errors=len(merged.errors),
                observed=verdict.observed if verdict is not None else None,
            )

    # -- size and shard the misses ---------------------------------------
    # the estimate orders misses and gates sharding; a lone miss with no
    # threshold (a verify(jobs=N) call) needs it for neither
    sized = len(plans) > 1 or shard_threshold > 0
    for plan in plans:
        task = plan.task
        if sized:
            plan.estimate = estimate_explorations(
                task.program, task.model, walks=estimate_walks, seed=seed
            ).mean
        opts = task.options
        budgeted = (
            opts.max_executions is not None or opts.max_explored is not None
        )
        shardable = (
            jobs > 1
            and plan.estimate >= shard_threshold
            and opts.deduplicate is not False
            # a budget is shared through the pool initializer, which a
            # caller-owned persistent pool has already run
            and not (budgeted and supervisor is not None)
        )
        if not shardable:
            continue
        split_options = replace(opts, collect_keys=True, jobs=None)
        frontier, partial, aborted = split_frontier(
            task.program,
            task.model,
            split_options,
            target=jobs * opts.oversubscription,
            observer=obs,
        )
        plan.partial = partial
        # an abort (stop-on-error, or a limit) during splitting already
        # ends the search: the partial result is the task's result
        plan.prefixes = [] if aborted else frontier
        if budgeted:
            # charge what the split phase consumed; shards share the rest
            plan.budget = GlobalBudget(
                opts.max_executions,
                opts.max_explored,
                executions_used=partial.executions,
                explored_used=partial.explored,
                ctx=ctx,
            )

    # -- build the pool job list, longest-expected-first ------------------
    specs: dict[int, tuple] = {}  # job index -> (plan, options, prefix)
    for plan in sorted(plans, key=lambda p: -p.estimate):
        task = plan.task
        if tracer.enabled:
            # a detached span per scheduled task: lifetimes overlap (N
            # tasks in flight on the pool), so the nesting stack can't
            # carry them; workers parent their explore spans on it
            plan.span = tracer.start_span(
                f"suite:{task.id}",
                cat="task",
                kind=task.kind,
                estimate=round(plan.estimate, 1),
            )
        if plan.prefixes is None:
            plan.remaining = 1
            specs[len(specs)] = (plan, task.options, None)
            continue
        if not plan.prefixes:  # the split finished or aborted the search
            _finalize(plan)
            continue
        if obs.trace_enabled:
            obs.emit(
                "parallel_dispatch",
                task=task.id,
                tasks=len(plan.prefixes),
                jobs=jobs,
            )
        plan.remaining = len(plan.prefixes)
        # shards draw from the plan's global budget instead of each
        # applying the whole limit locally
        shard_options = replace(
            task.options,
            collect_keys=True,
            jobs=None,
            max_executions=None,
            max_explored=None,
        )
        for prefix in plan.prefixes:
            specs[len(specs)] = (plan, shard_options, prefix)

    collect_metrics = obs.enabled
    snapshots: list[dict] = []
    acct: dict = {}
    pending = set(specs)  # jobs not yet collected

    def _complete(job: int, value) -> bool:
        """Collect one job; True stops the pool (every job still
        pending belongs to a plan already stopped on an error)."""
        plan = specs[job][0]
        pending.discard(job)
        if not plan.done:
            result, snapshot, spans, trace = value
            if snapshot is not None:
                snapshots.append(snapshot)
            if spans:
                tracer.absorb(spans)
            if trace is not None:
                plan.traces[job] = trace
            plan.pieces[job] = result
            plan.remaining -= 1
            if plan.remaining == 0 or (
                plan.task.options.stop_on_error and result.errors
            ):
                _finalize(plan)
        return bool(pending) and all(specs[j][0].done for j in pending)

    def _run_inline(job: int) -> None:
        """Run one job in the coordinator (serial suites, and jobs whose
        retries ran out), on the coordinator's own observer: the
        explorer's phase scope keeps ``result.phase_times`` to this job
        alone."""
        plan, options, prefix = specs[job]
        if plan.done:
            return
        with tracer.span(
            f"explore:{plan.task.program.name}",
            cat="worker",
            parent=plan.span,  # mirror the pooled path's remote_parent
            job=job,
            task=plan.task.id,
            inline=True,
        ):
            result = Explorer(
                plan.task.program,
                plan.task.model,
                options,
                observer=obs,
                root=prefix,
                budget=plan.budget,
            ).run()
        _complete(job, (result, None, None, None))

    pool_jobs = len(specs)
    if jobs > 1 and pool_jobs:
        if obs.trace_enabled:
            obs.emit("suite_dispatch", tasks=pool_jobs, jobs=jobs)
        if supervisor is not None:
            # a persistent supervisor shared across suites: this run
            # owns its knobs and observer, the caller owns its lifetime
            supervisor.task_timeout = task_timeout
            supervisor.task_retries = task_retries
            supervisor.obs = obs
        else:
            supervisor = PoolSupervisor(
                ctx,
                processes=min(jobs, pool_jobs),
                task_timeout=task_timeout,
                task_retries=task_retries,
                initializer=_init_worker,
                initargs=(
                    {p.pos: p.budget for p in plans if p.budget is not None},
                ),
                observer=obs,
            )
        trace_base = _worker_trace_base(obs)

        def _payload(job: int):
            plan, options, prefix = specs[job]
            model_spec = _model_spec(plan.task.model)
            span_ctx = (
                {
                    "trace_id": tracer.trace_id,
                    "span_id": plan.span["span_id"],
                }
                if plan.span is not None
                else None
            )

            def make(attempt: int):
                return (
                    job,
                    attempt,
                    plan.task.program,
                    model_spec,
                    options,
                    prefix,
                    plan.pos,
                    _trace_path(trace_base, job, attempt),
                    collect_metrics,
                    span_ctx,
                )

            return make

        pool = supervisor
        supervisor.run(
            _run_suite_job, {job: _payload(job) for job in specs}, _complete
        )
        acct = dict(supervisor.acct)
        acct["tasks_fallback"] = len(supervisor.fallback)
        # graceful degradation: jobs whose retries ran out are explored
        # right here, so every task still gets a complete result
        for job in supervisor.fallback:
            plan = specs[job][0]
            if plan.done:
                continue
            if obs.trace_enabled:
                obs.emit("task_fallback", task=job)
            plan.fallbacks += 1
            _run_inline(job)
    else:
        for job in specs:
            _run_inline(job)

    if collect_metrics:
        for snapshot in snapshots:
            obs.metrics.merge_snapshot(snapshot)

    suite = SuiteResult(
        tasks=[results[pos] for pos in sorted(results)],
        jobs=jobs,
        elapsed=time.perf_counter() - start,
        pool_tasks=pool_jobs,
        acct=acct,
        meta={
            "cache_dir": store.root if store is not None else None,
            "forced": force,
        },
    )
    if obs.trace_enabled:
        obs.emit(
            "suite_done",
            tasks=len(suite.tasks),
            cache_hits=suite.cache_hits,
            pool_tasks=pool_jobs,
        )
    return suite
