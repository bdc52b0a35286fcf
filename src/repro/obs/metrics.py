"""Zero-dependency metrics: counters, gauges and histograms.

The registry is the in-process backend of the observability layer
(see docs/OBSERVABILITY.md).  It is deliberately tiny — plain dicts,
no locks, no third-party client — because it sits on the exploration
hot path: the explorer calls into it once or twice per event added.
When observability is disabled the registry is never touched at all
(the :class:`~repro.obs.observer.NullObserver` short-circuits every
call before it reaches here).  Phase timings live on the span tracer's
stack (:meth:`repro.obs.spans.SpanTracer.phase`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Histogram:
    """A fixed-bucket histogram plus running summary statistics.

    ``bounds`` are the inclusive upper edges of the buckets; one
    overflow bucket is appended automatically.
    """

    bounds: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_dict(self, snap: dict) -> None:
        """Fold a snapshot produced by :meth:`as_dict` into this
        histogram (bucket-wise, assuming the same ``bounds`` — which
        all histograms created through one metric name share)."""
        self.count += snap.get("count", 0)
        self.total += snap.get("total", 0.0)
        for edge in ("min", "max"):
            theirs = snap.get(edge)
            if theirs is None:
                continue
            ours = getattr(self, edge)
            pick = min if edge == "min" else max
            setattr(self, edge, theirs if ours is None else pick(ours, theirs))
        buckets = snap.get("buckets", {})
        for i, bound in enumerate(self.bounds):
            self.counts[i] += buckets.get(f"le_{bound:g}", 0)
        self.counts[-1] += buckets.get("inf", 0)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)},
                "inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- counters / gauges / histograms ---------------------------------

    def inc(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the registry knows, as plain JSON-ready data.

        The snapshot is built from plain dicts/floats only, so it
        pickles across process boundaries — parallel workers return one
        per subtree task and the coordinator folds them back with
        :meth:`merge_snapshot`.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.as_dict() for k, h in self.histograms.items()},
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms sum; gauges keep the maximum (they are
        point-in-time readings, and "worst seen anywhere" is the only
        aggregation that stays meaningful across workers).
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
        for name, hist_snap in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_dict(hist_snap)
