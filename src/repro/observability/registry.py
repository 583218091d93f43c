"""Process-local metrics registry: counters, gauges, bucket histograms.

One :class:`MetricsRegistry` holds every instrument a serving process
reports. Instruments are **single-writer**: the serving layer mutates
them from its own thread without locks — a plain attribute store under
the GIL, cheap enough for per-batch hot paths. Readers (snapshot and
the exporters) may observe a value mid-update but never a torn one.

The serving layer's own counts (``ServiceStats``, ``AsyncFrontendStats``)
*are* registry instruments, so they must count with observability off
too. Disabled observability uses :data:`NULL_REGISTRY`, whose factories
hand out live instruments it does not keep: they count for their owner,
nothing is exported, and the hot paths need no ``if enabled`` branches.

Two export formats:

* :meth:`MetricsRegistry.to_jsonl` — one JSON object per metric per
  line, machine-diffable snapshots for bench artifacts and
  ``DistanceService.dump_metrics``;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# TYPE`` headers, cumulative ``_bucket{le=}``
  series), scrape-ready.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bounds in seconds: 100us .. 10s in a 1-2.5-5 ladder,
#: matched to the service's query/flush latency range.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelDict = dict[str, str]


def _label_suffix(labels: LabelDict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """Monotone event counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelDict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def value_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (sizes, ratios, epochs)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelDict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def value_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with estimated percentiles.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit +Inf bucket catches the rest. ``observe`` is one bisect
    plus three attribute updates — hot-path safe. Percentiles linearly
    interpolate inside the winning bucket; the exact maximum is tracked
    separately and caps the top occupied bucket, so no estimate exceeds
    the largest value observed.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "total", "count", "max")

    def __init__(
        self,
        name: str,
        labels: LabelDict | None = None,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = name
        self.labels = dict(labels or {})
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at percentile *p* in [0, 100]."""
        if not self.count:
            return 0.0
        target = max(1, -(-self.count * p // 100))  # ceil without floats
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = min(self.bounds[i], self.max) if i < len(self.bounds) else self.max
            if seen + bucket_count >= target:
                frac = (target - seen) / bucket_count
                return lo + (max(hi, lo) - lo) * frac
            seen += bucket_count
        return self.max  # pragma: no cover - target <= count always hits

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def value_dict(self) -> dict:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "buckets": cumulative,
        }


class MetricsRegistry:
    """Name+labels keyed instrument store with get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._help: dict[str, str] = {}

    # -- instrument factories -------------------------------------------
    def _get(self, cls, name: str, help: str, labels: LabelDict | None, **kw):
        key = (name, tuple(sorted((labels or {}).items())))
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = cls(name, labels, **kw)
            self._metrics[key] = instrument
            if help:
                self._help.setdefault(name, help)
        return instrument

    def counter(
        self, name: str, help: str = "", labels: LabelDict | None = None
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: LabelDict | None = None
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: LabelDict | None = None,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=bounds)

    # -- views ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> dict[str, dict]:
        """``{"name{labels}": {type, ...values}}`` for every instrument."""
        out: dict[str, dict] = {}
        for metric in self._metrics.values():
            key = metric.name + _label_suffix(metric.labels)
            out[key] = {"type": metric.kind, **metric.value_dict()}
        return out

    # -- exporters -------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per metric per line (stable key order)."""
        lines = []
        for metric in self._metrics.values():
            record = {
                "name": metric.name,
                "type": metric.kind,
                "labels": metric.labels,
                **metric.value_dict(),
            }
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format."""
        by_name: dict[str, list] = {}
        for metric in self._metrics.values():
            by_name.setdefault(metric.name, []).append(metric)
        out: list[str] = []
        for name in by_name:
            series = by_name[name]
            help_text = self._help.get(name)
            if help_text:
                out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {series[0].kind}")
            for metric in series:
                if metric.kind == "histogram":
                    running = 0
                    for bound, count in zip(metric.bounds, metric.counts):
                        running += count
                        labels = {**metric.labels, "le": repr(bound)}
                        out.append(
                            f"{name}_bucket{_label_suffix(labels)} {running}"
                        )
                    labels = {**metric.labels, "le": "+Inf"}
                    out.append(
                        f"{name}_bucket{_label_suffix(labels)} {metric.count}"
                    )
                    suffix = _label_suffix(metric.labels)
                    out.append(f"{name}_sum{suffix} {metric.total}")
                    out.append(f"{name}_count{suffix} {metric.count}")
                else:
                    out.append(
                        f"{name}{_label_suffix(metric.labels)} {metric.value}"
                    )
        return "\n".join(out) + ("\n" if out else "")


class NullRegistry(MetricsRegistry):
    """Disabled registry: every factory returns a fresh live instrument
    that is not kept, so the exports stay empty."""

    enabled = False

    def _get(self, cls, name: str, help: str, labels: LabelDict | None, **kw):
        return cls(name, labels, **kw)


NULL_REGISTRY = NullRegistry()
