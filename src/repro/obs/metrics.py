"""Dependency-free metrics core: counters, gauges, histograms.

Modeled on the Prometheus client style without importing it: a
:class:`MetricsRegistry` holds metric *families*; a family declared
with ``labelnames`` hands out per-label-value *children* through
:meth:`MetricFamily.labels`, and a label-less family acts as its own
single child, so ``registry.counter("x", "...").inc()`` just works.

Everything here is plain-Python and thread-safe: instruments are
updated from the service's event loop (and, for the WAL, an executor
thread) while the exposition endpoint (:mod:`repro.obs.http`) reads
them from its own thread.  Updates take a per-child lock — the hot
paths touch instruments once per *micro-batch*, never per event, so
the lock cost is noise (and the ≤10% overhead gate of the ``obs``
bench target holds it to that).

Histograms use fixed buckets chosen at declaration time
(:data:`LATENCY_BUCKETS` suits sub-second latencies); bucket counts
are stored per-bucket and cumulated only at exposition, keeping
``observe`` a bisect plus three additions.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterable, Iterator

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for second-denominated latencies, spanning
#: 100µs (one fast micro-batch apply) to 2.5s (a stalled disk).
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class Counter:
    """Monotonically increasing value (one child of a counter family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """Value that can go up and down (one child of a gauge family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (one child of a histogram family).

    ``buckets`` are the *upper bounds* of each bucket, strictly
    increasing; a final ``+Inf`` bucket is implicit.  Counts are kept
    non-cumulative and cumulated at read time
    (:meth:`cumulative_buckets`), matching Prometheus exposition.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)   # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: int | float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        out = []
        running = 0
        for bound, n in zip((*self.buckets, float("inf")), counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets
        (linear interpolation within the containing bucket, the usual
        Prometheus ``histogram_quantile`` scheme).  Returns 0.0 for an
        empty histogram; observations above the last finite bound clamp
        to that bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cumulative = self.cumulative_buckets()
        total = cumulative[-1][1]
        if total == 0:
            return 0.0
        rank = q * total
        prev_bound, prev_count = 0.0, 0
        for bound, count in cumulative:
            if count >= rank and count > prev_count:
                if bound == float("inf"):
                    return prev_bound
                span = count - prev_count
                frac = (rank - prev_count) / span if span else 1.0
                return prev_bound + (bound - prev_bound) * frac
            prev_bound, prev_count = (bound if bound != float("inf")
                                      else prev_bound), count
        return prev_bound


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-value children.

    With empty ``labelnames`` the family owns exactly one anonymous
    child and proxies its methods (``inc``/``set``/``observe``/...),
    so simple metrics need no ``labels()`` call.
    """

    def __init__(self, name: str, help: str, type: str,
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] | None = None) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if type not in _CHILD_TYPES:
            raise ValueError(f"unknown metric type {type!r}")
        if type == "histogram":
            if not buckets:
                buckets = LATENCY_BUCKETS
            buckets = tuple(float(b) for b in buckets)
            if list(buckets) != sorted(set(buckets)):
                raise ValueError("histogram buckets must be strictly "
                                 "increasing")
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.type == "histogram":
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.type]()

    def labels(self, *values, **kwvalues):
        """The child for one combination of label values (created on
        first use).  Values are stringified, Prometheus-style."""
        if values and kwvalues:
            raise ValueError("pass label values positionally or by "
                             "keyword, not both")
        if kwvalues:
            if set(kwvalues) != set(self.labelnames):
                raise ValueError(
                    f"expected labels {self.labelnames}, got "
                    f"{tuple(sorted(kwvalues))}")
            values = tuple(kwvalues[n] for n in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label "
                f"value(s), got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """Snapshot of ``(label_values, child)`` pairs, insertion order."""
        with self._lock:
            return iter(list(self._children.items()))

    def remove(self, *values) -> None:
        """Drop the child for one label combination, if present.

        Exists for bounded-cardinality schemes (the per-tenant label
        guard demotes cold tenants); exposition readers only ever see
        the locked snapshot :meth:`children` takes, so removal is safe
        against a concurrent scrape.
        """
        key = tuple(str(v) for v in values)
        with self._lock:
            self._children.pop(key, None)

    # -- label-less convenience proxies ---------------------------------
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; call "
                ".labels(...) first")
        return self._children[()]

    def inc(self, amount: int | float = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self._solo().dec(amount)

    def set(self, value: int | float) -> None:
        self._solo().set(value)

    def observe(self, value: int | float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> int | float:
        return self._solo().value


class MetricsRegistry:
    """Collection of metric families with get-or-create registration.

    Declaring the same name twice returns the existing family when the
    declarations agree (type, labelnames, buckets) and raises when they
    conflict — so independently constructed components (telemetry, the
    WAL writer, the trace ring) can share one registry safely.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _declare(self, name: str, help: str, type: str,
                 labelnames: Iterable[str] = (),
                 buckets: tuple[float, ...] | None = None) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (family.type != type
                        or family.labelnames != labelnames
                        or (type == "histogram" and buckets is not None
                            and family.buckets
                            != tuple(float(b) for b in buckets))):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "conflicting declaration")
                return family
            family = MetricFamily(name, help, type, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str,
                labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._declare(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str,
              labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._declare(name, help, "gauge", labelnames)

    def histogram(self, name: str, help: str,
                  buckets: tuple[float, ...] | None = None,
                  labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._declare(name, help, "histogram", labelnames,
                             buckets=buckets)

    def collect(self) -> list[MetricFamily]:
        """All families, in registration order."""
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict:
        """JSON-serializable dump of every family and child."""
        out: dict = {}
        for family in self.collect():
            values = []
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if family.type == "histogram":
                    buckets = {
                        ("+Inf" if bound == float("inf") else repr(bound)):
                        count
                        for bound, count in child.cumulative_buckets()}
                    values.append({"labels": labels, "count": child.count,
                                   "sum": child.sum, "buckets": buckets})
                else:
                    values.append({"labels": labels, "value": child.value})
            out[family.name] = {"type": family.type, "help": family.help,
                                "values": values}
        return out
