"""Declarative gate engine.

Three gate shapes cover every committed performance claim:

* ``exact()`` — a boolean invariant (the run matched the offline
  engine bit-for-bit) that must hold in both the baseline and the
  current document.
* ``floor(metric, limit)`` — a same-run figure (usually a speedup
  ratio recomputed by the target's ``extract``) must be at least
  ``limit``.  An optional ``min_cpus`` marks gates that are only
  meaningful on a multi-core host: on a smaller host they are skipped
  with a notice unless ``strict`` is set.
* ``ceil(metric, limit)`` — a same-run overhead fraction must be at
  most ``limit``.

On top of the declared gates, every metric marked ``banded`` is
compared against the committed baseline: the current value must stay
within ``tolerance`` of the baseline figure (a one-sided band in the
metric's better-direction), and a banded baseline metric missing from
the current run is itself a failure.

``param`` names a CLI override (``--min-speedup``-style): the limit in
the spec is the committed default, and the engine substitutes the
override when one is supplied, which is what keeps the historical
CI flag sets working.

An overhead gated by ``ceil`` is read from back-to-back pairs where a
target has them (:func:`pair_overhead`): each pair sees the host as it
was for that pair, and the median drops the outlying ones.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.bench.registry import Metric

__all__ = ["Gate", "GateReport", "exact", "floor", "ceil", "evaluate",
           "pair_overhead"]


@dataclass(frozen=True)
class Gate:
    check: str                 # "exact" | "floor" | "ceil"
    metric: str
    limit: float = 0.0
    label: str = ""
    param: str | None = None   # override key (e.g. "min_speedup")
    min_cpus: int = 0


def exact(label: str = "exactness") -> Gate:
    return Gate("exact", "exact", label=label)


def floor(metric: str, limit: float, *, label: str = "",
          param: str | None = None, min_cpus: int = 0) -> Gate:
    return Gate("floor", metric, limit, label or metric, param, min_cpus)


def ceil(metric: str, limit: float, *, label: str = "",
         param: str | None = None) -> Gate:
    return Gate("ceil", metric, limit, label or metric, param)


def pair_overhead(pairs) -> float:
    """One minus the median ``with / without`` throughput ratio of
    ``(without eps, with eps)`` pairs."""
    return 1.0 - statistics.median(on / off for off, on in pairs)


@dataclass
class GateReport:
    """Outcome of evaluating one benchmark's gates."""

    name: str
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _value(metrics: dict[str, Metric], name: str) -> float | None:
    metric = metrics.get(name)
    return None if metric is None else metric.value


def evaluate(name: str, gates: tuple[Gate, ...],
             current: dict[str, Metric],
             baseline: dict[str, Metric] | None = None, *,
             tolerance: float = 0.5,
             overrides: dict[str, float] | None = None,
             host_cpus: int = 0, min_cpus: int | None = None,
             strict: bool = False) -> GateReport:
    """Evaluate declared gates + the baseline tolerance band.

    ``current``/``baseline`` are extracted metric dicts; ``baseline``
    may be ``None`` for a gates-only (same-run) evaluation.
    ``overrides`` replaces a gate's committed limit by its ``param``
    key; ``min_cpus`` (when given) overrides every gate's own cpu
    requirement.
    """
    overrides = overrides or {}
    report = GateReport(name)

    for gate in gates:
        limit = gate.limit
        if gate.param is not None and gate.param in overrides:
            limit = overrides[gate.param]
        if gate.check == "exact":
            docs = [("current", current)]
            if baseline is not None:
                docs.insert(0, ("baseline", baseline))
            for doc_name, metrics in docs:
                report.checked += 1
                if not _value(metrics, gate.metric):
                    report.failures.append(
                        f"{doc_name} run diverged from the reference "
                        f"engine ({gate.metric}: false)")
            continue

        required = gate.min_cpus if min_cpus is None else min_cpus
        if required and host_cpus < required:
            if strict:
                report.failures.append(
                    f"{gate.label}: host has {host_cpus} cpu(s) < "
                    f"required {required} (--strict)")
            else:
                report.notes.append(
                    f"skipping {gate.label} — host has {host_cpus} "
                    f"cpu(s), need >= {required} for the check to be "
                    f"meaningful")
            continue

        value = _value(current, gate.metric)
        report.checked += 1
        if value is None:
            report.failures.append(
                f"{gate.label}: current run is missing metric "
                f"{gate.metric!r}")
        elif gate.check == "floor" and value < limit:
            report.failures.append(
                f"{gate.label}: {value:.2f} < required {limit:.2f}")
        elif gate.check == "ceil" and value > limit:
            report.failures.append(
                f"{gate.label}: {value:.1%} > allowed {limit:.1%}")

    if baseline is not None:
        tolerance = overrides.get("tolerance", tolerance)
        for metric_name, base in baseline.items():
            if not base.banded:
                continue
            cur = current.get(metric_name)
            report.checked += 1
            if cur is None:
                report.failures.append(
                    f"current run is missing the {metric_name} point")
            elif base.better == "higher":
                band_floor = tolerance * base.value
                if cur.value < band_floor:
                    report.failures.append(
                        f"tolerance band: {metric_name} "
                        f"{cur.value:,.0f} {cur.unit} < "
                        f"{band_floor:,.0f} ({tolerance:.0%} of "
                        f"baseline {base.value:,.0f})")
            else:
                band_ceil = base.value / tolerance if tolerance else 0.0
                if tolerance and cur.value > band_ceil:
                    report.failures.append(
                        f"tolerance band: {metric_name} "
                        f"{cur.value:,.4g} {cur.unit} > "
                        f"{band_ceil:,.4g} (baseline {base.value:,.4g} "
                        f"/ {tolerance:.0%})")
    return report
