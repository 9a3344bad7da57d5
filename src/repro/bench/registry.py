"""Benchmark registry: declarative target x instance x config entries.

A benchmark is a callable that produces a raw result document (a plain
dict — for the perf benchmarks, the per-kind ``BENCH_*.json`` document
shape), plus:

* ``extract`` — a function mapping the raw document to a flat
  ``{name: Metric}`` dict.  Every metric carries its unit, its
  better-direction, and whether it participates in the baseline
  tolerance band.  Derived ratios (speedups, overheads) are recomputed
  here from the underlying figures rather than trusted from the raw
  document, so a doctored results file cannot sneak a regression past
  the gate by editing the stored ratio alone.
* ``gates`` — declarative floor/ceiling/exactness specs evaluated by
  :mod:`repro.bench.gates`.  Adding a future gate is one line here, not
  a new dispatch arm in a checker script.
* ``suites`` — which named suites the benchmark belongs to
  (``ci-gates``, ``paper``, ``all``, ...).
* ``params`` / ``smoke_params`` — the default (CI quick) configuration
  and the tiny ``--smoke`` configuration used by the import-rot lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Metric", "BenchSpec", "register_benchmark", "get_benchmark",
           "iter_benchmarks", "all_suites", "eps", "ratio", "fraction",
           "flag"]


@dataclass(frozen=True)
class Metric:
    """One measured figure with its presentation/gating metadata."""

    value: float
    unit: str = "events/s"
    better: str = "higher"      # "higher" | "lower"
    banded: bool = True         # subject to the baseline tolerance band

    def to_json(self) -> dict:
        return {"value": self.value, "unit": self.unit,
                "better": self.better, "banded": self.banded}

    @classmethod
    def from_json(cls, doc: dict) -> "Metric":
        return cls(value=doc["value"], unit=doc.get("unit", "events/s"),
                   better=doc.get("better", "higher"),
                   banded=doc.get("banded", True))


def eps(value: float, banded: bool = True) -> Metric:
    """A throughput figure in events/second."""
    return Metric(float(value), "events/s", "higher", banded)


def ratio(value: float) -> Metric:
    """A same-run speedup ratio (never banded — it is gated directly)."""
    return Metric(float(value), "x", "higher", banded=False)


def fraction(value: float) -> Metric:
    """A same-run overhead fraction (never banded — gated directly)."""
    return Metric(float(value), "fraction", "lower", banded=False)


def flag(value: bool) -> Metric:
    """A boolean invariant (exactness); 1.0 = holds."""
    return Metric(1.0 if value else 0.0, "bool", "higher", banded=False)


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark."""

    name: str
    title: str
    kind: str
    run: Callable[..., dict]
    extract: Callable[[dict], dict[str, Metric]]
    suites: tuple[str, ...] = ("all",)
    gates: tuple[Any, ...] = ()
    baseline: str | None = None
    params: dict = field(default_factory=dict)
    smoke_params: dict = field(default_factory=dict)
    timeout: float = 900.0

    def config(self, smoke: bool = False,
               overrides: dict | None = None) -> dict:
        """The keyword arguments for one execution of ``run``."""
        cfg = dict(self.params)
        if smoke:
            cfg.update(self.smoke_params)
        for key, value in (overrides or {}).items():
            if value is not None:
                cfg[key] = value
        return cfg


_REGISTRY: dict[str, BenchSpec] = {}


def register_benchmark(name: str, *, title: str, kind: str,
                       extract: Callable[[dict], dict[str, Metric]],
                       suites: tuple[str, ...] = ("all",),
                       gates: tuple[Any, ...] = (),
                       baseline: str | None = None,
                       params: dict | None = None,
                       smoke_params: dict | None = None,
                       timeout: float = 900.0):
    """Decorator: register the wrapped callable as a benchmark target."""
    def wrap(fn: Callable[..., dict]) -> Callable[..., dict]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate benchmark name: {name!r}")
        spec = BenchSpec(name=name, title=title, kind=kind, run=fn,
                         extract=extract, suites=tuple(suites),
                         gates=tuple(gates), baseline=baseline,
                         params=dict(params or {}),
                         smoke_params=dict(smoke_params or {}),
                         timeout=timeout)
        _REGISTRY[name] = spec
        return fn
    return wrap


def _ensure_loaded() -> None:
    # Registration lives in repro.bench.targets; importing it is what
    # populates the registry (idempotent after the first call).
    import repro.bench.targets  # noqa: F401


def get_benchmark(name: str) -> BenchSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") \
            from None


def iter_benchmarks(suite: str | None = None) -> list[BenchSpec]:
    """Registered benchmarks, in registration order (deterministic)."""
    _ensure_loaded()
    specs = list(_REGISTRY.values())
    if suite is None or suite == "all":
        return specs
    return [s for s in specs if suite in s.suites]


def all_suites() -> list[str]:
    _ensure_loaded()
    names = {"all"}
    for spec in _REGISTRY.values():
        names.update(spec.suites)
    return sorted(names)
