"""repro — a reproduction of *Reactive Techniques for Controlling
Software Speculation* (Craig Zilles and Naveen Neelakantam, CGO 2005).

The package implements, from scratch:

* the paper's reactive speculation controller (:mod:`repro.core`),
* a synthetic branch-behavior substrate standing in for the paper's
  SPEC2000int traces (:mod:`repro.trace`),
* the non-reactive baselines it is compared against
  (:mod:`repro.profiling`),
* functional simulation engines (:mod:`repro.sim`),
* an online speculation-control service with sharded controller
  banks, snapshots and backpressure (:mod:`repro.serve`),
* a task-granularity MSSP timing simulator (:mod:`repro.mssp`),
* hardware branch predictors used for contrast (:mod:`repro.hw`),
* analysis utilities (:mod:`repro.analysis`), and
* one experiment driver per table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import load_trace, scaled_config, run_reactive

    trace = load_trace("gcc")
    result = run_reactive(trace, scaled_config())
    print(result.metrics.summary())
"""

from repro.core import (
    ControllerBank,
    ControllerConfig,
    ReactiveBranchController,
    paper_config,
    scaled_config,
)
from repro.trace import (
    BENCHMARK_NAMES,
    Trace,
    build_model,
    generate_trace,
    load_trace,
)

def _detect_version() -> str:
    """Single-source the version from package metadata / pyproject."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        pass
    # Source checkout (PYTHONPATH=src): read pyproject.toml directly.
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        match = re.search(r'^version\s*=\s*"([^"]+)"',
                          pyproject.read_text(encoding="utf-8"),
                          flags=re.MULTILINE)
        if match:
            return match.group(1)
    except OSError:
        pass
    return "0+unknown"


__version__ = _detect_version()

__all__ = [
    "BENCHMARK_NAMES",
    "ControllerBank",
    "ControllerConfig",
    "ReactiveBranchController",
    "SpeculationClient",
    "SpeculationService",
    "Trace",
    "__version__",
    "build_model",
    "feed_trace",
    "generate_trace",
    "load_trace",
    "paper_config",
    "run_reactive",
    "scaled_config",
    "serve",
]

#: Names re-exported lazily from :mod:`repro.serve` — importing the
#: asyncio service machinery only when first touched keeps plain
#: ``import repro`` light for offline experiment scripts.
_SERVE_EXPORTS = frozenset(
    {"SpeculationClient", "SpeculationService", "feed_trace"})


def __getattr__(name):
    if name == "serve" or name in _SERVE_EXPORTS:
        import repro.serve

        if name == "serve":
            return repro.serve
        return getattr(repro.serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_reactive(trace, config=None):
    """Run the reactive controller over a trace (convenience wrapper).

    See :func:`repro.sim.runner.run_reactive` for details; imported
    lazily to keep ``import repro`` light.
    """
    from repro.sim.runner import run_reactive as _run

    return _run(trace, config=config)
