"""Paper-artifact targets: every figure/table sweep as a benchmark.

Each experiment driver from :mod:`repro.experiments.registry` is
registered as a target in the ``paper`` suite.  These are not gated on
throughput — their job in CI is the ``--smoke`` lane: run every sweep
end-to-end at tiny trace scale on every PR, so import breaks, renamed
config fields, and signature rot in the figure/table code are caught
the moment they land instead of the next time someone regenerates the
paper.

Each run checks the experiment's report for an output marker
(``"open-loop deficit"`` for Figure 7 and so on) and fails the job
when the marker is gone, so a sweep that silently starts printing
garbage also fails the lane.
"""

from __future__ import annotations

import time

from repro.bench.registry import Metric, flag, register_benchmark

#: Output marker per experiment id: a substring its report must contain.
MARKERS = {
    "fig1": "Figure 1",
    "fig2": "offline",
    "fig3": "Figure 3",
    "fig4": "MONITOR",
    "fig5": "reactive",
    "fig6": "evictions pooled",
    "fig7": "open-loop deficit",
    "fig8": "MEAN",
    "fig9": "correlated groups",
    "tab1": "evaluation input",
    "tab2": "Monitor period",
    "tab3": "tot evicts",
    "tab4": "no eviction",
    "tab5": "Leading Core",
    "ext-behaviors": "memory independence",
    "ext-flush": "conjecture",
    "ext-batching": "multi-change",
    "ext-ablations": "oscillation limit",
    "ext-hotregion": "ungated",
    "ext-distiller": "reduction",
    "ext-uarch": "CPI",
}


def extract(doc: dict) -> dict[str, Metric]:
    return {
        "marker_found": flag(doc.get("marker_found", False)),
        "output_chars": Metric(float(doc.get("output_chars", 0)),
                               unit="chars", banded=False),
        "elapsed_s": Metric(doc.get("elapsed_s", 0.0), unit="s",
                            better="lower", banded=False),
    }


def _make_runner(experiment_id: str, title: str):
    def run_paper(length_scale: float = 0.35, quick: bool = True,
                  benchmarks: tuple[str, ...] | None = None,
                  verbose: bool = True) -> dict:
        from repro.experiments.common import ExperimentContext
        from repro.experiments.registry import run_experiment
        from repro.sim.runner import TraceCache

        ctx = ExperimentContext(
            quick=quick,
            benchmarks=tuple(benchmarks) if benchmarks else None,
            cache=TraceCache(length_scale=length_scale))
        started = time.perf_counter()
        output = run_experiment(experiment_id, ctx)
        elapsed = time.perf_counter() - started
        marker = MARKERS.get(experiment_id)
        found = bool(output) and (marker is None or marker in output)
        if verbose:
            print(output)
        if not found:
            raise RuntimeError(
                f"{experiment_id}: expected marker {marker!r} missing "
                f"from the sweep's output ({len(output or '')} chars)")
        return {
            "kind": "repro.paper.bench",
            "schema": 1,
            "experiment": experiment_id,
            "title": title,
            "length_scale": length_scale,
            "marker": marker,
            "marker_found": found,
            "output_chars": len(output or ""),
            "elapsed_s": elapsed,
        }

    run_paper.__name__ = f"run_{experiment_id.replace('-', '_')}"
    run_paper.__qualname__ = run_paper.__name__
    return run_paper


def _register_all() -> None:
    from repro.experiments.registry import EXPERIMENTS

    for experiment in EXPERIMENTS.values():
        register_benchmark(
            experiment.id,
            title=experiment.title,
            kind="repro.paper.bench",
            suites=("paper", "all"),
            extract=extract,
            params={"length_scale": 0.35},
            smoke_params={"length_scale": 0.12},
            timeout=1200.0,
        )(_make_runner(experiment.id, experiment.title))


_register_all()
