"""Run one workload of the repository's benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload spec-replay --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed.  ``--trace 1`` runs the timed pass once plain and once with
each layer's public functions wrapped (``layers.py``), and reports the
per-layer metrics of the wrapped pass.  Readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 1 means an
output check failed, 2 bad arguments or no program source under
``src/``.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> the module of this directory that runs it.
WORKLOADS = {
    "offline": "offline",
    "spec-replay": "spec_replay",
    "durable-paced": "durable_paced",
    "tenant-churn": "tenant_churn",
}

#: Per-layer diagnostics the workloads measure themselves; zero where a
#: workload has no such figure.
DIAGNOSTICS = (("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
               ("decision_read_us", "us"), ("gen.late_p50_ms", "ms"),
               ("gen.late_p99_ms", "ms"), ("watch.poll_us", "us"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args, work: Path):
    """Set up, measure and check one workload.

    Returns the result, the pass whose figures are shown, the set-up
    times and the host probe readings before and after the passes.
    """
    from harness import Result, Tracer, host_probe_ms, median, peak_rss_mb
    from layers import SPECS, per_layer_metrics

    workload = importlib.import_module(WORKLOADS[args.workload])
    res = Result()
    state, setup_times = workload.setup(args, work, res)
    probe_before = host_probe_ms()
    plain = workload.measure(state, args, work, res, contextlib.nullcontext,
                             single=bool(args.trace))
    if not args.trace:
        probes = (probe_before, host_probe_ms())
        res.metrics = {
            "setup_s": (median(setup_times), "s"),
            "rss_mb": (peak_rss_mb(), "MB"),
            "cpu_us_per_event": (plain.cpu_us_per_event, "us"),
        }
        return res, plain, setup_times, probes
    tracer = Tracer()
    tracer.install(SPECS)
    try:
        traced = workload.measure(state, args, work, res, tracer.recording,
                                  single=True)
    finally:
        tracer.uninstall()
    probes = (probe_before, host_probe_ms())
    res.metrics = per_layer_metrics(tracer, traced.wall, traced.extra)
    for name, unit in DIAGNOSTICS:
        res.metrics[name] = (traced.extra.get(name, 0.0), unit)
    res.metrics["tracing.overhead"] = (traced.basis / plain.basis - 1.0,
                                       "fraction")
    res.metrics["host.probe_ms"] = (probes[0], "ms")
    res.metrics["host.probe_after_ms"] = (probes[1], "ms")
    if plain.digest:
        res.check("output digest repeats", traced.digest == plain.digest,
                  f"{plain.digest} then {traced.digest}")
    return res, traced, setup_times, probes


def report(args, res, shown, setup_times, probes) -> None:
    from harness import median

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    rows = [("set-ups", len(setup_times),
             f"median {median(setup_times):.4f} s")]
    rows += [(name, value, unit)
             for name, (value, unit) in shown.figures.items()]
    rows.append(("failed_frac", res.failed / max(res.attempted, 1),
                 f"{res.failed} of {res.attempted}"))
    rows.append(("host.probe_ms", probes[0], f"ms before, {probes[1]:.2f} "
                 "after the passes"))
    for name, value, note in rows:
        print(f"  {name:<24} {value:>14.6g}  {note}")
    if shown.digest:
        print(f"  {'output digest':<24} {shown.digest}")
    failed = [c for c in res.checks if not c[1]]
    print(f"  checks: {len(res.checks) - len(failed)} passed, "
          f"{len(failed)} failed")
    for name, _ok, detail in failed:
        print(f"    FAILED {name}: {detail}")
    for name, (value, unit) in res.metrics.items():
        print(f"  metric {name:<30} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))


def _stop_resource_tracker() -> None:
    """Spawning worker processes starts multiprocessing's resource
    tracker; stop it and wait for it, so no process outlives the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Temporary files the program makes on its own (spill stores,
    # worker sockets) stay inside the checkout too.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        outcome = run(args, work)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    report(args, *outcome)
    return 0 if outcome[0].correct else 1


if __name__ == "__main__":
    sys.exit(main())
