"""offline: the paper's experiment drivers and the MSSP model, in short units.

The offline layers — trace generation, ``sim.vector``, the ``hw``
predictors, ``mssp`` and the experiment drivers — in units of work
short enough that each repeats many times in a run:

* every driver of :mod:`repro.experiments.registry` except the five
  in ``HEAVY``, in one ``ExperimentContext(quick=True)`` restricted to
  ``BENCHMARK``: ``python -m repro.experiments run all --quick`` done
  in-process on one benchmark;
* the calls the five ``HEAVY`` drivers spend seconds in, on a shorter
  checkpoint trace: ``checkpoint_trace`` itself (it regenerates the
  whole run's trace), ``simulate_mssp`` under the closed-loop, open-loop
  and hot-region-gated policies, and ``detect_hot_regions``.

The serve stack is idle.  The drivers fix their own seeds and the
checkpoint trace is the benchmark model's, so this workload does not
depend on ``--seed``.
"""

from __future__ import annotations

import hashlib
import math
import time

from harness import CpuClock, Pass, low_quartile, rounds
from repro.bench.targets.paper import MARKERS
from repro.experiments import registry
from repro.experiments.common import ExperimentContext
from repro.mssp.hotregion import detect_hot_regions
from repro.mssp.simulator import (
    checkpoint_trace,
    closed_loop_config,
    open_loop_config,
    simulate_mssp,
)
from repro.sim.runner import TraceCache
from repro.trace.spec2000 import benchmark_spec

#: The quick benchmark every unit runs on.
BENCHMARK = "vortex"
#: Trace length scale of ``ExperimentContext(quick=True)``.
QUICK_SCALE = 0.35
#: Drivers that take seconds on one benchmark, in ``simulate_mssp`` and
#: ``detect_hot_regions`` on a 100k-120k-event checkpoint trace.
HEAVY = ("fig7", "fig8", "ext-ablations", "ext-codegen", "ext-hotregion")
#: Events of the checkpoint trace the MSSP units run on.
CHECKPOINT_EVENTS = 30_000
#: Hot-region deployment threshold of the gated units (the detector's
#: default).
HOT_THRESHOLD = 500
#: Set-ups timed per run (``setup_s`` is their median).
SETUPS = 3
#: Rounds of all units per run, at the least (one when ``single``).
MIN_ROUNDS = 5


def _fill_cache():
    """A trace cache holding the eval and profile inputs of
    ``BENCHMARK``, keyed as the drivers ask for them, and the
    checkpoint trace of the MSSP units."""
    cache = TraceCache(length_scale=QUICK_SCALE)
    cache.get(BENCHMARK)
    cache.get(BENCHMARK, benchmark_spec(BENCHMARK).profile_input)
    return cache, checkpoint_trace(BENCHMARK, length=CHECKPOINT_EVENTS)


def _units(cache, checkpoint):
    """``(name, events, call)`` per unit of work; ``call()`` returns
    the unit's output as text, which must repeat exactly."""
    ctx = ExperimentContext(quick=True, benchmarks=(BENCHMARK,), cache=cache)
    units = []
    for eid in registry.EXPERIMENTS:
        if eid not in HEAVY:
            events = len(cache.get(BENCHMARK))
            units.append((eid, events,
                          lambda eid=eid: registry.run_experiment(eid, ctx)))

    def speedup(**kwargs):
        result = simulate_mssp(checkpoint, **kwargs)
        if not (math.isfinite(result.speedup) and result.speedup > 0):
            raise ValueError(f"speedup {result.speedup}")
        return repr(result.speedup)

    def hot_regions():
        _detector, in_region = detect_hot_regions(
            checkpoint, hot_threshold=HOT_THRESHOLD)
        return repr(float(in_region.mean()))

    def checkpoint_again():
        again = checkpoint_trace(BENCHMARK, length=CHECKPOINT_EVENTS)
        return hashlib.sha256(again.branch_ids.tobytes()
                              + again.taken.tobytes()).hexdigest()

    n = len(checkpoint)
    units += [
        ("mssp-closed", n, lambda: speedup(control=closed_loop_config())),
        ("mssp-open", n, lambda: speedup(control=open_loop_config())),
        ("mssp-hot", n, lambda: speedup(control=closed_loop_config(),
                                        hot_region_threshold=HOT_THRESHOLD)),
        ("hot-regions", n, hot_regions),
        ("checkpoint-trace", n, checkpoint_again),
    ]
    return units


def setup(args, work, res):
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = _fill_cache()
        times.append(time.perf_counter() - t0)
    return state, times


def measure(state, args, work, res, record, single):
    """Rounds of every unit until ``--seconds`` have passed (at least
    ``MIN_ROUNDS``; one when ``single``); each unit's first-quartile
    CPU and wall time over the rounds count."""
    units = _units(*state)
    walls = {name: [] for name, _events, _call in units}
    cpus = {name: [] for name, _events, _call in units}
    outputs = {}
    for rnd in rounds(args.seconds, single, MIN_ROUNDS):
        for name, _events, call in units:
            res.attempted += 1
            cpu = CpuClock()
            t0 = time.perf_counter()
            try:
                with record():
                    output = call()
            except Exception as err:  # count it, run the other units
                res.check(f"{name} runs", False,
                          f"{type(err).__name__}: {err}")
                continue
            walls[name].append(time.perf_counter() - t0)
            cpus[name].append(cpu.elapsed())
            if name in outputs:
                res.check(f"{name} output repeats", output == outputs[name],
                          f"round {rnd} differs from round 1")
            else:
                outputs[name] = output
    if not all(walls.values()):
        raise RuntimeError("a unit never ran successfully")
    for name, output in outputs.items():
        marker = MARKERS.get(name)
        res.check(f"{name} output", bool(output) and (
            marker is None or marker in output),
            f"marker {marker!r} missing")
    digest = hashlib.sha256("\0".join(
        f"{name}\n{output}" for name, output in outputs.items()
    ).encode()).hexdigest()[:16]
    # cpu_us_per_event is per event of each unit's input trace: a fixed
    # normaliser, so it moves only with the units' CPU time.
    events = sum(n for _name, n, _call in units)
    wall = sum(low_quartile(w) for w in walls.values())
    cpu_s = sum(low_quartile(c) for c in cpus.values())
    return Pass(wall=wall, cpu_us_per_event=cpu_s / events * 1e6, basis=wall,
                figures={"pass_s": (wall, "s"),
                         "input_events": (events, "events"),
                         "rounds": (rnd, "count")},
                digest=digest)
