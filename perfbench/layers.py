"""Which public functions of :mod:`repro` the traced run wraps, and
how the wrapper stats become the per-layer metrics.

Units follow the metric name: ``_s`` is total seconds in the timed
pass, ``_ms``/``_us`` are per call, ``_ns`` is per event.
"""

from __future__ import annotations

from harness import Tracer

#: Layer of each stat stem (the part before the first dot), in report
#: order.  ``workers`` times awaits that overlap other work on the
#: event loop, so it is reported but left out of the residue sum.
LAYERS = ("trace", "sim", "hw", "mssp", "experiments", "service", "shard",
          "colpath", "obs", "wal", "workers", "tenant")

#: The experiment ids the offline workload runs, in registry order
#: (all but its ``HEAVY`` five).
EXPERIMENT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "tab1", "tab2",
    "tab3", "tab4", "tab5", "ext-behaviors", "ext-flush", "ext-batching",
    "ext-distiller", "ext-phases", "ext-uarch")


def _len0(args):
    return len(args[0])


def _len1(args):
    return len(args[1])


def _note_apply(tracer: Tracer, args, result) -> None:
    tracer.add("service.applies", 1)
    tracer.add("service.applied_events", result.events)
    tracer.add("colpath.fast", result.col_fast)
    tracer.add("colpath.fallback", result.col_fallback)
    tracer.add("colpath.single", result.col_single)


def _note_remote_apply(tracer: Tracer, args, result) -> None:
    _note_apply(tracer, args, result)
    tracer.add("workers.remote_apply_s", result.apply_seconds)


def _plan_stem(args, plan) -> str:
    # A plan that carries restores decompressed and parsed spilled
    # blobs: that time belongs to restoring, not to admission.
    if plan is not None and plan.restores:
        return "tenant.restore_load"
    return "tenant.plan"


#: ``(target, stem, kind, events, observe)`` per wrapped function; see
#: :meth:`harness.Tracer.install`.
SPECS = (
    ("repro.trace.stream:generate_trace", "trace.gen", "sync", None, None),
    ("repro.trace.synthetic:round_robin_trace", "trace.gen", "sync", None,
     None),
    ("repro.trace.synthetic:with_tenants", "trace.gen", "sync", None, None),
    ("repro.sim.vector:run_vector", "sim.vector", "sync", _len0, None),
    ("repro.sim.vector:speculation_flags", "sim.vector", "sync", _len0,
     None),
    ("repro.hw.predictors:predict_trace", "hw.predict", "sync", None, None),
    ("repro.mssp.hotregion:detect_hot_regions", "mssp.hotregion", "sync",
     None, None),
    ("repro.mssp.task:build_tasks", "mssp.tasks", "sync", None, None),
    ("repro.mssp.machine:run_machine", "mssp.machine", "sync", None, None),
    ("repro.mssp.machine:baseline_cycles", "mssp.machine", "sync", None,
     None),
    ("repro.experiments.registry:run_experiment",
     lambda args, _result: f"experiments.{args[0]}", "sync", None, None),
    ("repro.serve.service:SpeculationService.submit_nowait",
     "service.submit", "sync", None, None),
    ("repro.serve.shard:ShardedBank.partition", "shard.partition", "sync",
     lambda args: args[1].n_events, None),
    ("repro.serve.shard:BankShard.apply", "shard.apply", "sync", _len1,
     _note_apply),
    ("repro.serve.shard:BankShard.absorb", "shard.absorb", "sync", None,
     None),
    ("repro.serve.colpath:ColumnarBank.apply_sorted", "colpath.apply",
     "sync", _len1, None),
    ("repro.obs.detect:MisspecDetector.observe_batch", "obs.detect", "sync",
     None, None),
    ("repro.obs.detect:MisspecDetector.observe_apply", "obs.detect", "sync",
     None, None),
    ("repro.obs.detect:MisspecDetector.observe_transitions", "obs.detect",
     "sync", None, None),
    ("repro.serve.telemetry:ServiceTelemetry.record_enqueue",
     "obs.telemetry", "sync", None, None),
    ("repro.serve.telemetry:ServiceTelemetry.record_apply",
     "obs.telemetry", "sync", None, None),
    ("repro.obs.tracing:TransitionTrace.extend", "obs.trace", "sync", None,
     None),
    ("repro.obs.spans:SpanRecorder.begin", "obs.spans", "sync", None, None),
    ("repro.obs.spans:SpanRecorder.note_applied", "obs.spans", "sync", None,
     None),
    ("repro.obs.spans:SpanRecorder.note_durable", "obs.spans", "sync", None,
     None),
    ("repro.wal.writer:WalWriter.append", "wal.append", "sync", None, None),
    ("repro.wal.writer:WalWriter.commit", "wal.commit", "sync", None, None),
    ("repro.tenant.manager:TenantManager.plan", _plan_stem, "sync", None,
     None),
    ("repro.tenant.manager:TenantManager.commit", "tenant.commit", "sync",
     None, None),
    ("repro.tenant.manager:TenantManager.spill_contribution",
     "tenant.spill", "sync", None, None),
    ("repro.serve.shard:BankShard.spill_tenant", "tenant.spill", "sync",
     None, None),
    ("repro.serve.shard:BankShard.restore_tenant", "tenant.restore", "sync",
     None, None),
    ("repro.serve.workers:WorkerPool.apply", "workers.roundtrip", "async",
     None, _note_remote_apply),
)


def per_layer_metrics(tracer: Tracer, pass_s: float,
                      extra: dict[str, float]) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass lasting ``pass_s``.

    ``extra`` carries what the workload counted itself: tenant spills
    and restores, and the WAL's mean group-commit size.
    """
    st = tracer.stats
    ex = {**tracer.extra, **extra}
    out: dict[str, tuple] = {}

    def wall(*stems):
        return sum(st[s].wall for s in stems if s in st)

    def calls(*stems):
        return sum(st[s].calls for s in stems if s in st)

    def events(stem):
        return st[stem].events if stem in st else 0

    def per_call(scale, *stems):
        n = calls(*stems)
        return wall(*stems) / n * scale if n else 0.0

    def per_event(total_s, n_events):
        return total_s / n_events * 1e9 if n_events else 0.0

    applied = ex.get("service.applied_events", 0.0)
    out["trace.gen_s"] = (wall("trace.gen"), "s")
    out["trace.gen_calls"] = (float(calls("trace.gen")), "count")
    out["sim.vector_s"] = (wall("sim.vector"), "s")
    out["sim.events"] = (float(events("sim.vector")), "count")
    out["hw.predict_s"] = (wall("hw.predict"), "s")
    for part in ("hotregion", "tasks", "machine"):
        out[f"mssp.{part}_s"] = (wall(f"mssp.{part}"), "s")
    for eid in EXPERIMENT_IDS:
        out[f"experiments.{eid}_s"] = (wall(f"experiments.{eid}"), "s")

    out["service.submit_us"] = (per_call(1e6, "service.submit"), "us")
    out["service.rejections"] = (
        float(st["service.submit"].errors if "service.submit" in st else 0),
        "count")
    applies = ex.get("service.applies", 0.0)
    out["service.events_per_apply"] = (applied / applies if applies
                                       else 0.0, "events")

    out["shard.partition_ns"] = (per_event(wall("shard.partition"),
                                           events("shard.partition")), "ns")
    if "shard.apply" in st:
        apply_ns = per_event(wall("shard.apply"), events("shard.apply"))
    else:  # worker mode: the apply ran remotely and timed itself
        apply_ns = per_event(ex.get("workers.remote_apply_s", 0.0), applied)
    out["shard.apply_ns"] = (apply_ns, "ns")
    out["shard.absorb_us"] = (per_call(1e6, "shard.absorb"), "us")

    out["colpath.apply_ns"] = (per_event(wall("colpath.apply"),
                                         events("colpath.apply")), "ns")
    fast = ex.get("colpath.fast", 0.0)
    routed = (fast + ex.get("colpath.fallback", 0.0)
              + ex.get("colpath.single", 0.0))
    out["colpath.fast_share"] = (fast / routed if routed else 0.0,
                                 "fraction")
    out["colpath.fallback_events"] = (ex.get("colpath.fallback", 0.0),
                                      "count")

    out["obs.detect_ns"] = (per_event(wall("obs.detect"), applied), "ns")
    out["obs.telemetry_us"] = (per_call(1e6, "obs.telemetry"), "us")
    out["obs.trace_us"] = (per_call(1e6, "obs.trace"), "us")
    out["obs.spans_us"] = (per_call(1e6, "obs.spans"), "us")

    out["wal.append_us"] = (per_call(1e6, "wal.append"), "us")
    out["wal.commit_ms"] = (per_call(1e3, "wal.commit"), "ms")
    out["wal.records_per_commit"] = (ex.get("wal.records_per_commit", 0.0),
                                     "records")

    n_remote = calls("workers.roundtrip")
    roundtrip = per_call(1e6, "workers.roundtrip")
    remote = (ex.get("workers.remote_apply_s", 0.0) / n_remote * 1e6
              if n_remote else 0.0)
    out["workers.roundtrip_us"] = (roundtrip, "us")
    out["workers.remote_apply_us"] = (remote, "us")
    out["wire.overhead_us"] = (roundtrip - remote, "us")

    spills = ex.get("tenant.spills", 0.0)
    restores = ex.get("tenant.restores", 0.0)
    spill_s = wall("tenant.spill")
    restore_s = wall("tenant.restore_load", "tenant.restore")
    out["tenant.plan_us"] = (per_call(1e6, "tenant.plan"), "us")
    out["tenant.commit_us"] = (per_call(1e6, "tenant.commit"), "us")
    out["tenant.spills"] = (spills, "count")
    out["tenant.restores"] = (restores, "count")
    out["tenant.spill_ms"] = (spill_s / spills * 1e3 if spills else 0.0,
                              "ms")
    out["tenant.restore_ms"] = (restore_s / restores * 1e3 if restores
                                else 0.0, "ms")
    out["tenant.spill_share"] = ((spill_s + restore_s) / pass_s
                                 if pass_s else 0.0, "fraction")

    covered = 0.0
    for layer in LAYERS:
        own = sum(s.self_time for stem, s in st.items()
                  if stem.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (own, "s")
        if layer != "workers":
            covered += own
    out["residue_s"] = (pass_s - covered, "s")
    return out
