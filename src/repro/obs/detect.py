"""Online misspeculation health detection over the exact event stream.

The paper's reactive controllers exist to bound misspeculation bursts;
this module watches for those bursts *online*, from the same exact
per-event stream the controllers consume, and renders a verdict:

``ok``
    Window misspeculation rate below the degraded threshold and no
    eviction storm.
``degraded``
    Window misspeculation rate at or above
    :attr:`DetectorConfig.degraded_misspec_rate`.
``misspec-burst``
    Window rate at or above :attr:`DetectorConfig.burst_misspec_rate`,
    *or* an eviction storm — at least
    :attr:`DetectorConfig.storm_evictions` EVICT arcs within one
    window.  A retrained (train-then-flip) branch population trips
    this via the storm signal even when the flip burst is short
    relative to the window.

Three inputs, all read-only with respect to controller state:

* :meth:`MisspecDetector.observe_batch` — each apply's per-key summary
  (:attr:`ShardApplyResult.summary <repro.serve.shard.ShardApplyResult>`,
  the grouping the shard already did to apply the batch), *before*
  that apply's transitions reach detector state.  Used for flip-onset
  detection on PCs deployed by an earlier apply.
* :meth:`MisspecDetector.observe_apply` — per-apply aggregate counts
  (events, correct, incorrect) plus the instruction span, feeding the
  sliding window (misspec rate, misspec-per-kilo-instruction).  A
  window row is one apply, so one large apply can exceed
  :attr:`DetectorConfig.window_events` on its own.
* :meth:`MisspecDetector.observe_transitions` — the exact FSM arc
  stream (the service hands it each apply's transitions right before
  they reach the :class:`~repro.obs.tracing.TransitionTrace`) with the
  apply's SELECT block (:attr:`ShardApplyResult.selects
  <repro.serve.shard.ShardApplyResult>`).  SELECT deploys a PC into
  flip tracking with the direction it deploys; EVICT closes it and
  yields the per-PC **time-to-evict**: events from the first flipped
  outcome to the EVICT arc, in that PC's own execution counts.

Time-to-evict is *exact* at any apply size.  A flip in the SELECT's
own apply comes with the SELECT, as its exec index.  A flip in a later
apply is ``exec_before + offset`` from that apply's summary, whose
column carries the row's own execution count before the apply, so it
shares the controller's 0-based ``exec_index`` timebase — after a
snapshot restore too, since the count comes from the restored row,
not from the detector.  Either way ``tte = evict.exec_index -
onset_exec`` matches the arc-counter ground truth.

The detector keeps state only for deployed keys: the summary row of
the outcome against its deployed direction per *armed* key (deployed,
no onset yet) and an onset per key that flipped.  A batch costs a
lookup of the armed keys in the summary's sorted key row; the first
opposite outcome of an armed key is its onset, which disarms it.

Verdicts latch: ``peak_verdict`` and the burst counter never move
backwards, so a CI step can assert "a burst happened" after the storm
has subsided.

Thread-safety: every entry point takes the detector lock — observe_*
run on the service event loop, ``health_doc``/``verdict`` on the HTTP
server thread.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry, RollingWindow
from repro.obs.tracing import ARC_CODE

__all__ = ["DetectorConfig", "MisspecDetector", "VERDICTS", "VERDICT_LEVEL"]

VERDICTS = ("ok", "degraded", "misspec-burst")
VERDICT_LEVEL = {"ok": 0, "degraded": 1, "misspec-burst": 2}

_SELECT = ARC_CODE["select"]
_EVICT = ARC_CODE["evict"]

#: Power-of-two buckets for time-to-evict, in per-branch executions.
TTE_BUCKETS = tuple(float(1 << i) for i in range(17))

#: Most recent per-PC time-to-evict samples kept for ``health_doc``.
_TTE_KEEP = 1024

#: Rows of an apply's per-key summary
#: (:data:`repro.serve.colpath.SUMMARY_ROWS`) the detector reads.
_KEY, _EXEC_BEFORE, _FIRST_TAKEN, _FIRST_NOT_TAKEN = 0, 1, 4, 5


@dataclass(frozen=True)
class DetectorConfig:
    """Sliding-window sizes and verdict thresholds.

    Defaults are tuned for this reproduction's scaled traces
    (``scaled_config``): a 500-count eviction ceiling with increment 50
    means a flipped branch misspeculates >=10 times before EVICT, so a
    handful of simultaneously retrained branches shows up as an
    eviction storm well before the window rate saturates.
    """

    window_events: int = 8192
    min_window_events: int = 512
    degraded_misspec_rate: float = 0.08
    burst_misspec_rate: float = 0.20
    storm_evictions: int = 3

    def __post_init__(self) -> None:
        if self.window_events <= 0:
            raise ValueError("window_events must be positive")
        if not 0 < self.min_window_events <= self.window_events:
            raise ValueError("min_window_events must be in "
                             "(0, window_events]")
        if not 0.0 < self.degraded_misspec_rate <= 1.0:
            raise ValueError("degraded_misspec_rate must be in (0, 1]")
        if not self.degraded_misspec_rate <= self.burst_misspec_rate <= 1.0:
            raise ValueError("burst_misspec_rate must be in "
                             "[degraded_misspec_rate, 1]")
        if self.storm_evictions <= 0:
            raise ValueError("storm_evictions must be positive")


class MisspecDetector:
    """Sliding-window misspeculation health over the exact stream.

    Gauges, the burst counter and the time-to-evict histogram live
    only in ``registry`` (a private one when none is passed), and
    :meth:`health_doc` reads its burst and time-to-evict figures back
    from them.  Two detectors on one registry would merge their
    counts: the service builds one per registry.
    """

    def __init__(self, config: DetectorConfig | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self._lock = threading.Lock()
        # -- per-key state, deployed keys only ------------------------
        self._deployed: set[int] = set()
        #: Armed keys (deployed, no onset yet) → the summary row of the
        #: outcome against their deployed direction (_FIRST_NOT_TAKEN
        #: for a taken branch, _FIRST_TAKEN for a not-taken one).
        self._armed: dict[int, int] = {}
        #: Flip onset exec index of each deployed key that flipped.
        self._onset: dict[int, int] = {}
        #: ``_armed`` as sorted key and row arrays (None once the armed
        #: set changes).
        self._armed_arr: tuple[np.ndarray, np.ndarray] | None = None
        # -- sliding window ---------------------------------------------
        #: Rows of (events, misspeculated, first_instr, last_instr).
        self._window = RollingWindow(self.config.window_events, summed=2)
        self._total_events = 0
        self._evict_marks: deque[int] = deque()
        # -- verdict / results ------------------------------------------
        self._verdict = "ok"
        self._peak_verdict = "ok"
        self._tte: dict[int, int] = {}
        # -- instruments ------------------------------------------------
        registry = registry if registry is not None else MetricsRegistry()
        self._g_rate = registry.gauge(
            "repro_detect_window_misspec_rate",
            "Misspeculated fraction of events in the sliding window")
        self._g_mpki = registry.gauge(
            "repro_detect_window_mpki",
            "Misspeculations per thousand instructions in the window")
        self._g_evict = registry.gauge(
            "repro_detect_window_evictions",
            "EVICT arcs within the sliding window")
        self._g_verdict = registry.gauge(
            "repro_detect_verdict",
            "Health verdict: 0=ok 1=degraded 2=misspec-burst")
        self._g_deployed = registry.gauge(
            "repro_detect_deployed_pcs",
            "PCs currently tracked for flip onset (deployed)")
        self._c_bursts = registry.counter(
            "repro_detect_bursts_total",
            "Transitions into the misspec-burst verdict")
        self._h_tte = registry.histogram(
            "repro_detect_time_to_evict_events",
            "Per-PC executions from first flipped outcome to EVICT",
            buckets=TTE_BUCKETS)

    # -- inputs ----------------------------------------------------------
    def observe_batch(self, summary: np.ndarray) -> None:
        """Observe one apply's per-key summary (before its transitions
        update the deployed set): an armed key it touches with an
        outcome against its deployed direction gets its onset."""
        with self._lock:
            if not self._armed or not summary.shape[1]:
                return
            if self._armed_arr is None:
                keys = np.array(sorted(self._armed), dtype=np.int64)
                rows = np.array([self._armed[k] for k in keys.tolist()],
                                dtype=np.int64)
                self._armed_arr = (keys, rows)
            armed, rows = self._armed_arr
            cols = np.searchsorted(summary[_KEY], armed)
            np.minimum(cols, summary.shape[1] - 1, out=cols)
            hit = np.flatnonzero(summary[_KEY, cols] == armed)
            if not hit.size:
                return
            # Armed keys have no onset yet, so an opposite outcome is
            # the key's first flip.
            first = summary[rows[hit], cols[hit]]
            flipped = first >= 0
            if not flipped.any():
                return
            onset = summary[_EXEC_BEFORE, cols[hit]] + first
            for key, at in zip(armed[hit][flipped].tolist(),
                               onset[flipped].tolist()):
                self._onset[key] = at
                del self._armed[key]   # disarm: its flip work is done
            self._armed_arr = None

    def observe_apply(self, events: int, correct: int, incorrect: int,
                      first_instr: int, last_instr: int) -> None:
        """Feed one apply's aggregate counts into the sliding window."""
        if events <= 0:
            return
        with self._lock:
            self._total_events += events
            self._window.add((events, incorrect, first_instr, last_instr))
            floor = self._total_events - self._window.sums[0]
            while self._evict_marks and self._evict_marks[0] <= floor:
                self._evict_marks.popleft()
            self._update_verdict()

    def observe_transitions(self, transitions: np.ndarray,
                            selects: np.ndarray) -> None:
        """Consume exact FSM arcs: SELECT deploys a PC into flip
        tracking, EVICT closes it and records time-to-evict.

        Takes the ``[4, n]`` arc block and the ``[3, S]`` SELECT block
        (one column per SELECT arc, in arc order: key, deployed
        direction, in-apply onset or -1) a
        :class:`~repro.serve.shard.ShardApplyResult` carries.
        """
        with self._lock:
            picks = zip(*selects.tolist())
            for key, arc, exec_index, _instr in zip(*transitions.tolist()):
                if arc == _SELECT:
                    _key, direction, onset = next(picks)
                    self._deployed.add(key)
                    self._armed_arr = None
                    if onset >= 0:
                        self._onset[key] = onset
                        self._armed.pop(key, None)
                        continue
                    self._onset.pop(key, None)
                    self._armed[key] = (_FIRST_NOT_TAKEN if direction
                                        else _FIRST_TAKEN)
                elif arc == _EVICT:
                    self._evict_marks.append(self._total_events)
                    if key not in self._deployed:
                        continue
                    self._deployed.remove(key)
                    if self._armed.pop(key, None) is not None:
                        self._armed_arr = None
                    onset = self._onset.pop(key, None)
                    if onset is not None:
                        self._record_tte(key, exec_index - onset)
            self._g_deployed.set(len(self._deployed))
            self._update_verdict()

    def _record_tte(self, pc: int, tte: int) -> None:
        if tte < 0:
            return
        if len(self._tte) >= _TTE_KEEP and pc not in self._tte:
            self._tte.pop(next(iter(self._tte)))
        self._tte[pc] = tte
        self._h_tte.observe(tte)

    # -- verdict ---------------------------------------------------------
    def _window_stats(self) -> tuple[float, float]:
        """(misspec rate, misspec per kilo-instruction) of the window."""
        events, mis = self._window.sums
        if events < self.config.min_window_events:
            return 0.0, 0.0
        rate = mis / events
        instrs = self._window_instrs()
        mpki = mis / instrs * 1000.0 if instrs > 0 else 0.0
        return rate, mpki

    def _window_instrs(self) -> int:
        """Instructions the window spans, first row to last (0 empty)."""
        rows = self._window.rows
        return rows[-1][3] - rows[0][2] if rows else 0

    def _update_verdict(self) -> None:
        rate, mpki = self._window_stats()
        storm = len(self._evict_marks)
        if (rate >= self.config.burst_misspec_rate
                or storm >= self.config.storm_evictions):
            verdict = "misspec-burst"
        elif rate >= self.config.degraded_misspec_rate:
            verdict = "degraded"
        else:
            verdict = "ok"
        if (verdict == "misspec-burst"
                and self._verdict != "misspec-burst"):
            self._c_bursts.inc()
        if VERDICT_LEVEL[verdict] > VERDICT_LEVEL[self._peak_verdict]:
            self._peak_verdict = verdict
        self._verdict = verdict
        self._g_rate.set(rate)
        self._g_mpki.set(mpki)
        self._g_evict.set(storm)
        self._g_verdict.set(VERDICT_LEVEL[verdict])

    # -- outputs ---------------------------------------------------------
    @property
    def verdict(self) -> str:
        with self._lock:
            return self._verdict

    @property
    def peak_verdict(self) -> str:
        with self._lock:
            return self._peak_verdict

    def time_to_evict(self) -> dict[int, int]:
        """Most recent time-to-evict per PC (executions from first
        flipped outcome to the EVICT arc)."""
        with self._lock:
            return dict(self._tte)

    def health_doc(self) -> dict:
        """JSON document for ``GET /health`` and ``obs top``."""
        cfg = self.config
        with self._lock:
            rate, mpki = self._window_stats()
            events, mis = self._window.sums
            tte_count, tte_sum = self._h_tte.count, self._h_tte.sum
            return {
                "kind": "repro.obs.health",
                "verdict": self._verdict,
                "peak_verdict": self._peak_verdict,
                "bursts": self._c_bursts.value,
                "events_observed": self._total_events,
                "window": {
                    "events": events,
                    "misspeculated": mis,
                    "misspec_rate": round(rate, 6),
                    "mpki": round(mpki, 6),
                    "evictions": len(self._evict_marks),
                    "instrs": int(self._window_instrs()),
                },
                "deployed_pcs": len(self._deployed),
                "time_to_evict": {
                    "count": tte_count,
                    "mean": (round(tte_sum / tte_count, 3)
                             if tte_count else 0.0),
                    "last": {str(pc): tte
                             for pc, tte in self._tte.items()},
                },
                "thresholds": {
                    "window_events": cfg.window_events,
                    "min_window_events": cfg.min_window_events,
                    "degraded_misspec_rate": cfg.degraded_misspec_rate,
                    "burst_misspec_rate": cfg.burst_misspec_rate,
                    "storm_evictions": cfg.storm_evictions,
                },
            }
