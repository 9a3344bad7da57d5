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

* :meth:`MisspecDetector.observe_batch` — the raw (keys, outcomes)
  arrays of each micro-batch, *before* that batch's transitions are
  applied to detector state.  Used for exact per-PC execution counting
  and flip-onset detection on deployed PCs.
* :meth:`MisspecDetector.observe_apply` — per-apply aggregate counts
  (events, correct, incorrect) plus the instruction span, feeding the
  sliding window (misspec rate, misspec-per-kilo-instruction).
* :meth:`MisspecDetector.observe_transitions` — the exact FSM arc
  stream (the service hands it each apply's transitions right before
  they reach the :class:`~repro.obs.tracing.TransitionTrace`).  SELECT
  deploys a PC into flip tracking; EVICT closes it and yields the
  per-PC **time-to-evict**: events from the first flipped outcome to
  the EVICT arc, in that PC's own execution counts.

Time-to-evict is *exact* for branches whose flip happens in a later
micro-batch than their SELECT: the detector maintains absolute per-PC
execution counts from the start of the stream, so the onset index
shares the controller's 0-based ``exec_index`` timebase and
``tte = evict.exec_index - onset_exec`` matches the arc-counter ground
truth.

Per-key state is one set of slot-indexed arrays: execution count,
trained-direction code, flip onset.  While every key stays in
``[0, _DENSE_LIMIT)`` a key's slot is the key itself (a batch costs an
``np.bincount`` scatter).  Once a larger key appears — a packed
``(tenant << 32) | pc`` — a key's slot is its position in a sorted key
index that grows by inserting each batch's new keys (a batch costs a
sort-path ``np.unique`` and a ``searchsorted``).  Both share one flip
check over the *armed* slots, deployed keys with no onset yet: per-slot
event and taken counts find the flips, and each armed key is scanned
event by event at most once.  One known granularity limit: outcomes in
the *same* micro-batch as the SELECT are not flip-checked (the
deployed set is updated from transitions after the batch's outcomes
are observed), so a flip inside the SELECT batch is attributed to the
next batch.

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

#: While every key is below this, a key is its own slot (direct
#: indexing; worst case 16 MiB of int64 counters).  Packed tenant keys
#: and other huge ids switch the detector to the sorted key index.
_DENSE_LIMIT = 1 << 21


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


def _lookup(ids: np.ndarray, values: np.ndarray,
            wanted: np.ndarray) -> np.ndarray:
    """``values`` at each of ``wanted`` in the sorted ``ids``, 0 where
    ``ids`` lacks it."""
    if len(ids) == 0:
        return np.zeros(len(wanted), dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, wanted), len(ids) - 1)
    return np.where(ids[pos] == wanted, values[pos], 0)


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
        # -- per-key state, one slot per key ----------------------------
        # While every key seen is in [0, _DENSE_LIMIT) ``_keys`` is None
        # and a key's slot is the key itself; after that ``_keys`` is
        # the sorted index of keys with state and a key's slot is its
        # position in it.
        # ``_dir`` codes: 0 = not armed (untracked, or onset already
        # recorded), 1 = trained not-taken, 2 = trained taken, 3 =
        # deployed but direction not yet observed.  ``_onset`` holds
        # the flip-onset exec index (-1 unset).
        self._keys: np.ndarray | None = None
        self._count = np.zeros(0, dtype=np.int64)
        self._dir = np.zeros(0, dtype=np.uint8)
        self._onset = np.zeros(0, dtype=np.int64)
        self._deployed: set[int] = set()
        # Armed slots (nonzero ``_dir``): a count (zero lets whole
        # batches skip the flip check) and a cached index array, None
        # once membership or slot positions change.
        self._armed = 0
        self._armed_arr: np.ndarray | None = None
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

    # -- slots -----------------------------------------------------------
    def _grow(self, size: int) -> None:
        """Ensure the key-indexed slots cover keys ``[0, size)``."""
        have = len(self._count)
        if size <= have:
            return
        extra = max(size, 2 * have, 1024) - have
        self._count = np.append(self._count, np.zeros(extra, np.int64))
        self._dir = np.append(self._dir, np.zeros(extra, np.uint8))
        self._onset = np.append(self._onset, np.full(extra, -1, np.int64))

    def _to_sorted(self) -> None:
        """Switch to the sorted key index; used once a key outside
        ``[0, _DENSE_LIMIT)`` appears.  Keys with no executions and no
        armed state carry nothing, so only the others move."""
        keys = np.flatnonzero((self._count > 0) | (self._dir > 0))
        self._keys = keys.astype(np.int64)
        self._count = self._count[keys]
        self._dir = self._dir[keys]
        self._onset = self._onset[keys]
        self._armed_arr = None

    def _index(self, uniq: np.ndarray) -> np.ndarray:
        """Slots of the sorted distinct keys ``uniq`` in the sorted
        index, inserting the absent ones."""
        keys = self._keys
        pos = np.searchsorted(keys, uniq)
        if len(keys):
            new = uniq[keys[np.minimum(pos, len(keys) - 1)] != uniq]
        else:
            new = uniq
        if len(new) == 0:
            return pos
        at = np.searchsorted(keys, new)
        self._keys = np.insert(keys, at, new)
        self._count = np.insert(self._count, at, 0)
        self._dir = np.insert(self._dir, at, 0)
        self._onset = np.insert(self._onset, at, -1)
        self._armed_arr = None
        return np.searchsorted(self._keys, uniq)

    def _slot(self, key: int) -> int:
        """Slot of one key, added if it has none."""
        if self._keys is None:
            if 0 <= key < _DENSE_LIMIT:
                self._grow(key + 1)
                return key
            self._to_sorted()
        return int(self._index(np.array([key], dtype=np.int64))[0])

    def _armed_slots(self) -> np.ndarray:
        if self._armed_arr is None:
            self._armed_arr = np.flatnonzero(self._dir)
        return self._armed_arr

    # -- inputs ----------------------------------------------------------
    def observe_batch(self, keys: np.ndarray, taken: np.ndarray) -> None:
        """Observe one micro-batch's raw outcomes (before its
        transitions update the deployed set)."""
        if len(keys) == 0:
            return
        keys64 = np.asarray(keys, dtype=np.int64)
        taken = np.asarray(taken, dtype=bool)
        with self._lock:
            if self._keys is None:
                top = int(keys64.max())
                if top < _DENSE_LIMIT and int(keys64.min()) >= 0:
                    self._grow(top + 1)
                    counts = np.bincount(keys64,
                                         minlength=len(self._count))
                    if self._armed:
                        armed = self._armed_slots()
                        ones = np.bincount(keys64, weights=taken,
                                           minlength=len(self._count))
                        self._check_flips(keys64, taken, armed,
                                          counts[armed],
                                          ones[armed].astype(np.int64))
                    self._count += counts
                    return
                self._to_sorted()
            uniq, counts = np.unique(keys64, return_counts=True)
            slots = self._index(uniq)
            if self._armed:
                armed = self._armed_slots()
                armed_keys = self._keys[armed]
                # A second sort over the taken outcomes beats the
                # inverse-mapping form of ``np.unique`` on a batch.
                ones_keys, ones = np.unique(keys64[taken],
                                            return_counts=True)
                self._check_flips(keys64, taken, armed,
                                  _lookup(uniq, counts, armed_keys),
                                  _lookup(ones_keys, ones, armed_keys))
            self._count[slots] += counts

    def _check_flips(self, keys64: np.ndarray, taken: np.ndarray,
                     armed: np.ndarray, ca: np.ndarray,
                     ct: np.ndarray) -> None:
        """Flip check of the armed slots at per-key count granularity.

        ``ca`` and ``ct`` are each armed slot's events and taken
        outcomes in this batch, so the steady state (no armed key
        flips) costs a handful of armed-length vector ops, and the
        per-event scans below run at most once per armed key's
        lifetime (finding the onset disarms it)."""
        d = self._dir[armed]
        unk = (d == 3) & (ca > 0)
        if unk.any():
            # First observed post-select batch for these keys: for a
            # trained biased branch every outcome here is the bias, so
            # the batch majority is the exact trained direction.
            d[unk] = np.where(2 * ct[unk] >= ca[unk], 2, 1)
            self._dir[armed] = d
        # Trained taken (2): flips are the not-taken occurrences;
        # trained not-taken (1): flips are the taken occurrences.
        # Armed keys have no onset yet by construction, so any flip is
        # the key's first — locate it exactly in program order.
        hit = np.flatnonzero(np.where(d == 2, ca - ct, ct) > 0)
        if len(hit) == 0:
            return
        slots = armed[hit]
        hit_keys = slots if self._keys is None else self._keys[slots]
        for slot, key, trained_taken in zip(
                slots.tolist(), hit_keys.tolist(), (d[hit] == 2).tolist()):
            mine = keys64 == key
            first = int(np.argmax(mine & (taken != trained_taken)))
            self._onset[slot] = (self._count[slot]
                                 + np.count_nonzero(mine[:first]))
        self._dir[slots] = 0  # disarm: flip work for these keys is done
        self._armed -= len(slots)
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

    def observe_transitions(self, transitions: np.ndarray) -> None:
        """Consume exact FSM arcs: SELECT deploys a PC into flip
        tracking, EVICT closes it and records time-to-evict.

        Takes the ``[4, n]`` arc block a
        :class:`~repro.serve.shard.ShardApplyResult` carries.
        """
        with self._lock:
            for key, arc, exec_index, _instr in zip(*transitions.tolist()):
                if arc == _SELECT:
                    self._deployed.add(key)
                    slot = self._slot(key)
                    if not self._dir[slot]:
                        self._armed += 1
                        self._armed_arr = None
                    self._dir[slot] = 3
                    self._onset[slot] = -1
                elif arc == _EVICT:
                    self._evict_marks.append(self._total_events)
                    if key not in self._deployed:
                        continue
                    self._deployed.remove(key)
                    slot = self._slot(key)
                    if self._dir[slot]:
                        self._dir[slot] = 0
                        self._armed -= 1
                        self._armed_arr = None
                    onset = int(self._onset[slot])
                    if onset >= 0:
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
