"""Branch-behavior patterns.

A pattern maps each dynamic execution of a static branch to a probability
of being taken.  Patterns see two clocks, matching how the paper discusses
behavior: the branch's own execution index (Figure 3 plots bias against
per-branch instance counts; the induction-variable example flips at
execution 32,768) and the global instruction counter (Figure 9's
correlated groups change together in *program* time).

All patterns are deterministic functions of those clocks; the only
randomness in a trace comes from the generator drawing outcomes against
the returned probabilities, so a probability of exactly 0.0 or 1.0 yields
a perfectly biased branch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BehaviorPattern",
    "ConstantBias",
    "StepChange",
    "MultiPhase",
    "LinearDrift",
    "PeriodicBias",
    "BurstNoise",
    "PhaseSchedule",
    "GlobalPhase",
    "induction_flip",
    "train_then_flip",
    "slow_poison",
]


class BehaviorPattern(ABC):
    """Probability-of-taken as a function of the two clocks."""

    @abstractmethod
    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        """Vectorized probability of 'taken'.

        Parameters
        ----------
        exec_idx:
            Per-branch execution indices (0-based, int64).
        instr:
            Global instruction counts at those executions (int64).

        Returns
        -------
        float64 array of probabilities in ``[0, 1]``, same shape.
        """

    def flipped(self) -> "BehaviorPattern":
        """The same behavior with taken/not-taken swapped."""
        return _Flipped(self)


@dataclass(frozen=True)
class _Flipped(BehaviorPattern):
    inner: BehaviorPattern

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        return 1.0 - self.inner.p_taken(exec_idx, instr)

    def flipped(self) -> BehaviorPattern:
        return self.inner


def _check_probability(p: float, name: str = "p") -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class ConstantBias(BehaviorPattern):
    """A branch whose taken-probability never changes — the common case;
    most highly-biased branches 'exhibit that behavior for their whole
    lifetimes' (Section 2.2)."""

    p: float

    def __post_init__(self) -> None:
        _check_probability(self.p)

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        return np.full(exec_idx.shape, self.p, dtype=np.float64)


@dataclass(frozen=True)
class StepChange(BehaviorPattern):
    """An abrupt change at a per-branch execution index.

    ``StepChange(0.0, 1.0, 32768)`` is the paper's induction-variable
    branch: false for its first 32,768 executions, then true forever.
    """

    before: float
    after: float
    change_at: int

    def __post_init__(self) -> None:
        _check_probability(self.before, "before")
        _check_probability(self.after, "after")
        if self.change_at < 0:
            raise ValueError("change_at must be non-negative")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        return np.where(exec_idx < self.change_at, self.before, self.after)


def induction_flip(change_at: int = 32_768) -> StepChange:
    """The loop-induction-variable branch from Section 2.3: perfectly
    not-taken until ``change_at`` executions, perfectly taken after."""
    return StepChange(0.0, 1.0, change_at)


def train_then_flip(train_for: int = 4_096,
                    p_train: float = 1.0) -> StepChange:
    """The adversarial pattern for the reactive controller: behave
    perfectly biased (``p_train``) for exactly ``train_for`` executions
    — long enough for the monitor to select the branch for speculation
    — then flip to the opposite bias forever.

    Every post-flip execution is a misspeculation until the eviction
    counter reacts, so a group of such branches flipping together is
    the worst case the misspeculation-health detectors (``/health``,
    ``python -m repro.obs top``) must flag, and the distance from the
    flip to the EVICT arc is the controller's exact time-to-evict.
    """
    _check_probability(p_train, "p_train")
    return StepChange(p_train, 1.0 - p_train, train_for)


def slow_poison(train_for: int = 4_096,
                misspec_increment: int = 50,
                correct_decrement: int = 1,
                margin: float = 0.9,
                p_train: float = 1.0) -> StepChange:
    """Train-then-*soften*: the stealthy sibling of
    :func:`train_then_flip`.

    The branch trains perfectly biased for ``train_for`` executions,
    then softens to a steady miss rate tuned to sit just *under* the
    eviction counter's drift threshold.  The counter random-walks
    ``+misspec_increment`` per miss and ``-correct_decrement`` per hit
    (floored at zero), so its drift is non-positive — i.e. it never
    reaches ``evict_counter_max`` in expectation — exactly when the
    miss rate stays below ``correct_decrement / (correct_decrement +
    misspec_increment)``.  ``margin`` scales the miss rate to that
    fraction of break-even (1.0 = exactly break-even; above 1.0 the
    walk drifts up and eventually evicts, just slowly).

    This is the adversary the paper's hysteresis *tolerates by design*:
    the branch pays a misspeculation tax while the controller keeps it
    deployed.  Negative drift bounds the walk's mean, not its
    excursions, so eviction is slowed, not prevented: at the default
    margin under :func:`~repro.core.config.scaled_config` (ten misses
    take an empty counter to its ceiling),
    ``slow_poison_trace(64, 4096)`` fed through a 1-shard
    :class:`~repro.serve.shard.ShardedBank` in 8,192-event batches
    evicted 128 of 256 branches over seeds 0-3, with the median first
    EVICT at execution ~8,350.  It stresses the detectors (the window
    misspec rate rises long before any EVICT) and the columnar
    engine's eviction-walk scan (windows bear misses that mostly do
    not cross the threshold).
    """
    _check_probability(p_train, "p_train")
    if misspec_increment <= 0 or correct_decrement <= 0:
        raise ValueError("counter steps must be positive")
    if margin < 0.0:
        raise ValueError("margin must be non-negative")
    break_even = correct_decrement / (correct_decrement + misspec_increment)
    miss = margin * break_even
    if not 0.0 <= miss <= 1.0:
        raise ValueError(f"margin {margin} puts the miss rate at {miss}, "
                         "outside [0, 1]")
    # Misses are relative to the *trained* direction: taken when
    # p_train >= 0.5, else not-taken.
    if p_train >= 0.5:
        p_soft = 1.0 - miss
    else:
        p_soft = miss
    return StepChange(p_train, p_soft, train_for)


@dataclass(frozen=True)
class MultiPhase(BehaviorPattern):
    """Piecewise-constant behavior over per-branch execution count.

    ``segments`` is a sequence of ``(length, p)`` pairs; the final
    segment's probability extends to infinity regardless of its length.
    This expresses the assorted shapes of Figure 3.
    """

    segments: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("MultiPhase requires at least one segment")
        for length, p in self.segments:
            if length <= 0:
                raise ValueError("segment lengths must be positive")
            _check_probability(p, "segment p")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        lengths = np.array([s[0] for s in self.segments], dtype=np.int64)
        probs = np.array([s[1] for s in self.segments], dtype=np.float64)
        boundaries = np.cumsum(lengths)[:-1]
        idx = np.searchsorted(boundaries, exec_idx, side="right")
        return probs[idx]


@dataclass(frozen=True)
class LinearDrift(BehaviorPattern):
    """Bias that 'softens': constant at ``start_p`` until ``drift_start``,
    then linearly drifting to ``end_p`` over ``drift_len`` executions
    (Figure 6's most common post-eviction behavior)."""

    start_p: float
    end_p: float
    drift_start: int
    drift_len: int

    def __post_init__(self) -> None:
        _check_probability(self.start_p, "start_p")
        _check_probability(self.end_p, "end_p")
        if self.drift_start < 0 or self.drift_len <= 0:
            raise ValueError("drift_start must be >= 0 and drift_len > 0")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        frac = (exec_idx - self.drift_start) / self.drift_len
        frac = np.clip(frac, 0.0, 1.0)
        return self.start_p + frac * (self.end_p - self.start_p)


@dataclass(frozen=True)
class PeriodicBias(BehaviorPattern):
    """Alternating behavior regimes in per-branch execution count.

    Models the branches the paper's reactive model exploits but static
    self-training cannot: e.g. the middle branch of Figure 3 averages
    ~60% bias overall but consists of two highly-biased regions.
    """

    p_a: float
    p_b: float
    len_a: int
    len_b: int
    phase_offset: int = 0

    def __post_init__(self) -> None:
        _check_probability(self.p_a, "p_a")
        _check_probability(self.p_b, "p_b")
        if self.len_a <= 0 or self.len_b <= 0:
            raise ValueError("phase lengths must be positive")
        if self.phase_offset < 0:
            raise ValueError("phase_offset must be non-negative")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        pos = (exec_idx + self.phase_offset) % (self.len_a + self.len_b)
        return np.where(pos < self.len_a, self.p_a, self.p_b)


@dataclass(frozen=True)
class BurstNoise(BehaviorPattern):
    """A base behavior interrupted by short bursts of misbehavior.

    Every ``burst_period`` executions, ``burst_len`` executions follow
    ``burst_p`` instead of the base pattern.  This is the behavior the
    eviction counter's hysteresis exists to tolerate ('short bursts of
    misspeculations by otherwise biased branches', Section 3.1).
    """

    base: BehaviorPattern
    burst_period: int
    burst_len: int
    burst_p: float

    def __post_init__(self) -> None:
        if self.burst_len <= 0 or self.burst_period <= self.burst_len:
            raise ValueError("need 0 < burst_len < burst_period")
        _check_probability(self.burst_p, "burst_p")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        base_p = self.base.p_taken(exec_idx, instr)
        in_burst = (exec_idx % self.burst_period) >= (
            self.burst_period - self.burst_len)
        return np.where(in_burst, self.burst_p, base_p)


@dataclass(frozen=True)
class PhaseSchedule:
    """A global-time phase schedule shared by a correlated group.

    ``boundaries`` are instruction counts at which the phase toggles;
    phase 0 runs from instruction 0 to ``boundaries[0]``, phase 1 to
    ``boundaries[1]``, and so on (phases alternate 0/1/0/1...).
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= 0 for b in self.boundaries):
            raise ValueError("boundaries must be positive")
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("boundaries must be sorted ascending")

    def phase(self, instr: np.ndarray) -> np.ndarray:
        """0/1 phase indicator for each instruction count."""
        bounds = np.asarray(self.boundaries, dtype=np.int64)
        return (np.searchsorted(bounds, instr, side="right") % 2).astype(np.int64)


@dataclass(frozen=True)
class GlobalPhase(BehaviorPattern):
    """Behavior keyed to a shared :class:`PhaseSchedule`.

    All branches constructed with the same schedule change behavior at
    the same global instants — the correlated groups of Figure 9.
    """

    schedule: PhaseSchedule
    p_phase0: float
    p_phase1: float

    def __post_init__(self) -> None:
        _check_probability(self.p_phase0, "p_phase0")
        _check_probability(self.p_phase1, "p_phase1")

    def p_taken(self, exec_idx: np.ndarray, instr: np.ndarray) -> np.ndarray:
        phase = self.schedule.phase(instr)
        return np.where(phase == 0, self.p_phase0, self.p_phase1)
