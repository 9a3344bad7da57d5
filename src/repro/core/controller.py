"""The reactive speculation controller (Section 3 of the paper).

:class:`ReactiveBranchController` implements the per-branch classifier of
Figure 4(b) with the parameters of Table 2, including every variant used
by the sensitivity analysis.  :class:`ControllerBank` aggregates one
controller per static branch and is the object a simulator drives.

Deployment model
----------------
The FSM decides *what the code should be*; a small deployment queue
tracks *what the code currently is*, because re-optimization has latency
(Section 3.1, "Optimization latency").  A ``SELECT`` transition requests
speculative code that lands ``optimization_latency`` instructions later;
an ``EVICT`` requests repaired (non-speculative) code likewise.  Requests
are queued and each lands at its own time, mirroring an optimizer that
deploys every fragment it finishes.  Correct/incorrect speculations are
counted whenever the *deployed* code is speculative, regardless of the
FSM state — exactly the paper's accounting: after selection, counting
starts only once the new code lands; after eviction, counting continues
until the repaired fragment lands.  The eviction machinery, by contrast,
only runs while the current biased episode's code is actually deployed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.config import ControllerConfig
from repro.core.states import BranchState, Transition, TransitionKind

__all__ = ["SpeculationOutcome", "ReactiveBranchController", "ControllerBank"]


@dataclass(frozen=True)
class SpeculationOutcome:
    """Result of observing one dynamic branch execution.

    ``speculated`` is True when the deployed code speculates on this
    branch; ``correct`` is then True for a correct speculation and False
    for a misspeculation (it is False and meaningless when
    ``speculated`` is False).
    """

    speculated: bool
    correct: bool

    @property
    def misspeculated(self) -> bool:
        return self.speculated and not self.correct


_NOT_SPECULATED = SpeculationOutcome(speculated=False, correct=False)


class ReactiveBranchController:
    """Reactive classifier for a single static branch (Figure 4b).

    Drive it by calling :meth:`observe` once per dynamic execution of the
    branch, in program order, with the branch outcome and the global
    instruction count at that execution.
    """

    __slots__ = (
        "config", "branch", "state", "exec_count", "_state_entry_exec",
        "_monitor_taken", "_monitor_samples", "_counter",
        "_bias_entries", "_deployed", "_deployed_direction",
        "_pending", "_episode_active",
        "_window_correct", "_window_pos",
        "correct", "incorrect", "evictions", "transitions",
    )

    def __init__(self, config: ControllerConfig, branch: int = 0) -> None:
        self.config = config
        self.branch = branch
        self.state = BranchState.MONITOR
        self.exec_count = 0
        self._state_entry_exec = 0          # exec index at state entry
        self._monitor_taken = 0             # sampled taken outcomes
        self._monitor_samples = 0           # sampled outcomes
        self._counter = 0                   # eviction saturating counter
        self._bias_entries = 0              # times BIASED was entered
        # Deployment queue: (lands_at_instr, speculative, direction),
        # FIFO; each request lands at its own time.
        self._deployed = False              # speculative code deployed?
        self._deployed_direction = False    # direction of deployed code
        self._pending: list[tuple[int, bool, bool]] = []
        self._episode_active = False        # current episode's code landed
        # Eviction-by-sampling bookkeeping.
        self._window_correct = 0
        self._window_pos = 0
        # Statistics.
        self.correct = 0
        self.incorrect = 0
        self.evictions = 0
        self.transitions: list[Transition] = []

    # ------------------------------------------------------------------
    @property
    def ever_biased(self) -> bool:
        """True if this branch has entered the biased state at least once."""
        return self._bias_entries > 0

    @property
    def bias_entries(self) -> int:
        return self._bias_entries

    @property
    def ever_evicted(self) -> bool:
        return self.evictions > 0

    @property
    def deployed(self) -> bool:
        """True when the *currently deployed* code speculates (ignoring
        pending re-optimizations that have not landed)."""
        return self._deployed

    def speculating_at(self, instr: int) -> bool:
        """Would an execution at global instruction ``instr`` run
        speculative code?  (Accounts for pending deployments.)"""
        value = self._deployed
        for when, speculative, _direction in self._pending:
            if instr >= when:
                value = speculative
        return value

    # ------------------------------------------------------------------
    def observe(self, taken: bool, instr: int) -> SpeculationOutcome:
        """Process one dynamic execution; returns the speculation outcome."""
        exec_idx = self.exec_count
        self.exec_count += 1

        # 1. Land any pending re-optimizations due by now (FIFO).
        if self._pending:
            self._land_due(instr)

        # 2. Account for the deployed code.
        if self._deployed:
            correct = taken == self._deployed_direction
            if correct:
                self.correct += 1
            else:
                self.incorrect += 1
            outcome = SpeculationOutcome(speculated=True, correct=correct)
        else:
            correct = False
            outcome = _NOT_SPECULATED

        # 3. Run the FSM.
        if self.state is BranchState.MONITOR:
            self._step_monitor(taken, exec_idx, instr)
        elif self.state is BranchState.BIASED:
            if self._episode_active:
                self._step_biased(correct, exec_idx, instr)
        elif self.state is BranchState.UNBIASED:
            self._step_unbiased(exec_idx, instr)
        # DISABLED: nothing to do.
        return outcome

    # ------------------------------------------------------------------
    def _land_due(self, instr: int) -> None:
        """Land every pending re-optimization due at ``instr`` (FIFO)."""
        while self._pending and instr >= self._pending[0][0]:
            _when, speculative, direction = self._pending.pop(0)
            self._deployed = speculative
            if speculative:
                self._deployed_direction = direction
                self._episode_active = True
                self._window_correct = 0
                self._window_pos = 0

    def _step_monitor(self, taken: bool, exec_idx: int, instr: int) -> None:
        cfg = self.config
        offset = exec_idx - self._state_entry_exec
        if offset % cfg.monitor_sample_stride == 0:
            self._monitor_samples += 1
            if taken:
                self._monitor_taken += 1
        if offset + 1 >= cfg.monitor_period:
            self._classify_monitor(exec_idx, instr)

    def _classify_monitor(self, exec_idx: int, instr: int) -> None:
        """Monitor period complete: classify the branch."""
        cfg = self.config
        taken_count = self._monitor_taken
        samples = self._monitor_samples
        majority = max(taken_count, samples - taken_count)
        bias = majority / samples
        direction = taken_count * 2 >= samples  # ties resolve to taken
        if bias >= cfg.selection_threshold:
            if self._bias_entries >= cfg.oscillation_limit:
                self._enter(BranchState.DISABLED, TransitionKind.DISABLE,
                            exec_idx, instr)
            else:
                self._bias_entries += 1
                self._episode_active = False
                self._schedule_deploy(True, instr, direction)
                self._enter(BranchState.BIASED, TransitionKind.SELECT,
                            exec_idx, instr)
        else:
            self._enter(BranchState.UNBIASED, TransitionKind.REJECT,
                        exec_idx, instr)

    def _step_biased(self, correct: bool, exec_idx: int, instr: int) -> None:
        cfg = self.config
        if not cfg.eviction_enabled:
            return
        if cfg.evict_by_sampling:
            self._step_biased_sampling(correct, exec_idx, instr)
            return
        if correct:
            if self._counter > 0:
                self._counter = max(0, self._counter - cfg.correct_decrement)
        else:
            self._counter = min(cfg.evict_counter_max,
                                self._counter + cfg.misspec_increment)
            if self._counter >= cfg.evict_counter_max:
                self._evict(exec_idx, instr)

    def _step_biased_sampling(self, correct: bool, exec_idx: int,
                              instr: int) -> None:
        """Periodic re-sampling eviction (sensitivity experiment 2).

        Within each window of ``evict_sample_period`` speculated
        executions, the first ``evict_sample_len`` are sampled; when the
        sample completes, the branch is evicted if the fraction matching
        the locked direction fell below ``evict_bias_threshold``.
        """
        cfg = self.config
        pos = self._window_pos
        self._window_pos = (pos + 1) % cfg.evict_sample_period
        if pos >= cfg.evict_sample_len:
            return
        if correct:
            self._window_correct += 1
        if pos + 1 == cfg.evict_sample_len:
            window_bias = self._window_correct / cfg.evict_sample_len
            self._window_correct = 0
            if window_bias < cfg.evict_bias_threshold:
                self._evict(exec_idx, instr)

    def _step_unbiased(self, exec_idx: int, instr: int) -> None:
        cfg = self.config
        if not cfg.revisit_enabled:
            return
        if exec_idx - self._state_entry_exec + 1 >= cfg.revisit_period:
            self._enter(BranchState.MONITOR, TransitionKind.REVISIT,
                        exec_idx, instr)

    # ------------------------------------------------------------------
    def _evict(self, exec_idx: int, instr: int) -> None:
        self.evictions += 1
        self._episode_active = False
        self._schedule_deploy(False, instr, self._deployed_direction)
        self._enter(BranchState.MONITOR, TransitionKind.EVICT, exec_idx, instr)

    def _schedule_deploy(self, speculative: bool, instr: int,
                         direction: bool) -> None:
        latency = self.config.optimization_latency
        # With zero latency the new code still cannot affect the current
        # execution; it lands before the next one (stamps strictly grow).
        when = instr + (latency if latency > 0 else 1)
        self._pending.append((when, speculative, direction))

    def _enter(self, state: BranchState, kind: TransitionKind,
               exec_idx: int, instr: int) -> None:
        self.state = state
        self._state_entry_exec = exec_idx + 1
        if state is BranchState.MONITOR:
            self._monitor_taken = 0
            self._monitor_samples = 0
        if state is BranchState.BIASED:
            self._counter = 0
        self.transitions.append(
            Transition(self.branch, kind, exec_idx, instr))

    # -- snapshot hooks -------------------------------------------------
    def export_state(self) -> dict:
        """Full mutable state as JSON-serializable plain types.

        Together with the (immutable) config this captures everything
        :meth:`observe` reads or writes, so a controller restored via
        :meth:`from_state` continues bit-identically.
        """
        return {
            "branch": int(self.branch),
            "state": self.state.value,
            "exec_count": int(self.exec_count),
            "state_entry_exec": int(self._state_entry_exec),
            "monitor_taken": int(self._monitor_taken),
            "monitor_samples": int(self._monitor_samples),
            "counter": int(self._counter),
            "bias_entries": int(self._bias_entries),
            "deployed": bool(self._deployed),
            "deployed_direction": bool(self._deployed_direction),
            "pending": [[int(w), bool(s), bool(d)]
                        for w, s, d in self._pending],
            "episode_active": bool(self._episode_active),
            "window_correct": int(self._window_correct),
            "window_pos": int(self._window_pos),
            "correct": int(self.correct),
            "incorrect": int(self.incorrect),
            "evictions": int(self.evictions),
            "transitions": [[t.kind.value, int(t.exec_index), int(t.instr)]
                            for t in self.transitions],
        }

    @classmethod
    def from_state(cls, config: ControllerConfig,
                   state: dict) -> "ReactiveBranchController":
        """Rebuild a controller from :meth:`export_state` output."""
        ctrl = cls(config, int(state["branch"]))
        ctrl.state = BranchState(state["state"])
        ctrl.exec_count = int(state["exec_count"])
        ctrl._state_entry_exec = int(state["state_entry_exec"])
        ctrl._monitor_taken = int(state["monitor_taken"])
        ctrl._monitor_samples = int(state["monitor_samples"])
        ctrl._counter = int(state["counter"])
        ctrl._bias_entries = int(state["bias_entries"])
        ctrl._deployed = bool(state["deployed"])
        ctrl._deployed_direction = bool(state["deployed_direction"])
        ctrl._pending = [(int(w), bool(s), bool(d))
                         for w, s, d in state["pending"]]
        ctrl._episode_active = bool(state["episode_active"])
        ctrl._window_correct = int(state["window_correct"])
        ctrl._window_pos = int(state["window_pos"])
        ctrl.correct = int(state["correct"])
        ctrl.incorrect = int(state["incorrect"])
        ctrl.evictions = int(state["evictions"])
        ctrl.transitions = [
            Transition(ctrl.branch, TransitionKind(k), int(e), int(i))
            for k, e, i in state["transitions"]]
        return ctrl


class ControllerBank:
    """One :class:`ReactiveBranchController` per static branch.

    Controllers are created lazily on first observation, mirroring a
    dynamic optimizer that only tracks branches it has seen execute.
    """

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        self._controllers: dict[int, ReactiveBranchController] = {}

    def observe(self, branch: int, taken: bool, instr: int) -> SpeculationOutcome:
        ctrl = self._controllers.get(branch)
        if ctrl is None:
            ctrl = ReactiveBranchController(self.config, branch)
            self._controllers[branch] = ctrl
        return ctrl.observe(taken, instr)

    def controller(self, branch: int) -> ReactiveBranchController:
        """The controller for ``branch`` (created if absent)."""
        ctrl = self._controllers.get(branch)
        if ctrl is None:
            ctrl = ReactiveBranchController(self.config, branch)
            self._controllers[branch] = ctrl
        return ctrl

    def __len__(self) -> int:
        return len(self._controllers)

    def __iter__(self) -> Iterator[ReactiveBranchController]:
        return iter(self._controllers.values())

    def __contains__(self, branch: int) -> bool:
        return branch in self._controllers

    def speculated_branches(self, instr: int) -> set[int]:
        """Branches whose deployed code speculates at instruction ``instr``."""
        return {b for b, c in self._controllers.items()
                if c.speculating_at(instr)}

    # -- snapshot hooks -------------------------------------------------
    def export_state(self) -> list[dict]:
        """Per-controller states, ordered by branch id."""
        return [self._controllers[b].export_state()
                for b in sorted(self._controllers)]

    @classmethod
    def from_state(cls, config: ControllerConfig,
                   states: list[dict]) -> "ControllerBank":
        """Rebuild a bank from :meth:`export_state` output."""
        bank = cls(config)
        for state in states:
            ctrl = ReactiveBranchController.from_state(config, state)
            bank._controllers[ctrl.branch] = ctrl
        return bank
