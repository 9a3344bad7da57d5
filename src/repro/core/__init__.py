"""The paper's primary contribution: a reactive controller for software
speculation (Zilles & Neelakantam, CGO 2005, Sections 3-4).

Public surface:

* :class:`ControllerConfig` with :func:`paper_config` (Table 2 verbatim)
  and :func:`scaled_config` (this reproduction's scaled defaults).
* :class:`ReactiveBranchController` / :class:`ControllerBank` — the
  Figure 4(b) finite-state machine with eviction and revisit arcs,
  hysteresis, oscillation limiting, and optimization-latency modeling.
* :class:`BranchState`, :class:`Transition`.
* :func:`collect_transition_stats` — Table 3 style summaries.
"""

from repro.core.config import (
    SENSITIVITY_VARIANTS,
    ControllerConfig,
    paper_config,
    scaled_config,
)
from repro.core.controller import (
    ControllerBank,
    ReactiveBranchController,
    SpeculationOutcome,
)
from repro.core.states import BranchState, Transition, TransitionKind
from repro.core.stats import TransitionStats, collect_transition_stats

__all__ = [
    "BranchState",
    "ControllerBank",
    "ControllerConfig",
    "ReactiveBranchController",
    "SENSITIVITY_VARIANTS",
    "SpeculationOutcome",
    "Transition",
    "TransitionKind",
    "TransitionStats",
    "collect_transition_stats",
    "paper_config",
    "scaled_config",
]
