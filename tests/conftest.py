"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.trace.stream import Trace


@pytest.fixture
def tiny_config() -> ControllerConfig:
    """A controller config with small thresholds for hand-traceable
    scenarios: monitor 4 executions, evict after 2 misspeculations
    (2 x 50 >= 100), revisit after 6 executions, no latency."""
    return ControllerConfig(
        monitor_period=4,
        selection_threshold=0.75,
        evict_counter_max=100,
        misspec_increment=50,
        correct_decrement=1,
        revisit_period=6,
        oscillation_limit=3,
        optimization_latency=0,
    )


def make_trace(branch_ids, taken, instr_stride: int = 8,
               name: str = "test") -> Trace:
    """Build a trace from explicit parallel event lists."""
    n = len(branch_ids)
    return Trace(
        name=name, input_name="test",
        branch_ids=np.asarray(branch_ids, dtype=np.int32),
        taken=np.asarray(taken, dtype=bool),
        instrs=np.arange(1, n + 1, dtype=np.int64) * instr_stride,
    )


@pytest.fixture
def make_trace_fn():
    return make_trace


def model_states(service) -> dict:
    """Every controller's export dict by packed branch key, resident
    and spilled alike: the model state a service's snapshot carries."""
    states = {s["branch"]: s for shard in
              service.bank.export_state()["shards"] for s in shard["bank"]}
    for spilled in service._export_tenants().values():
        states.update((s["branch"], s) for s in spilled)
    return states
