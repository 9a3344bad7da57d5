"""Packed ``(tenant, pc)`` int64 keys.

The whole multi-tenant design rides one representation choice: a
controller's identity is a single int64, ``(tenant << 32) | pc``.  The
engines — :class:`~repro.serve.colpath.ColumnarBank` row interning, the
SplitMix64 shard router, the decision caches — already key by int, so
widening the key space costs them nothing and they never learn tenants
exist.

The split is 32/32 rather than the 16/48 a "tenant tag" might suggest:
the scaling gate sweeps to a million tenants and 16 bits cap out at
65,536.  With 32 bits each, tenant ids up to ``2**31 - 1`` keep the
packed key non-negative (so it stores in the int64 columns and JSON
snapshots without sign games), and tenant 0's keys are numerically
equal to the bare PCs — which is exactly what makes every legacy
single-tenant artifact (wire frames, WAL records, snapshots) decode as
tenant 0 bit-identically, for free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TENANT_SHIFT", "MAX_TENANT", "MAX_PC", "pack_key",
           "key_tenant", "key_pc", "pack_keys", "mix64", "sorted_unique"]

#: Bit position of the tenant id inside a packed key.
TENANT_SHIFT = 32
#: Highest tenant id: keeps ``pack_key`` results non-negative in int64.
MAX_TENANT = (1 << 31) - 1
#: Highest branch pc representable in the low half of a key.
MAX_PC = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def pack_key(tenant: int, pc: int) -> int:
    """The int64 controller key of branch ``pc`` in ``tenant``."""
    if not 0 <= tenant <= MAX_TENANT:
        raise ValueError(f"tenant {tenant} out of range 0..{MAX_TENANT}")
    if not 0 <= pc <= MAX_PC:
        raise ValueError(f"pc {pc} out of range 0..{MAX_PC}")
    return (tenant << TENANT_SHIFT) | pc


def key_tenant(key: int) -> int:
    """The tenant id a packed key belongs to."""
    return key >> TENANT_SHIFT


def key_pc(key: int) -> int:
    """The branch pc inside a packed key."""
    return key & MAX_PC


def pack_keys(tenants: np.ndarray, pcs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_key` over parallel arrays (int64 out)."""
    return ((tenants.astype(np.int64) << np.int64(TENANT_SHIFT))
            | pcs.astype(np.int64))


def mix64(key: int) -> int:
    """SplitMix64 finalizer of a packed key: the avalanche behind shard
    routing (:func:`repro.serve.shard.shard_of`) and transition-trace
    sampling (:class:`repro.obs.tracing.TransitionTrace`)."""
    x = (key + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct elements of ``values``, by sorting.

    A plain ``np.unique`` (no ``return_*`` flag) takes a hash path on
    recent numpy (measured on 2.4.6) that is about ten times slower
    than sorting on packed key arrays, so the per-batch bookkeeping
    uses this form.
    """
    ordered = np.sort(values)
    distinct = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]
