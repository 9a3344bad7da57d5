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
           "key_tenant", "key_pc", "pack_keys", "mix64", "sorted_unique",
           "stable_order"]

#: Bit position of the tenant id inside a packed key.
TENANT_SHIFT = 32
#: Highest tenant id: keeps ``pack_key`` results non-negative in int64.
MAX_TENANT = (1 << 31) - 1
#: Highest branch pc representable in the low half of a key.
MAX_PC = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
#: Bits a packed ``(key - min) << b | index`` sort word may use: it
#: stays non-negative in int64.
_PACK_BITS = 62


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


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(np.argsort(keys, kind="stable"), keys[order])``, faster.

    numpy's stable sort of int32 and int64 values is a timsort.  When
    the keys span fewer than ``2**16`` values (spec PCs), their offsets
    from the minimum sort as uint16, which numpy radix-sorts.  Else,
    when the span and the index fit together in 62 bits, each key's
    offset is packed above its index into one int64 and sorted with
    ``ndarray.sort()``, numpy's SIMD quicksort: the packed words are
    distinct, so the unstable sort yields exactly the stable order,
    read back from the low bits.  Otherwise it is the timsort.  The
    sorted keys keep the input dtype.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.intp), keys.copy()
    lo = keys.min()
    span = int(keys.max()) - int(lo)
    if span < 1 << 16:
        order = np.argsort((keys - lo).astype(np.uint16), kind="stable")
        return order, keys[order]
    b = (n - 1).bit_length()
    if span.bit_length() + b > _PACK_BITS:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = (keys.astype(np.int64) - np.int64(lo)) << np.int64(b)
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & np.int64((1 << b) - 1)
    packed >>= np.int64(b)
    packed += np.int64(lo)
    return order, packed.astype(keys.dtype, copy=False)
