"""Packed (tenant, pc) key representation.

The whole multi-tenant design hangs off one identity: tenant 0's
packed keys are numerically equal to bare PCs, which is what lets
every legacy single-tenant artifact decode as tenant 0 unchanged.
"""

import numpy as np
import pytest

from repro.tenant.keys import (
    MAX_PC,
    MAX_TENANT,
    TENANT_SHIFT,
    key_pc,
    key_tenant,
    pack_key,
    pack_keys,
    sorted_unique,
)


def test_pack_unpack_roundtrip():
    for tenant, pc in [(0, 0), (0, MAX_PC), (1, 42), (MAX_TENANT, MAX_PC),
                       (12345, 67890)]:
        key = pack_key(tenant, pc)
        assert key_tenant(key) == tenant
        assert key_pc(key) == pc


def test_tenant_zero_keys_are_the_bare_pcs():
    """The legacy-compat identity: tenant 0's key IS the pc."""
    for pc in (0, 1, 499, MAX_PC):
        assert pack_key(0, pc) == pc


def test_keys_are_nonnegative_int64():
    """MAX_TENANT is capped so keys never go negative (JSON/snapshot
    storage without sign games)."""
    key = pack_key(MAX_TENANT, MAX_PC)
    assert key > 0
    assert key < 2 ** 63
    assert np.int64(key) == key


def test_pack_key_bounds():
    with pytest.raises(ValueError, match="tenant"):
        pack_key(-1, 0)
    with pytest.raises(ValueError, match="tenant"):
        pack_key(MAX_TENANT + 1, 0)
    with pytest.raises(ValueError, match="pc"):
        pack_key(0, -1)
    with pytest.raises(ValueError, match="pc"):
        pack_key(0, MAX_PC + 1)


def test_pack_keys_matches_scalar():
    rng = np.random.default_rng(7)
    tenants = rng.integers(0, 10_000, 256).astype(np.uint32)
    pcs = rng.integers(0, 1 << 20, 256).astype(np.int32)
    keys = pack_keys(tenants, pcs)
    assert keys.dtype == np.int64
    expected = [pack_key(int(t), int(p)) for t, p in zip(tenants, pcs)]
    np.testing.assert_array_equal(keys, np.array(expected, dtype=np.int64))


def test_pack_keys_tenant_zero_identity():
    pcs = np.arange(100, dtype=np.int32)
    keys = pack_keys(np.zeros(100, dtype=np.uint32), pcs)
    np.testing.assert_array_equal(keys, pcs.astype(np.int64))


def test_shift_covers_full_pc_range():
    assert TENANT_SHIFT == 32
    assert pack_key(1, 0) == 1 << 32
    # Distinct tenants' key ranges never collide.
    assert pack_key(1, MAX_PC) < pack_key(2, 0)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.array([pack_key(3, 1), 5, pack_key(3, 1), 0,
              pack_key(MAX_TENANT, MAX_PC), 5]),
    np.array([4, 4, 1, 9, 1], dtype=np.uint32),
])
def test_sorted_unique_matches_np_unique(values):
    got = sorted_unique(values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, np.unique(values))
