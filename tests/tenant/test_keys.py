"""Packed (tenant, pc) key representation.

The whole multi-tenant design hangs off one identity: tenant 0's
packed keys are numerically equal to bare PCs, which is what lets
every legacy single-tenant artifact decode as tenant 0 unchanged.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenant.keys import (
    MAX_PC,
    MAX_TENANT,
    TENANT_SHIFT,
    key_pc,
    key_tenant,
    pack_key,
    pack_keys,
    sorted_unique,
    stable_order,
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


# -- stable_order ------------------------------------------------------------
def _expected_path(keys: np.ndarray) -> str:
    """The sort :func:`stable_order` must take for ``keys``: the radix
    sort of uint16 offsets, the packed key-and-index sort, or the
    timsort."""
    if len(keys) == 0:
        return "none"
    span = int(keys.max()) - int(keys.min())
    if span < 1 << 16:
        return "radix"
    if span.bit_length() + (len(keys) - 1).bit_length() <= 62:
        return "packed"
    return "timsort"


def _ordered(keys: np.ndarray) -> str:
    """Run :func:`stable_order` on ``keys`` against the stable argsort,
    and return the sort it took: told apart by the ``np.argsort`` calls
    it makes (uint16 offsets, the keys themselves, or none)."""
    want = np.argsort(keys, kind="stable")
    calls = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    with mock.patch.object(np, "argsort", spy):
        order, ordered = stable_order(keys)
    np.testing.assert_array_equal(order, want)
    assert ordered.dtype == keys.dtype
    np.testing.assert_array_equal(ordered, keys[want])
    if not calls:
        return "none" if len(keys) == 0 else "packed"
    return "radix" if calls == [np.dtype(np.uint16)] else "timsort"


@st.composite
def _key_arrays(draw):
    """Keys of one dtype whose span sits at, below or above a path's
    edge, drawn from a few values so that ties (stability) abound."""
    dtype = draw(st.sampled_from((np.int32, np.int64, np.uint8)))
    k = draw(st.integers(0, 10))
    n = draw(st.sampled_from((0, 1, 1 << k, (1 << k) + 1)))
    info = np.iinfo(dtype)
    b = max(n - 1, 0).bit_length()
    widest = int(info.max) - int(info.min)
    span = min(widest, draw(st.sampled_from((
        0, 1, (1 << 16) - 1, 1 << 16, (1 << (62 - b)) - 1,
        1 << (62 - b), widest))))
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [lo, lo + span, *(lo + int(rng.integers(0, span, endpoint=True,
                                                    dtype=np.uint64))
                             for _ in range(3))]
    keys = np.array(rng.choice(np.array(pool, dtype=object), n).tolist()
                    if n else [], dtype=dtype)
    if n >= 2:
        keys[rng.integers(0, n)] = lo
        keys[rng.integers(0, n)] = lo + span
    return keys


@settings(max_examples=300, deadline=None)
@given(_key_arrays())
def test_stable_order_is_the_stable_argsort(keys):
    """``stable_order`` returns ``np.argsort(keys, kind="stable")`` and
    ``keys[order]`` in the input dtype, by the sort its span picks."""
    assert _ordered(keys) == _expected_path(keys)


@pytest.mark.parametrize("dtype, values, path", [
    (np.int64, [], "none"),
    (np.int32, [7], "radix"),
    (np.uint8, [255, 0, 255, 3, 0], "radix"),
    (np.int32, [-5, -5, -7, -6, -5], "radix"),
    (np.int64, [4] * 9, "radix"),
    # The 2**16 edge: a span of 2**16 - 1 still fits uint16 offsets.
    (np.int32, [-3, (1 << 16) - 4, 0, -3], "radix"),
    (np.int32, [-3, (1 << 16) - 3, 0, -3], "packed"),
    (np.int64, [pack_key(5, 9), 3, pack_key(5, 9), 3, 0], "packed"),
    # The 62-bit edge for two keys (one index bit): a 61-bit span packs,
    # a 62-bit one does not.
    (np.int64, [(1 << 61) - 1, 0], "packed"),
    (np.int64, [1 << 61, 0], "timsort"),
    (np.int64, [-(1 << 62), 1 << 62, -(1 << 62)], "timsort"),
])
def test_stable_order_takes_each_path(dtype, values, path):
    keys = np.array(values, dtype=dtype)
    assert _expected_path(keys) == path
    assert _ordered(keys) == path
