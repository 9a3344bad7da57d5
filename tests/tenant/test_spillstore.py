"""The append-only spill log: put/get/remove, reopen, compaction."""

import pytest

from repro.tenant.spillstore import SpillStore


def test_put_get_remove(tmp_path):
    store = SpillStore(tmp_path)
    assert len(store) == 0
    assert store.get(7) is None
    store.put(7, b"seven")
    store.put(8, b"eight")
    assert len(store) == 2
    assert 7 in store and 8 in store and 9 not in store
    assert store.get(7) == b"seven"
    assert store.get(7) == b"seven"  # get does not remove
    store.remove(7)
    assert 7 not in store and store.get(7) is None
    store.remove(8)
    store.remove(8)  # idempotent
    assert len(store) == 0
    store.close()


def test_put_supersedes_previous_blob(tmp_path):
    store = SpillStore(tmp_path)
    store.put(3, b"old-state")
    store.put(3, b"new")
    assert store.get(3) == b"new"
    assert len(store) == 1
    assert store.dead_bytes > 0  # the superseded record is garbage
    store.close()


def test_export_returns_all_live_blobs(tmp_path):
    store = SpillStore(tmp_path)
    blobs = {t: bytes([t]) * (t + 1) for t in range(5)}
    for t, blob in blobs.items():
        store.put(t, blob)
    store.remove(2)
    del blobs[2]
    assert store.export() == blobs
    store.close()


def test_reopened_store_is_empty(tmp_path):
    """The log is process scratch: a store opened where an earlier one
    left records starts empty (spilled tenants survive a restart only
    through a snapshot), and the old bytes cannot leak into new reads."""
    store = SpillStore(tmp_path)
    store.put(1, b"one")
    store.put(2, b"two" * 400)
    store.close()
    reopened = SpillStore(tmp_path)
    assert len(reopened) == 0
    assert reopened.get(1) is None and reopened.get(2) is None
    assert (tmp_path / "spill.log").stat().st_size == 0
    reopened.put(3, b"three")
    assert reopened.get(3) == b"three"
    assert reopened.stats()["live_bytes"] == 8 + 5
    reopened.close()


def test_compaction_reclaims_garbage(tmp_path):
    store = SpillStore(tmp_path)
    blob = b"x" * 4096
    for _ in range(600):  # ~2.4 MB of superseded records
        store.put(1, blob)
    assert store.compactions >= 1
    assert store.get(1) == blob
    # Garbage is bounded by the compaction floor, not by put volume:
    # without reclamation the log would hold all ~2.4 MB of records.
    floor = 1 << 20
    assert store.dead_bytes <= floor + len(blob)
    assert (tmp_path / "spill.log").stat().st_size < floor + 2 * len(blob)
    store.close()


def test_compaction_keeps_every_live_blob(tmp_path):
    """Compaction re-indexes every live tenant into the rewritten log,
    and the store's reopened handles serve reads and later puts."""
    store = SpillStore(tmp_path)
    for t in range(10):
        store.put(t, bytes([t]) * 100)
    store.remove(4)
    store.compact()
    assert store.dead_bytes == 0
    assert sorted(store.tenants()) == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    for t in store.tenants():
        assert store.get(t) == bytes([t]) * 100
    store.put(10, b"after")
    assert store.get(10) == b"after"
    assert store.get(9) == bytes([9]) * 100
    store.close()


def test_oversized_blob_rejected(tmp_path):
    store = SpillStore(tmp_path)

    class _Huge(bytes):
        def __len__(self):
            return 1 << 28

    with pytest.raises(ValueError, match="record limit"):
        store.put(1, _Huge())
    store.close()


def test_stats(tmp_path):
    store = SpillStore(tmp_path)
    store.put(1, b"abc")
    store.put(2, b"defg")
    stats = store.stats()
    assert stats["spilled_tenants"] == 2
    assert stats["puts"] == 2
    assert stats["live_bytes"] == 2 * 8 + 3 + 4  # two headers + blobs
    store.close()
