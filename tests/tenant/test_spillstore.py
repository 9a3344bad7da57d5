"""The append-only spill log: put/get/pop, restart, compaction."""

import struct

import pytest

from repro.tenant.spillstore import SpillStore


def test_put_get_pop_remove(tmp_path):
    store = SpillStore(tmp_path)
    assert len(store) == 0
    assert store.get(7) is None
    assert store.pop(7) is None
    store.put(7, b"seven")
    store.put(8, b"eight")
    assert len(store) == 2
    assert 7 in store and 8 in store and 9 not in store
    assert store.get(7) == b"seven"
    assert store.get(7) == b"seven"  # get does not remove
    assert store.pop(7) == b"seven"
    assert 7 not in store
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


def test_restart_rebuilds_index(tmp_path):
    store = SpillStore(tmp_path)
    store.put(1, b"one")
    store.put(2, b"two")
    store.put(1, b"one-v2")  # the newest record must win on reload
    store.put(3, b"three")
    store.close()
    reopened = SpillStore(tmp_path)
    assert len(reopened) == 3
    assert reopened.get(1) == b"one-v2"
    assert reopened.get(2) == b"two"
    assert reopened.get(3) == b"three"
    reopened.close()


def test_restart_drops_torn_tail(tmp_path):
    store = SpillStore(tmp_path)
    store.put(1, b"intact")
    store.close()
    # Simulate a crash mid-append: a full header promising more bytes
    # than the file holds.
    with open(tmp_path / "spill.log", "ab") as fh:
        fh.write(struct.pack("<II", 9, 1000))
        fh.write(b"only-a-few")
    reopened = SpillStore(tmp_path)
    assert reopened.get(1) == b"intact"
    assert 9 not in reopened
    # Records put after the reopen must not land behind the torn
    # bytes, where the next reopen would read the torn header's length
    # across them (and find a 1000-byte "blob" for tenant 9).
    four, five = b"4" * 600, b"5" * 600
    reopened.put(4, four)
    reopened.put(5, five)
    reopened.close()
    again = SpillStore(tmp_path)
    assert sorted(again.tenants()) == [1, 4, 5]
    assert again.get(1) == b"intact"
    assert again.get(4) == four
    assert again.get(5) == five
    again.close()


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


def test_compaction_survives_restart(tmp_path):
    store = SpillStore(tmp_path)
    for t in range(10):
        store.put(t, bytes([t]) * 100)
    store.compact()
    store.close()
    reopened = SpillStore(tmp_path)
    assert len(reopened) == 10
    for t in range(10):
        assert reopened.get(t) == bytes([t]) * 100
    reopened.close()


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
