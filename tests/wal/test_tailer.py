"""WalTailer: incremental live-log reads for the replication sender.

The tailer is read-side machinery with writer-grade obligations: it
must follow rotation, refuse to serve across a compacted gap, and
never emit a record whose bytes are still in flight.
"""

from __future__ import annotations

import pytest

from repro.serve.events import EventBatch
from repro.wal.reader import WalGapError, WalTailer
from repro.wal.segment import encode_record, list_segments
from repro.wal.writer import WalWriter
from tests.wal.conftest import batches_equal, make_batches

RECORD_BYTES = 8 + 12 + 16 * 13
SEGMENT_BYTES = 24 + 2 * RECORD_BYTES  # two records per segment


def _decode(records):
    return [EventBatch.from_bytes(payload) for _seq, payload in records]


def test_tail_sees_appends_incrementally(tmp_path):
    batches = make_batches(6)
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=SEGMENT_BYTES) as wal:
        with WalTailer(tmp_path) as tailer:
            assert tailer.poll() == []          # nothing written yet
            wal.append(batches[0])
            wal.append(batches[1])
            got = _decode(tailer.poll())
            assert [b.seq for b in got] == [0, 1]
            assert batches_equal(got[0], batches[0])
            assert tailer.poll() == []          # drained: no re-reads
            assert tailer.last_seq == 1
            # Keep appending across rotations; the tailer follows.
            for batch in batches[2:]:
                wal.append(batch)
            assert [b.seq for b in _decode(tailer.poll())] == [2, 3, 4, 5]
    assert len(list_segments(tmp_path)) > 1


def test_after_seq_resumes_mid_log(tmp_path):
    batches = make_batches(6)
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=SEGMENT_BYTES) as wal:
        for batch in batches:
            wal.append(batch)
    with WalTailer(tmp_path, after_seq=3) as tailer:
        assert [b.seq for b in _decode(tailer.poll())] == [4, 5]


def test_partial_in_flight_record_is_deferred(tmp_path):
    """A record whose bytes are mid-append must not be emitted until
    it is complete — the append-only contract's read side."""
    batches = make_batches(3)
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in batches[:2]:
            wal.append(batch)
    segment = list_segments(tmp_path)[-1]
    record = encode_record(batches[2])
    with WalTailer(tmp_path) as tailer:
        assert [b.seq for b in _decode(tailer.poll())] == [0, 1]
        with open(segment, "ab") as fh:
            fh.write(record[:10])               # torn mid-append...
        assert tailer.poll() == []              # ...not served
        with open(segment, "ab") as fh:
            fh.write(record[10:])               # append completes
        assert [b.seq for b in _decode(tailer.poll())] == [2]


def test_compacted_prefix_raises_gap(tmp_path):
    batches = make_batches(8)
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=SEGMENT_BYTES) as wal:
        for batch in batches:
            wal.append(batch)
        wal.compact(5)                          # drop seqs <= 5
        with WalTailer(tmp_path, after_seq=2) as tailer:
            with pytest.raises(WalGapError) as err:
                tailer.poll()
            assert err.value.last_seq == 2
            assert err.value.oldest_available == 6
        # A cursor past the horizon is fine: the gap is behind it.
        with WalTailer(tmp_path, after_seq=5) as tailer:
            assert [b.seq for b in _decode(tailer.poll())] == [6, 7]


def test_gap_error_survives_compaction_mid_tail(tmp_path):
    """Compaction while a tailer holds an open segment: the open fd
    keeps the current segment readable, but once the cursor needs a
    removed segment the tailer must report the gap, not invent data."""
    batches = make_batches(8)
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=SEGMENT_BYTES) as wal:
        for batch in batches[:4]:
            wal.append(batch)
        with WalTailer(tmp_path) as tailer:
            assert [b.seq for b in _decode(tailer.poll())] == [0, 1, 2, 3]
            for batch in batches[4:]:
                wal.append(batch)
            wal.compact(5)
            # The tailer is at seq 3; seqs 4..5 are gone with their
            # segments — it must not silently jump to 6.
            with pytest.raises(WalGapError):
                while True:
                    records = tailer.poll()
                    assert records, "tailer idled instead of reporting"


def test_small_polls_parse_one_read_in_place(tmp_path):
    """Polling a few records at a time walks one read of the segment:
    a poll that finds no new bytes neither re-reads the file nor copies
    the unparsed rest, and every record comes out once, in order."""
    batches = make_batches(7)
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in batches[:6]:
            wal.append(batch)
        with WalTailer(tmp_path) as tailer:
            assert [seq for seq, _p in tailer.poll(2)] == [0, 1]
            read = tailer._buf
            assert [seq for seq, _p in tailer.poll(2)] == [2, 3]
            assert tailer._buf is read
            wal.append(batches[6])
            got = _decode(tailer.poll(4))
            assert [b.seq for b in got] == [4, 5, 6]
            assert batches_equal(got[-1], batches[6])
            assert tailer.poll(4) == []
