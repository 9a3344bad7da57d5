"""Writer semantics: rotation, fsync policies, repair-at-open, compaction."""

from __future__ import annotations

import pytest

from repro.wal.segment import (
    WalCorruptionError,
    list_segments,
    scan_segment,
    segment_name,
)
from repro.wal.writer import WalWriter
from tests.wal.conftest import make_batches


def test_append_scan_roundtrip(tmp_path):
    batches = make_batches(10, events=32)
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in batches:
            wal.append(batch)
        assert wal.last_seq == 9
    paths = list_segments(tmp_path)
    assert len(paths) == 1
    info = scan_segment(paths[0])
    assert (info.records, info.first_seq, info.last_seq) == (10, 0, 9)
    assert not info.torn


def test_segment_bytes_are_the_encoded_records(tmp_path):
    """The writer's one ``writev`` per record leaves exactly the bytes
    of the records packed field by field (length, CRC32, then the seq
    and count header, the int32 PC, uint8 outcome, int64 stamp and, for
    a tenant-bearing batch, uint32 tenant columns), and hands back the
    record's body for replication."""
    import struct
    import zlib

    import numpy as np

    from repro.serve.events import EventBatch
    from repro.wal.segment import HEADER, encode_record

    plain = make_batches(3, events=40)
    tenanted = [EventBatch(seq=b.seq + 3, pcs=b.pcs, taken=b.taken,
                           instrs=b.instrs + plain[-1].last_instr,
                           tenants=np.arange(40, dtype=np.uint32) % 3)
                for b in plain]
    records, bodies = [], []
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in plain + tenanted:
            flag = 0 if batch.tenants is None else 1 << 31
            body = (struct.pack("<QI", batch.seq, batch.n_events | flag)
                    + batch.pcs.astype(np.int32).tobytes()
                    + batch.taken.astype(np.uint8).tobytes()
                    + batch.instrs.astype(np.int64).tobytes()
                    + (b"" if batch.tenants is None
                       else batch.tenants.astype(np.uint32).tobytes()))
            record = struct.pack("<II", len(body), zlib.crc32(body)) + body
            assert encode_record(batch) == record
            records.append(record)
            bodies.append(b"".join(wal.append(batch)))
            assert bodies[-1] == body
    (path,) = list_segments(tmp_path)
    assert path.read_bytes()[HEADER.size:] == b"".join(records)


def test_rotation_names_segments_by_base_seq(tmp_path):
    batches = make_batches(12, events=64)
    record_bytes = 8 + 12 + 64 * 13  # framing + batch header + events
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=24 + 3 * record_bytes) as wal:
        for batch in batches:
            wal.append(batch)
    paths = list_segments(tmp_path)
    assert len(paths) == 4
    assert [p.name for p in paths] == [segment_name(s)
                                       for s in (0, 3, 6, 9)]
    for path in paths:
        info = scan_segment(path)
        assert info.base_seq == info.first_seq
        assert info.records == 3


def test_fsync_policy_watermarks(tmp_path):
    batches = make_batches(6)
    always = WalWriter(tmp_path / "always", fsync="always")
    for batch in batches:
        always.append(batch)
        assert always.last_durable_seq == batch.seq
    assert always.stats.fsyncs == len(batches)
    always.close()

    batch_wal = WalWriter(tmp_path / "batch", fsync="batch")
    for batch in batches:
        batch_wal.append(batch)
    assert batch_wal.last_durable_seq == -1
    assert batch_wal.pending_records == 6
    assert batch_wal.commit() == 5
    assert batch_wal.last_durable_seq == 5
    assert batch_wal.stats.commits == 1
    assert batch_wal.stats.committed_records == 6
    assert batch_wal.stats.mean_commit_records == 6.0
    # Nothing new appended: commit is a no-op, not another fsync.
    fsyncs = batch_wal.stats.fsyncs
    assert batch_wal.commit() == 5
    assert batch_wal.stats.fsyncs == fsyncs
    batch_wal.close()

    off = WalWriter(tmp_path / "off", fsync="off")
    for batch in batches:
        off.append(batch)
        assert off.last_durable_seq == batch.seq  # optimistic
    assert off.stats.fsyncs == 0
    off.close()


def test_reopen_resumes_and_refuses_stale_seqs(tmp_path):
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in make_batches(5):
            wal.append(batch)
    wal2 = WalWriter(tmp_path, fsync="off")
    assert wal2.last_seq == 4
    assert wal2.last_durable_seq == 4  # on disk = the replayable tail
    with pytest.raises(ValueError, match="not greater"):
        wal2.append(make_batches(1, start_seq=4)[0])
    wal2.append(make_batches(1, start_seq=5)[0])
    wal2.close()
    # Still one segment: the reopened writer appended in place.
    paths = list_segments(tmp_path)
    assert len(paths) == 1
    assert scan_segment(paths[0]).records == 6


def test_open_truncates_torn_tail_in_newest_segment(tmp_path):
    with WalWriter(tmp_path, fsync="off") as wal:
        for batch in make_batches(5):
            wal.append(batch)
    path = list_segments(tmp_path)[0]
    intact = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b"\x07" * 23)  # crash mid-append: partial record
    wal2 = WalWriter(tmp_path, fsync="off")
    assert wal2.stats.repaired_bytes == 23
    assert path.stat().st_size == intact
    assert wal2.last_seq == 4
    wal2.append(make_batches(1, start_seq=5)[0])
    wal2.close()
    assert scan_segment(path).records == 6


def test_open_refuses_torn_non_final_segment(tmp_path):
    record_bytes = 8 + 12 + 16 * 13
    with WalWriter(tmp_path, fsync="off",
                   segment_bytes=24 + 2 * record_bytes) as wal:
        for batch in make_batches(6):
            wal.append(batch)
    first = list_segments(tmp_path)[0]
    with open(first, "ab") as fh:
        fh.write(b"\x07" * 9)
    with pytest.raises(WalCorruptionError, match="non-final"):
        WalWriter(tmp_path, fsync="off")


def test_compact_deletes_fully_covered_segments(tmp_path):
    record_bytes = 8 + 12 + 16 * 13
    wal = WalWriter(tmp_path, fsync="off",
                    segment_bytes=24 + 2 * record_bytes)
    for batch in make_batches(7):
        wal.append(batch)
    # Segments: [0,1] [2,3] [4,5] [6 (active)].
    assert len(list_segments(tmp_path)) == 4
    deleted = wal.compact(3)
    assert [p.name for p in deleted] == [segment_name(0), segment_name(2)]
    assert [p.name for p in list_segments(tmp_path)] == [
        segment_name(4), segment_name(6)]
    # Covering everything rotates the active segment out too.
    wal.compact(6)
    assert list_segments(tmp_path) == []
    assert wal.stats.segments_compacted == 4
    # The log is empty but the seq watermark survives: stale appends
    # must still be refused after full compaction.
    with pytest.raises(ValueError, match="not greater"):
        wal.append(make_batches(1, start_seq=6)[0])
    wal.append(make_batches(1, start_seq=7)[0])
    assert scan_segment(list_segments(tmp_path)[0]).first_seq == 7
    wal.close()


def test_writer_validates_knobs(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        WalWriter(tmp_path, fsync="sometimes")
    with pytest.raises(ValueError, match="too small"):
        WalWriter(tmp_path, segment_bytes=10)
