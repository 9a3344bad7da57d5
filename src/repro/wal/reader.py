"""Replay side of the WAL: ordered iteration over every intact record.

:class:`WalReader` walks a WAL directory's segments in base-sequence
order and yields their records as :class:`~repro.serve.events
.EventBatch` objects, enforcing the global invariant the writer
maintained — strictly increasing sequence numbers across segment
boundaries.

Damage policy mirrors the crash model:

* a torn record at the very tail of the *newest* segment is what a
  crash mid-append leaves behind — iteration stops cleanly before it
  and :attr:`WalReader.torn_tail` reports what was dropped;
* the same damage anywhere else means acknowledged events are missing
  from the middle of the log, and raises
  :class:`~repro.wal.segment.WalCorruptionError` rather than silently
  replaying around a hole.

:class:`WalTailer` is the *streaming* counterpart: an incremental
cursor over a WAL directory that a **live** writer is still appending
to.  Each :meth:`~WalTailer.poll` parses only the bytes appended since
the last call (no full rescans), follows segment rotation, survives
snapshot-anchored compaction deleting segments behind it, and raises
:class:`WalGapError` when the record it needs next has been compacted
away — the signal that a replication follower must bootstrap from a
snapshot instead.  It is the primary-side engine of
:mod:`repro.replicate`.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator

from repro.serve.events import EventBatch
from repro.wal.segment import (
    HEADER,
    SegmentInfo,
    WalCorruptionError,
    iter_frames,
    iter_segment_records,
    list_segments,
    parse_segment_name,
    read_header,
    scan_segment,
)

__all__ = ["WalReader", "WalTailer", "WalGapError"]

#: ``EventBatch.to_bytes`` prefix — enough to read a record's seq
#: without decoding its event arrays.
_SEQ_PREFIX = struct.Struct("<Q")


class WalReader:
    """Ordered, validated view over a WAL directory's records."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: Set by :meth:`scan`/iteration when the newest segment ends
        #: in a partial record: the dropped byte count.
        self.torn_tail: SegmentInfo | None = None

    def scan(self) -> list[SegmentInfo]:
        """Scan every segment; validates cross-segment ordering.

        Raises :class:`WalCorruptionError` for a torn record in any
        segment but the newest; the newest segment's torn tail is
        recorded in :attr:`torn_tail` instead.
        """
        infos: list[SegmentInfo] = []
        self.torn_tail = None
        paths = list_segments(self.directory)
        last_seq = -1
        for i, path in enumerate(paths):
            info = scan_segment(path)
            if info.torn:
                if i != len(paths) - 1:
                    raise WalCorruptionError(
                        info.path, info.valid_bytes,
                        "torn record in a non-final segment")
                self.torn_tail = info
            if info.first_seq >= 0 and info.first_seq <= last_seq:
                raise WalCorruptionError(
                    info.path, 0,
                    f"segment first seq {info.first_seq} does not "
                    f"follow previous segment's last seq {last_seq}")
            if info.last_seq >= 0:
                last_seq = info.last_seq
            infos.append(info)
        return infos

    def last_seq(self) -> int:
        """Newest intact sequence number in the log (-1: empty)."""
        infos = self.scan()
        return max((i.last_seq for i in infos), default=-1)

    def first_seq(self) -> int:
        """Oldest intact sequence number in the log (-1: empty).

        After snapshot-anchored compaction this is the replay
        horizon: a cursor behind ``first_seq - 1`` cannot be served
        from the log alone and needs a snapshot anchor.
        """
        infos = self.scan()
        return min((i.first_seq for i in infos if i.records), default=-1)

    def batches(self, after_seq: int = -1,
                up_to_seq: int | None = None) -> Iterator[EventBatch]:
        """Yield intact records with ``seq > after_seq``, in order.

        Whole segments below the cut-off are skipped without decoding
        — this is what makes snapshot-anchored recovery cheap even
        before compaction has caught up.  ``up_to_seq`` bounds the
        iteration inclusively (point-in-time replay: reconstruct the
        state as of that watermark, e.g. to compare a promoted
        follower against the primary's log at the follower's
        replication watermark).
        """
        infos = self.scan()
        for info in infos:
            if info.records == 0 or info.last_seq <= after_seq:
                continue
            if up_to_seq is not None and info.first_seq > up_to_seq:
                return
            for batch in iter_segment_records(info.path,
                                              tolerate_torn_tail=True):
                if up_to_seq is not None and batch.seq > up_to_seq:
                    return
                if batch.seq > after_seq:
                    yield batch

    def __iter__(self) -> Iterator[EventBatch]:
        return self.batches()


class WalGapError(Exception):
    """The record after ``last_seq`` is no longer in the log.

    Snapshot-anchored compaction deleted the segment that held it, so
    a cursor this far behind cannot catch up from the log alone — it
    must re-anchor on a snapshot covering at least ``oldest_available
    - 1`` and resume from there.
    """

    def __init__(self, last_seq: int, oldest_available: int) -> None:
        super().__init__(
            f"WAL records after seq {last_seq} were compacted away "
            f"(oldest record still on disk: seq {oldest_available}); "
            "re-anchor on a snapshot")
        self.last_seq = last_seq
        self.oldest_available = oldest_available


class WalTailer:
    """Incremental record cursor over a WAL a live writer appends to.

    Unlike :class:`WalReader`, which re-reads whole segment files per
    call, a tailer keeps an open file handle plus a parse buffer and
    each :meth:`poll` consumes only the bytes appended since the last
    one.  Records are returned as ``(seq, payload)`` pairs where
    ``payload`` is the raw ``EventBatch.to_bytes()`` body — callers
    that just forward records (the replication sender) never pay for
    an event decode.

    Concurrency model (same-host reader of a live log):

    * a partially visible record at the tail — the writer's ``write``
      racing our ``read`` — fails the length or CRC check and simply
      ends the poll; the retry next poll sees the completed bytes.
      This is safe because the writer only ever *appends*;
    * segment rotation is followed by noticing a newer segment file:
      the writer seals the old file before creating its successor, so
      once a successor exists the current segment is immutable;
    * compaction unlinking the *current* segment is invisible (the
      open handle keeps it readable); compaction unlinking segments
      we still need surfaces as :class:`WalGapError`.
    """

    def __init__(self, directory: str | Path, after_seq: int = -1) -> None:
        self.directory = Path(directory)
        #: Seq of the newest record returned so far (= resume cursor).
        self.last_seq = after_seq
        self._fh = None
        self._base_seq = -1       # header base_seq of the open segment
        self._buf, self._pos = b"", 0  # read bytes, parsed up to _pos
        self._header_pending = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WalTailer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- segment selection ----------------------------------------------
    def _segments(self) -> list[tuple[int, Path]]:
        return [(parse_segment_name(path.name), path)
                for path in list_segments(self.directory)]

    def _open_segment_for_cursor(self) -> bool:
        """Open the segment that should hold ``last_seq + 1``.

        Returns False when there is nothing to open yet (no segments,
        or the cursor is already at the log's tip and the next record
        has not been appended).  Raises :class:`WalGapError` when the
        needed segment was compacted away.
        """
        segments = self._segments()
        if not segments:
            return False
        target = self.last_seq + 1
        # The newest segment whose base_seq <= target holds the cursor
        # (base_seq is the first record's seq).  If even the oldest
        # segment starts beyond the cursor, the prefix was compacted.
        candidate = None
        for base, path in segments:
            if base <= target:
                candidate = (base, path)
            else:
                break
        if candidate is None:
            oldest_base = segments[0][0]
            raise WalGapError(self.last_seq, oldest_base)
        base, path = candidate
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            # Compacted between listing and open; re-evaluate next poll.
            return False
        self._fh = fh
        self._base_seq = base
        self._buf, self._pos = b"", 0
        self._header_pending = True
        return True

    def _advance_if_sealed(self) -> bool:
        """Move to the successor segment if the current one is sealed.

        A newer segment file existing proves the writer rotated (it
        seals the old segment before its first append to the new one),
        so leftover unparsed bytes at that point are real mid-log
        damage, not an in-flight append.
        """
        successor = None
        for base, path in self._segments():
            if base > self._base_seq:
                successor = (base, path)
                break
        if successor is None:
            return False
        leftover = len(self._buf) - self._pos
        if leftover:
            raise WalCorruptionError(
                successor[1].parent / "(sealed segment)", 0,
                f"{leftover} unparseable bytes at the end of the "
                f"sealed segment with base seq {self._base_seq}")
        self.close()
        return self._open_segment_for_cursor()

    # -- record parsing -------------------------------------------------
    def _parse_available(self, limit: int) -> list[tuple[int, bytes]]:
        """Parse complete records out of ``_buf`` from ``_pos`` on.

        A frame that fails its checks is an append still in flight (or
        a garbage length at the tail): parsing stops there and the
        bytes wait for the next poll.
        """
        out: list[tuple[int, bytes]] = []
        buf = self._buf
        offset = self._pos
        if self._header_pending:
            if len(buf) < HEADER.size:
                return out
            read_header(self._fh and Path(self._fh.name)
                        or self.directory, buf)
            offset = HEADER.size
            self._header_pending = False
        for end, payload in iter_frames(buf, offset):
            (seq,) = _SEQ_PREFIX.unpack_from(payload)
            offset = end
            if seq > self.last_seq:
                self.last_seq = seq
                out.append((seq, bytes(payload)))
                if len(out) >= limit:
                    break
        self._pos = offset
        return out

    def poll(self, max_records: int = 256) -> list[tuple[int, bytes]]:
        """Return up to ``max_records`` new ``(seq, payload)`` records.

        An empty list means the cursor is at the live tip (or the next
        record is still being appended) — wait and poll again.  Raises
        :class:`WalGapError` when catch-up requires a snapshot.
        """
        out: list[tuple[int, bytes]] = []
        while len(out) < max_records:
            if self._fh is None and not self._open_segment_for_cursor():
                break
            chunk = self._fh.read()
            if chunk:
                self._buf, self._pos = self._buf[self._pos:] + chunk, 0
            got = self._parse_available(max_records - len(out))
            out.extend(got)
            if got:
                continue
            if not self._advance_if_sealed():
                break
        return out
