"""WAL segment files: CRC-framed, length-prefixed batch records.

A segment is one append-only file of the write-ahead log.  It starts
with a fixed 24-byte header naming the format and the sequence number
of the first record it was opened for, followed by back-to-back
records::

    segment := <magic "REPROWAL"> <uint32 version> <uint32 reserved>
               <uint64 base_seq> record*
    record  := <uint32 length> <uint32 crc32(payload)> payload

The payload is exactly :meth:`repro.serve.events.EventBatch.to_bytes`
— ``<uint64 seq><uint32 n>`` followed by the service's 13-byte/event
columnar encoding — so a record round-trips through the same codec as
the worker wire protocol, and replay decodes events zero-copy.

Torn tails are a *normal* outcome, not corruption: a crash (power
loss, ``kill -9``) mid-append leaves a final record whose header is
short, whose payload is short, or whose CRC does not match.
:func:`scan_segment` classifies exactly that — a defect strictly at
the end of the file — as ``torn`` and reports the byte offset of the
last good record, so the writer can truncate and recovery can stop
cleanly.  A defect *before* the last record (bit rot, manual editing)
is real corruption and raises :class:`WalCorruptionError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.serve.events import EventBatch

__all__ = ["MAGIC", "SEGMENT_VERSION", "HEADER", "RECORD_HEADER",
           "MAX_RECORD_BYTES", "WalCorruptionError", "SegmentInfo",
           "segment_name", "parse_segment_name", "write_header",
           "read_header", "record_buffers", "encode_record", "iter_frames",
           "scan_segment",
           "iter_segment_records", "list_segments"]

MAGIC = b"REPROWAL"
SEGMENT_VERSION = 1
#: ``<magic><uint32 version><uint32 reserved><uint64 base_seq>``
HEADER = struct.Struct("<8sIIQ")
#: ``<uint32 payload length><uint32 crc32(payload)>``
RECORD_HEADER = struct.Struct("<II")
#: Upper bound on a single record's payload, used to reject garbage
#: lengths before attempting a huge read.  Far above any real batch
#: (a 1M-event batch is ~13 MiB).
MAX_RECORD_BYTES = 64 * 1024 * 1024

_NAME_PREFIX = "wal-"
_NAME_SUFFIX = ".log"


class WalCorruptionError(Exception):
    """A WAL record failed its CRC/length check *before* the tail.

    Torn tails (a partial final record from a crash mid-append) are
    expected and handled by truncation; this error means the damage is
    in the middle of the log, where dropping data would silently lose
    acknowledged events.
    """

    def __init__(self, path: Path, offset: int, reason: str) -> None:
        super().__init__(f"{path} corrupt at byte {offset}: {reason}")
        self.path = Path(path)
        self.offset = offset
        self.reason = reason


def segment_name(base_seq: int) -> str:
    """File name of the segment whose first record has ``base_seq``."""
    return f"{_NAME_PREFIX}{base_seq:016d}{_NAME_SUFFIX}"


def parse_segment_name(name: str) -> int | None:
    """Inverse of :func:`segment_name` (None for foreign files)."""
    if not (name.startswith(_NAME_PREFIX) and name.endswith(_NAME_SUFFIX)):
        return None
    digits = name[len(_NAME_PREFIX):-len(_NAME_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def write_header(fh: BinaryIO, base_seq: int) -> int:
    """Write the segment header; returns the bytes written."""
    fh.write(HEADER.pack(MAGIC, SEGMENT_VERSION, 0, base_seq))
    return HEADER.size


def read_header(path: Path, raw: bytes) -> int:
    """Validate a segment header; returns its ``base_seq``."""
    if len(raw) < HEADER.size:
        raise WalCorruptionError(path, 0, "file shorter than the segment "
                                          "header")
    magic, version, _reserved, base_seq = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise WalCorruptionError(path, 0, f"bad magic {magic!r}")
    if version != SEGMENT_VERSION:
        raise WalCorruptionError(path, 8, f"unsupported segment version "
                                          f"{version}")
    return base_seq


def record_buffers(batch: EventBatch) -> tuple[list, int]:
    """One framed record as the buffers it concatenates — its length +
    CRC32 header, then :meth:`EventBatch.buffers` — and its size."""
    body = batch.buffers()
    crc = size = 0
    for buf in body:
        crc = zlib.crc32(buf, crc)
        size += memoryview(buf).nbytes
    return [RECORD_HEADER.pack(size, crc), *body], RECORD_HEADER.size + size


def encode_record(batch: EventBatch) -> bytes:
    """One framed record: length + CRC32 + the batch wire form."""
    return b"".join(record_buffers(batch)[0])


@dataclass(frozen=True)
class SegmentInfo:
    """What a scan learned about one segment file."""

    path: Path
    base_seq: int          # from the header (== first record's seq)
    first_seq: int         # -1 when the segment holds no records
    last_seq: int          # -1 when the segment holds no records
    records: int
    size_bytes: int        # physical file size
    valid_bytes: int       # prefix covered by intact records
    torn: bool             # a partial/corrupt record follows valid_bytes

    @property
    def torn_bytes(self) -> int:
        return self.size_bytes - self.valid_bytes


def iter_frames(raw: bytes, offset: int) -> Iterator[tuple[int, memoryview]]:
    """Yield ``(end, payload)`` for each intact record from ``offset``.

    ``end`` is the byte offset just past the record.  Iteration stops
    at the first frame that fails a check — no room for its header, a
    length above :data:`MAX_RECORD_BYTES`, no room for its body, or a
    CRC mismatch — and callers judge what a stop short of
    ``len(raw)`` means (a torn tail, or an append still in flight).
    Payloads are zero-copy views into ``raw``.
    """
    size = len(raw)
    view = memoryview(raw)
    while offset + RECORD_HEADER.size <= size:
        length, crc = RECORD_HEADER.unpack_from(raw, offset)
        body_at = offset + RECORD_HEADER.size
        end = body_at + length
        # A garbage length is rejected before it can drive a huge read.
        if length > MAX_RECORD_BYTES or end > size:
            return
        payload = view[body_at:end]
        if zlib.crc32(payload) != crc:
            return
        yield end, payload
        offset = end


def _scan(path: Path, raw: bytes) -> tuple[SegmentInfo, list[EventBatch]]:
    """A segment's info plus its intact records, decoded (zero-copy)."""
    base_seq = read_header(path, raw)
    batches: list[EventBatch] = []
    last_seq = -1
    valid = HEADER.size
    for end, payload in iter_frames(raw, valid):
        batch = EventBatch.from_bytes(payload)
        if batch.seq <= last_seq:
            raise WalCorruptionError(
                path, valid, f"record seq {batch.seq} not above "
                             f"predecessor {last_seq}")
        last_seq = batch.seq
        batches.append(batch)
        valid = end
    info = SegmentInfo(
        path=path, base_seq=base_seq,
        first_seq=batches[0].seq if batches else -1, last_seq=last_seq,
        records=len(batches), size_bytes=len(raw), valid_bytes=valid,
        # A defect can only be trusted as "torn" at the very tail;
        # earlier it means the framing chain is broken, which callers
        # judge by the segment's position in the log.
        torn=valid < len(raw))
    return info, batches


def scan_segment(path: str | Path) -> SegmentInfo:
    """Scan one segment file, classifying any trailing damage as torn.

    Raises :class:`WalCorruptionError` only for a broken header or
    non-monotonic record sequence numbers; framing damage is reported
    via ``torn``/``valid_bytes`` and left for the caller to judge
    (acceptable in the newest segment, fatal elsewhere).
    """
    path = Path(path)
    return _scan(path, path.read_bytes())[0]


def iter_segment_records(path: str | Path,
                         tolerate_torn_tail: bool = False,
                         ) -> Iterator[EventBatch]:
    """Yield every intact record of one segment, in order.

    The whole segment is checked before the first record is yielded.
    With ``tolerate_torn_tail`` a trailing partial record ends the
    iteration silently (the torn bytes are dropped); otherwise it
    raises :class:`WalCorruptionError`.
    """
    path = Path(path)
    info, batches = _scan(path, path.read_bytes())
    if info.torn and not tolerate_torn_tail:
        raise WalCorruptionError(
            path, info.valid_bytes,
            f"torn record ({info.torn_bytes} trailing bytes fail the "
            "CRC/length check)")
    # The batch arrays alias the segment buffer (zero-copy), same as
    # the worker wire path.
    yield from batches


def list_segments(directory: str | Path) -> list[Path]:
    """Segment files of a WAL directory, ordered by base sequence."""
    directory = Path(directory)
    if not directory.exists():
        return []
    named = []
    for path in directory.iterdir():
        base = parse_segment_name(path.name)
        if base is not None:
            named.append((base, path))
    return [path for _base, path in sorted(named)]
