"""Durable append side of the WAL: rotation, fsync policy, compaction.

:class:`WalWriter` owns a WAL directory.  Every accepted event batch
is appended as one CRC-framed record (:mod:`repro.wal.segment`) to the
active segment, which rotates once it crosses ``segment_bytes``.  What
"durable" means is the ``fsync`` policy:

``always``
    every append is fsynced before it returns — strongest guarantee,
    one fsync per batch.
``batch`` (the default)
    appends land in the OS page cache and return immediately;
    :meth:`commit` — driven by the service's group-commit task —
    fsyncs once for *everything* appended since the last commit, so
    durability cost amortizes over the same micro-batch coalescing
    that feeds the shards.  The paper's latency-tolerance result
    (re-optimization latencies of 10^5–10^6 cycles cost <2%) is why
    this is safe: decisions tolerate far more staleness than a group
    commit ever adds.
``off``
    appends are written to the OS but never fsynced.  The log survives
    a process kill (the page cache belongs to the kernel) but not a
    power loss; the durable watermark tracks appends optimistically.

Compaction is snapshot-anchored: once a snapshot covers sequence
number S, :meth:`compact` deletes every segment whose records all have
``seq <= S`` — the snapshot supersedes them — rotating first if the
active segment is itself fully covered.  The WAL therefore holds only
the tail the newest snapshot does not, which is exactly what recovery
replays (:mod:`repro.wal.recovery`).

Thread model: appends happen on one thread (the service's event
loop); :meth:`commit` may run concurrently from an executor thread.
Commit snapshots the appended watermark and a dup of the active file
descriptor under the lock, then fsyncs *outside* it, so a slow disk
never blocks the append path, and rotation closing the original fd
cannot invalidate an in-flight commit.

Counting: the writer's counters and histograms live only in a metrics
registry — the service's, or a private one when none is passed — and
:attr:`WalWriter.stats` reads them back.  Two writers on one registry
would merge their counts: the service builds one per registry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.serve.events import EventBatch
from repro.wal.segment import (
    HEADER,
    SegmentInfo,
    WalCorruptionError,
    record_buffers,
    scan_segment,
    segment_name,
    write_header,
)

__all__ = ["FSYNC_POLICIES", "WalStats", "WalWriter"]

FSYNC_POLICIES = ("always", "batch", "off")

#: Default rotation threshold — small enough that compaction after a
#: snapshot reclaims space promptly, large enough that rotation cost
#: (open + dir fsync) is noise at 21 bytes/event.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def _write_all(fd: int, buffers: list, size: int) -> None:
    """Write ``buffers`` (``size`` bytes in all) at the file's offset:
    one ``os.writev``, finished by plain writes after a short one."""
    done = os.writev(fd, buffers)
    if done < size:
        rest = memoryview(b"".join(buffers))[done:]
        while rest:
            rest = rest[os.write(fd, rest):]


def _fsync_dir(directory: Path) -> None:
    """Make a directory entry change (create/rename/unlink) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class WalStats:
    """The writer's counters at one instant, read from its registry
    instruments; the service surfaces them through telemetry."""

    records_appended: int = 0
    bytes_appended: int = 0
    fsyncs: int = 0
    commits: int = 0              # group commits (fsync=batch)
    committed_records: int = 0    # records covered by those commits
    segments_created: int = 0
    segments_compacted: int = 0
    repaired_bytes: int = 0       # torn tail truncated at open

    @property
    def mean_commit_records(self) -> float:
        """Mean group-commit batch size, in records."""
        if not self.commits:
            return 0.0
        return self.committed_records / self.commits


#: Group-commit size buckets (records per fsync), powers of two.
_COMMIT_BUCKETS = tuple(float(1 << i) for i in range(13))


class _WalObs:
    """Registry instruments of one writer: its only tally."""

    __slots__ = ("append_latency", "fsync_latency", "commit_records",
                 "records", "bytes", "fsyncs", "segments_created",
                 "segments_compacted", "repaired_bytes")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.append_latency = registry.histogram(
            "repro_wal_append_latency_seconds",
            "Wall time of one WAL append (includes the fsync under "
            "policy 'always').", buckets=LATENCY_BUCKETS)
        self.fsync_latency = registry.histogram(
            "repro_wal_fsync_latency_seconds",
            "Wall time of one WAL file fsync.", buckets=LATENCY_BUCKETS)
        self.commit_records = registry.histogram(
            "repro_wal_commit_records",
            "Records made durable per fsync (group-commit batch size).",
            buckets=_COMMIT_BUCKETS)
        self.records = registry.counter(
            "repro_wal_records_appended_total", "Batches appended.")
        self.bytes = registry.counter(
            "repro_wal_bytes_appended_total", "Record bytes appended.")
        self.fsyncs = registry.counter(
            "repro_wal_fsyncs_total", "WAL file fsyncs issued.")
        self.segments_created = registry.counter(
            "repro_wal_segments_created_total", "Segment files created.")
        self.segments_compacted = registry.counter(
            "repro_wal_segments_compacted_total",
            "Segment files deleted by snapshot-anchored compaction.")
        self.repaired_bytes = registry.counter(
            "repro_wal_repaired_bytes_total",
            "Torn-tail bytes truncated when the log was opened.")


@dataclass
class _Segment:
    """Writer-side view of one on-disk segment."""

    path: Path
    base_seq: int
    first_seq: int = -1
    last_seq: int = -1
    records: int = 0
    size_bytes: int = HEADER.size

    @classmethod
    def from_info(cls, info: SegmentInfo) -> "_Segment":
        return cls(path=info.path, base_seq=info.base_seq,
                   first_seq=info.first_seq, last_seq=info.last_seq,
                   records=info.records, size_bytes=info.valid_bytes)


class WalWriter:
    """Append-only writer over a WAL directory (see module docstring)."""

    def __init__(self, directory: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync: str = "batch",
                 registry: MetricsRegistry | None = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r} "
                             f"(expected one of {FSYNC_POLICIES})")
        if segment_bytes < HEADER.size + 64:
            raise ValueError("segment_bytes is too small to hold a record")
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.fsync_policy = fsync
        self._obs = _WalObs(registry if registry is not None
                            else MetricsRegistry())
        self._lock = threading.Lock()
        self._file = None           # active segment's raw (unbuffered) file
        self._active: _Segment | None = None
        self._closed_segments: list[_Segment] = []
        self._last_seq = -1
        self._durable_seq = -1
        self._pending_records = 0   # appended since the last fsync
        self._closed = False
        #: Optional callback invoked with the durable watermark each
        #: time it advances (after the fsync, outside the writer lock).
        #: The service's span tracer hangs off this to stamp
        #: time-to-durability on each batch's span.
        self.on_durable = None
        self.directory.mkdir(parents=True, exist_ok=True)
        self._adopt_existing()

    # -- open/repair ----------------------------------------------------
    def _adopt_existing(self) -> None:
        """Index existing segments; truncate a torn tail in the newest.

        A torn record anywhere but the newest segment is corruption —
        the writer refuses rather than appending after a hole.
        """
        from repro.wal.segment import list_segments

        paths = list_segments(self.directory)
        for i, path in enumerate(paths):
            info = scan_segment(path)
            newest = i == len(paths) - 1
            if info.torn:
                if not newest:
                    raise WalCorruptionError(
                        info.path, info.valid_bytes,
                        "torn record in a non-final segment")
                os.truncate(info.path, info.valid_bytes)
                self._obs.repaired_bytes.inc(info.torn_bytes)
                info = scan_segment(path)
            seg = _Segment.from_info(info)
            if seg.last_seq >= 0 and seg.first_seq <= self._last_seq:
                raise WalCorruptionError(
                    seg.path, HEADER.size,
                    f"segment first seq {seg.first_seq} overlaps the "
                    f"previous segment's last seq {self._last_seq}")
            self._closed_segments.append(seg)
            self._last_seq = max(self._last_seq, seg.last_seq)
        # Everything already on disk predates this process: it is as
        # durable as it will ever get, and recovery treats it as the
        # replayable tail — start the watermark there.
        self._durable_seq = self._last_seq
        # Re-open the newest segment for appending when it still has
        # room; otherwise the next append rotates naturally.
        if self._closed_segments:
            tail = self._closed_segments[-1]
            if tail.size_bytes < self.segment_bytes:
                self._closed_segments.pop()
                self._file = open(tail.path, "r+b", buffering=0)
                self._file.seek(tail.size_bytes)
                self._active = tail

    # -- properties -----------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Newest sequence number appended (not necessarily durable)."""
        return self._last_seq

    @property
    def last_durable_seq(self) -> int:
        """Newest sequence number guaranteed on disk under the policy."""
        return self._durable_seq

    @property
    def pending_records(self) -> int:
        """Records appended but not yet covered by an fsync."""
        return self._pending_records

    @property
    def stats(self) -> WalStats:
        """The writer's counters, read back from its instruments."""
        obs = self._obs
        return WalStats(
            records_appended=obs.records.value,
            bytes_appended=obs.bytes.value,
            fsyncs=obs.fsyncs.value,
            commits=obs.commit_records.count,
            committed_records=int(obs.commit_records.sum),
            segments_created=obs.segments_created.value,
            segments_compacted=obs.segments_compacted.value,
            repaired_bytes=obs.repaired_bytes.value)

    @property
    def segments(self) -> list[Path]:
        with self._lock:
            out = [s.path for s in self._closed_segments]
            if self._active is not None:
                out.append(self._active.path)
            return out

    # -- appending ------------------------------------------------------
    def _fsync_file(self, fd: int) -> None:
        """fsync one file descriptor, counting it and its latency."""
        t0 = perf_counter()
        os.fsync(fd)
        self._obs.fsync_latency.observe(perf_counter() - t0)
        self._obs.fsyncs.inc()

    def append(self, batch: EventBatch) -> list:
        """Append one accepted batch; durability per the fsync policy.
        Returns the record's body, the batch's wire form, as the
        buffers of :meth:`EventBatch.buffers`: the record goes to the
        file in one ``os.writev`` with no joined copy."""
        if self._closed:
            raise ValueError("writer is closed")
        if batch.seq <= self._last_seq:
            raise ValueError(
                f"batch seq {batch.seq} not greater than the WAL's last "
                f"seq {self._last_seq}; a fresh service cannot reuse a "
                "directory holding a newer log — replay or remove it")
        t0 = perf_counter()
        record, size = record_buffers(batch)
        with self._lock:
            if (self._active is not None
                    and self._active.size_bytes + size > self.segment_bytes
                    and self._active.records > 0):
                self._rotate_locked()
            if self._active is None:
                self._open_segment_locked(batch.seq)
            _write_all(self._file.fileno(), record, size)
            seg = self._active
            seg.size_bytes += size
            seg.records += 1
            seg.last_seq = batch.seq
            if seg.first_seq < 0:
                seg.first_seq = batch.seq
            self._last_seq = batch.seq
            self._pending_records += 1
            if self.fsync_policy == "always":
                covered = self._pending_records
                self._fsync_file(self._file.fileno())
                self._pending_records = 0
                self._durable_seq = batch.seq
                self._obs.commit_records.observe(covered)
            elif self.fsync_policy == "off":
                # Optimistic: in the kernel, not on the platter.
                self._pending_records = 0
                self._durable_seq = batch.seq
        obs = self._obs
        obs.append_latency.observe(perf_counter() - t0)
        obs.records.inc()
        obs.bytes.inc(size)
        if self.fsync_policy != "batch" and self.on_durable is not None:
            # 'always' fsynced this batch; 'off' advanced optimistically
            # — either way the durable watermark just moved.
            self.on_durable(batch.seq)
        return record[1:]

    def _open_segment_locked(self, base_seq: int) -> None:
        path = self.directory / segment_name(base_seq)
        self._file = open(path, "xb", buffering=0)
        write_header(self._file, base_seq)
        self._active = _Segment(path=path, base_seq=base_seq)
        self._obs.segments_created.inc()
        if self.fsync_policy != "off":
            _fsync_dir(self.directory)

    def _rotate_locked(self) -> None:
        if self.fsync_policy != "off":
            self._fsync_file(self._file.fileno())
        self._file.close()
        self._closed_segments.append(self._active)
        self._file = None
        self._active = None

    # -- durability -----------------------------------------------------
    def commit(self) -> int:
        """Group commit: fsync everything appended so far, once.

        Returns the durable watermark.  Safe to call from a different
        thread than the appender; the fsync runs outside the writer
        lock on a dup'd descriptor, so appends (and even a rotation)
        proceed concurrently.
        """
        with self._lock:
            if self._pending_records == 0 or self._file is None:
                return self._durable_seq
            target = self._active.last_seq
            covered = self._pending_records
            self._pending_records = 0
            fd = os.dup(self._file.fileno())
        try:
            self._fsync_file(fd)
        finally:
            os.close(fd)
        with self._lock:
            if target > self._durable_seq:
                self._durable_seq = target
            durable = self._durable_seq
        self._obs.commit_records.observe(covered)
        if self.on_durable is not None:
            self.on_durable(durable)
        return durable

    # -- compaction -----------------------------------------------------
    def compact(self, covered_seq: int) -> list[Path]:
        """Delete segments a snapshot at ``covered_seq`` supersedes.

        A segment is deletable when every record it holds has
        ``seq <= covered_seq``.  If the *active* segment is itself
        fully covered it is rotated (closed) first so its file can go
        too; the next append opens a fresh segment.  Returns the
        deleted paths.
        """
        deleted: list[Path] = []
        with self._lock:
            if (self._active is not None and self._active.records > 0
                    and self._active.last_seq <= covered_seq):
                self._rotate_locked()
            keep: list[_Segment] = []
            for seg in self._closed_segments:
                if seg.records > 0 and seg.last_seq <= covered_seq:
                    os.unlink(seg.path)
                    deleted.append(seg.path)
                elif seg.records == 0 and seg.base_seq <= covered_seq:
                    os.unlink(seg.path)
                    deleted.append(seg.path)
                else:
                    keep.append(seg)
            self._closed_segments = keep
            if deleted:
                self._obs.segments_compacted.inc(len(deleted))
                if self.fsync_policy != "off":
                    _fsync_dir(self.directory)
        return deleted

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            if self._file is not None:
                if self._pending_records and self.fsync_policy != "off":
                    self._fsync_file(self._file.fileno())
                    self._obs.commit_records.observe(self._pending_records)
                    self._pending_records = 0
                    self._durable_seq = self._active.last_seq
                self._file.close()
                self._file = None
                if self._active is not None:
                    self._closed_segments.append(self._active)
                    self._active = None
            self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
