"""Event model of the online service: branch-outcome batches.

The service ingests :class:`EventBatch` objects — columnar batches of
dynamic branch executions in program order, stamped with a monotonic
``seq`` number by the producer.  Sequence numbers give the service an
idempotent submission protocol: a batch rejected for backpressure is
resubmitted with the *same* ``seq``, and any batch whose ``seq`` is not
strictly greater than the last accepted one is refused, so a retrying
client can never double-ingest.

:func:`iter_trace_batches` adapts any offline :class:`~repro.trace.stream.Trace`
into the online event model; it is how the CLI, benchmarks and tests
feed recorded workloads through the service.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.tenant.keys import pack_keys
from repro.trace.stream import Trace

__all__ = ["BranchEvent", "EventBatch", "event_columns",
           "iter_trace_batches", "pack_events", "unpack_events"]

#: Bytes per event on the wire: int32 pc + uint8 taken + int64 instr.
EVENT_WIRE_BYTES = 4 + 1 + 8
#: Extra bytes per event when a batch carries tenant ids (uint32).
TENANT_WIRE_BYTES = 4

_BATCH_HEADER = struct.Struct("<QI")
#: High bit of the header's uint32 ``n`` field marks a tenant-bearing
#: batch (a uint32 tenant array follows the event columns).  Legacy
#: tenant-less batches keep the exact pre-tenant byte layout, so WAL
#: records and replication frames written before tenants existed — and
#: by tenant-less producers today — decode unchanged (as tenant 0).
_TENANT_FLAG = 1 << 31


def event_columns(pcs: np.ndarray, taken: np.ndarray, instrs: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three columns of :func:`pack_events` as contiguous arrays of
    their wire types — the arrays themselves when they already are."""
    taken = np.ascontiguousarray(taken)
    return (np.ascontiguousarray(pcs, dtype=np.int32),
            taken.view(np.uint8) if taken.dtype == np.bool_
            else taken.astype(np.uint8),
            np.ascontiguousarray(instrs, dtype=np.int64))


def pack_events(pcs: np.ndarray, taken: np.ndarray,
                instrs: np.ndarray) -> bytes:
    """Columnar wire form of parallel event arrays.

    Layout is the three arrays back to back — ``int32 pc[n]``,
    ``uint8 taken[n]``, ``int64 instr[n]`` (:func:`event_columns`) — so
    packing is one join and unpacking is three zero-copy views.
    """
    return b"".join(event_columns(pcs, taken, instrs))


def unpack_events(buf: bytes | memoryview, offset: int, n: int,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode :func:`pack_events` output at ``buf[offset:]``.

    Returns ``(pcs, taken, instrs)`` as read-only views into ``buf``
    (zero-copy, so a memoryview into a larger frame — e.g. a WAL
    segment record — avoids a copy entirely); ``taken`` is viewed as
    bool.
    """
    if len(buf) < offset + n * EVENT_WIRE_BYTES:
        raise ValueError(
            f"event payload truncated: need {n * EVENT_WIRE_BYTES} bytes "
            f"at offset {offset}, have {len(buf) - offset}")
    pcs = np.frombuffer(buf, dtype=np.int32, count=n, offset=offset)
    taken = np.frombuffer(buf, dtype=np.uint8, count=n,
                          offset=offset + 4 * n).view(np.bool_)
    instrs = np.frombuffer(buf, dtype=np.int64, count=n,
                           offset=offset + 5 * n)
    return pcs, taken, instrs


@dataclass(frozen=True)
class BranchEvent:
    """One dynamic execution of a static branch.

    ``pc`` identifies the static branch (the paper's static-branch id;
    in a real deployment the branch instruction's address), ``taken``
    its outcome, and ``instr`` the global retired-instruction count at
    the execution — the clock against which re-optimization latency is
    measured.
    """

    pc: int
    taken: bool
    instr: int


@dataclass(frozen=True)
class EventBatch:
    """A columnar batch of branch events in program order.

    Attributes
    ----------
    seq:
        Producer-assigned sequence number; must be strictly monotonic
        across accepted batches of one service.
    pcs / taken / instrs:
        Parallel arrays (int32 / bool / int64) of static branch id,
        outcome, and global instruction stamp per event.  Instruction
        stamps must be non-decreasing within the batch and across
        consecutive batches (program order).
    tenants:
        Optional parallel uint32 array of tenant ids.  ``None`` (the
        default) means every event belongs to tenant 0 and the batch
        keeps the legacy single-tenant wire form byte-for-byte.
    """

    seq: int
    pcs: np.ndarray = field(repr=False)
    taken: np.ndarray = field(repr=False)
    instrs: np.ndarray = field(repr=False)
    tenants: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.pcs)
        if len(self.taken) != n or len(self.instrs) != n:
            raise ValueError("batch arrays must have equal length")
        if self.tenants is not None and len(self.tenants) != n:
            raise ValueError("batch arrays must have equal length")
        if n == 0:
            raise ValueError("batch must contain at least one event")
        if n >= _TENANT_FLAG:
            raise ValueError("batch too large for the wire header")
        if self.seq < 0:
            raise ValueError("seq must be non-negative")

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def n_events(self) -> int:
        return len(self.pcs)

    @property
    def first_instr(self) -> int:
        return int(self.instrs[0])

    @property
    def last_instr(self) -> int:
        return int(self.instrs[-1])

    @classmethod
    def from_events(cls, seq: int,
                    events: list[BranchEvent] | tuple[BranchEvent, ...],
                    ) -> "EventBatch":
        """Build a columnar batch from row-form events."""
        return cls(
            seq=seq,
            pcs=np.array([e.pc for e in events], dtype=np.int32),
            taken=np.array([e.taken for e in events], dtype=bool),
            instrs=np.array([e.instr for e in events], dtype=np.int64),
        )

    def events(self) -> Iterator[BranchEvent]:
        """Row-form view (for debugging and tests; the hot path stays
        columnar)."""
        for i in range(len(self.pcs)):
            yield BranchEvent(int(self.pcs[i]), bool(self.taken[i]),
                              int(self.instrs[i]))

    def keys(self) -> np.ndarray:
        """Packed int64 ``(tenant << 32) | pc`` controller keys.

        Tenant-less batches return the bare PCs widened to int64 —
        numerically identical to tenant 0's packed keys, which is what
        keeps legacy and tenant traffic in one key space.
        """
        if self.tenants is None:
            return self.pcs.astype(np.int64)
        return pack_keys(self.tenants, self.pcs)

    # -- wire form ------------------------------------------------------
    def buffers(self) -> list:
        """The wire form as the buffers it concatenates: the
        ``<uint64 seq><uint32 n>`` header, then :func:`event_columns`
        (views of the batch's arrays where their types match), then for
        a tenant-bearing batch its ``uint32 tenant[n]`` column.  Writers
        that take a buffer list (``os.writev``, ``zlib.crc32`` chained
        over them) need no joined copy."""
        n = len(self.pcs)
        if self.tenants is None:
            return [_BATCH_HEADER.pack(self.seq, n),
                    *event_columns(self.pcs, self.taken, self.instrs)]
        return [_BATCH_HEADER.pack(self.seq, n | _TENANT_FLAG),
                *event_columns(self.pcs, self.taken, self.instrs),
                np.ascontiguousarray(self.tenants, dtype=np.uint32)]

    def to_bytes(self) -> bytes:
        """Wire form: ``<uint64 seq><uint32 n>`` + :func:`pack_events`.

        Tenant-bearing batches set the header's tenant flag bit and
        append a ``uint32 tenant[n]`` column; tenant-less batches are
        byte-identical to the pre-tenant format.
        """
        return b"".join(self.buffers())

    @classmethod
    def from_bytes(cls, buf: bytes | memoryview) -> "EventBatch":
        """Decode :meth:`to_bytes` output (arrays are zero-copy views).

        Frames without the tenant flag — every record written before
        the tenant dimension existed — decode with ``tenants=None``,
        i.e. as tenant 0.
        """
        if len(buf) < _BATCH_HEADER.size:
            raise ValueError("batch frame truncated: missing header")
        seq, n = _BATCH_HEADER.unpack_from(buf)
        tenanted = bool(n & _TENANT_FLAG)
        n &= _TENANT_FLAG - 1
        expected = _BATCH_HEADER.size + n * EVENT_WIRE_BYTES
        if tenanted:
            expected += n * TENANT_WIRE_BYTES
        if len(buf) != expected:
            raise ValueError(
                f"batch frame length mismatch: {len(buf)} != {expected}")
        pcs, taken, instrs = unpack_events(buf, _BATCH_HEADER.size, n)
        tenants = None
        if tenanted:
            tenants = np.frombuffer(
                buf, dtype=np.uint32, count=n,
                offset=_BATCH_HEADER.size + n * EVENT_WIRE_BYTES)
        return cls(seq=seq, pcs=pcs, taken=taken, instrs=instrs,
                   tenants=tenants)


def iter_trace_batches(trace: Trace, batch_events: int = 4096,
                       start_seq: int = 0,
                       max_events: int | None = None,
                       ) -> Iterator[EventBatch]:
    """Cut a trace into program-order :class:`EventBatch` chunks.

    Yields batches of ``batch_events`` events (the last may be short)
    with consecutive sequence numbers starting at ``start_seq``.
    ``max_events`` truncates the trace; arrays are views into the trace
    (zero-copy).
    """
    if batch_events <= 0:
        raise ValueError("batch_events must be positive")
    n = len(trace) if max_events is None else min(len(trace), max_events)
    tenants = getattr(trace, "tenants", None)
    seq = start_seq
    for lo in range(0, n, batch_events):
        hi = min(lo + batch_events, n)
        yield EventBatch(
            seq=seq,
            pcs=trace.branch_ids[lo:hi],
            taken=trace.taken[lo:hi],
            instrs=trace.instrs[lo:hi],
            tenants=None if tenants is None else tenants[lo:hi],
        )
        seq += 1
