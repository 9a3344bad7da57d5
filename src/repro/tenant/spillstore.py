"""Append-only blob log for spilled tenant state.

Cold tenants leave the resident set thousands of times per second
during a spill-heavy sweep, so the store's write path must be one
append — not one file per tenant (a million create/fsync round trips)
and not a rewrite-in-place database.  The layout is a single log file
of ``<uint32 tenant><uint32 length><blob>`` records plus an in-memory
index mapping tenant → packed ``(offset, length)``; a put appends, a
get seeks, and records orphaned by re-spills or restores are reclaimed
by rewriting the live set once garbage exceeds the live bytes.

The index is the only per-spilled-tenant memory the process keeps: one
dict entry (~100 B) against the kilobytes of controller state it
replaces — which is what lets the resident-set budget, not the tenant
count, bound RSS.

The store treats blobs as opaque bytes.  The tenant manager's blobs
are packed row blocks (:meth:`RowBlock.to_bytes
<repro.serve.colpath.RowBlock.to_bytes>`): a spilled tenant's
controller rows, sorted by key, as their column bytes through zlib.

The log is process scratch, not a durability mechanism: opening a
store truncates whatever log an earlier process left in the directory.
Spilled tenants survive a restart only through a snapshot, whose
``tenants.spilled`` section carries their controller states.

Not thread-safe: the service calls it from the event-loop thread only.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

__all__ = ["SpillStore"]

_RECORD = struct.Struct("<II")
#: Low bits of an index entry hold the record length.
_LEN_BITS = 28
_LEN_MASK = (1 << _LEN_BITS) - 1
#: Compact once garbage exceeds max(this floor, live bytes).
_COMPACT_FLOOR = 1 << 20


class SpillStore:
    """Tenant → blob log with O(1) put/get and amortized compaction."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "spill.log"
        self._index: dict[int, int] = {}
        self.live_bytes = 0
        self.dead_bytes = 0
        self.puts = 0
        self.compactions = 0
        # Process scratch: truncate an earlier process's log.
        self._writer = open(self.path, "wb")
        self._reader = open(self.path, "rb")

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, tenant: int) -> bool:
        return tenant in self._index

    def tenants(self):
        """Live (spilled) tenant ids, in no particular order."""
        return self._index.keys()

    def put(self, tenant: int, blob: bytes) -> None:
        """Append ``tenant``'s blob, superseding any previous one."""
        if len(blob) > _LEN_MASK:
            raise ValueError(
                f"blob of {len(blob)} bytes exceeds the "
                f"{_LEN_MASK}-byte record limit")
        prev = self._index.get(tenant)
        if prev is not None:
            dead = (prev & _LEN_MASK) + _RECORD.size
            self.dead_bytes += dead
            self.live_bytes -= dead
        offset = self._writer.tell()
        self._writer.write(_RECORD.pack(tenant, len(blob)))
        self._writer.write(blob)
        self._writer.flush()
        self._index[tenant] = (offset << _LEN_BITS) | len(blob)
        self.live_bytes += _RECORD.size + len(blob)
        self.puts += 1
        self._maybe_compact()

    def get(self, tenant: int) -> bytes | None:
        """Read ``tenant``'s blob without removing it (None if absent)."""
        entry = self._index.get(tenant)
        if entry is None:
            return None
        offset, length = entry >> _LEN_BITS, entry & _LEN_MASK
        self._reader.seek(offset + _RECORD.size)
        return self._reader.read(length)

    def remove(self, tenant: int) -> None:
        """Forget ``tenant``'s blob (it became resident again)."""
        entry = self._index.pop(tenant, None)
        if entry is None:
            return
        dead = (entry & _LEN_MASK) + _RECORD.size
        self.dead_bytes += dead
        self.live_bytes -= dead
        self._maybe_compact()

    def export(self) -> dict[int, bytes]:
        """All live blobs (snapshot embedding)."""
        return {tenant: self.get(tenant) for tenant in list(self._index)}

    def _maybe_compact(self) -> None:
        if self.dead_bytes > max(_COMPACT_FLOOR, self.live_bytes):
            self.compact()

    def compact(self) -> None:
        """Rewrite the live records; drop the garbage."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        new_index: dict[int, int] = {}
        with open(tmp, "wb") as out:
            for tenant in self._index:
                blob = self.get(tenant)
                new_index[tenant] = (out.tell() << _LEN_BITS) | len(blob)
                out.write(_RECORD.pack(tenant, len(blob)))
                out.write(blob)
            out.flush()
            os.fsync(out.fileno())
        self._writer.close()
        self._reader.close()
        tmp.replace(self.path)
        self._index = new_index
        self.dead_bytes = 0
        self.compactions += 1
        self._writer = open(self.path, "ab")
        self._reader = open(self.path, "rb")

    def close(self) -> None:
        self._writer.close()
        self._reader.close()

    def stats(self) -> dict[str, int]:
        return {
            "spilled_tenants": len(self._index),
            "live_bytes": self.live_bytes,
            "dead_bytes": self.dead_bytes,
            "puts": self.puts,
            "compactions": self.compactions,
        }
