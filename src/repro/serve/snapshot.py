"""Snapshot/restore: crash-consistent checkpoints of the service.

A snapshot is a gzip-compressed JSON document holding everything the
controller model reads or writes — per-branch FSM state, saturating
counters, monitor samples, the *deployment queue* (pending SELECT/EVICT
landings with their landing stamps), accumulated outcome counts, and
the service's sequence cursor.  Restoring it into a fresh process and
replaying the remaining events produces bit-identical
:class:`~repro.sim.metrics.SpeculationMetrics` to a run that never
crashed — the kill/restore test in ``tests/serve/test_snapshot.py``
asserts exactly that against the offline engines.

Every snapshot file reaches disk through :func:`write_durably`, the
service's checkpoints and a follower's shipped re-anchors alike: the
temp file is fsynced before the rename and the parent directory is
fsynced after it, so neither a crash while checkpointing nor a power
loss right after one can corrupt or un-link the latest good snapshot.
Because controllers are branch-independent, a snapshot taken with N
shards can be restored onto M shards (``n_shards=``): controllers are
re-placed by routing hash and the per-shard accumulators recomputed
exactly, spilled tenants' controllers included.

This module is the JSON file's edge, and the only place the
per-controller ``export_state()`` dicts exist in the service: inside
the process a shard's state is a
:class:`~repro.serve.shard.ShardState` (counters plus a
:class:`~repro.serve.colpath.RowBlock`) and a spilled tenant is a
block, which :func:`~repro.serve.colpath.rows_to_states` and
:func:`~repro.serve.colpath.states_to_rows` turn into and out of the
document.  Loading validates every controller state, so a file holding
one the controller could not have reached is refused with a
:class:`ValueError` naming the branch.

:func:`repro.wal.recovery.recover_service` is the one way back from
disk; :func:`load_snapshot` is the snapshot reader beneath it.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.core.config import ControllerConfig
from repro.serve.colpath import RowBlock, rows_to_states, states_to_rows
from repro.serve.shard import ShardedBank, ShardState
from repro.wal.writer import _fsync_dir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import ServiceConfig, SpeculationService

__all__ = ["FORMAT_VERSION", "save_snapshot", "load_snapshot",
           "restore_bank", "restore_shape", "write_durably",
           "find_latest_snapshot", "snapshot_covered_seq"]

logger = logging.getLogger(__name__)

#: Version 2 added the execution-mode knobs (``workers``/``transport``)
#: to the embedded service config; version 3 added the WAL knobs
#: (``wal_dir``/``wal_fsync``/``wal_segment_bytes``); version 4 added
#: the observability knobs (``obs``/``trace_ring``/``trace_sample``);
#: version 5 added the batch-engine knob (``columnar``); version 6
#: adds the replication knob (``repl_listen``); version 7 adds the
#: tenant knobs (``tenant_*``) plus an optional ``tenants`` section
#: carrying spilled tenants' controller states.  The bank state schema
#: is otherwise unchanged, so every older version loads fine: missing
#: knobs take their defaults, knobs :class:`ServiceConfig` no longer
#: has (``columnar``, ``transport``, the batch, telemetry and retry
#: tuning, ``tenant_top_k``) are dropped, and every pre-tenant
#: controller key *is* a tenant-0 key; see the ``test_version*``
#: tests in ``tests/serve/test_snapshot.py``.  Controller states keep
#: the ``transitions`` key, always empty (service state keeps no arc
#: history), so a reader of any version loads them; a log in an older
#: file is dropped on load.
FORMAT_VERSION = 7
_COMPATIBLE_FORMATS = (1, 2, 3, 4, 5, 6, 7)
_KIND = "repro.serve.snapshot"


def save_snapshot(path: str | Path, service: "SpeculationService",
                  shards: Sequence[ShardState] | None = None) -> Path:
    """Write ``service``'s full state to ``path`` (gzip JSON, atomic).

    The service must be quiesced — call through
    :meth:`~repro.serve.service.SpeculationService.snapshot`, which
    drains first.  ``shards`` substitutes externally collected shard
    states (the multi-process path, where the authoritative controller
    state lives in the worker processes); the written format is
    identical either way, which is what makes snapshots
    interchangeable across execution modes.
    """
    if service.queued_events:
        raise RuntimeError(
            f"cannot snapshot with {service.queued_events} events still "
            "queued; drain first")
    state = {
        "format": FORMAT_VERSION,
        "kind": _KIND,
        "controller_config": asdict(service.config),
        "service_config": asdict(service.service_config),
        "last_seq": int(service.last_seq),
        "events_submitted": int(service.events_submitted),
        "bank": _bank_document(shards if shards is not None
                               else service.bank.export_state()),
    }
    spilled = service._export_tenants()
    if spilled:
        # Spilled tenants are part of the model state: their
        # controllers continue bit-identically after restore, they are
        # just cold.  Resident tenants already live in the bank export.
        state["tenants"] = {"spilled": {
            tenant: rows_to_states(rows) for tenant, rows in spilled.items()}}
    # mtime=0 keeps the gzip container deterministic for identical
    # state.
    return write_durably(path, gzip.compress(
        json.dumps(state, separators=(",", ":")).encode("utf-8"),
        mtime=0))


def write_durably(path: str | Path, data: bytes) -> Path:
    """Atomically and durably make ``data`` the content of ``path``.

    Fsync the temp file before the rename (else the rename can land
    while the bytes are still only in the page cache, leaving a
    complete-looking but empty/truncated "latest good snapshot" after
    a power loss) and fsync the directory after it (else the rename
    itself can vanish).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    _fsync_dir(path.parent)
    return path


def _read(path: str | Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        state = json.load(fh)
    if state.get("kind") != _KIND:
        raise ValueError(f"{path} is not a repro.serve snapshot")
    if state.get("format") not in _COMPATIBLE_FORMATS:
        raise ValueError(
            f"snapshot format {state.get('format')} unsupported "
            f"(expected one of {_COMPATIBLE_FORMATS})")
    return state


def _bank_document(shards: Sequence[ShardState]) -> dict:
    """The snapshot's ``bank`` section for these shard states."""
    return {
        "n_shards": len(shards),
        "shards": [{
            "index": s.index,
            "events_applied": s.events_applied,
            "last_instr": s.last_instr,
            "correct": s.correct,
            "incorrect": s.incorrect,
            "bank": rows_to_states(s.rows),
        } for s in shards],
    }


def _shard_states(bank: dict) -> list[ShardState]:
    """The shard states a snapshot's ``bank`` section holds."""
    return [ShardState(
        index=int(s["index"]), events_applied=int(s["events_applied"]),
        last_instr=int(s["last_instr"]), correct=int(s["correct"]),
        incorrect=int(s["incorrect"]), rows=states_to_rows(s["bank"]))
        for s in bank["shards"]]


def restore_bank(config: ControllerConfig, shards: Sequence[ShardState],
                 n_shards: int | None = None,
                 spilled: Sequence[RowBlock] = ()) -> ShardedBank:
    """Rebuild a :class:`ShardedBank`, optionally re-partitioned.

    With ``n_shards`` different from the snapshot's, every controller
    is re-placed by the routing hash and per-shard accumulators are
    recomputed from controller state — exact, because branches are
    independent and outcome counts live on the controllers.  The
    spilled tenants' rows (``spilled``, one block per tenant) are
    counted on the shard that will own them once they are recalled:
    their history is part of the totals, cold or not.
    """
    if n_shards is None or n_shards == len(shards):
        return ShardedBank.from_state(config, shards)
    bank = ShardedBank(config, n_shards)
    last_instr = max((s.last_instr for s in shards), default=0)
    resident = RowBlock.concat(s.rows for s in shards).split(n_shards)
    cold = RowBlock.concat(spilled).split(n_shards)
    for shard, rows, cold_rows in zip(bank.shards, resident, cold):
        shard.install(rows)
        (shard.events_applied, shard.correct, shard.incorrect) = (
            a + b for a, b in zip(rows.totals(), cold_rows.totals()))
        shard.last_instr = last_instr
    return bank


def restore_shape(scfg: "ServiceConfig", n_shards: int | None = None,
                  workers: int | None = None,
                  wal_dir: str | None = None,
                  wal_fsync: str | None = None) -> "ServiceConfig":
    """``scfg`` with a restore's execution-shape overrides applied.

    Each argument that is not None replaces its knob; ``workers=N``
    without an explicit ``n_shards`` also sets ``n_shards=N`` (one
    worker process per shard).
    """
    overrides = {name: value for name, value in
                 (("n_shards", n_shards), ("workers", workers),
                  ("wal_dir", wal_dir), ("wal_fsync", wal_fsync))
                 if value is not None}
    if workers and n_shards is None:
        overrides["n_shards"] = workers
    return replace(scfg, **overrides)


def load_snapshot(path: str | Path,
                  n_shards: int | None = None,
                  workers: int | None = None,
                  wal_dir: str | None = None,
                  wal_fsync: str | None = None) -> "SpeculationService":
    """Rebuild a :class:`SpeculationService` from a snapshot file.

    The snapshotted tuning knobs come back as they were saved;
    ``n_shards``/``workers``/``wal_dir``/``wal_fsync`` set the
    restored service's shape (:func:`restore_shape`).  The snapshotted
    ``workers``, ``wal_dir``, ``repl_listen`` and ``tenant_spill_dir``
    knobs are deliberately *not* inherited: they describe the dead
    process's deployment, not the model, so a restore runs in-process,
    WAL-less and on a fresh spill directory unless the caller asks
    otherwise.  Spilled tenants come back from the snapshot's
    ``tenants.spilled`` section.  A transition log in a controller
    state (older writers kept one) is dropped on load, and a state the
    controller could not have reached raises :class:`ValueError`
    naming its branch.  Callers outside tests go through
    :func:`repro.wal.recovery.recover_service`, which also replays the
    log tail.
    """
    from repro.serve.service import ServiceConfig, SpeculationService

    state = _read(path)
    config = ControllerConfig(**state["controller_config"])
    known = {f.name for f in fields(ServiceConfig)}
    knobs = {k: v for k, v in state["service_config"].items()
             if k in known}
    scfg = ServiceConfig(**{**knobs, "workers": 0, "wal_dir": None,
                            "repl_listen": None, "tenant_spill_dir": None})
    scfg = restore_shape(scfg, n_shards, workers, wal_dir, wal_fsync)
    spilled = {tenant: states_to_rows(states) for tenant, states in
               state.get("tenants", {}).get("spilled", {}).items()}
    bank = restore_bank(config, _shard_states(state["bank"]),
                        n_shards=scfg.n_shards,
                        spilled=list(spilled.values()))
    service = SpeculationService(service_config=scfg, bank=bank,
                                 last_seq=int(state["last_seq"]))
    service._events_submitted = int(state["events_submitted"])
    service._restored_from = Path(path)
    service._install_tenants(spilled)
    return service


def snapshot_covered_seq(path: str | Path) -> int:
    """The newest batch seq a snapshot file covers (its watermark).

    Cheap header read — no bank restore — used by replication to
    decide where tailing resumes after shipping a snapshot, and by a
    follower to compute its handshake watermark from disk alone.
    """
    return int(_read(path)["last_seq"])


def find_latest_snapshot(directory: str | Path) -> Path | None:
    """Newest loadable snapshot in ``directory`` (None if there is none).

    Candidates are ``*.json.gz`` files ordered newest-first by name
    (auto-snapshot names embed the covered event count, so the
    lexicographic order is the coverage order) with modification time
    as the tiebreak.  Files that fail the header check — truncated,
    foreign, or an unsupported format — are skipped with a warning
    rather than aborting the restore: the whole point of keeping
    several snapshots is surviving a bad one.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob("*.json.gz"),
                        key=lambda p: (p.name, p.stat().st_mtime),
                        reverse=True)
    for path in candidates:
        try:
            _read(path)
        except (OSError, ValueError, EOFError,
                json.JSONDecodeError) as err:
            logger.warning("skipping unusable snapshot %s: %s", path, err)
            continue
        return path
    return None
