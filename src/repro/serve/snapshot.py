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

Snapshots are written atomically *and durably*: the temp file is
fsynced before the rename and the parent directory is fsynced after
it, so neither a crash while checkpointing nor a power loss right
after one can corrupt or un-link the latest good snapshot.  Because
controllers are branch-independent, a snapshot taken with N shards can
be restored onto M shards (``n_shards=``): controllers are re-placed
by routing hash and the per-shard accumulators recomputed exactly.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import ControllerConfig
from repro.serve.shard import ShardedBank, split_states

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import SpeculationService

__all__ = ["FORMAT_VERSION", "save_snapshot", "load_snapshot",
           "restore_bank", "find_latest_snapshot",
           "snapshot_covered_seq"]

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
#: tests in ``tests/serve/test_snapshot.py``.
FORMAT_VERSION = 7
_COMPATIBLE_FORMATS = (1, 2, 3, 4, 5, 6, 7)
_KIND = "repro.serve.snapshot"


def save_snapshot(path: str | Path, service: "SpeculationService",
                  bank_state: dict | None = None) -> Path:
    """Write ``service``'s full state to ``path`` (gzip JSON, atomic).

    The service must be quiesced — call through
    :meth:`~repro.serve.service.SpeculationService.snapshot`, which
    drains first.  ``bank_state`` substitutes an externally collected
    bank export (the multi-process path, where the authoritative
    controller state lives in the worker processes); the written format
    is identical either way, which is what makes snapshots
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
        "bank": (bank_state if bank_state is not None
                 else service.bank.export_state()),
    }
    spilled = service._export_tenants()
    if spilled:
        # Spilled tenants are part of the model state: their
        # controllers continue bit-identically after restore, they are
        # just cold.  Resident tenants already live in the bank export.
        state["tenants"] = {"spilled": spilled}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    # Atomic AND durable: fsync the temp file before the rename (else
    # the rename can land while the bytes are still only in the page
    # cache, leaving a complete-looking but empty/truncated "latest
    # good snapshot" after a power loss) and fsync the directory after
    # it (else the rename itself can vanish).  mtime=0 keeps the gzip
    # container deterministic for identical state.
    with open(tmp, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(state, separators=(",", ":"))
                     .encode("utf-8"))
        raw.flush()
        os.fsync(raw.fileno())
    tmp.replace(path)
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry change (rename/create) to disk."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(fd)


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


def restore_bank(config: ControllerConfig, bank_state: dict,
                 n_shards: int | None = None) -> ShardedBank:
    """Rebuild a :class:`ShardedBank`, optionally re-partitioned.

    With ``n_shards`` different from the snapshot's, every controller
    is re-placed by the routing hash and per-shard accumulators are
    recomputed from controller state — exact, because branches are
    independent and outcome counts live on the controllers.
    """
    stored_n = int(bank_state["n_shards"])
    if n_shards is None or n_shards == stored_n:
        return ShardedBank.from_state(config, bank_state)
    bank = ShardedBank(config, n_shards)
    last_instr = max((int(s["last_instr"]) for s in bank_state["shards"]),
                     default=0)
    states = [ctrl for s in bank_state["shards"] for ctrl in s["bank"]]
    for shard, part in zip(bank.shards, split_states(states, n_shards)):
        shard.install(part)
        shard.events_applied = sum(int(c["exec_count"]) for c in part)
        shard.correct = sum(int(c["correct"]) for c in part)
        shard.incorrect = sum(int(c["incorrect"]) for c in part)
        shard.last_instr = last_instr
    return bank


def load_snapshot(path: str | Path,
                  service_config=None,
                  n_shards: int | None = None,
                  workers: int | None = None,
                  wal_dir: str | None = None,
                  wal_fsync: str | None = None) -> "SpeculationService":
    """Rebuild a :class:`SpeculationService` from a snapshot file.

    ``service_config`` overrides the snapshotted tuning knobs (its
    ``n_shards`` must then match the bank layout being restored);
    ``n_shards`` re-partitions the bank.  ``workers`` selects the
    restored service's execution mode.  The snapshotted
    ``workers`` and ``wal_dir`` knobs are deliberately *not*
    inherited: they describe the dead process's deployment, not the
    model, so a restore runs in-process and WAL-less unless the caller
    asks otherwise (``wal_dir=``/``wal_fsync=``, or
    :func:`repro.wal.recovery.recover_service` for a restore that also
    replays the log tail).
    """
    from dataclasses import replace

    from repro.serve.service import ServiceConfig, SpeculationService

    state = _read(path)
    config = ControllerConfig(**state["controller_config"])
    if service_config is not None:
        scfg = service_config
    else:
        known = {f.name for f in fields(ServiceConfig)}
        knobs = {k: v for k, v in state["service_config"].items()
                 if k in known}
        scfg = ServiceConfig(**{**knobs, "workers": 0, "wal_dir": None,
                                "repl_listen": None,
                                "tenant_spill_dir": None})
    if n_shards is not None and n_shards != scfg.n_shards:
        scfg = replace(scfg, n_shards=n_shards)
    if workers is not None and workers != scfg.workers:
        overrides = {"workers": workers}
        if workers and n_shards is None and scfg.n_shards != workers:
            overrides["n_shards"] = workers
        scfg = replace(scfg, **overrides)
    if wal_dir is not None and wal_dir != scfg.wal_dir:
        scfg = replace(scfg, wal_dir=wal_dir)
    if wal_fsync is not None and wal_fsync != scfg.wal_fsync:
        scfg = replace(scfg, wal_fsync=wal_fsync)
    bank = restore_bank(config, state["bank"], n_shards=scfg.n_shards)
    service = SpeculationService(service_config=scfg, bank=bank,
                                 last_seq=int(state["last_seq"]))
    service._events_submitted = int(state["events_submitted"])
    service._restored_from = Path(path)
    service._install_tenants(state.get("tenants", {}).get("spilled", {}))
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
