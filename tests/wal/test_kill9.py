"""Kill -9 acceptance: a real process, really killed, exactly recovered.

This is the tentpole scenario for the WAL: a separate feeder process
runs the service with ``wal_fsync="batch"`` and periodic auto-
snapshots, the test SIGKILLs it mid-trace — no atexit, no flush, no
warning — and recovery (newest snapshot + WAL tail) must be
bit-identical to an uninterrupted offline run over *every batch the
dead process accepted*, including the ones after its last snapshot.
A snapshot-only restore provably loses those; the log is what keeps
them.  The test then injects a torn final record (a crash mid-append)
and requires recovery to truncate it, report it, and proceed — onto a
*different* worker count than the process that died.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.config import scaled_config
from repro.serve.client import feed_trace
from repro.serve.snapshot import find_latest_snapshot
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import load_trace
from repro.wal.reader import WalReader
from repro.wal.recovery import recover_service
from repro.wal.segment import WalCorruptionError, list_segments

SRC = Path(repro.__file__).resolve().parents[1]
TOTAL_EVENTS = 60_000
BATCH_EVENTS = 1_024

FEEDER = """
import asyncio, sys
from repro.core.config import scaled_config
from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService
from repro.trace.spec2000 import load_trace

wal_dir, snap_dir, rate = sys.argv[1], sys.argv[2], float(sys.argv[3])
trace = load_trace("gzip", length=%d)

async def main():
    scfg = ServiceConfig(n_shards=2, wal_dir=wal_dir, wal_fsync="batch",
                         snapshot_interval_events=8192,
                         snapshot_dir=snap_dir)
    service = SpeculationService(scaled_config(), scfg)
    async with service:
        await feed_trace(service, trace, batch_events=%d, rate=rate)
        await service.drain()

asyncio.run(main())
""" % (TOTAL_EVENTS, BATCH_EVENTS)


def _snapshot_covered_seq(path: Path) -> int:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return int(json.load(fh)["last_seq"])


def _wal_last_seq(wal_dir: Path) -> int:
    """Poll-safe scan: the feeder is appending/compacting concurrently."""
    try:
        return WalReader(wal_dir).last_seq()
    except (WalCorruptionError, FileNotFoundError, OSError):
        return -1


def test_kill9_recovery_is_bit_identical(tmp_path):
    wal_dir = tmp_path / "wal"
    snaps = tmp_path / "snaps"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-c", FEEDER, str(wal_dir), str(snaps), "25000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # Kill once the run is interesting: a snapshot is on disk AND
        # the WAL holds accepted batches beyond what it covers — the
        # exact state where snapshot-only restore would lose events.
        killed_mid_run = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            snap = find_latest_snapshot(snaps)
            if snap is not None:
                covered = _snapshot_covered_seq(snap)
                if _wal_last_seq(wal_dir) >= covered + 2:
                    killed_mid_run = True
                    break
            time.sleep(0.02)
        assert killed_mid_run or proc.poll() is not None, \
            "feeder made no observable progress in 60s"
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()

    trace = load_trace("gzip", length=TOTAL_EVENTS)
    config = scaled_config()
    snap = find_latest_snapshot(snaps)

    # -- recovery #1: pure read (attach_wal=False leaves the dir as the
    # crash left it), bit-identical over the accepted prefix ----------
    service, report = recover_service(wal_dir, snapshot=snap,
                                      config=config, attach_wal=False)
    prefix = service.events_submitted
    assert prefix == min(TOTAL_EVENTS, (service.last_seq + 1) * BATCH_EVENTS)
    offline_prefix = run_reactive(trace.slice(0, prefix), config).metrics
    assert service.metrics() == offline_prefix
    if killed_mid_run:
        # The WAL recovered batches a snapshot-only restore would lose.
        assert report.replayed_batches >= 2
        assert service.last_seq > report.snapshot_seq

    # -- torn final record: crash mid-append must truncate, not kill --
    segments = list_segments(wal_dir)
    if segments:
        with open(segments[-1], "ab") as fh:
            fh.write(b"\x5a" * 41)
    else:  # fully compacted at kill time: fabricate a torn-only tail
        from repro.wal.segment import segment_name, write_header
        with open(wal_dir / segment_name(service.last_seq + 1), "wb") as fh:
            write_header(fh, service.last_seq + 1)
            fh.write(b"\x5a" * 41)

    # -- recovery #2: attach the WAL, onto a different worker count
    # than the dead process (it ran in-process; recover onto 2 OS
    # worker processes) ----------------------------------------------
    service2, report2 = recover_service(wal_dir, snapshot=snap,
                                        config=config, workers=2)
    assert report2.torn_tail_bytes == 41
    assert report2.last_seq == service.last_seq
    assert service2.metrics() == offline_prefix

    # -- the recovered service composes: finish the trace and match an
    # uninterrupted offline run of the whole workload -----------------
    async def finish():
        async with service2:
            await feed_trace(service2, trace, batch_events=BATCH_EVENTS)
            await service2.drain()
            return service2.metrics()

    assert asyncio.run(finish()) == run_reactive(trace, config).metrics
    # Zero event loss, end to end: every event is accounted for.
    assert service2.events_submitted == TOTAL_EVENTS
