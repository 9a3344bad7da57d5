"""Follower and query links at their edges: stalled, broken, sealed.

The primary's side of every follower link lives on the service's event
loop, so these tests drive raw followers from the same loop: a peer
that handshakes and then never reads, one that joins far behind, one
whose link breaks mid-stream, and one that acks a batch late to read
the lag gauge.  The last test ends a standby's read-only endpoint
under an open query link.
"""

from __future__ import annotations

import asyncio
import os
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import scaled_config
from repro.replicate import frames, sender
from repro.replicate.follower import (
    FollowerConfig,
    ReadOnlyServer,
    ReplicationFollower,
)
from repro.serve.client import SpeculationClient, feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.wire import SocketTransport, read_frame, write_frame
from repro.trace.spec2000 import load_trace
from repro.wal.reader import WalReader, WalTailer

BATCH_EVENTS = 512


def _primary(tmp_path) -> SpeculationService:
    scfg = ServiceConfig(n_shards=2, wal_dir=str(tmp_path / "pwal"),
                         wal_fsync="batch",
                         repl_listen=str(tmp_path / "repl.sock"))
    return SpeculationService(scaled_config(), scfg)


async def _frame(reader: asyncio.StreamReader) -> bytes:
    return await asyncio.wait_for(read_frame(reader), 10.0)


async def _hello(service: SpeculationService, watermark: int = -1):
    """A raw follower on the primary's loop, past its handshake."""
    reader, writer = await asyncio.open_unix_connection(
        service.service_config.repl_listen)
    write_frame(writer, frames.encode_r_hello(watermark))
    frames.decode_r_welcome(await _frame(reader))
    return reader, writer


async def _next_seq(reader: asyncio.StreamReader) -> int:
    """Seq of the next R_BATCH frame on a raw follower link."""
    body = frames.decode_r_batch(await _frame(reader))
    return struct.unpack_from("<Q", body)[0]


async def _until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_offers_are_kept_only_while_a_follower_is_connected(tmp_path):
    """391 batches accepted with no follower leave no accept times
    behind, and the lag gauge is right for a batch acked once a
    follower has connected."""
    trace = load_trace("gzip", length=392 * BATCH_EVENTS)
    service = _primary(tmp_path)
    lag = service.registry.get("repro_repl_lag_seconds")

    async def run():
        async with service:
            await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                             max_events=391 * BATCH_EVENTS)
            await service.drain()
            assert service.last_seq == 390
            assert len(service._repl._offers) == 0

            reader, writer = await _hello(service)
            try:
                seq = -1
                while seq < 390:  # catch-up from the log
                    seq = await _next_seq(reader)
                accepted = time.monotonic()
                await feed_trace(service, trace,
                                 batch_events=BATCH_EVENTS)
                assert len(service._repl._offers) == 1
                assert await _next_seq(reader) == 391
                await asyncio.sleep(0.1)
                write_frame(writer, frames.encode_r_ack(391))
                await _until(lambda: service.last_replicated_seq == 391)
                assert 0.1 <= lag.value <= time.monotonic() - accepted
                assert len(service._repl._offers) == 0
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(run())


def test_stalled_follower_is_bounded_and_stop_returns(tmp_path):
    """A peer that says R_HELLO and never reads: ingest and drain
    proceed, its link buffers at most the sender's limit plus one
    batch frame, stop() returns promptly and the socket path is
    unlinked."""
    trace = load_trace("gzip", length=1_000_000)
    batches = list(iter_trace_batches(trace, 8192))
    # The limit plus one R_BATCH frame (length prefix, type byte, body).
    bound = sender._MAX_BUFFERED + max(5 + len(b.to_bytes())
                                       for b in batches)
    service = _primary(tmp_path)
    addr = service.service_config.repl_listen

    async def run():
        async with service:
            stalled = SocketTransport(frames.connect_socket(addr))
            try:
                stalled.send(frames.encode_r_hello(-1))
                repl = service._repl
                await _until(lambda: repl.connections == 1
                             and repl._links[0].live)
                link = repl._links[0]
                client = SpeculationClient(service)
                peak = 0
                for batch in batches:
                    await client.submit_burst(batch)
                    peak = max(peak,
                               link.writer.transport.get_write_buffer_size())
                await service.drain()
                assert service.last_seq == len(batches) - 1
                assert peak > sender._MAX_BUFFERED // 2  # it did stall
                assert peak <= bound
                started = time.monotonic()
                await service.stop()
                assert time.monotonic() - started < 5.0
            finally:
                stalled.close()

    asyncio.run(run())
    assert not os.path.exists(addr)


def test_follower_behind_a_large_backlog_catches_up_as_it_acks(
        tmp_path, monkeypatch):
    """A follower that joins further behind than the sender's buffer
    limit is caught up in steps, one per ack, all from one tailer: it
    gets every batch once and in order, then the live stream."""
    tailers = []

    class Tailer(WalTailer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tailers.append(self)

    monkeypatch.setattr(sender, "WalTailer", Tailer)
    trace = load_trace("gzip", length=220 * 4096)
    backlog = list(iter_trace_batches(trace, 4096, max_events=200 * 4096))
    assert sum(len(b.to_bytes()) for b in backlog) > sender._MAX_BUFFERED
    service = _primary(tmp_path)
    sent = service.registry.get("repro_repl_batches_sent_total")

    async def run():
        async with service:
            await feed_trace(service, trace, batch_events=4096,
                             max_events=200 * 4096)
            await service.drain()
            reader, writer = await _hello(service)
            try:
                # Read nothing until the sender stops at its limit.
                link = service._repl._links[0]
                await _until(lambda: link.writer.transport
                             .get_write_buffer_size() >= sender._MAX_BUFFERED)
                assert sent.value < 200
                seqs = []
                while len(seqs) < 200:
                    seqs.append(await _next_seq(reader))
                    if len(seqs) % 16 == 0:
                        write_frame(writer, frames.encode_r_ack(seqs[-1]))
                await feed_trace(service, trace, batch_events=4096)
                seqs += [await _next_seq(reader) for _ in range(20)]
                assert seqs == list(range(220))
                assert sent.value == 220
                assert len(tailers) == 1 and tailers[0]._fh is None
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(run())


def test_broken_follower_link_leaves_ingest_running(tmp_path):
    """A follower whose link breaks mid-stream costs the primary
    nothing: later submits succeed (each batch is already in the WAL)
    and the link is dropped."""
    trace = load_trace("gzip", length=48 * BATCH_EVENTS)
    service = _primary(tmp_path)

    async def run():
        async with service:
            reader, writer = await _hello(service)
            await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                             max_events=8 * BATCH_EVENTS)
            assert await _next_seq(reader) == 0
            writer.transport.abort()
            await feed_trace(service, trace, batch_events=BATCH_EVENTS)
            await service.drain()
            await _until(lambda: service._repl.connections == 0)
            assert service.last_seq == 47
            assert service.last_replicated_seq == -1

    asyncio.run(run())
    assert WalReader(tmp_path / "pwal").last_seq() == 47


def test_streaming_primary_runs_no_replication_thread(tmp_path):
    """The sender lives on the service's loop: while it streams to an
    acking follower, no ``repro-repl-*`` thread has started."""
    trace = load_trace("gzip", length=24 * BATCH_EVENTS)
    service = _primary(tmp_path)
    before = set(threading.enumerate())

    async def run():
        async with service:
            reader, writer = await _hello(service)
            try:
                await feed_trace(service, trace, batch_events=BATCH_EVENTS)
                seqs = [await _next_seq(reader) for _ in range(24)]
                assert seqs == list(range(24))
                write_frame(writer, frames.encode_r_ack(23))
                await _until(lambda: service.last_replicated_seq == 23)
                names = [t.name for t in threading.enumerate()
                         if t not in before
                         and t.name.startswith("repro-repl-")]
                assert names == []
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(run())


def test_sealed_standby_ends_open_query_links(tmp_path):
    """seal() closes the read-only endpoint's open connections, not
    only its listener: a query link opened before promotion reads end
    of file instead of the sealed replica's answers, and the accept
    thread exits."""
    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    before = set(threading.enumerate())
    ro_addr = str(tmp_path / "ro.sock")
    follower = ReplicationFollower(FollowerConfig(
        upstream=str(tmp_path / "repl.sock"),
        wal_dir=str(tmp_path / "fwal"), n_shards=3, ro_listen=ro_addr))
    follower._install_snapshot(9, fixture.read_bytes())
    follower._ro_server = ReadOnlyServer(follower, ro_addr)
    follower._ro_server.start()
    sock = frames.connect_socket(ro_addr, timeout=5.0)
    transport = SocketTransport(sock)
    sock.settimeout(5.0)  # a link left open times out, not hangs
    try:
        transport.send(frames.encode_ro_status_req())
        assert frames.decode_ro_status(transport.recv())["role"] \
            == "follower"
        follower.seal()
        with pytest.raises(EOFError):
            transport.recv()
    finally:
        transport.close()
        follower.seal()
    with pytest.raises(OSError):
        frames.connect_socket(ro_addr, timeout=1.0)
    deadline = time.monotonic() + 5.0
    while any(t.name == "repro-repl-ro" for t in threading.enumerate()
              if t not in before):
        assert time.monotonic() < deadline, "accept thread outlived seal()"
        time.sleep(0.01)
