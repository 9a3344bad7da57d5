"""Shard pools: where the service's shard operations run.

:class:`~repro.serve.service.SpeculationService` keeps intake, routing,
queues and the decision cache in its own loop and hands every shard
operation to a pool — ``start``, ``apply``, ``spill``, ``restore``,
``collect_states``, ``shutdown`` and ``pids`` — choosing the pool once,
at start:

* :class:`LocalPool` runs each operation on the bank's own shards, in
  the service's event loop.
* :class:`WorkerPool` runs one OS process per shard.  Shards share
  nothing — each owns its controllers and columnar engine — so this is
  the natural multi-core step.  The pool spawns the processes, ships
  each its shard state (``LOAD``), sends micro-batches (``APPLY``) from
  executor threads so the event loop never blocks on a full pipe, and
  routes every ticketed reply back to its awaiting future through one
  reader thread per worker.  :func:`worker_main` is the child half: a
  blocking ``recv → apply → reply`` loop over the binary wire protocol
  (:mod:`repro.serve.wire`), owning exactly one
  :class:`~repro.serve.shard.BankShard`.

The worker pool keeps the bank's shards as mirrors (counters and the
decision cache, no controllers) and owns all their upkeep: it absorbs
each ``APPLY_RESULT``, drops spilled keys from the decision cache and
re-seeds restored ones, and on a drained shutdown gathers every shard's
state back into the bank.  So ``metrics()`` and ``should_speculate()``
stay local reads in both modes.  Transports are selectable: ``pipe``
(``multiprocessing.Pipe``) or ``socket`` (AF_UNIX stream with explicit
length prefixes) — same frames either way.

Failure model: a worker that disappears (kill -9, OOM) surfaces as
:class:`WorkerDiedError` on the next interaction.  The error names the
shard, the pid, and — once the service annotates it — the last
*durable* sequence number (covered by the newest on-disk snapshot),
which is exactly where a restore will resume.

Snapshots are two-phase across processes: the service closes intake
and drains its queues (phase one), then the pool barriers every worker
and collects per-shard state (phase two, :meth:`WorkerPool.collect_states`),
and the service writes one atomic checkpoint in the exact same format
as single-process mode — so snapshots restore interchangeably across
modes and worker counts.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from time import monotonic

import numpy as np

from repro.serve import wire
from repro.serve.shard import BankShard, ShardApplyResult, ShardedBank

__all__ = ["LocalPool", "WorkerDiedError", "WorkerPool", "worker_main"]

#: Seconds to wait for a spawned worker's HELLO before giving up.
_HELLO_TIMEOUT = 60.0
#: Seconds to wait for a worker to exit after SHUTDOWN.
_JOIN_TIMEOUT = 5.0


class WorkerDiedError(RuntimeError):
    """A shard worker process vanished (dead pipe / killed).

    ``last_durable_seq`` is the newest batch sequence number that is
    durable on disk — covered by a snapshot, or fsynced into the WAL
    when one is attached (-1 if neither): restoring from there and
    re-feeding from ``last_durable_seq + 1`` loses nothing.  The
    service fills it in before re-raising, along with
    ``snapshot_path``/``wal_dir`` so the message can spell out the
    exact recovery command instead of pointing at the docs.
    """

    def __init__(self, shard: int, pid: int | None = None,
                 last_durable_seq: int | None = None,
                 snapshot_path=None, wal_dir: str | None = None) -> None:
        super().__init__()
        self.shard = shard
        self.pid = pid
        self.last_durable_seq = last_durable_seq
        self.snapshot_path = snapshot_path
        self.wal_dir = wal_dir

    def restore_command(self) -> str | None:
        """The exact shell command that recovers this service's state."""
        if self.wal_dir is not None:
            cmd = f"python -m repro.wal replay --wal-dir {self.wal_dir}"
            if self.snapshot_path is not None:
                cmd += f" --snapshot {self.snapshot_path}"
            return cmd
        if self.snapshot_path is not None:
            return f"python -m repro.serve --restore {self.snapshot_path}"
        return None

    def __str__(self) -> str:
        who = f"shard worker {self.shard}"
        if self.pid is not None:
            who += f" (pid {self.pid})"
        msg = f"{who} died (dead pipe)"
        if self.last_durable_seq is not None:
            msg += (f"; last durable seq {self.last_durable_seq} — restore "
                    "the latest snapshot and resubmit from "
                    f"seq {self.last_durable_seq + 1}")
        cmd = self.restore_command()
        if cmd is not None:
            msg += f"; recover with: {cmd}"
        return msg


# -- child side -------------------------------------------------------------
def _connect_child(endpoint, kind: str):
    if kind == "pipe":
        return wire.PipeTransport(endpoint)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(endpoint)
    return wire.SocketTransport(sock)


def worker_main(index: int, config_dict: dict, endpoint, kind: str,
                capture: bool = False) -> None:
    """Child entry point: own one shard, serve the wire protocol.

    ``capture`` turns on the shard's observability hooks (apply timing
    + transition capture); the extra data rides home piggybacked on
    ``APPLY_RESULT`` frames.
    """
    from repro.core.config import ControllerConfig

    transport = _connect_child(endpoint, kind)
    config = ControllerConfig(**config_dict)
    shard = BankShard(index, config)
    shard.capture = capture
    transport.send(wire.encode_hello(index, os.getpid()))
    try:
        while True:
            payload = transport.recv()
            ftype = payload[0]
            if ftype == wire.APPLY:
                # Monotonic stamps bracket the apply so the parent's
                # span tracer can attribute wire_out/wire_back time
                # (CLOCK_MONOTONIC is system-wide on Linux).
                t_recv = monotonic() if capture else 0.0
                ticket, keys, taken, instrs = wire.decode_apply(payload)
                res = shard.apply(keys, taken, instrs)
                t_done = monotonic() if capture else 0.0
                transport.send(wire.encode_apply_result(
                    ticket, res, t_recv, t_done))
            elif ftype == wire.TSPILL:
                ticket, tenant = wire.decode_tspill(payload)
                transport.send(wire.encode_tspill_result(
                    ticket, shard.spill_tenant(tenant)))
            elif ftype == wire.TRESTORE:
                ticket, states = wire.decode_trestore(payload)
                shard.restore_tenant(states)
                transport.send(wire.encode_trestore_ack(ticket))
            elif ftype == wire.BARRIER:
                transport.send(wire.encode_barrier(
                    wire.decode_barrier(payload), ack=True))
            elif ftype == wire.LOAD:
                state = wire.decode_load(payload)
                if state is None:
                    shard = BankShard(index, config)
                else:
                    shard = BankShard.from_state(config, state)
                    if shard.index != index:
                        raise ValueError(
                            f"LOAD state is for shard {shard.index}, "
                            f"this worker owns shard {index}")
                shard.capture = capture
            elif ftype == wire.STATE_REQ:
                transport.send(wire.encode_state(
                    wire.decode_state_req(payload), shard.export_state()))
            elif ftype == wire.SHUTDOWN:
                break
            else:
                transport.send(wire.encode_error(
                    f"unknown frame type 0x{ftype:02x}"))
    except (EOFError, OSError):
        pass  # supervisor went away; nothing to report to
    except Exception as err:  # decode/apply failure: tell the parent
        try:
            transport.send(wire.encode_error(
                f"{type(err).__name__}: {err}"))
        except (EOFError, OSError):
            pass
    finally:
        transport.close()


# -- supervisor side --------------------------------------------------------
#: Decoder of each ticketed worker → parent reply, to ``(ticket, value)``
#: (the second argument is the replying worker's shard index).
_REPLIES = {
    wire.APPLY_RESULT: wire.decode_apply_result,
    wire.TSPILL_RESULT: lambda payload, _: wire.decode_tspill_result(payload),
    wire.STATE: lambda payload, _: wire.decode_state(payload),
    wire.BARRIER_ACK: lambda payload, _: (wire.decode_barrier(payload), None),
    wire.TRESTORE_ACK: lambda payload, _: (
        wire.decode_trestore_ack(payload), None),
}


class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, shard: int, loop: asyncio.AbstractEventLoop) -> None:
        self.shard = shard
        self.loop = loop
        self.process = None
        self.transport = None
        self.pid: int | None = None
        self.send_lock = asyncio.Lock()
        self.next_ticket = 0
        self.pending: dict[int, asyncio.Future] = {}
        self.hello: asyncio.Future = loop.create_future()
        self.dead: WorkerDiedError | None = None
        self.closing = False
        self.reader: threading.Thread | None = None

    # All _on_* handlers run on the event loop thread
    # (call_soon_threadsafe from the reader thread).
    def _on_frame(self, payload: bytes) -> None:
        ftype = payload[0]
        decode = _REPLIES.get(ftype)
        if decode is not None:
            ticket, value = decode(payload, self.shard)
            fut = self.pending.pop(ticket, None)
            if fut is not None and not fut.done():
                fut.set_result(value)
        elif ftype == wire.HELLO:
            shard, pid = wire.decode_hello(payload)
            self.pid = pid
            if not self.hello.done():
                if shard != self.shard:
                    self.hello.set_exception(wire.ProtocolError(
                        f"worker said shard {shard}, expected {self.shard}"))
                else:
                    self.hello.set_result(pid)
        elif ftype == wire.ERROR:
            self._fail(RuntimeError(
                f"shard worker {self.shard} error: "
                f"{wire.decode_error(payload)}"))

    def _on_disconnect(self) -> None:
        if self.closing:
            return
        self._fail(WorkerDiedError(self.shard, self.pid))

    def _fail(self, err: Exception) -> None:
        if isinstance(err, WorkerDiedError) and self.dead is None:
            self.dead = err
        for fut in (*self.pending.values(), self.hello):
            if not fut.done():
                fut.set_exception(err)
        self.pending.clear()

    def _read_loop(self) -> None:
        while True:
            try:
                payload = self.transport.recv()
            except (EOFError, OSError, ValueError):
                self.loop.call_soon_threadsafe(self._on_disconnect)
                return
            self.loop.call_soon_threadsafe(self._on_frame, payload)

    def start_reader(self) -> None:
        self.reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-serve-worker-{self.shard}-reader")
        self.reader.start()

    def check_alive(self) -> None:
        if self.dead is not None:
            raise self.dead

    async def send(self, payload: bytes) -> None:
        """Send one frame without blocking the event loop."""
        self.check_alive()
        async with self.send_lock:
            try:
                await self.loop.run_in_executor(
                    None, self.transport.send, payload)
            except (BrokenPipeError, EOFError, OSError) as err:
                died = WorkerDiedError(self.shard, self.pid)
                self._fail(died)
                raise died from err


class LocalPool:
    """In-process execution: every operation is one call on the bank's
    own shard, in the service's event loop."""

    def __init__(self, bank: ShardedBank, capture: bool = False) -> None:
        self.bank = bank
        self.capture = capture

    @property
    def pids(self) -> list[int | None]:
        return []

    async def start(self) -> None:
        for shard in self.bank.shards:
            shard.capture = self.capture

    async def apply(self, shard: int, pcs: np.ndarray, taken: np.ndarray,
                    instrs: np.ndarray) -> ShardApplyResult:
        return self.bank.shards[shard].apply(pcs, taken, instrs)

    async def spill(self, shard: int, tenant: int) -> list[dict]:
        return self.bank.shards[shard].spill_tenant(tenant)

    async def restore(self, shard: int, states: list[dict]) -> None:
        self.bank.shards[shard].restore_tenant(states)

    async def collect_states(self) -> list[dict]:
        return [s.export_state() for s in self.bank.shards]

    async def shutdown(self, gather: bool = False) -> bool:
        """Nothing to stop; the bank is the live state, so it is whole."""
        return True


class WorkerPool:
    """One worker process per shard of ``bank``, driven from the asyncio
    service; the bank's shards become the workers' mirrors."""

    def __init__(self, bank: ShardedBank, transport: str = "pipe",
                 capture: bool = False) -> None:
        if transport not in ("pipe", "socket"):
            raise ValueError(f"unknown transport {transport!r} "
                             "(expected 'pipe' or 'socket')")
        self.bank = bank
        self.transport = transport
        self.capture = capture
        self.handles: list[_WorkerHandle] = []
        # spawn, never fork: the supervisor runs inside a live asyncio
        # loop with reader threads, which forked children must not
        # inherit mid-flight.
        self._ctx = multiprocessing.get_context("spawn")
        self._tmpdir = None
        self._started = False

    @property
    def pids(self) -> list[int | None]:
        return [h.pid for h in self.handles]

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn the workers, ship each its shard's state, then release
        the parent's controllers: the workers own them from here on."""
        if self._started:
            return
        loop = asyncio.get_running_loop()
        states = [s.export_state() for s in self.bank.shards]
        config_dict = asdict(self.bank.config)
        self.handles = [_WorkerHandle(i, loop)
                        for i in range(self.bank.n_shards)]
        if self.transport == "socket":
            await loop.run_in_executor(None, self._spawn_socket,
                                       config_dict)
        else:
            await loop.run_in_executor(None, self._spawn_pipe, config_dict)
        for handle in self.handles:
            handle.start_reader()
        await asyncio.gather(*(asyncio.wait_for(h.hello, _HELLO_TIMEOUT)
                               for h in self.handles))
        await asyncio.gather(*(handle.send(wire.encode_load(state))
                               for handle, state in zip(self.handles, states)))
        for shard in self.bank.shards:
            shard.release_controllers()
        self._started = True

    def _spawn_pipe(self, config_dict: dict) -> None:
        for handle in self.handles:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=worker_main,
                args=(handle.shard, config_dict, child_conn, "pipe",
                      self.capture),
                name=f"repro-serve-worker-{handle.shard}", daemon=True)
            proc.start()
            child_conn.close()
            # Set only once started: shutdown joins every set process.
            handle.process = proc
            handle.transport = wire.PipeTransport(parent_conn)

    def _spawn_socket(self, config_dict: dict) -> None:
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        path = str(Path(self._tmpdir.name) / "workers.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
            listener.listen(len(self.handles))
            listener.settimeout(_HELLO_TIMEOUT)
            for handle in self.handles:
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(handle.shard, config_dict, path, "socket",
                          self.capture),
                    name=f"repro-serve-worker-{handle.shard}", daemon=True)
                proc.start()
                handle.process = proc
            accepted = []
            for _ in self.handles:
                conn, _addr = listener.accept()
                accepted.append(wire.SocketTransport(conn))
            # Connections arrive in arbitrary order; the HELLO frame
            # (first thing each worker sends) identifies the shard.
            for transport in accepted:
                payload = transport.recv()
                shard, pid = wire.decode_hello(payload)
                handle = self.handles[shard]
                handle.transport = transport
                handle.pid = pid
                handle.loop.call_soon_threadsafe(handle._on_frame, payload)
        finally:
            listener.close()

    async def shutdown(self, gather: bool = False) -> bool:
        """Stop all workers.  With ``gather`` (and every worker alive),
        first pull each shard's state back into the bank.  Returns
        whether the bank holds the live state again."""
        whole = not self._started
        if gather and self._started and all(h.dead is None
                                            for h in self.handles):
            states = await self.collect_states()
            self.bank.shards = tuple(
                BankShard.from_state(self.bank.config, s) for s in states)
            whole = True
        for handle in self.handles:
            handle.closing = True
            if handle.dead is None and handle.transport is not None:
                try:
                    await handle.send(wire.encode_shutdown())
                except (WorkerDiedError, RuntimeError):
                    pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_all)
        for handle in self.handles:
            if handle.transport is not None:
                try:
                    handle.transport.close()
                except OSError:
                    pass
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self.handles = []
        self._started = False
        return whole

    def _join_all(self) -> None:
        for handle in self.handles:
            proc = handle.process
            if proc is None:
                continue
            proc.join(_JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join()

    # -- protocol -------------------------------------------------------
    async def _call(self, shard: int, encode):
        """Send ``encode(ticket)`` to one worker; await its reply."""
        handle = self.handles[shard]
        handle.check_alive()
        ticket = handle.next_ticket
        handle.next_ticket += 1
        fut = handle.loop.create_future()
        handle.pending[ticket] = fut
        try:
            await handle.send(encode(ticket))
        except Exception:
            handle.pending.pop(ticket, None)
            raise
        return await fut

    async def apply(self, shard: int, pcs: np.ndarray, taken: np.ndarray,
                    instrs: np.ndarray) -> ShardApplyResult:
        """Ship one micro-batch to its worker, await the result, and
        absorb it into the mirror shard."""
        result = await self._call(shard, lambda ticket: wire.encode_apply(
            ticket, pcs, taken, instrs))
        self.bank.shards[shard].absorb(result)
        return result

    async def spill(self, shard: int, tenant: int) -> list[dict]:
        """Evict one tenant's controllers from a worker's shard;
        returns their exported states."""
        states = await self._call(shard, lambda ticket: wire.encode_tspill(
            ticket, tenant))
        # The mirror learns decision flips from APPLY_RESULT frames;
        # evictions it learns here.
        decisions = self.bank.shards[shard].decisions
        for state in states:
            decisions.pop(int(state["branch"]), None)
        return states

    async def restore(self, shard: int, states: list[dict]) -> None:
        """Re-intern spilled controller states into a worker's shard."""
        await self._call(shard, lambda ticket: wire.encode_trestore(
            ticket, states))
        decisions = self.bank.shards[shard].decisions
        for state in states:
            decisions[int(state["branch"])] = bool(state["deployed"])

    async def barrier(self) -> None:
        """Wait until every worker has processed all frames sent so far
        (transports are FIFO, so an acked barrier proves it)."""
        await asyncio.gather(*(self._call(i, wire.encode_barrier)
                               for i in range(len(self.handles))))

    async def collect_states(self) -> list[dict]:
        """Two-phase state collection: barrier, then gather each
        worker's full shard state (ordered by shard index)."""
        await self.barrier()
        return list(await asyncio.gather(*(
            self._call(i, wire.encode_state_req)
            for i in range(len(self.handles)))))
