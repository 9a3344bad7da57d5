"""Shared machinery of the benchmark: host probe, CPU and memory
readings, the outcome of a pass and of a run, and the layer tracer.

The tracer wraps the public functions of each layer of :mod:`repro`
from the benchmark's own side (the program is not edited).  Every
wrapper records its call count, wall time and *self* time — its time
minus the time of wrapped calls nested inside it on the same thread —
so the per-layer self times of a pass add up to the pass minus a
residue the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


# -- readings -----------------------------------------------------------
def host_probe_ms() -> float:
    """Time a fixed pure-Python plus numpy kernel, in ms.

    The kernel never changes, so its time tracks the host's speed: a
    host that slowed between two runs shows it here instead of passing
    the slow-down off as a code change.  Diagnostic only — no metric is
    rescaled by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    values = np.random.default_rng(12345).random(400_000)
    for _ in range(4):
        values = np.sort(values)
        values = np.cumsum(values) % 1.0
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live child process."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        fields = f.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class CpuClock:
    """CPU seconds of this process (all threads) plus given children."""

    def __init__(self, child_pids=()) -> None:
        self.child_pids = [p for p in child_pids if p]
        self._start = self._now()

    def _now(self) -> float:
        return time.process_time() + sum(_proc_cpu_s(p)
                                         for p in self.child_pids)

    def elapsed(self) -> float:
        return self._now() - self._start


def median(values) -> float:
    return float(statistics.median(values))


def low_quartile(values) -> float:
    """First quartile of a unit of work's times over a run's rounds.

    The host's speed comes and goes: bursts of a second or so, in
    spells of a minute or more that are mostly slow in some and mostly
    fast in others.  A median over the rounds of one run follows the
    spell the run fell in, and a minimum follows whether the run met a
    fast burst; the first quartile repeats better from run to run than
    either (README.md, *Noise findings*).
    """
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4)[0])


def rounds(seconds: float, single: bool, least: int):
    """Yield round numbers 1, 2, ... until ``seconds`` have passed and
    at least ``least`` rounds ran; just one round when ``single``."""
    started = time.perf_counter()
    n = 0
    while n < 1 or not single and (
            n < least or time.perf_counter() - started < seconds):
        n += 1
        yield n


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


# -- outcomes -----------------------------------------------------------
@dataclass
class Pass:
    """One timed pass of a workload, or its units' figures over
    several rounds."""

    #: Wall seconds of the timed work.
    wall: float
    #: CPU microseconds of this process and its workers per event: the
    #: units' first-quartile CPU over rounds per event of their inputs,
    #: or the first quartile over a schedule's windows.
    cpu_us_per_event: float
    #: What ``tracing.overhead`` compares between the plain and the
    #: traced pass: wall time, or CPU time where a schedule fixes wall.
    basis: float
    #: Workload figures printed on every run: name -> (value, unit).
    figures: dict = field(default_factory=dict)
    #: Per-layer inputs and diagnostics the workload measured itself.
    extra: dict = field(default_factory=dict)
    #: Digest of the pass's outputs, where they must repeat exactly.
    digest: str = ""


class Result:
    """Operation counts and output checks of one run, and its metrics."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failed check is a failed
        operation."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- tracer -------------------------------------------------------------
class _Stat:
    __slots__ = ("calls", "wall", "self_time", "events", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.events = 0
        self.errors = 0


class Tracer:
    """Wall/self-time accounting for wrapped layer functions.

    ``install`` replaces each named function or method with a wrapper,
    everywhere the program bound it (``from x import f`` copies
    included), and ``uninstall`` puts the originals back.  Wrappers
    record only inside :meth:`recording`, so building, warming and
    stopping services between timed regions stays out of the stats.
    Stats are keyed by a metric stem such as ``shard.apply``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.extra: dict[str, float] = {}
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            with self._lock:
                st = self.stats.setdefault(name, _Stat())
        return st

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.extra[name] = self.extra.get(name, 0.0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers -------------------------------------------------------
    def wrap(self, name, fn, events=None, observe=None):
        """Synchronous wrapper.  ``name`` is a stem or a callable
        ``(args, result) -> stem`` choosing the stem after the call;
        ``events(args)`` counts the events a call handles;
        ``observe(tracer, args, result)`` reads the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            error = False
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                error = True
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st = tracer.stat(name(args, result) if callable(name)
                                 else name)
                st.calls += 1
                st.wall += dt
                st.self_time += dt - child
                if error:
                    st.errors += 1
                else:
                    if events is not None:
                        st.events += events(args)
                    if observe is not None:
                        observe(tracer, args, result)

        return wrapper

    def wrap_async(self, name, fn, events=None, observe=None):
        """Coroutine wrapper: wall time from call to result.  It spans
        awaits, during which other work runs on the same thread, so it
        takes no part in the self-time nesting."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = await fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            st = tracer.stat(name)
            st.calls += 1
            st.wall += dt
            st.self_time += dt
            if events is not None:
                st.events += events(args)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self, specs) -> None:
        """``specs``: ``(target, name, kind, events, observe)`` tuples,
        ``target`` being ``"module:function"`` or
        ``"module:Class.method"`` and ``kind`` ``"sync"``/``"async"``."""
        for target, name, kind, events, observe in specs:
            module_name, _, qual = target.partition(":")
            module = importlib.import_module(module_name)
            make = self.wrap_async if kind == "async" else self.wrap
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, attr,
                          make(name, owner.__dict__[attr], events, observe))
                continue
            original = getattr(module, qual)
            wrapped = make(name, original, events, observe)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
