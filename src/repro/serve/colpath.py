"""Columnar cross-branch fast path: advance many branches in one shot.

The per-branch kernel (:func:`repro.sim.vector.apply_chunk`) makes the
*within-branch* work numpy-fast, but one Python call per distinct PC
per micro-batch is interpreter-bound when thousands of static branches
interleave: each branch contributes a few events and the per-call
overhead dwarfs the vector math.  This module removes the
Python-per-branch cost — including at FSM boundaries — and is the
service's only batch engine.

:class:`ColumnarBank` holds one shard's controller state as
struct-of-arrays columns (the rows of one int64 and one bool table,
128 bytes a row) behind a sorted PC→row index: every field of
``ReactiveBranchController.export_state()`` has a column (two slots
hold the pending-deployment queue) except the transition log, which
the service does not keep: rows are fixed-width, and a batch's arcs
leave only as the captured stream (``ShardApplyResult.transitions``).
For each PC-sorted micro-batch it runs a **split / advance / fire**
loop, fully vectorized across rows:

* **split** — every active row's next boundary offset is computed in
  array code: the classify/revisit fire from the state and its entry
  index, the pending-landing offset by counting the window's
  instruction stamps below the ``land`` column (a segmented
  ``add.reduceat``), and the eviction arc's exact first-threshold-
  crossing index from the segmented floored-walk cumsum (a running
  minimum over per-segment offsets) for every engaged episode at once;
* **advance** — the pre-boundary prefix of every row moves with the
  columnar kernels: one batch-global prefix sum of outcomes yields any
  window's taken count in O(1), driving execution counts, monitor
  tallies, outcome accounting against the deployed direction, and the
  exact floored-at-zero eviction-walk endpoint;
* **fire** — rows that reached a boundary apply the transition as
  array writes per arc kind: the classify decision
  (:func:`~repro.sim.vector.classify_split`), revisit re-entry to
  MONITOR, the eviction arc, and optimization-latency landings, with
  each kind's arcs captured as one array block.  The loop then
  iterates on each row's remaining suffix until every segment is
  consumed.

Two window shapes still take the per-branch kernel
(:meth:`_kernel_segment`), on a temporary controller built from the
row and written back: strided monitor windows (sampling is
offset-dependent) and engaged evict-by-sampling episodes (window
bookkeeping is stateful mid-window).  Single-branch batches go there
too by design (nothing to amortize) and are counted separately
(``events_single``).

The contract stays **bit-exactness** with the scalar
:class:`~repro.core.controller.ReactiveBranchController`: a row holds
exactly its state but the transition log, and the captured stream
carries exactly the arcs its log would have gained, so snapshots, WAL
replay and obs tracing stay interchangeable with offline runs.  Every
controller of the owning shard has a row from the moment it enters,
so the sorted key index is also the shard's record of which
controllers it holds.  The floored-walk identity —
``walk = cum - min(0, running_min(cum))`` with the live counter as
carry-in — is the one ``apply_chunk`` applies per branch, evaluated
here for all engaged rows at once.

State leaves and enters a bank only as a :class:`RowBlock`, the
column slice of a set of rows (:meth:`ColumnarBank.gather`,
:meth:`ColumnarBank.put`): tenant spill and restore, reshard, and the
worker link's LOAD, STATE, TSPILL_RESULT and TRESTORE bodies all carry
blocks, packed by :meth:`RowBlock.to_bytes`.  The ``export_state()``
dict schema appears only at the snapshot file's edge
(:mod:`repro.serve.snapshot`), through :func:`rows_to_states` and
:func:`states_to_rows`.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.core.states import BranchState, TransitionKind
from repro.obs.tracing import ARC_CODE
from repro.sim.vector import apply_chunk, classify_split, deploy_delay

__all__ = ["ColumnarBank", "RowBlock", "SELECT_ROWS", "SUMMARY_ROWS",
           "rows_to_states", "states_to_rows"]

#: Integer codes of :class:`~repro.core.states.BranchState` in the
#: ``state`` column.
_MONITOR, _BIASED, _UNBIASED, _DISABLED = range(4)
_STATES = (BranchState.MONITOR, BranchState.BIASED, BranchState.UNBIASED,
           BranchState.DISABLED)
_STATE_CODE = {state: code for code, state in enumerate(_STATES)}
_STATE_OF_VALUE = {state.value: code for code, state in enumerate(_STATES)}

#: "No boundary scheduled" sentinel for fire offsets and "empty slot"
#: for the landing stamps: far beyond any real count, safely below
#: int64 overflow under ``exec + batch_len`` arithmetic.
_NEVER = 1 << 62

_CODE_SELECT = ARC_CODE[TransitionKind.SELECT.value]
_CODE_REJECT = ARC_CODE[TransitionKind.REJECT.value]
_CODE_EVICT = ARC_CODE[TransitionKind.EVICT.value]
_CODE_REVISIT = ARC_CODE[TransitionKind.REVISIT.value]
_CODE_DISABLE = ARC_CODE[TransitionKind.DISABLE.value]

#: The columns: the rows of one int64 table and one bool table, in the
#: order the codec reads and writes them.  ``land``/``land2`` are the
#: two pending-deployment slots' landing stamps (``_NEVER`` when free);
#: ``spec``/``dir`` and ``spec2``/``dir2`` are what each slot deploys.
_INT_COLS = ("pc", "state", "exec", "entry", "mon_taken", "mon_samples",
             "counter", "bias_entries", "land", "land2", "win_correct",
             "win_pos", "correct", "incorrect", "evictions")
_FLAG_COLS = ("deployed", "dep_dir", "spec", "dir", "spec2", "dir2",
              "episode", "dead")
_SLOTS = (("land", "spec", "dir"), ("land2", "spec2", "dir2"))
_FREE_SLOTS = ((_NEVER, False, False),) * len(_SLOTS)
#: Flag columns a row block carries: all but ``dead``, which is storage
#: bookkeeping, not controller state.
_STATE_FLAGS = len(_FLAG_COLS) - 1
#: Bytes of one row in a packed block.
_ROW_BYTES = 8 * len(_INT_COLS) + _STATE_FLAGS
_EXEC, _CORRECT, _INCORRECT = (_INT_COLS.index(name) for name in
                               ("exec", "correct", "incorrect"))
#: Rows of an apply's per-key summary (:meth:`ColumnarBank.apply_sorted`).
SUMMARY_ROWS = ("key", "exec_before", "events", "taken", "first_taken",
                "first_not_taken")
_NO_SUMMARY = np.empty((len(SUMMARY_ROWS), 0), dtype=np.int64)
_NO_SUMMARY.flags.writeable = False
#: Rows of an apply's SELECT block (:meth:`ColumnarBank.apply_sorted`).
SELECT_ROWS = ("key", "direction", "onset")
_NO_SELECTS = np.empty((len(SELECT_ROWS), 0), dtype=np.int64)
_NO_SELECTS.flags.writeable = False


class _KernelController(ReactiveBranchController):
    """A row's controller for one per-branch-kernel segment: it also
    notes the direction each SELECT deploys, in arc order."""

    __slots__ = ("selected",)

    def _schedule_deploy(self, speculative: bool, instr: int,
                         direction: bool) -> None:
        if speculative:
            self.selected.append(direction)
        super()._schedule_deploy(speculative, instr, direction)


class RowBlock:
    """A set of controller rows as columns: ``ints`` (int64, one row
    per entry of ``_INT_COLS``) and ``flags`` (bool, ``_FLAG_COLS``
    without ``dead``), one column per controller.

    The only form controller state takes inside the process and on the
    worker link.  :meth:`to_bytes` is its one byte form: the columns'
    little-endian bytes, zlib-compressed.  It carries no version or
    checksum of its own: nothing keeps a packed block beyond the
    process that wrote it, and zlib checks the body (Adler-32).
    """

    __slots__ = ("ints", "flags")

    def __init__(self, ints: np.ndarray, flags: np.ndarray) -> None:
        self.ints = ints
        self.flags = flags

    @classmethod
    def empty(cls) -> "RowBlock":
        return cls(np.empty((len(_INT_COLS), 0), dtype=np.int64),
                   np.empty((_STATE_FLAGS, 0), dtype=bool))

    def __len__(self) -> int:
        return self.ints.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowBlock):
            return NotImplemented
        return (np.array_equal(self.ints, other.ints)
                and np.array_equal(self.flags, other.flags))

    @property
    def keys(self) -> np.ndarray:
        """The rows' packed controller keys."""
        return self.ints[0]

    @property
    def deployed(self) -> np.ndarray:
        """The rows' deployed-code views (their decisions)."""
        return self.flags[0]

    def totals(self) -> tuple[int, int, int]:
        """The events and correct and incorrect outcomes the rows have
        seen: their summed ``exec``, ``correct`` and ``incorrect``
        columns."""
        return tuple(int(self.ints[col].sum())
                     for col in (_EXEC, _CORRECT, _INCORRECT))

    def take(self, index: np.ndarray) -> "RowBlock":
        return RowBlock(self.ints[:, index], self.flags[:, index])

    @classmethod
    def concat(cls, blocks) -> "RowBlock":
        blocks = [cls.empty(), *blocks]
        return cls(np.concatenate([b.ints for b in blocks], axis=1),
                   np.concatenate([b.flags for b in blocks], axis=1))

    def sorted(self) -> "RowBlock":
        """The rows in ascending key order."""
        return self.take(np.argsort(self.keys, kind="stable"))

    def split(self, n_shards: int) -> list["RowBlock"]:
        """The rows grouped by owning shard (order kept within each)."""
        # The shard module imports this one, so import its router late.
        from repro.serve.shard import shard_ids

        dest = shard_ids(self.keys, n_shards)
        order = np.argsort(dest, kind="stable")
        bounds = np.searchsorted(dest[order], np.arange(n_shards + 1))
        return [self.take(order[a:b])
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

    def to_bytes(self) -> bytes:
        """The packed block: ``ints`` then ``flags``, column by column,
        little-endian, through zlib at level 1."""
        return zlib.compress(
            self.ints.astype("<i8", copy=False).tobytes()
            + self.flags.tobytes(), 1)

    @classmethod
    def from_bytes(cls, data) -> "RowBlock":
        """The block :meth:`to_bytes` packed into ``data``; the row
        count comes from the length.  Raises :class:`ValueError` for a
        body that does not decompress or is not a whole number of
        rows."""
        try:
            raw = zlib.decompress(data)
        except zlib.error as err:
            raise ValueError(f"row block is not zlib data: {err}") from err
        n, ragged = divmod(len(raw), _ROW_BYTES)
        if ragged:
            raise ValueError(
                f"row block of {len(raw)} bytes is not a whole number "
                f"of {_ROW_BYTES}-byte rows")
        cut = 8 * len(_INT_COLS) * n
        ints = np.frombuffer(raw, dtype="<i8", count=len(_INT_COLS) * n)
        flags = np.frombuffer(raw, dtype=np.uint8, offset=cut)
        return cls(ints.reshape(len(_INT_COLS), n).astype(np.int64),
                   flags.reshape(_STATE_FLAGS, n).astype(bool))


# -- the snapshot file's schema ----------------------------------------------
def rows_to_states(rows: RowBlock) -> list[dict]:
    """The ``export_state()`` dicts of a block's rows, in order: the
    schema, key order and plain Python types of
    :meth:`ReactiveBranchController.export_state`, with
    ``"transitions": []`` (rows keep no arc history).  For the snapshot
    file (:mod:`repro.serve.snapshot`) only."""
    out = []
    for (pc, st, ex, entry, mt, ms, ctr, be, l1, l2, wc, wp, c, x,
         ev, dep, ddir, s1, d1, s2, d2, ep) in zip(*rows.ints.tolist(),
                                                   *rows.flags.tolist()):
        pending = []
        if l1 != _NEVER:
            pending.append([l1, s1, d1])
            if l2 != _NEVER:
                pending.append([l2, s2, d2])
        out.append({
            "branch": pc, "state": _STATES[st].value, "exec_count": ex,
            "state_entry_exec": entry, "monitor_taken": mt,
            "monitor_samples": ms, "counter": ctr, "bias_entries": be,
            "deployed": dep, "deployed_direction": ddir,
            "pending": pending, "episode_active": ep,
            "window_correct": wc, "window_pos": wp, "correct": c,
            "incorrect": x, "evictions": ev,
            "transitions": [],
        })
    return out


def states_to_rows(states: list[dict]) -> RowBlock:
    """The block of controllers given as ``export_state()`` dicts, in
    order; a state's transition log, which older snapshots carry, is
    dropped.  For the snapshot file (:mod:`repro.serve.snapshot`) only.

    Raises :class:`ValueError` naming the branch for a state the
    controller could not have reached or the schema does not describe:
    an unknown FSM state, a missing field, more pending deployments
    than a row's two slots, or a key given twice.
    """
    ints, flags, seen = [], [], set()
    for state in states:
        key, name = state.get("branch"), state.get("state")
        pending = state.get("pending", ())
        if key in seen:
            raise ValueError(f"branch {key}: two controller states")
        seen.add(key)
        if name not in _STATE_OF_VALUE:
            raise ValueError(f"branch {key}: unknown FSM state {name!r}")
        if len(pending) > len(_SLOTS):
            raise ValueError(
                f"branch {key}: {len(pending)} pending deployments, more "
                f"than the controller can queue ({len(_SLOTS)})")
        try:
            (l1, s1, d1), (l2, s2, d2) = (*state["pending"],
                                          *_FREE_SLOTS)[:2]
            ints.append((
                state["branch"], _STATE_OF_VALUE[name], state["exec_count"],
                state["state_entry_exec"], state["monitor_taken"],
                state["monitor_samples"], state["counter"],
                state["bias_entries"], l1, l2, state["window_correct"],
                state["window_pos"], state["correct"], state["incorrect"],
                state["evictions"]))
            flags.append((state["deployed"], state["deployed_direction"],
                          s1, d1, s2, d2, state["episode_active"]))
        except KeyError as err:
            raise ValueError(
                f"branch {key}: no {err} field in its state") from err
    if not states:
        return RowBlock.empty()
    return RowBlock(np.array(ints, dtype=np.int64).T.copy(),
                    np.array(flags, dtype=bool).T.copy())


class ColumnarBank:
    """One shard's controller state, as columns.

    Owned by a :class:`~repro.serve.shard.BankShard`, whose decision
    cache it keeps current.  The columns are the only copy of the
    state: rows leave through :meth:`gather` and enter through
    :meth:`put` as a :class:`RowBlock`, and a scalar controller exists
    only as :meth:`controller`'s detached copy or for one
    per-branch-kernel window.
    """

    __slots__ = ("config", "_decisions", "_fire_after", "n_rows", "n_dead",
                 "_cap", "_keys", "_key_rows",
                 "rows_fast", "rows_fallback", "rows_single",
                 "events_fast", "events_fallback", "events_single",
                 "arcs_fast", "lands_fast",
                 "_ints", "_flags", *_INT_COLS, *_FLAG_COLS)

    def __init__(self, config: ControllerConfig,
                 decisions: dict[int, bool]) -> None:
        self.config = config
        self._decisions = decisions
        #: Executions from state entry to the classify/revisit fire,
        #: by state code.
        self._fire_after = np.array(
            [config.monitor_period, _NEVER,
             config.revisit_period if config.revisit_enabled else _NEVER,
             _NEVER], dtype=np.int64)
        self.n_rows = 0
        self.n_dead = 0
        self._cap = 0
        self._grow(1024)
        self._keys = np.empty(0, dtype=np.int64)
        self._key_rows = np.empty(0, dtype=np.int64)
        #: Fast-path engagement counters (see ``stats()``).
        self.rows_fast = 0
        self.rows_fallback = 0
        self.rows_single = 0
        self.events_fast = 0
        self.events_fallback = 0
        self.events_single = 0
        self.arcs_fast = 0
        self.lands_fast = 0

    # -- storage --------------------------------------------------------
    def _grow(self, capacity: int) -> None:
        cap = max(self._cap, 16)
        while cap < capacity:
            cap *= 2
        if cap == self._cap:
            return
        n = self.n_rows
        for table, names, dtype in (("_ints", _INT_COLS, np.int64),
                                    ("_flags", _FLAG_COLS, bool)):
            new = np.zeros((len(names), cap), dtype=dtype)
            if n:
                new[:, :n] = getattr(self, table)[:, :n]
            setattr(self, table, new)
            # Each column is a contiguous row view of its table.
            for name, column in zip(names, new):
                setattr(self, name, column)
        self._cap = cap

    def __len__(self) -> int:
        return self.n_rows

    def stats(self) -> dict[str, int]:
        """Engagement counters since construction.

        ``fast`` counts rows/events advanced in the columnar arrays
        (including resolved boundary suffixes), ``fallback`` the true
        per-branch-kernel fallbacks (strided monitors, engaged
        evict-by-sampling episodes), and ``single`` the by-design
        single-branch batches that bypass the cross-branch machinery.
        ``arcs_fast``/``lands_fast`` count FSM arcs and deployment
        landings resolved columnar.
        """
        return {
            "rows": self.n_rows,
            "rows_dead": self.n_dead,
            "rows_fast": self.rows_fast,
            "rows_fallback": self.rows_fallback,
            "rows_single": self.rows_single,
            "events_fast": self.events_fast,
            "events_fallback": self.events_fallback,
            "events_single": self.events_single,
            "arcs_fast": self.arcs_fast,
            "lands_fast": self.lands_fast,
        }

    # -- interning ------------------------------------------------------
    def _intern(self, upcs: np.ndarray) -> np.ndarray:
        """Rows for sorted unique PCs, creating any that are missing."""
        keys = self._keys
        m = len(upcs)
        if keys.size:
            pos = np.searchsorted(keys, upcs)
            clip = np.minimum(pos, keys.size - 1)
            found = keys[clip] == upcs
        else:
            clip = None
            found = np.zeros(m, dtype=bool)
        rows = np.empty(m, dtype=np.int64)
        if clip is not None:
            rows[found] = self._key_rows[clip[found]]
        miss = np.flatnonzero(~found)
        if miss.size:
            rows[miss] = self._add_rows(upcs[miss])
            self._rebuild_index()
        return rows

    def _rebuild_index(self) -> None:
        """Recompute the sorted key → row lookup, skipping dead rows."""
        n = self.n_rows
        if self.n_dead:
            alive = np.flatnonzero(~self.dead[:n])
        else:
            alive = np.arange(n, dtype=np.int64)
        order = np.argsort(self.pc[:n][alive])
        self._key_rows = alive[order]
        self._keys = self.pc[self._key_rows]

    def _add_rows(self, new_pcs: np.ndarray) -> np.ndarray:
        """Rows for ``new_pcs`` in a never-executed controller's state."""
        base = self.n_rows
        m = len(new_pcs)
        self._grow(base + m)
        self.n_rows = base + m
        new = slice(base, base + m)
        self._ints[:, new] = 0
        self._flags[:, new] = False
        self.pc[new] = new_pcs
        self.state[new] = _MONITOR
        self.land[new] = _NEVER
        self.land2[new] = _NEVER
        decisions = self._decisions
        for pc in new_pcs.tolist():
            decisions.setdefault(pc, False)
        return np.arange(base, base + m, dtype=np.int64)

    @property
    def keys(self) -> np.ndarray:
        """Every live key, ascending."""
        return self._keys

    def key_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The live keys in ``[lo, hi]`` (ascending) and their rows."""
        a = int(np.searchsorted(self._keys, lo, side="left"))
        b = int(np.searchsorted(self._keys, hi, side="right"))
        return self._keys[a:b], self._key_rows[a:b]

    def _row_of(self, pc: int) -> int | None:
        keys = self._keys
        if not keys.size:
            return None
        pos = int(np.searchsorted(keys, pc))
        if pos >= keys.size or int(keys[pos]) != pc:
            return None
        return int(self._key_rows[pos])

    # -- rows in and out -----------------------------------------------
    def gather(self, rows: np.ndarray | None = None) -> RowBlock:
        """A copy of ``rows`` as a block (every live row in key order
        when None)."""
        if rows is None:
            rows = self._key_rows
        return RowBlock(self._ints[:, rows], self._flags[:-1, rows])

    def put(self, block: RowBlock) -> None:
        """Enter ``block``'s rows (its keys distinct): each replaces any
        row held under its key and sets the key's decision."""
        n = len(block)
        if not n:
            return
        # A key minted while its tenant was spilled (say, by the
        # controller() accessor) has a row the block makes stale.
        self.evict_keys(block.keys)
        base = self.n_rows
        self._grow(base + n)
        self.n_rows = base + n
        new = slice(base, base + n)
        self._ints[:, new] = block.ints
        self._flags[:-1, new] = block.flags
        self.dead[new] = False
        self._decisions.update(zip(block.keys.tolist(),
                                   block.deployed.tolist()))
        self._rebuild_index()

    # -- scalar controllers on request ----------------------------------
    def _controller_of(self, row: int, cls=ReactiveBranchController,
                       ) -> ReactiveBranchController:
        """A detached scalar controller (a ``cls``) in ``row``'s state.
        Rows keep no arc history, so its transition log starts empty;
        changing it does not change the row."""
        (pc, state, ex, entry, mt, ms, ctr, be, l1, l2, wc, wp, c, x,
         ev) = self._ints[:, row].tolist()
        dep, ddir, s1, d1, s2, d2, ep, _dead = self._flags[:, row].tolist()
        # Every slot is set below, so skip __init__'s defaults.
        ctrl = object.__new__(cls)
        ctrl.config = self.config
        ctrl.branch = pc
        ctrl.state = _STATES[state]
        ctrl.exec_count = ex
        ctrl._state_entry_exec = entry
        ctrl._monitor_taken = mt
        ctrl._monitor_samples = ms
        ctrl._counter = ctr
        ctrl._bias_entries = be
        ctrl._deployed = dep
        ctrl._deployed_direction = ddir
        ctrl._pending = ([] if l1 == _NEVER else [(l1, s1, d1)]
                         if l2 == _NEVER else [(l1, s1, d1), (l2, s2, d2)])
        ctrl._episode_active = ep
        ctrl._window_correct = wc
        ctrl._window_pos = wp
        ctrl.correct = c
        ctrl.incorrect = x
        ctrl.evictions = ev
        ctrl.transitions = []
        return ctrl

    def _store(self, row: int, ctrl: ReactiveBranchController) -> None:
        """Write a :meth:`_controller_of` controller back into ``row``
        (its transition log is not part of the row)."""
        (l1, s1, d1), (l2, s2, d2) = (*ctrl._pending, *_FREE_SLOTS)[:2]
        self._ints[1:, row] = (
            _STATE_CODE[ctrl.state], ctrl.exec_count, ctrl._state_entry_exec,
            ctrl._monitor_taken, ctrl._monitor_samples, ctrl._counter,
            ctrl._bias_entries, l1, l2, ctrl._window_correct,
            ctrl._window_pos, ctrl.correct, ctrl.incorrect, ctrl.evictions)
        self._flags[:-1, row] = (ctrl._deployed, ctrl._deployed_direction,
                                 s1, d1, s2, d2, ctrl._episode_active)

    def controller(self, pc: int) -> ReactiveBranchController:
        """A detached scalar copy of ``pc``'s controller (see
        :meth:`_controller_of`: its transition log is empty).  An
        unseen ``pc`` is interned first, exactly as a batch would mint
        it."""
        row = self._row_of(pc)
        if row is None:
            row = int(self._intern(np.array([pc], dtype=np.int64))[0])
        return self._controller_of(row)

    # -- eviction -------------------------------------------------------
    def evict_keys(self, keys: np.ndarray) -> None:
        """Drop the rows for ``keys`` (int64).

        Used by tenant spill after the rows were gathered, and by
        :meth:`put` before it replaces a key's row: the rows are
        tombstoned (``dead``) and removed from the lookup index, so a
        later re-intern of the same key mints a fresh row.  Tombstones
        are compacted away once they outnumber live rows, keeping
        resident memory proportional to the *resident* working set.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size or not self._keys.size:
            return
        pos = np.searchsorted(self._keys, keys)
        clip = np.minimum(pos, self._keys.size - 1)
        hit = self._keys[clip] == keys
        if not hit.any():
            return
        slots = clip[hit]
        rows = self._key_rows[slots]
        self.dead[rows] = True
        self.n_dead += int(rows.size)
        if (np.diff(slots) == 1).all():
            lo = int(slots[0])
            hi = lo + int(slots.size)
            # One run of the index (a tenant's key range): two slice
            # copies instead of a pass through a mask.
            self._keys = np.concatenate((self._keys[:lo], self._keys[hi:]))
            self._key_rows = np.concatenate((self._key_rows[:lo],
                                             self._key_rows[hi:]))
        else:
            keep = np.ones(self._keys.size, dtype=bool)
            keep[slots] = False
            self._keys = self._keys[keep]
            self._key_rows = self._key_rows[keep]
        if self.n_dead > max(1024, self.n_rows - self.n_dead):
            self._compact()

    def _compact(self) -> None:
        """Gather live rows into a dense prefix and rebuild the index."""
        n = self.n_rows
        alive = np.flatnonzero(~self.dead[:n])
        m = int(alive.size)
        self._ints[:, :m] = self._ints[:, alive]
        self._flags[:, :m] = self._flags[:, alive]
        self.n_rows = m
        self.n_dead = 0
        self._rebuild_index()

    # -- the per-branch kernel ------------------------------------------
    def _kernel_segment(self, row: int, taken: np.ndarray,
                        instrs: np.ndarray, capture: bool,
                        fired: list[np.ndarray]) -> tuple[int, int]:
        """One segment through :func:`apply_chunk` on a controller built
        from the row, then written back."""
        ctrl = self._controller_of(row, _KernelController)
        ctrl.selected = []
        c, x = apply_chunk(ctrl, taken, instrs)
        if capture and ctrl.transitions:
            dirs = iter(ctrl.selected)
            fired.append(np.array(
                [(ctrl.branch, ARC_CODE[t.kind.value], t.exec_index, t.instr,
                  next(dirs) if t.kind is TransitionKind.SELECT else 0)
                 for t in ctrl.transitions], dtype=np.int64).T)
        self._store(row, ctrl)
        return c, x

    # -- batched boundary arcs ------------------------------------------
    def _capture_arcs(self, rows: np.ndarray, codes: np.ndarray,
                      fexec: np.ndarray, finstr: np.ndarray, capture: bool,
                      fired: list[np.ndarray], dirs=0) -> None:
        """Count one arc per row, and capture them when ``capture``
        (with ``dirs``, the direction a SELECT deploys)."""
        if capture:
            fired.append(np.stack((self.pc[rows], codes, fexec, finstr,
                                   np.broadcast_to(dirs, rows.shape))))
        self.arcs_fast += len(rows)

    def _schedule(self, rows: np.ndarray, when: np.ndarray,
                  speculative: bool, direction: np.ndarray) -> None:
        """Queue a deployment per row: into slot one if it is free,
        else behind it in slot two."""
        free = self.land[rows] == _NEVER
        for (land, spec, dirn), take in zip(_SLOTS, (free, ~free)):
            r = rows[take]
            getattr(self, land)[r] = when[take]
            getattr(self, spec)[r] = speculative
            getattr(self, dirn)[r] = direction[take]

    def _land(self, rows: np.ndarray, stamps: np.ndarray) -> None:
        """Land every deployment due by ``stamps`` (slot one is), in
        queue order: slot two moves up into slot one as slot one lands,
        and empties (a free slot's columns are ``_FREE_SLOTS``, so a
        row is a function of the controller's state alone).
        """
        while rows.size:
            spec = self.spec[rows]
            self.deployed[rows] = spec
            s = rows[spec]
            self.dep_dir[s] = self.dir[s]
            self.episode[s] = True
            self.win_correct[s] = 0
            self.win_pos[s] = 0
            self.land[rows] = self.land2[rows]
            self.spec[rows] = self.spec2[rows]
            self.dir[rows] = self.dir2[rows]
            self.land2[rows] = _NEVER
            self.spec2[rows] = False
            self.dir2[rows] = False
            due = self.land[rows] <= stamps
            rows, stamps = rows[due], stamps[due]

    def _fire_classify(self, crows: np.ndarray, fexec: np.ndarray,
                       finstr: np.ndarray, capture: bool,
                       fired: list[np.ndarray]) -> None:
        """Monitor period complete for ``crows``: classify each branch
        (the bias test is :func:`~repro.sim.vector.classify_split`)."""
        cfg = self.config
        select, reject, disable, direction = classify_split(
            self.mon_taken[crows], self.mon_samples[crows],
            self.bias_entries[crows], cfg)
        self.entry[crows] = fexec + 1
        if select.any():
            r = crows[select]
            self.state[r] = _BIASED
            self.counter[r] = 0
            self.episode[r] = False
            self.bias_entries[r] += 1
            self._schedule(r, finstr[select] + deploy_delay(cfg), True,
                           direction[select])
        self.state[crows[reject]] = _UNBIASED
        self.state[crows[disable]] = _DISABLED
        codes = np.where(select, _CODE_SELECT,
                         np.where(disable, _CODE_DISABLE, _CODE_REJECT))
        self._capture_arcs(crows, codes, fexec, finstr, capture, fired,
                           direction)

    def _fire_revisit(self, rrows: np.ndarray, fexec: np.ndarray,
                      finstr: np.ndarray, capture: bool,
                      fired: list[np.ndarray]) -> None:
        """Revisit countdown expired for ``rrows``: re-enter MONITOR."""
        self.state[rrows] = _MONITOR
        self.entry[rrows] = fexec + 1
        self.mon_taken[rrows] = 0
        self.mon_samples[rrows] = 0
        self._capture_arcs(rrows, np.full(rrows.size, _CODE_REVISIT),
                           fexec, finstr, capture, fired)

    def _fire_evict(self, erows: np.ndarray, fexec: np.ndarray,
                    finstr: np.ndarray, capture: bool,
                    fired: list[np.ndarray]) -> None:
        """Eviction walk crossed its ceiling for ``erows``: evict, and
        queue the repair (non-speculative code)."""
        cfg = self.config
        self.state[erows] = _MONITOR
        self.entry[erows] = fexec + 1
        self.mon_taken[erows] = 0
        self.mon_samples[erows] = 0
        self.counter[erows] = cfg.evict_counter_max
        self.episode[erows] = False
        self.evictions[erows] += 1
        self._schedule(erows, finstr + deploy_delay(cfg), False,
                       self.dep_dir[erows])
        self._capture_arcs(erows, np.full(erows.size, _CODE_EVICT),
                           fexec, finstr, capture, fired)

    # -- the fast path --------------------------------------------------
    def apply_sorted(self, pcs: np.ndarray, taken: np.ndarray,
                     instrs: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray, capture: bool, detect: bool = False,
                     ) -> tuple[int, int, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray, np.ndarray]:
        """Apply a PC-sorted batch; returns (correct, incorrect, changed,
        changed_deployed, transitions, summary, selects), the arrays of
        :class:`~repro.serve.shard.ShardApplyResult`.

        ``starts``/``ends`` bound the per-PC segments (program order
        preserved within each).  Must not be called with an empty
        batch.

        ``capture`` captures the batch's arcs.  With ``detect`` too, the
        misspeculation detector's two inputs come back; otherwise both
        are empty.  ``summary`` is the batch per key: an int64 ``[6, U]``
        block (rows :data:`SUMMARY_ROWS`) with one column per segment,
        in key order — the key, its row's exec count before the batch,
        its events and taken outcomes in the batch, and the offsets
        within its segment of its first taken and first not-taken
        outcome (-1 for none).  ``selects`` is an int64 ``[3, S]`` block
        (rows :data:`SELECT_ROWS`) with one column per SELECT arc of
        ``transitions``, in their order: the key, the direction the
        SELECT deploys (1 taken, 0 not taken), and the exec index of the
        key's first outcome against that direction after the SELECT
        within the batch (-1 for none).
        """
        detect = detect and capture
        fired = [np.empty((5, 0), dtype=np.int64)]
        if len(starts) == 1:
            # Single-branch batch: there is nothing for the cross-
            # branch machinery to amortize, and its small-array kernel
            # launches cost more than the one apply_chunk call they
            # would replace.
            pc = int(pcs[0])
            row = self._row_of(pc)
            if row is None:
                row = int(self._intern(pcs[:1].astype(np.int64))[0])
            summary = _NO_SUMMARY
            if detect:
                n, ones = len(taken), int(np.count_nonzero(taken))
                summary = np.array(
                    [[pc], [self.exec.item(row)], [n], [ones],
                     [int(np.argmax(taken)) if ones else -1],
                     [int(np.argmin(taken)) if ones < n else -1]],
                    dtype=np.int64)
            before = self.deployed.item(row)
            c, x = self._kernel_segment(row, taken, instrs, capture, fired)
            self.rows_single += 1
            self.events_single += len(taken)
            after = self.deployed.item(row)
            arcs, selects = _arc_blocks(fired, summary, taken, starts, ends)
            if after == before:
                return (c, x, np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=bool), arcs, summary, selects)
            self._decisions[pc] = after
            return (c, x, np.array([pc], dtype=np.int64),
                    np.array([after]), arcs, summary, selects)
        cfg = self.config
        keys = pcs[starts].astype(np.int64)
        rows = self._intern(keys)
        nseg = len(rows)
        # Deployed view at batch entry: the decision-cache invalidation
        # set is the *net* flips over the whole batch, derived at the
        # end.
        dep0 = self.deployed[rows].copy()
        # One batch-global exclusive prefix sum of outcomes: any
        # window's taken count is tc[end] - tc[start], O(1) per window.
        n = len(taken)
        tc = np.empty(n + 1, dtype=np.int64)
        tc[0] = 0
        np.cumsum(taken, out=tc[1:])
        summary = (self._summary(keys, rows, taken, starts, ends, tc)
                   if detect else _NO_SUMMARY)
        cur = starts.astype(np.int64)
        seg_end = ends.astype(np.int64)
        seg_last = instrs[ends - 1]
        correct_delta = 0
        incorrect_delta = 0
        stride1 = cfg.monitor_sample_stride == 1
        evict_counter = cfg.eviction_enabled and not cfg.evict_by_sampling
        evict_sampling = cfg.eviction_enabled and cfg.evict_by_sampling
        inc = cfg.misspec_increment
        dec = cfg.correct_decrement
        cmax = cfg.evict_counter_max
        fell_back = 0
        act = np.arange(nseg, dtype=np.int64)
        while act.size:
            arows = rows[act]
            st = self.state[arows]
            # Windows the columnar kernels cannot express take their
            # whole remaining slice through the per-branch kernel:
            # strided monitor sampling is offset-dependent, and
            # evict-by-sampling window bookkeeping is stateful
            # mid-window.
            bad = None
            if not stride1:
                bad = st == _MONITOR
            if evict_sampling:
                sampling = (st == _BIASED) & self.episode[arows]
                bad = sampling if bad is None else bad | sampling
            if bad is not None and bad.any():
                for k in act[bad].tolist():
                    s = int(cur[k])
                    e = int(seg_end[k])
                    self.rows_fallback += 1
                    self.events_fallback += e - s
                    c, x = self._kernel_segment(
                        int(rows[k]), taken[s:e], instrs[s:e], capture,
                        fired)
                    correct_delta += c
                    incorrect_delta += x
                fell_back += int(bad.sum())
                act = act[~bad]
                if not act.size:
                    break
                arows = rows[act]
                st = self.state[arows]
            acur = cur[act]
            rem = seg_end[act] - acur
            exec0 = self.exec[arows]
            dep = self.deployed[arows]
            dirs = self.dep_dir[arows]
            land = self.land[arows]
            counter0 = self.counter[arows]
            # -- split: each row's next boundary offset ----------------
            # Classify/revisit fire: consumes fire - exec events,
            # firing during the last of them.
            m_fire = self.entry[arows] + self._fire_after[st] - exec0
            # Pending landing: fires *before* the first event whose
            # stamp reaches the land column (consumes no event).
            due = land <= seg_last[act]
            m_land = rem.copy()
            # Eviction-walk threshold crossing for engaged episodes.
            if evict_counter:
                engaged = (st == _BIASED) & self.episode[arows]
            else:
                engaged = np.zeros(act.size, dtype=bool)
            ct_win = tc[seg_end[act]] - tc[acur]
            miss_win = np.where(dirs, rem - ct_win, ct_win)
            # All-correct windows only decay the counter — closed form,
            # no per-event scan needed.
            need_walk = engaged & (miss_win > 0)
            cross = np.full(act.size, _NEVER, dtype=np.int64)
            walk_end = None
            scan = due | need_walk
            if scan.any():
                # Compact per-event view of just the windows that need
                # an element-wise scan (landing searches, miss-bearing
                # eviction walks); everything else stays O(1)/row.
                sidx = np.flatnonzero(scan)
                lens = rem[sidx]
                total = int(lens.sum())
                base = np.cumsum(lens) - lens
                seg_id = np.repeat(np.arange(sidx.size), lens)
                gidx = (np.arange(total, dtype=np.int64) - base[seg_id]
                        + acur[sidx][seg_id])
                if due.any():
                    # Stamps are sorted within a window, so the landing
                    # offset is the count of stamps below the land mark.
                    below = instrs[gidx] < land[sidx][seg_id]
                    m_land[sidx] = np.add.reduceat(
                        below.astype(np.int64), base)
                if need_walk.any():
                    hit_dir = taken[gidx] == dirs[sidx][seg_id]
                    steps = np.where(hit_dir, -dec, inc)
                    cum = np.cumsum(steps)
                    carry = counter0[sidx] - (cum[base] - steps[base])
                    walk_cum = cum + carry[seg_id]
                    # Segmented running minimum: shift each segment
                    # down by more than the global value range so a
                    # global minimum.accumulate cannot leak across
                    # segment boundaries, then shift back.
                    big = int(walk_cum.max()) - int(walk_cum.min()) + 1
                    shift = seg_id * big
                    run_min = (np.minimum.accumulate(walk_cum - shift)
                               + shift)
                    walk = walk_cum - np.minimum(run_min, 0)
                    pos = np.arange(total, dtype=np.int64) - base[seg_id]
                    wlen = np.minimum(lens, m_land[sidx])
                    crossing = ((walk >= cmax) & (pos < wlen[seg_id])
                                & need_walk[sidx][seg_id])
                    first = np.minimum.reduceat(
                        np.where(crossing, pos, _NEVER), base)
                    found = first != _NEVER
                    cross[sidx[found]] = first[found] + 1
                    walk_end = np.zeros(act.size, dtype=np.int64)
                    walk_end[sidx] = walk[base + np.maximum(wlen, 1) - 1]
            # First boundary wins; an arc consuming b events fires
            # during event b-1, a landing at offset m fires before
            # event m — so the arc goes first iff b <= m.
            b_arc = np.minimum(m_fire, cross)
            arc = (b_arc <= m_land) & (b_arc <= rem)
            landing = ~arc & (m_land < rem)
            adv = np.where(arc, b_arc, np.where(landing, m_land, rem))
            # -- advance: move every pre-boundary prefix ---------------
            ct = tc[acur + adv] - tc[acur]
            self.exec[arows] = exec0 + adv
            hits = np.where(dirs, ct, adv - ct)
            fc = np.where(dep, hits, 0)
            fx = np.where(dep, adv - hits, 0)
            self.correct[arows] += fc
            self.incorrect[arows] += fx
            correct_delta += int(fc.sum())
            incorrect_delta += int(fx.sum())
            mon = st == _MONITOR
            if mon.any():
                # stride == 1 here (strided monitors fell back): every
                # execution is a sample, including a classify event.
                mrows = arows[mon]
                self.mon_samples[mrows] += adv[mon]
                self.mon_taken[mrows] += ct[mon]
            if engaged.any():
                live = engaged & (cross == _NEVER)
                simple = live & ~need_walk
                if simple.any():
                    self.counter[arows[simple]] = np.maximum(
                        0, counter0[simple] - adv[simple] * dec)
                walked = live & need_walk & (adv > 0)
                if walked.any():
                    self.counter[arows[walked]] = walk_end[walked]
            self.events_fast += int(adv.sum())
            # -- fire: batched boundary transitions --------------------
            if arc.any():
                fexec = exec0 + adv - 1
                finstr = instrs[acur + adv - 1]
                cls = arc & mon
                if cls.any():
                    self._fire_classify(arows[cls], fexec[cls],
                                        finstr[cls], capture, fired)
                rev = arc & (st == _UNBIASED)
                if rev.any():
                    self._fire_revisit(arows[rev], fexec[rev],
                                       finstr[rev], capture, fired)
                evi = arc & (cross != _NEVER)
                if evi.any():
                    self._fire_evict(arows[evi], fexec[evi],
                                     finstr[evi], capture, fired)
            lidx = np.flatnonzero(landing)
            if lidx.size:
                self._land(arows[lidx], instrs[acur[lidx] + adv[lidx]])
                self.lands_fast += int(lidx.size)
            new_cur = acur + adv
            cur[act] = new_cur
            act = act[new_cur < seg_end[act]]
        self.rows_fast += nseg - fell_back
        # Net decision flips over the whole batch, landing and fallback
        # rows alike.
        fin = self.deployed[rows]
        flips = np.flatnonzero(fin != dep0)
        changed = self.pc[rows[flips]]
        deployed = fin[flips]
        self._decisions.update(zip(changed.tolist(), deployed.tolist()))
        arcs, selects = _arc_blocks(fired, summary, taken, starts, ends)
        return (correct_delta, incorrect_delta, changed, deployed, arcs,
                summary, selects)

    def _summary(self, keys: np.ndarray, rows: np.ndarray,
                 taken: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 tc: np.ndarray) -> np.ndarray:
        """The per-key summary of a sorted batch (see
        :meth:`apply_sorted`), read before any row advances."""
        out = np.empty((len(SUMMARY_ROWS), len(keys)), dtype=np.int64)
        out[0] = keys
        out[1] = self.exec[rows]
        np.subtract(ends, starts, out=out[2])
        np.subtract(tc[ends], tc[starts], out=out[3])
        # A segment's first outcome is at offset 0.  The other one first
        # occurs at the segment's first outcome change, which exists
        # only in a mixed segment: there it is the first change in the
        # batch after the segment's start.
        change = np.full(len(keys), -1, dtype=np.int64)
        mixed = np.flatnonzero((out[3] > 0) & (out[3] < out[2]))
        if mixed.size:
            flips = np.flatnonzero(taken[1:] != taken[:-1]) + 1
            at = starts[mixed]
            change[mixed] = flips[np.searchsorted(flips, at, side="right")]
            change[mixed] -= at
        first_taken = taken[starts].astype(bool)
        out[4] = np.where(first_taken, 0, change)
        out[5] = np.where(first_taken, change, 0)
        return out


def _arc_blocks(fired: list[np.ndarray], summary: np.ndarray,
                taken: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """A sorted batch's transitions and SELECT block (see
    :meth:`ColumnarBank.apply_sorted`) from its captured arcs, whose
    fifth row is the direction a SELECT deploys, and its summary (the
    SELECT block is empty without one)."""
    arcs = np.concatenate(fired, 1)
    sel = np.flatnonzero(arcs[1] == _CODE_SELECT)
    if not (sel.size and summary.shape[1]):
        return arcs[:4], _NO_SELECTS
    key, at, direction = arcs[0, sel], arcs[2, sel], arcs[4, sel]
    seg = np.searchsorted(summary[0], key)
    # The batch position of the key's next event after the SELECT's.
    nxt = starts[seg] + (at - summary[1, seg]) + 1
    end = ends[seg]
    # Outcomes are binary: the first outcome against the direction is
    # the next event itself, or else the batch's first outcome change
    # after it.
    first = nxt.copy()
    agree = (nxt < end) & (taken[np.minimum(nxt, len(taken) - 1)]
                           == direction.astype(bool))
    if agree.any():
        flips = np.flatnonzero(taken[1:] != taken[:-1]) + 1
        after = np.searchsorted(flips, nxt[agree], side="right")
        first[agree] = np.append(flips, len(taken))[after]
    onset = np.where(first < end, at + 1 + first - nxt, -1)
    return arcs[:4], np.stack((key, direction, onset))
