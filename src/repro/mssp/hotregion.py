"""Hot-region detection for the dynamic optimizer front-end.

The paper's MSSP methodology (Section 4.2): "the system identifies hot
program regions, characterizes them, and generates optimized versions".
This module rebuilds that front-end over branch traces: a Dynamo/NET
style detector that counts executions per static branch, seeds regions
at hot branches, and grows each region along the most-frequent dynamic
successor edges until the path cools, loops back, or hits a length
limit.  The MSSP distiller then only speculates on branches inside
deployed hot regions, mirroring a real dynamic optimizer that never
touches cold code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.stream import Trace

__all__ = ["HotRegion", "HotRegionDetector", "detect_hot_regions"]


@dataclass(frozen=True)
class HotRegion:
    """A detected hot region: an ordered path of static branches."""

    region_id: int
    branches: tuple[int, ...]
    heat: int  # executions of the seed branch during detection

    def __contains__(self, branch: int) -> bool:
        return branch in self.branches


class HotRegionDetector:
    """Online hot-region detection over a branch event stream.

    Feed events with :meth:`observe`; regions form once a seed branch
    crosses ``hot_threshold`` executions.  The successor graph is built
    from observed consecutive branch pairs, so region growing follows
    real control flow, not static structure: each branch's successors
    keep the order their edges first appeared in, which breaks ties
    between equal weights (the earlier edge wins).
    """

    def __init__(self, hot_threshold: int = 500,
                 max_region_branches: int = 16,
                 min_edge_fraction: float = 0.3) -> None:
        if hot_threshold <= 0:
            raise ValueError("hot_threshold must be positive")
        if max_region_branches <= 0:
            raise ValueError("max_region_branches must be positive")
        if not 0.0 < min_edge_fraction <= 1.0:
            raise ValueError("min_edge_fraction must be in (0, 1]")
        self.hot_threshold = hot_threshold
        self.max_region_branches = max_region_branches
        self.min_edge_fraction = min_edge_fraction
        self._succ: dict[int, dict[int, int]] = {}
        self._counts: dict[int, int] = {}
        self._prev: int | None = None
        self._regions: list[HotRegion] = []
        self._covered: set[int] = set()

    def observe(self, branch: int) -> HotRegion | None:
        """Record one dynamic branch; returns a region if one formed."""
        self._counts[branch] = count = self._counts.get(branch, 0) + 1
        if self._prev is not None:
            successors = self._succ.setdefault(self._prev, {})
            successors[branch] = successors.get(branch, 0) + 1
        self._prev = branch
        if count == self.hot_threshold and branch not in self._covered:
            return self._form(branch, self._succ.get)
        return None

    def _form(self, seed: int, successors) -> HotRegion:
        """Grow a region from ``seed`` and deploy it.

        ``successors(branch)`` is the branch's successor weights as
        this event sees them (None or empty: no successor yet), in
        edge order.
        """
        path = [seed]
        current = seed
        while len(path) < self.max_region_branches:
            weights = successors(current)
            if not weights:
                break
            best = max(weights, key=weights.__getitem__)
            if weights[best] / sum(weights.values()) \
                    < self.min_edge_fraction:
                break  # control flow too diffuse to follow
            if best in path:
                break  # closed a loop: the region is complete
            path.append(best)
            current = best
        region = HotRegion(region_id=len(self._regions),
                           branches=tuple(path),
                           heat=self.hot_threshold)
        self._regions.append(region)
        self._covered.update(region.branches)
        return region

    @property
    def regions(self) -> tuple[HotRegion, ...]:
        return tuple(self._regions)

    def covered_branches(self) -> set[int]:
        """Static branches inside any deployed region."""
        return set(self._covered)


def detect_hot_regions(trace: Trace, hot_threshold: int = 500,
                       max_region_branches: int = 16,
                       min_edge_fraction: float = 0.3,
                       ) -> tuple[HotRegionDetector, np.ndarray]:
    """Run detection over a whole trace.

    Returns the detector plus a boolean per-event array marking events
    whose branch was inside a deployed hot region *at that time* (a
    branch only counts after its region forms, like a real optimizer
    that cannot speculate before it has built the region).  The
    detector ends in the state :meth:`HotRegionDetector.observe` over
    every event would leave, so it can keep observing.

    Regions can only form at a branch's ``hot_threshold``-th execution,
    so only those events are visited, in program order.  Successor
    weights as an event sees them are counts of the branch pairs up to
    it, read from one sort of the trace's pair codes.
    """
    detector = HotRegionDetector(hot_threshold, max_region_branches,
                                 min_edge_fraction)
    n = len(trace)
    groups = trace.groups()
    ids = groups.unique_ids.astype(np.int64)
    n_ids = len(ids)
    # rank[i]: event i's branch as an index into ids.
    rank = np.empty(n, dtype=np.int64)
    rank[groups.order] = np.repeat(np.arange(n_ids), groups.counts)

    # The trace's branch pairs sorted by code, stably: each distinct
    # pair is one run, its events (those of its second branch)
    # ascending.  Pairs of one first branch are adjacent.
    codes = rank[:-1] * n_ids + rank[1:]
    by_code = np.argsort(codes, kind="stable")
    codes = codes[by_code]
    new_pair = np.empty(len(codes), dtype=bool)
    new_pair[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=new_pair[1:])
    pair_starts = np.flatnonzero(new_pair)
    pair_src = codes[pair_starts] // n_ids
    pair_dst = ids[codes[pair_starts] % n_ids]
    pair_first = by_code[pair_starts] + 1
    # (pair, event) as one ascending key: a pair's weight as event t
    # sees it is how many of its keys are at most (pair, t).
    stride = n + 1
    keys = (np.cumsum(new_pair) - 1) * stride + by_code + 1
    src_lo = np.searchsorted(pair_src, np.arange(n_ids), side="left")
    src_hi = np.searchsorted(pair_src, np.arange(n_ids), side="right")

    def weights_at(branch: int, t: int) -> dict[int, int]:
        """``branch``'s successor weights as event ``t`` sees them."""
        r = int(np.searchsorted(ids, branch))
        pairs = np.arange(src_lo[r], src_hi[r])
        weights = np.searchsorted(keys, pairs * stride + t,
                                  side="right") - pair_starts[pairs]
        pairs, weights = pairs[weights > 0], weights[weights > 0]
        in_edge_order = np.argsort(pair_first[pairs])
        return dict(zip(pair_dst[pairs[in_edge_order]].tolist(),
                        weights[in_edge_order].tolist()))

    hot = np.flatnonzero(groups.counts >= hot_threshold)
    crossings = groups.order[groups.starts[hot] + hot_threshold - 1]
    in_time = np.argsort(crossings)
    # cover[r]: the event at which branch ids[r] entered a region.
    cover = np.full(n_ids, n, dtype=np.int64)
    for t, r in zip(crossings[in_time].tolist(), hot[in_time].tolist()):
        if cover[r] < n:
            continue
        region = detector._form(int(ids[r]),
                                lambda branch: weights_at(branch, t))
        members = np.searchsorted(ids, region.branches)
        cover[members] = np.minimum(cover[members], t)
    in_region = cover[rank] <= np.arange(n)

    first_seen = np.argsort(groups.order[groups.starts])
    detector._counts = dict(zip(ids[first_seen].tolist(),
                                groups.counts[first_seen].tolist()))
    succ = detector._succ
    edge_order = np.argsort(pair_first)
    pair_weight = np.diff(pair_starts, append=len(codes))
    for src, dst, weight in zip(ids[pair_src[edge_order]].tolist(),
                                pair_dst[edge_order].tolist(),
                                pair_weight[edge_order].tolist()):
        succ.setdefault(src, {})[dst] = weight
    detector._prev = int(trace.branch_ids[-1])
    return detector, in_region
