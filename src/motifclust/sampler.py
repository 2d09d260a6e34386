"""Collapsed Gibbs sampler over cluster assignments, alignments and widths.

State holds, per cluster, the summed core counts of its aligned members;
cluster parameters are integrated out, so moves only ever touch these
sufficient statistics.  They live in one column table, the only copy of
the counts.  Every column starts out scored by the background theta0, and
the tables score each core column against it, so the joint is a constant
plus the scores of the core columns, and every move weight is a
difference of table lookups.  Each iteration sweeps assignments in
motif-index order, then (on the align_every schedule) core offsets, then
the widths of all clusters in one batched update.  All randomness flows
through one numpy Generator, making runs bit-reproducible from the seed.

Offsets are 0-based column indices into the raw matrix; a core of width w
at offset a covers columns [a, a + w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .kernels import (
    GammaTables,
    Hyperparameters,
    PriorKind,
    log_partition_prior,
    log_width_probs,
    tables_for,
)
from .matrices import MotifRecord


@dataclass(frozen=True)
class RunConfig:
    """Sampler run settings.

    burn_in defaults to 20% of iterations.  align_every=None disables the
    alignment sweep.  audit_every (in state updates) rebuilds the sufficient
    statistics from scratch and fails loudly on any mismatch.
    """

    iterations: int
    burn_in: int | None = None
    align_every: int | None = 10
    thin: int = 1
    seed: int = 0
    audit_every: int | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.iterations // 5)
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.iterations and self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.align_every is not None and self.align_every < 1:
            raise ValueError("align_every must be >= 1 (or None to disable)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.audit_every is not None and self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")


@dataclass(frozen=True)
class Snapshot:
    """One recorded state: canonical labels (first appearance order),
    0-based offsets, and per-canonical-cluster widths."""

    iteration: int
    log_joint: float
    z: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray


@dataclass
class RunTrace:
    """Everything a run leaves behind: per-iteration series, thinned
    post-burn-in snapshots, and the highest-density snapshot seen."""

    ids: list[str]
    config: RunConfig
    hyper: Hyperparameters
    initial: Snapshot
    log_joint_series: np.ndarray
    n_clusters_series: np.ndarray
    snapshots: list[Snapshot]
    best: Snapshot


class ClusterView(NamedTuple):
    """One live cluster as SamplerState.clusters shows it; `stats` is the
    view itself, so width and member_count read as on kernels.ClusterStats."""

    width: int
    member_count: int
    members: frozenset[int]

    @property
    def stats(self) -> ClusterView:
        return self


class SamplerState:
    """Mutable sampler state bound to its data and hyperparameters.

    The summed core counts of every cluster live in one column table: a
    (5, capacity) column stack (see GammaTables.stack) next to the score of
    each column against the background (the tables are built on theta0).
    Each cluster owns a contiguous segment of `top` columns, its members'
    cores summed as wide as every member can hold at its offset (top is
    the smallest room L - o among them); its width w <= top only says how
    many of them are scored.  A width change therefore writes no column.
    A new cluster, or one whose top changes, gets a segment appended at
    the end; the segment it leaves is retired (zero counts and scores,
    member count 0).  Every assignment update scans the retired columns
    too, so before an append the table is compacted once they number more
    than 64 (on collection-106, about where a compaction costs what the
    scans it saves cost) or more than the live ones; live columns never
    exceed the summed motif lengths, so the table has a fixed capacity.

    The rest of each cluster sits in per-segment arrays, in table order:
    start, top, width, cluster id (-1 once retired), member count, the
    stamp below and the scan counter.  A segment's log prior mass is
    `_logm` at its member count (log m under the DP, 0 under the uniform
    prior, -inf at 0, so once retired).  `_seg_of` maps each live cluster
    id to its segment, in ascending id order (ids only grow, and a
    relocated cluster keeps its place).  Member lists come from `z`.
    `clusters` is a read-only view of all this; no move reads it.

    The assignment conditional lists the live clusters in scan order:
    ascending `_seg_seq`, the clock value at which the cluster was opened
    or last took a new width.  A table that appended a segment at each of
    those events would hold its clusters in that order, and the draws are
    defined on it; a segment moved only because its top changed keeps its
    counter.

    The table is the only copy of the cluster counts: moves update it and
    nothing else.  The columns outside every core need no copy: the joint
    scores all columns by the background once (`_null`), and each core
    column's table score replaces that term.

    The table, the motif store `_flat` and every stack gathered from them
    are row-major, so each column marginal sums five contiguous rows (see
    GammaTables.column_marginals); a column-major stack makes that reduce,
    most of an assignment update, about 6x slower.

    Every write to the table, the segment map or a width advances the
    mutation clock `_clock`, and every segment written carries the clock
    value of its last write in `_seg_stamp` (unique across segments;
    compaction carries it along).  The moves memoise their conditionals
    against these: per motif one alignment CDF keyed on its segment's stamp
    and one assignment CDF keyed on the clock, plus the width sweep's last
    evaluation, also keyed on the clock.  A memo whose key is current is
    the conditional a fresh evaluation would give, bit for bit (audit
    checks this), so a hit only skips the arithmetic, never changes a draw.
    """

    __slots__ = (
        "data",
        "hyper",
        "tables",
        "ids",
        "lengths",
        "z",
        "offsets",
        "updates",
        "_next_id",
        "_null",
        "_logm",
        "_log_b",
        "_flat",
        "_fflat",
        "_base",
        "_base_arr",
        "_win",
        "_wprior",
        "_wcdf",
        "_new_prefix",
        "_cols",
        "_fcol",
        "_pos",
        "_empty",
        "_arange",
        "_ncols",
        "_dead",
        "_nseg",
        "_seg_bounds",
        "_seg_start",
        "_seg_top",
        "_seg_width",
        "_seg_cid",
        "_seg_count",
        "_seg_stamp",
        "_seg_seq",
        "_seg_of",
        "_scan",
        "_clock",
        "_views",
        "_align_memo",
        "_assign_memo",
        "_width_memo",
    )

    def __init__(self, data: Sequence[MotifRecord], hyper: Hyperparameters):
        if not data:
            raise ValueError("need at least one motif")
        self.data = list(data)
        self.hyper = hyper
        self.ids = [rec.id for rec in self.data]
        raw = [rec.matrix.counts for rec in self.data]
        self.lengths = np.array([r.shape[0] for r in raw], dtype=np.int64)
        short = [rec.id for rec in self.data if rec.width < hyper.wmin]
        if short:
            raise ValueError(
                f"motifs narrower than wmin={hyper.wmin}: {short}; filter first"
            )
        # a column total of any core sum is at most the sum, over motifs, of
        # each motif's largest column total
        self.tables: GammaTables = tables_for(
            hyper.alpha, sum(int(r.sum(axis=1).max()) for r in raw), hyper.log_theta0
        )
        tables = self.tables
        self._log_b = math.log(hyper.b)
        n = len(self.data)
        # _logm[m]: log prior mass of a cluster of m members
        dp = hyper.prior_kind is PriorKind.DP
        self._logm = np.array([-math.inf] + [math.log(m) if dp else 0.0 for m in range(1, n + 1)])
        max_len = int(self.lengths.max())
        # every motif's column stack (plain totals) in one array, each one
        # followed by max_len zero columns so that a core of any width can be
        # gathered at any offset: motif i's column j is _flat[:, _base[i] + j],
        # and _win[:, _base[i] + o, p] is its column o + p
        spans = self.lengths + max_len
        self._base_arr = np.add.accumulate(spans) - spans
        self._base = self._base_arr.tolist()
        self._flat = np.zeros((5, int(spans.sum())), dtype=np.int64)
        self._win = np.lib.stride_tricks.sliding_window_view(self._flat, max_len, axis=1)
        for base, r in zip(self._base, raw):
            cols = self._flat[:, base : base + r.shape[0]]
            cols[:4] = r.T
            cols[4] = r.sum(axis=1)
        self._empty = tables.stack(np.zeros((1, 4), dtype=np.int64))
        # _fflat[j]: the score of _flat's column j alone, which a singleton's
        # segment copies; _new_prefix[i][j]: new-cluster weight of columns < j
        self._fflat = tables.column_marginals(self._flat + self._empty)
        self._new_prefix = [
            np.concatenate([[0.0], np.cumsum(self._fflat[base : base + length] + tables.log_const)])
            for base, length in zip(self._base, self.lengths.tolist())
        ]
        # every column scored by the background alone
        self._null = float(hyper.log_theta0 @ self._flat[:4].sum(axis=1))
        self.z = np.zeros(n, dtype=np.int64)
        self.offsets = np.zeros(n, dtype=np.int64)
        self.updates = 0
        self._next_id = 0
        # live columns never exceed the summed lengths, retired ones never
        # exceed the live ones before an append: capacity is fixed
        capacity = 2 * int(self.lengths.sum()) + max_len
        self._cols = np.zeros((5, capacity), dtype=np.int64)
        self._fcol = np.zeros(capacity)
        self._pos = np.zeros(capacity, dtype=np.int64)
        self._arange = np.arange(max_len + 1)
        # _wprior[top, w]: log_width_probs(hyper, top) at w, -inf off wmin..top;
        # _wcdf[top]: its unnormalised CDF (see _cdf), which a new cluster on
        # a motif of length top draws its width from
        self._wprior = np.full((max_len + 1, max_len + 1), -np.inf)
        self._wcdf: list[np.ndarray | None] = [None] * (max_len + 1)
        for top in range(hyper.wmin, max_len + 1):
            lw = log_width_probs(hyper, top)
            self._wprior[top, hyper.wmin : top + 1] = lw
            self._wcdf[top] = _cdf(lw)
        self._ncols = 0
        self._dead = 0
        self._nseg = 0
        segments = n + int(self.lengths.sum()) + 1
        # _seg_bounds[s]: start and end of segment s's scored columns, the
        # reduceat bounds of the assignment weights
        self._seg_bounds = np.zeros((segments, 2), dtype=np.int64)
        self._seg_start = self._seg_bounds[:, 0]
        self._seg_top = np.zeros(segments, dtype=np.int64)
        self._seg_width = np.zeros(segments, dtype=np.int64)
        self._seg_cid = np.zeros(segments, dtype=np.int64)
        self._seg_count = np.zeros(segments, dtype=np.int64)
        self._seg_stamp = np.zeros(segments, dtype=np.int64)
        self._seg_seq = np.zeros(segments, dtype=np.int64)
        self._seg_of: dict[int, int] = {}
        # the scan order until the layout changes; see _scan_order
        self._scan: np.ndarray | None = None
        self._clock = 0
        self._views: tuple[int, Mapping[int, ClusterView]] = (-1, {})
        # (key, CDF) per motif, and (key, segments, CDF) of the width sweep;
        # key -1 never matches
        self._align_memo: list[tuple[int, np.ndarray | None]] = [(-1, None)] * n
        self._assign_memo: list[tuple[int, np.ndarray | None]] = [(-1, None)] * n
        self._width_memo: tuple = (-1, None, None)

    # ------------------------------------------------------------ bookkeeping

    def n_motifs(self) -> int:
        return len(self.data)

    @property
    def clusters(self) -> Mapping[int, ClusterView]:
        """Read-only view of the live clusters by ascending id, built from the
        arrays and z; until the next write each id reads as one ClusterView."""
        clock, views = self._views
        if clock != self._clock:
            _, members, sizes = self._groups()
            members, ends = members.tolist(), np.add.accumulate(sizes).tolist()
            widths = self._seg_width[list(self._seg_of.values())].tolist()
            views = MappingProxyType({
                cid: ClusterView(w, end - start, frozenset(members[start:end]))
                for cid, w, start, end in zip(self._seg_of, widths, [0] + ends, ends)
            })
            self._views = (self._clock, views)
        return views

    def core(self, i: int, offset: int, width: int) -> np.ndarray:
        start = self._base[i] + offset
        return self._flat[:4, start : start + width].T

    def _groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per live cluster, in ascending id: the widest core every member
        can hold at its offset; then every motif grouped by cluster in
        ascending id (one stable argsort of z), and the group sizes."""
        members = self.z.argsort(kind="stable")
        labels = self.z[members]
        cids = list(self._seg_of)
        first = labels.searchsorted(cids)
        sizes = labels.searchsorted(cids, side="right") - first
        room = (self.lengths - self.offsets)[members]
        return np.minimum.reduceat(room, first), members, sizes

    def _top(self, members) -> int:
        """The widest core every one of these motifs can hold at its offset."""
        return int(np.minimum.reduce(self.lengths[members] - self.offsets[members]))

    def _members(self, cid: int) -> np.ndarray:
        return (self.z == cid).nonzero()[0]

    def _update(self, seg: int, op: np.ufunc, cols: np.ndarray) -> None:
        """Apply `op` (np.add or np.subtract) with the column stack `cols` to
        the columns of segment `seg`, in place, refresh their marginals and
        stamp the segment."""
        self._clock += 1
        self._seg_stamp[seg] = self._clock
        start = int(self._seg_start[seg])
        end = start + cols.shape[1]
        span = self._cols[:, start:end]
        # out=, not `+=` on a slice, which writes the strided segment back a
        # second time: a visible cost on small tables
        op(span, cols, out=span)
        self._fcol[start:end] = self.tables.column_marginals(span)

    def _place(self, cid: int, width: int, members, seq: int | None = None) -> None:
        """Append a segment for cluster cid holding its members' cores
        summed at their offsets, `top` columns wide, of which the first
        `width` are scored.  It takes the end of the scan order
        unless `seq` gives its counter."""
        if self._dead > min(self._ncols - self._dead, 64):
            self._compact()
        top = self._top(members)
        start, end = self._ncols, self._ncols + top
        self._cols[:, start:end] = self._core_stack(members, top)
        if len(members) == 1:
            at = self._base[members[0]] + int(self.offsets[members[0]])
            self._fcol[start:end] = self._fflat[at : at + top]
        else:
            self._fcol[start:end] = self.tables.column_marginals(self._cols[:, start:end])
        self._pos[start:end] = self._arange[:top]
        self._clock += 1
        seg = self._nseg
        self._seg_stamp[seg] = self._clock
        self._seg_seq[seg] = self._clock if seq is None else seq
        self._seg_bounds[seg] = start, start + width
        self._seg_top[seg] = top
        self._seg_width[seg] = width
        self._seg_cid[seg] = cid
        self._seg_count[seg] = len(members)
        self._seg_of[cid] = seg
        self._nseg += 1
        self._ncols = end
        self._scan = None

    def _retire(self, seg: int) -> None:
        """Empty segment seg (zero counts and marginals) and retire it."""
        self._clock += 1
        start, top = int(self._seg_start[seg]), int(self._seg_top[seg])
        self._cols[:, start : start + top] = self._empty
        self._fcol[start : start + top] = 0.0
        self._seg_cid[seg] = -1
        self._seg_count[seg] = 0
        self._seg_seq[seg] = _RETIRED
        self._dead += top
        self._scan = None

    def _relocate(self, seg: int, members, width: int | None = None) -> None:
        """Move the cluster of segment seg to a new segment rebuilt from
        these members (see _place).  With a width, the cluster takes it and
        the end of the scan order, as a new cluster does; without, it keeps
        its width and its scan counter."""
        cid = int(self._seg_cid[seg])
        seq = None if width is not None else int(self._seg_seq[seg])
        width = int(self._seg_width[seg]) if width is None else width
        self._retire(seg)
        self._place(cid, width, members, seq)

    def _refit(self, seg: int, members) -> bool:
        """Relocate segment seg (keeping its width and counter) if these
        members' top is not its own; says whether it did."""
        if self._top(members) == self._seg_top[seg]:
            return False
        self._relocate(seg, members)
        return True

    def _rescore(self, seg: int, width: int) -> None:
        """Give the cluster of segment seg a new width: no column changes,
        but the segment is stamped and takes the end of the scan order."""
        self._clock += 1
        self._seg_width[seg] = width
        self._seg_bounds[seg, 1] = self._seg_start[seg] + width
        self._seg_stamp[seg] = self._seg_seq[seg] = self._clock
        self._scan = None

    def _compact(self) -> None:
        """Drop retired segments, keeping the live ones in table order."""
        self._clock += 1
        k, n = self._nseg, self._ncols
        alive = self._seg_cid[:k] >= 0
        # index gathers: a boolean mask over the columns is about 2x slower
        keep = np.repeat(alive, self._seg_top[:k]).nonzero()[0]
        m = len(keep)
        self._cols[:, :m] = self._cols[:, :n].take(keep, axis=1)
        self._fcol[:m] = self._fcol.take(keep)
        self._pos[:m] = self._pos.take(keep)
        alive = alive.nonzero()[0]
        live = len(alive)
        for arr in (self._seg_top, self._seg_width, self._seg_cid, self._seg_count,
                    self._seg_stamp, self._seg_seq):
            arr[:live] = arr.take(alive)
        tops = self._seg_top[:live]
        self._seg_start[:live] = np.cumsum(tops) - tops
        np.add(self._seg_start[:live], self._seg_width[:live], out=self._seg_bounds[:live, 1])
        # existing keys keep their place in _seg_of
        self._seg_of.update(zip(self._seg_cid[:live].tolist(), range(live)))
        self._nseg, self._ncols, self._dead = live, m, 0
        self._scan = None

    def _scan_order(self) -> np.ndarray:
        """The live segments in scan order (ascending _seg_seq; retired ones
        sort last), cached until the layout next changes."""
        if self._scan is None:
            self._scan = self._seg_seq[: self._nseg].argsort()[: len(self._seg_of)]
        return self._scan

    def _core_stack(self, members: Sequence[int], width: int) -> np.ndarray:
        """Column stack, as the table holds it, of these motifs' cores
        summed, each `width` columns wide at its current offset."""
        starts = [self._base[i] + int(self.offsets[i]) for i in members]
        # _empty is a zero column stack: it adds each row's offset (see
        # GammaTables.stack) to the plain counts of _flat
        cols = self._flat[:, starts[0] : starts[0] + width] + self._empty
        for at in starts[1:]:
            cols += self._flat[:, at : at + width]
        return cols

    def _new_cluster(self, members: Sequence[int], width: int) -> None:
        """Open a cluster of these members, at their current offsets, with
        this width."""
        self._place(self._next_id, width, members)
        self.z[members] = self._next_id
        self._next_id += 1

    def _member(self, i: int, seg: int, op: np.ufunc) -> None:
        """Add (op np.add) or remove (np.subtract) motif i's core, at its
        current offset, in segment seg, in place, and count the member."""
        at = self._base[i] + int(self.offsets[i])
        self._update(seg, op, self._flat[:, at : at + int(self._seg_top[seg])])
        self._seg_count[seg] = op(self._seg_count[seg], 1)

    def attach(self, i: int, cid: int) -> None:
        """Add motif i's core (at its current offset) to cluster cid; a motif
        with less room than the cluster's top relocates the cluster."""
        seg = self._seg_of[cid]
        self.z[i] = cid
        if self.lengths[i] - self.offsets[i] >= self._seg_top[seg]:
            self._member(i, seg, np.add)
        else:
            self._relocate(seg, self._members(cid))

    def detach(self, i: int) -> None:
        """Remove motif i from its cluster.  Emptied clusters are retired,
        their ids never reused; one that loses the member with the least
        room may have a wider top, and is relocated if so."""
        cid = int(self.z[i])
        seg = self._seg_of[cid]
        if self._seg_count[seg] == 1:
            self._retire(seg)
            del self._seg_of[cid]
            return
        if self.lengths[i] - self.offsets[i] == self._seg_top[seg]:
            rest = self._members(cid)
            if self._refit(seg, rest[rest != i]):
                return
        self._member(i, seg, np.subtract)

    def audit(self) -> None:
        """Rebuild the cluster map, the per-segment arrays and the column
        table from z and the offsets; exact match required.  Live segments
        are rebuilt, top-wide, and retired ones must be empty."""
        k = self._nseg
        cids, segs = list(self._seg_of), list(self._seg_of.values())
        if cids != sorted(set(self.z.tolist())) or not all(0 <= seg < k for seg in segs):
            raise AssertionError("cluster map out of sync with the labels")
        rooms, members, sizes = self._groups()
        owner, count = np.full(k, -1), np.zeros(k, dtype=np.int64)
        owner[segs], count[segs] = cids, sizes
        for arr, rebuilt in ((self._seg_cid, owner), (self._seg_count, count)):
            if not np.array_equal(arr[:k], rebuilt):
                raise AssertionError("segment owners or member counts out of sync")
        groups = dict(zip(cids, np.split(members, np.add.accumulate(sizes)[:-1])))
        rooms = dict(zip(cids, rooms.tolist()))
        start = dead = 0
        for seg in range(k):
            top, cid = int(self._seg_top[seg]), int(self._seg_cid[seg])
            if int(self._seg_start[seg]) != start:
                raise AssertionError(f"segment {seg} start out of sync")
            if cid < 0:
                if self._seg_seq[seg] != _RETIRED:
                    raise AssertionError(f"retired segment {seg} still in the scan order")
                expected, marginals = np.broadcast_to(self._empty, (5, top)), 0.0
                dead += top
            else:
                if top != rooms[cid] or not self.hyper.wmin <= self._seg_width[seg] <= top:
                    raise AssertionError(f"segment {seg} top or width out of sync")
                rebuilt = np.zeros((top, 4), dtype=np.int64)
                for i in groups[cid].tolist():
                    o = int(self.offsets[i])
                    if o < 0:
                        raise AssertionError(f"motif {i} core outside matrix bounds")
                    rebuilt += self.core(i, o, top)
                expected = self.tables.stack(rebuilt)
                marginals = self.tables.column_marginals(expected)
            # a retired segment keeps the positions it was placed with
            if not (
                np.array_equal(self._cols[:, start : start + top], expected)
                and np.all(self._fcol[start : start + top] == marginals)
                and np.array_equal(self._pos[start : start + top], np.arange(top))
            ):
                raise AssertionError(f"segment {seg} columns out of sync")
            start += top
        if start != self._ncols or dead != self._dead:
            raise AssertionError("column table extent out of sync")
        counters = (("stamps", self._seg_stamp[:k]), ("scan counters", self._seg_seq[segs]))
        for name, keys in counters:
            if not _distinct(keys) or np.any(keys > self._clock):
                raise AssertionError(f"segment {name} out of sync")
        ends = self._seg_start[:k] + self._seg_width[:k]
        if not np.array_equal(self._seg_bounds[:k, 1], ends):
            raise AssertionError("segment bounds out of sync")
        cached, self._scan = self._scan, None
        if cached is not None and not np.array_equal(cached, self._scan_order()):
            raise AssertionError("cached scan order stale")
        # a memo whose key is current must be what a fresh evaluation gives
        for i, (key, cum) in enumerate(self._align_memo):
            seg = self._seg_of[int(self.z[i])]
            if key == self._seg_stamp[seg] and not np.array_equal(
                cum, _cdf(_alignment_weights(self, i))
            ):
                raise AssertionError(f"motif {i} alignment memo stale")
        for i, (key, cum) in enumerate(self._assign_memo):
            if key == self._clock and not np.array_equal(cum, _cdf(_assignment_weights(self, i))):
                raise AssertionError(f"motif {i} assignment memo stale")
        clock, *memo = self._width_memo
        if clock == self._clock:
            segs, logw = _width_weights(self)
            fresh = (segs, None if logw is None else _cdf(logw))
            if not all(np.array_equal(a, b) for a, b in zip(memo, fresh)):
                raise AssertionError("width memo stale")

    # ------------------------------------------------------------- densities

    def log_joint_fast(self) -> float:
        """Joint log density from the incrementally-maintained statistics.
        Its sums are exactly rounded (math.fsum), so a state scores the same
        bits whatever the order of its segments in the table."""
        lp = log_partition_prior(self.z.tolist(), self.hyper) + self._null
        k, n = self._nseg, self._ncols
        # the scored columns of every segment; retired columns score 0
        scored = self._pos[:n] < np.repeat(self._seg_width[:k], self._seg_top[:k])
        lp += math.fsum(self._fcol[:n][scored].tolist())
        # the live segments, in an order that exactly rounded sums ignore
        segs = self._scan_order()
        widths = self._seg_width[segs]
        lp += int(widths.sum()) * self.tables.log_const
        return lp + math.fsum(self._wprior[self._seg_top[segs], widths].tolist())

    def snapshot(self, iteration: int, log_joint: float) -> Snapshot:
        labels = self.z.tolist()
        # canonical labels number the clusters in order of first appearance
        relabel = {lab: k for k, lab in enumerate(dict.fromkeys(labels))}
        return Snapshot(
            iteration=iteration,
            log_joint=log_joint,
            z=np.array([relabel[lab] for lab in labels], dtype=np.int64),
            offsets=self.offsets.copy(),
            widths=self._seg_width[[self._seg_of[lab] for lab in relabel]],
        )


# ------------------------------------------------------------------ init


def init_state(
    data: Sequence[MotifRecord], hyper: Hyperparameters, rng: np.random.Generator
) -> SamplerState:
    """Build the starting state: every motif a singleton.

    Each width is lam rounded, clamped into [wmin, motif length]; each
    offset is uniform over the feasible range for that width.
    """
    state = SamplerState(data, hyper)
    target_w = max(hyper.wmin, int(round(hyper.lam)))
    for i in range(state.n_motifs()):
        w = min(target_w, int(state.lengths[i]))
        state.offsets[i] = rng.integers(0, int(state.lengths[i]) - w + 1)
        state._new_cluster([i], w)
    return state


# ------------------------------------------------------------------ moves


# the scan counter of a retired segment, above every live one
_RETIRED = np.iinfo(np.int64).max


def _cdf(logw: np.ndarray) -> np.ndarray:
    """Unnormalised CDF of the log weights along their last axis, each row
    scaled by its largest weight."""
    # ufunc methods, not np.max/np.cumsum/np.searchsorted: on small inputs
    # their Python-level dispatch is a sizeable share of an update
    top = np.maximum.reduce(logw, -1)
    if logw.ndim > 1:
        top = top[:, None]
    return np.add.accumulate(np.exp(logw - top), -1)


def _draw(cum: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from an unnormalised CDF, one uniform."""
    return int(cum.searchsorted(rng.random() * cum[-1], side="right"))


def _distinct(keys: np.ndarray) -> bool:
    """Whether no two keys are equal (a sort, not np.unique, whose import of
    numpy.ma every process that rebuilds a state would pay)."""
    keys = np.sort(keys)
    return bool(np.all(keys[1:] != keys[:-1]))


def _new_width(state: SamplerState, length: int, rng: np.random.Generator) -> int:
    """Width of a new cluster on a motif of this length, drawn from the
    width prior truncated at the length (log_width_probs) with one uniform,
    through the CDF built at state set-up."""
    return state.hyper.wmin + _draw(state._wcdf[length], rng)


def _assignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weights of motif i, held out of its own cluster,
    joining each live cluster (in scan order, see SamplerState), then of
    opening a new cluster scored on its current core extent.  Each weight
    is a prior mass plus the change in the scores of the cluster's first w
    columns, which already count the background of the columns a core
    covers.  Clusters too wide for the motif's offset, and the motif's own
    cluster when it is the only member, get weight -inf."""
    seg = state._seg_of[int(state.z[i])]
    start, w = int(state._seg_start[seg]), int(state._seg_width[seg])
    o = int(state.offsets[i])
    k = state._nseg
    order = state._scan_order()
    # the motif's columns against every table column, and one column past
    # the table so that a scored prefix may end there; subtracted on its own
    # segment, so that segment evaluates the other members without it
    n = state._ncols + 1
    motif = state._win[:, state._base[i] + o].take(state._pos[:n], axis=1)
    own = motif[:, start : start + w]
    np.negative(own, out=own)
    np.add(motif, state._cols[:, :n], out=motif)
    gain = state.tables.column_marginals(motif)
    np.subtract(gain, state._fcol[:n], out=gain)
    # reduceat sums every scored prefix at an even index, each with the
    # bits of a reduceat over that prefix alone (np.add.reduce may differ)
    joins = np.add.reduceat(gain, state._seg_bounds[:k].ravel())[::2]
    leave = joins[seg]
    np.add(joins, state._logm[state._seg_count[:k]], out=joins)
    np.putmask(joins, state._seg_width[:k] > int(state.lengths[i]) - o, -np.inf)
    joins[seg] = state._logm[state._seg_count[seg] - 1] - leave
    logw = np.empty(len(order) + 1)
    joins.take(order, out=logw[:-1])
    new_prefix = state._new_prefix[i]
    logw[-1] = state._log_b + new_prefix[o + w] - new_prefix[o]
    return logw


def resample_assignment(state: SamplerState, i: int, rng: np.random.Generator) -> None:
    """Gibbs update of motif i's cluster assignment.

    Weights are sequential prior mass times the predictive likelihood of the
    motif's core under each candidate width, plus the background term for
    columns the candidate core leaves uncovered.  Clusters whose width does
    not fit at the motif's current offset get probability zero.  A chosen
    new cluster draws its width from the truncated width prior and clamps
    the offset to keep the core inside the matrix.  Staying put leaves the
    state untouched.

    The CDF of these weights is memoised per motif against the state's
    mutation clock: when nothing in the table has changed since the motif's
    last visit, the draw reads the stored CDF.
    """
    seg = state._seg_of[int(state.z[i])]
    key, cum = state._assign_memo[i]
    if key != state._clock:
        cum = _cdf(_assignment_weights(state, i))
        state._assign_memo[i] = (state._clock, cum)
    order = state._scan_order()
    choice = _draw(cum, rng)
    if choice < len(order):
        if order[choice] != seg:
            cid = int(state._seg_cid[order[choice]])
            state.detach(i)
            state.attach(i, cid)
    else:
        length = int(state.lengths[i])
        w_new = _new_width(state, length, rng)
        o = min(int(state.offsets[i]), length - w_new)
        if state._seg_count[seg] > 1:
            state.detach(i)
            state.offsets[i] = o
            state._new_cluster([i], w_new)
        elif w_new != state._seg_width[seg]:
            # a singleton stays alone only through this option, so it keeps
            # its id; a clamped offset narrows its top
            if o < state.offsets[i]:
                state.offsets[i] = o
                state._relocate(seg, [i], w_new)
            else:
                state._rescore(seg, w_new)
    state.updates += 1


def _alignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weight of every offset of motif i's core within its
    cluster of width w: the join predictive against the other members (for
    singletons, the fresh-cluster marginal) less the background of the
    columns it covers, as the table scores give it.  Scores all L - w + 1
    offsets at once."""
    tables = state.tables
    seg = state._seg_of[int(state.z[i])]
    start, w = int(state._seg_start[seg]), int(state._seg_width[seg])
    length = int(state.lengths[i])
    base = state._base[i]
    at = base + int(state.offsets[i])
    rest = state._cols[:, start : start + w] - state._flat[:, at : at + w]
    windows = state._win[:, base : base + length - w + 1, :w]
    gain = tables.column_marginals(windows + rest[:, None, :]) - tables.column_marginals(rest)
    return gain.sum(axis=1)


def resample_alignment(state: SamplerState, i: int, rng: np.random.Generator) -> None:
    """Gibbs update of motif i's core offset within its cluster.

    The motif's own core is held out of the cluster statistics; each
    feasible offset is scored by the join predictive against the remaining
    members (for singletons this is the fresh-cluster marginal) plus the
    background term for the columns it displaces.

    The CDF of these weights is memoised per motif against the stamp of its
    cluster's segment, which changes with every write to those columns
    (including the motif's own moves): while the stamp holds, the draw reads
    the stored CDF.
    """
    cid = int(state.z[i])
    seg = state._seg_of[cid]
    w = int(state._seg_width[seg])
    length = int(state.lengths[i])
    if length > w:
        o_old = int(state.offsets[i])
        stamp = int(state._seg_stamp[seg])
        key, cum = state._align_memo[i]
        if key != stamp:
            cum = _cdf(_alignment_weights(state, i))
            state._align_memo[i] = (stamp, cum)
        o_new = _draw(cum, rng)
        if o_new != o_old:
            state.offsets[i] = o_new
            top = int(state._seg_top[seg])
            # the top can move only if the motif had or now has the least room
            least = min(length - o_new, length - o_old) <= top
            if not (least and state._refit(seg, state._members(cid))):
                motif = state._flat[:, state._base[i] :]
                shift = motif[:, o_new : o_new + top] - motif[:, o_old : o_old + top]
                state._update(seg, np.add, shift)
    state.updates += 1


def _width_weights(state: SamplerState) -> tuple[np.ndarray, np.ndarray | None]:
    """Unnormalized log weights of the core widths of the live clusters
    that can take more than one width, in ascending cluster id.

    Returns the segment indices of those clusters and their log weights
    (row per cluster, column w - wmin, -inf past the cluster's top).  Weight
    of width w: the scores of the segment's first w columns, read from the
    table, the background term of the columns beyond w, and the width
    prior.  With no such cluster, the weights are None.
    """
    wmin = state.hyper.wmin
    segs = np.array(list(state._seg_of.values()))
    top = state._seg_top[segs]
    free = top > wmin
    segs, top = segs[free], top[free]
    if not len(segs):
        return segs, None
    span = int(top.max())
    # past its top a row reads other segments' scores, masked by the prior
    col = state._fcol[state._seg_start[segs, None] + state._arange[:span]] + state.tables.log_const
    logw = np.add.accumulate(col, axis=1)[:, wmin - 1 :] + state._wprior[top, wmin : span + 1]
    return segs, logw


def resample_width(state: SamplerState, rng: np.random.Generator) -> None:
    """Gibbs update of the core widths of every live cluster.

    Given the partition and the offsets, the widths of different clusters
    are independent, so all of them are drawn from one evaluation (see
    _width_weights), one uniform per cluster with more than one feasible
    width, in ascending cluster id.  A new width writes no table column:
    each moved cluster takes the end of the scan order, in ascending id.

    The evaluation is memoised against the state's mutation clock: a sweep
    that finds the table as the last one left it draws from the stored
    CDFs.
    """
    state.updates += len(state._seg_of)
    if state._width_memo[0] == state._clock:
        _, segs, cum = state._width_memo
    else:
        segs, logw = _width_weights(state)
        cum = None if logw is None else _cdf(logw)
        state._width_memo = (state._clock, segs, cum)
    if cum is None:
        return
    # row-wise inverse CDF, searchsorted(side="right") as in _draw
    u = rng.random(len(segs)) * cum[:, -1]
    w_new = state.hyper.wmin + np.add.reduce(cum <= u[:, None], axis=1)
    moved = (w_new != state._seg_width[segs]).nonzero()[0]
    for seg, w in zip(segs[moved].tolist(), w_new[moved].tolist()):
        state._rescore(seg, w)


# ------------------------------------------------------------------ run loop


def run(data: Sequence[MotifRecord], hyper: Hyperparameters, config: RunConfig) -> RunTrace:
    """Run the sampler from config.seed; returns the trace with series,
    snapshots and best state."""
    rng = np.random.default_rng(config.seed)
    state = init_state(data, hyper, rng)
    n = state.n_motifs()
    logp0 = state.log_joint_fast()
    initial = state.snapshot(0, logp0)
    best = initial
    log_joint_series = np.empty(config.iterations)
    n_clusters_series = np.empty(config.iterations, dtype=np.int64)
    snapshots: list[Snapshot] = []
    next_audit = config.audit_every

    for t in range(1, config.iterations + 1):
        for i in range(n):
            resample_assignment(state, i, rng)
        if config.align_every is not None and t % config.align_every == 0:
            for i in range(n):
                resample_alignment(state, i, rng)
        resample_width(state, rng)
        logp = state.log_joint_fast()
        log_joint_series[t - 1] = logp
        n_clusters_series[t - 1] = len(state._seg_of)
        post_burn = t > config.burn_in
        record = post_burn and (t - config.burn_in - 1) % config.thin == 0
        if record or (post_burn and logp > best.log_joint):
            snap = state.snapshot(t, logp)
            if record:
                snapshots.append(snap)
            if post_burn and logp > best.log_joint:
                best = snap
        if next_audit is not None and state.updates >= next_audit:
            state.audit()
            next_audit += config.audit_every
    return RunTrace(
        ids=list(state.ids),
        config=config,
        hyper=hyper,
        initial=initial,
        log_joint_series=log_joint_series,
        n_clusters_series=n_clusters_series,
        snapshots=snapshots,
        best=best,
    )


# ------------------------------------------------------------- reconstruction


def state_from_snapshot(
    data: Sequence[MotifRecord], hyper: Hyperparameters, snap: Snapshot
) -> SamplerState:
    """Rebuild a full sampler state from a recorded snapshot."""
    state = SamplerState(data, hyper)
    state.offsets = np.asarray(snap.offsets, dtype=np.int64).copy()
    for lab in range(snap.widths.shape[0]):
        members = np.flatnonzero(np.asarray(snap.z) == lab)
        if not len(members):
            raise ValueError(f"snapshot cluster {lab} has no members")
        state._new_cluster(members, int(snap.widths[lab]))
    state.audit()
    return state


def membership_probability(
    state: SamplerState, i: int
) -> dict[int | None, float]:
    """Single-site assignment conditional at the current state, normalized.

    Same weights resample_assignment draws from, over the clusters that can
    host the motif at its offset; the None key is the new-cluster option.
    The state is not modified.
    """
    logw = _assignment_weights(state, i)
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    cids = state._seg_cid[state._scan_order()].tolist()
    out: dict[int | None, float] = {
        cid: float(p) for cid, lw, p in zip(cids, logw, probs) if lw > -np.inf
    }
    out[None] = float(probs[-1])
    return out


def own_cluster_probability(state: SamplerState, i: int) -> float:
    """Probability the conditional reassigns motif i to where it sits now
    (for singletons: the probability of standing alone)."""
    cid = int(state.z[i])
    solo = state._seg_count[state._seg_of[cid]] == 1
    probs = membership_probability(state, i)
    return probs[None] if solo else probs[cid]
