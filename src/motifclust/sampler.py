"""Collapsed Gibbs sampler over cluster assignments, alignments and widths.

State holds, per cluster, the summed core counts of its aligned members;
cluster parameters are integrated out, so moves only ever touch these
sufficient statistics.  They live in one column table, the only copy of
the counts; the pooled background counts are derived from it as the grand
total less every cluster's cores.  Each iteration
sweeps assignments in motif-index order, then (on the align_every schedule)
core offsets, then the widths of all clusters in one batched update.  All
randomness flows through one numpy Generator, making runs bit-reproducible
from the seed.

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
    (5, capacity) column stack (see GammaTables.stack) in which each cluster
    owns a contiguous segment of `width` columns, next to the marginal f of
    each column.  A new cluster, or one whose width changes, gets a segment
    appended at the end; the segment it leaves is retired (zero counts and
    marginals, prior -inf).  Before an append, the table is compacted if
    retired columns outnumber live ones; live columns never exceed the
    summed motif lengths, so the table has a fixed capacity.

    The rest of each cluster sits in per-segment arrays, in table order:
    start, width, log prior mass (log m under the DP, 0 under the uniform
    prior, -inf once retired), cluster id (-1 once retired), member count
    and the stamp below.  `_seg_of` maps each live cluster id to its
    segment, in ascending id order (ids only grow, and a relocated cluster
    keeps its place).  Member lists come from `z`, grouped by one stable
    argsort.  `clusters` is a read-only view of all this; no move reads it.

    The table is the only copy of the cluster counts: moves update it and
    nothing else, and the background (per-base counts outside the cores of
    attached motifs) is derived from it on demand.

    The table, the motif store `_flat` and every stack gathered from them
    are row-major, so each column marginal sums five contiguous rows (see
    GammaTables.column_marginals); a column-major stack makes that reduce,
    most of an assignment update, about 6x slower.

    Every write to the table or the segment map advances the mutation clock
    `_clock`, and every segment written carries the clock value of its last
    write in `_seg_stamp` (unique across segments; compaction carries it
    along).  The moves memoise their conditionals against these: per motif
    one alignment CDF keyed on its segment's stamp and one assignment CDF
    keyed on the clock, plus the width sweep's last evaluation keyed on the
    clock and the clusters it covered.  A memo whose key is current is the
    conditional a fresh evaluation would give, bit for bit (audit checks
    this), so a hit only skips the arithmetic, never changes a draw.
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
        "_grand_total",
        "_log_theta0",
        "_dp",
        "_log_b",
        "_flat",
        "_base",
        "_base_arr",
        "_win",
        "_wprior",
        "_wcdf",
        "_bg",
        "_new_prefix",
        "_cols",
        "_fcol",
        "_pos",
        "_empty",
        "_arange",
        "_ncols",
        "_dead",
        "_nseg",
        "_seg_start",
        "_seg_width",
        "_seg_prior",
        "_seg_cid",
        "_seg_count",
        "_seg_stamp",
        "_seg_of",
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
        self._grand_total = np.sum([r.sum(axis=0) for r in raw], axis=0)
        # a column total of any core sum is at most the sum, over motifs, of
        # each motif's largest column total
        self.tables: GammaTables = tables_for(
            hyper.alpha, sum(int(r.sum(axis=1).max()) for r in raw)
        )
        tables = self.tables
        self._log_theta0 = hyper.log_theta0
        self._dp = hyper.prior_kind is PriorKind.DP
        self._log_b = math.log(hyper.b)
        n = len(self.data)
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
        # _bg[i][o, w]: background term of core [o, o + w), +inf where it
        # does not fit; _new_prefix[i][j]: new-cluster weight of columns < j
        self._bg = []
        self._new_prefix = []
        for base, r in zip(self._base, raw):
            length = r.shape[0]
            cols = self._flat[:, base : base + length]
            cols[:4] = r.T
            cols[4] = r.sum(axis=1)
            col_bg = self._log_theta0 @ cols[:4]
            bg_prefix = np.concatenate([[0.0], np.cumsum(col_bg)])
            ends = np.arange(length)[:, None] + np.arange(max_len + 1)
            core_bg = bg_prefix[np.minimum(ends, length)] - bg_prefix[:length, None]
            self._bg.append(np.where(ends <= length, core_bg, np.inf))
            own = tables.column_marginals(tables.stack(r)) + tables.log_const - col_bg
            self._new_prefix.append(np.concatenate([[0.0], np.cumsum(own)]))
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
        self._empty = tables.stack(np.zeros((1, 4), dtype=np.int64))
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
        self._seg_start = np.zeros(segments, dtype=np.int64)
        self._seg_width = np.zeros(segments, dtype=np.int64)
        self._seg_prior = np.zeros(segments)
        self._seg_cid = np.zeros(segments, dtype=np.int64)
        self._seg_count = np.zeros(segments, dtype=np.int64)
        self._seg_stamp = np.zeros(segments, dtype=np.int64)
        self._seg_of: dict[int, int] = {}
        self._clock = 0
        self._views: tuple[int, Mapping[int, ClusterView]] = (-1, {})
        # (key, CDF) per motif, and (key, rows, CDF, sums) of the width sweep;
        # key -1 never matches
        self._align_memo: list[tuple[int, np.ndarray | None]] = [(-1, None)] * n
        self._assign_memo: list[tuple[int, np.ndarray | None]] = [(-1, None)] * n
        self._width_memo: tuple = ((-1, ()), None, None, None)

    # ------------------------------------------------------------ bookkeeping

    def n_motifs(self) -> int:
        return len(self.data)

    @property
    def clusters(self) -> Mapping[int, ClusterView]:
        """Read-only view of the live clusters by ascending id, built from the
        arrays and z; until the next write each id reads as one ClusterView."""
        clock, views = self._views
        if clock != self._clock:
            _, members, sizes = self._room(list(self._seg_of))
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

    @property
    def background(self) -> np.ndarray:
        """Per-base counts outside the cores of attached motifs: the grand
        total less every table column up to _ncols (retired columns hold
        zeros; those past _ncols may hold stale data after a compaction)."""
        return self._grand_total - np.add.reduce(self._cols[:4, : self._ncols], axis=1)

    def _room(self, cids: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Widest core every member of each listed cluster can hold at its
        offset, and the members grouped by cluster in list order, by size."""
        order = self.z.argsort(kind="stable")
        labels = self.z[order]
        first = labels.searchsorted(cids)
        sizes = labels.searchsorted(cids, side="right") - first
        ends = np.add.accumulate(sizes)
        members = order[np.repeat(first + sizes - ends, sizes) + np.arange(sizes.sum())]
        room = (self.lengths - self.offsets)[members]
        return np.minimum.reduceat(room, ends - sizes), members, sizes

    def _log_mass(self, member_count: int) -> float:
        return math.log(member_count) if self._dp else 0.0

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

    def _place(self, cids: list[int], counts: list[int], widths: list[int], cols: np.ndarray) -> None:
        """Append one segment per cluster id in cids, in order, holding their
        column stacks `cols` side by side, with these widths and counts."""
        if self._dead > self._ncols - self._dead:
            self._compact()
        start, end = self._ncols, self._ncols + cols.shape[1]
        self._cols[:, start:end] = cols
        self._fcol[start:end] = self.tables.column_marginals(cols)
        for seg, (cid, count, width) in enumerate(zip(cids, counts, widths), self._nseg):
            self._clock += 1
            self._seg_stamp[seg] = self._clock
            self._pos[start : start + width] = self._arange[:width]
            self._seg_start[seg] = start
            self._seg_width[seg] = width
            self._seg_prior[seg] = self._log_mass(count)
            self._seg_cid[seg] = cid
            self._seg_count[seg] = count
            self._seg_of[cid] = seg
            start += width
        self._nseg += len(cids)
        self._ncols = end

    def _retire(self, seg: int) -> None:
        """Empty segment seg (zero counts and marginals) and retire it."""
        self._clock += 1
        start, width = int(self._seg_start[seg]), int(self._seg_width[seg])
        self._cols[:, start : start + width] = self._empty
        self._fcol[start : start + width] = 0.0
        self._seg_prior[seg] = -np.inf
        self._seg_cid[seg] = -1
        self._seg_count[seg] = 0
        self._dead += width

    def _relocate(self, segs: list[int], widths: list[int], cols: np.ndarray) -> None:
        """Move the cluster of each segment in segs to a new segment of the
        matching width, appended in order; `cols` holds their new column
        stacks side by side."""
        cids = [int(self._seg_cid[seg]) for seg in segs]
        counts = [int(self._seg_count[seg]) for seg in segs]
        for seg in segs:
            self._retire(seg)
        self._place(cids, counts, widths, cols)

    def _compact(self) -> None:
        """Drop retired segments, keeping the live ones in table order."""
        self._clock += 1
        k, n = self._nseg, self._ncols
        alive = self._seg_cid[:k] >= 0
        keep = np.repeat(alive, self._seg_width[:k])
        m = int(keep.sum())
        self._cols[:, :m] = self._cols[:, :n][:, keep]
        self._fcol[:m] = self._fcol[:n][keep]
        self._pos[:m] = self._pos[:n][keep]
        live = int(alive.sum())
        for arr in (self._seg_width, self._seg_prior, self._seg_cid, self._seg_count, self._seg_stamp):
            arr[:live] = arr[:k][alive]
        widths = self._seg_width[:live]
        self._seg_start[:live] = np.cumsum(widths) - widths
        # existing keys keep their place in _seg_of
        self._seg_of.update(zip(self._seg_cid[:live].tolist(), range(live)))
        self._nseg, self._ncols, self._dead = live, m, 0

    def _core_stack(self, members: Sequence[int], width: int) -> np.ndarray:
        """Column stack, as the table holds it, of these motifs' cores
        summed, each `width` columns wide at its current offset."""
        starts = [self._base[i] + int(self.offsets[i]) for i in members]
        # _empty is a zero column stack: it adds `split` to the totals row
        cols = self._flat[:, starts[0] : starts[0] + width] + self._empty
        for at in starts[1:]:
            cols += self._flat[:, at : at + width]
        return cols

    def _new_cluster(self, members: Sequence[int], width: int) -> None:
        """Open a cluster of these members, each one's core `width` columns
        wide at its current offset."""
        cols = self._core_stack(members, width)
        self._place([self._next_id], [len(members)], [width], cols)
        self.z[members] = self._next_id
        self._next_id += 1

    def _member(self, i: int, seg: int, op: np.ufunc) -> None:
        """Add (op np.add) or remove (np.subtract) motif i's core, at its
        current offset, in segment seg, and count the member."""
        at = self._base[i] + int(self.offsets[i])
        self._update(seg, op, self._flat[:, at : at + int(self._seg_width[seg])])
        self._seg_count[seg] = count = int(op(self._seg_count[seg], 1))
        self._seg_prior[seg] = self._log_mass(count)

    def attach(self, i: int, cid: int) -> None:
        """Add motif i's core (at its current offset) to cluster cid."""
        self._member(i, self._seg_of[cid], np.add)
        self.z[i] = cid

    def detach(self, i: int) -> None:
        """Remove motif i from its cluster.  Emptied clusters are retired,
        their ids never reused."""
        cid = int(self.z[i])
        seg = self._seg_of[cid]
        if self._seg_count[seg] > 1:
            self._member(i, seg, np.subtract)
        else:
            self._retire(seg)
            del self._seg_of[cid]

    def audit(self) -> None:
        """Rebuild the cluster map, the per-segment arrays and the column
        table from z and the offsets; exact match required.  Live segments
        are rebuilt and retired ones must be empty, which also checks the
        background."""
        k = self._nseg
        cids, segs = list(self._seg_of), list(self._seg_of.values())
        if cids != sorted(set(self.z.tolist())) or not all(0 <= seg < k for seg in segs):
            raise AssertionError("cluster map out of sync with the labels")
        _, members, sizes = self._room(cids)
        owner, count, prior = np.full(k, -1), np.zeros(k, dtype=np.int64), np.full(k, -np.inf)
        owner[segs], count[segs] = cids, sizes
        prior[segs] = [self._log_mass(m) for m in sizes.tolist()]
        for arr, rebuilt in ((self._seg_cid, owner), (self._seg_count, count), (self._seg_prior, prior)):
            if not np.array_equal(arr[:k], rebuilt):
                raise AssertionError("segment owners, member counts or prior masses out of sync")
        groups = dict(zip(cids, np.split(members, np.add.accumulate(sizes)[:-1])))
        start = dead = 0
        for seg in range(k):
            w, cid = int(self._seg_width[seg]), int(self._seg_cid[seg])
            if int(self._seg_start[seg]) != start:
                raise AssertionError(f"segment {seg} start out of sync")
            if cid < 0:
                expected, marginals = np.broadcast_to(self._empty, (5, w)), 0.0
                dead += w
            else:
                rebuilt = np.zeros((w, 4), dtype=np.int64)
                for i in groups[cid].tolist():
                    o = int(self.offsets[i])
                    if o < 0 or o + w > int(self.lengths[i]):
                        raise AssertionError(f"motif {i} core outside matrix bounds")
                    rebuilt += self.core(i, o, w)
                expected = self.tables.stack(rebuilt)
                marginals = self.tables.column_marginals(expected)
            # a retired segment keeps the positions it was placed with
            if not (
                np.array_equal(self._cols[:, start : start + w], expected)
                and np.all(self._fcol[start : start + w] == marginals)
                and np.array_equal(self._pos[start : start + w], np.arange(w))
            ):
                raise AssertionError(f"segment {seg} columns out of sync")
            start += w
        if start != self._ncols or dead != self._dead:
            raise AssertionError("column table extent out of sync")
        stamps = self._seg_stamp[:k]
        if len(np.unique(stamps)) != len(stamps) or np.any(stamps > self._clock):
            raise AssertionError("segment stamps out of sync")
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
        (clock, cids), *memo = self._width_memo
        if clock == self._clock:
            rows, logw, sums = _width_weights(self, cids)
            fresh = (rows, None if logw is None else _cdf(logw), sums)
            if not all(np.array_equal(a, b) for a, b in zip(memo, fresh)):
                raise AssertionError("width memo stale")

    # ------------------------------------------------------------- densities

    def log_joint_fast(self) -> float:
        """Joint log density from the incrementally-maintained statistics."""
        lp = log_partition_prior(self.z.tolist(), self.hyper)
        lp += float(self.background @ self._log_theta0)
        # retired columns hold f = 0
        lp += float(np.add.reduce(self._fcol[: self._ncols]))
        lp += (self._ncols - self._dead) * self.tables.log_const
        # per cluster, in ascending cid order
        top = self._room(list(self._seg_of))[0]
        widths = self._seg_width[list(self._seg_of.values())]
        lp += float(np.add.reduce(self._wprior[top, widths]))
        return lp

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


def _new_width(state: SamplerState, length: int, rng: np.random.Generator) -> int:
    """Width of a new cluster on a motif of this length, drawn from the
    width prior truncated at the length (log_width_probs) with one uniform,
    through the CDF built at state set-up."""
    return state.hyper.wmin + _draw(state._wcdf[length], rng)


def _assignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weights of motif i, held out of its own cluster,
    joining each segment of the column table (in table order), then of
    opening a new cluster scored on its current core extent.  Retired
    segments, clusters too wide for the motif's offset, and the motif's own
    cluster when it is the only member get weight -inf."""
    seg = state._seg_of[int(state.z[i])]
    start, w = int(state._seg_start[seg]), int(state._seg_width[seg])
    o = int(state.offsets[i])
    n, k = state._ncols, state._nseg
    bg = state._bg[i][o]
    # the motif's columns against every table column; subtracted on its own
    # segment, so that segment evaluates the other members without it
    motif = state._win[:, state._base[i] + o].take(state._pos[:n], axis=1)
    own = motif[:, start : start + w]
    np.negative(own, out=own)
    np.add(motif, state._cols[:, :n], out=motif)
    gain = state.tables.column_marginals(motif)
    np.subtract(gain, state._fcol[:n], out=gain)
    logw = np.empty(k + 1)
    joins = logw[:k]
    np.add.reduceat(gain, state._seg_start[:k], out=joins)
    leave = logw[seg]
    np.add(joins, state._seg_prior[:k] - bg[state._seg_width[:k]], out=joins)
    others = int(state._seg_count[seg]) - 1
    logw[seg] = -leave + state._log_mass(others) - bg[w] if others else -np.inf
    new_prefix = state._new_prefix[i]
    logw[k] = state._log_b + new_prefix[o + w] - new_prefix[o]
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
    choice = _draw(cum, rng)
    if choice < state._nseg:
        if choice != seg:
            state.detach(i)
            state.attach(i, int(state._seg_cid[choice]))
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
            # its id and segment, moved only when its width is redrawn
            state.offsets[i] = o
            state._relocate([seg], [w_new], state._core_stack([i], w_new))
    state.updates += 1


def _alignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weight of every offset of motif i's core within its
    cluster of width w: the join predictive against the other members (for
    singletons, the fresh-cluster marginal) minus the background term of
    the columns it displaces.  Scores all L - w + 1 offsets at once."""
    tables = state.tables
    seg = state._seg_of[int(state.z[i])]
    start, w = int(state._seg_start[seg]), int(state._seg_width[seg])
    length = int(state.lengths[i])
    base = state._base[i]
    at = base + int(state.offsets[i])
    rest = state._cols[:, start : start + w] - state._flat[:, at : at + w]
    windows = state._win[:, base : base + length - w + 1, :w]
    gain = tables.column_marginals(windows + rest[:, None, :]) - tables.column_marginals(rest)
    return gain.sum(axis=1) - state._bg[i][: length - w + 1, w]


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
    seg = state._seg_of[int(state.z[i])]
    w = int(state._seg_width[seg])
    if int(state.lengths[i]) > w:
        o_old = int(state.offsets[i])
        stamp = int(state._seg_stamp[seg])
        key, cum = state._align_memo[i]
        if key != stamp:
            cum = _cdf(_alignment_weights(state, i))
            state._align_memo[i] = (stamp, cum)
        o_new = _draw(cum, rng)
        if o_new != o_old:
            motif = state._flat[:, state._base[i] :]
            state._update(seg, np.add, motif[:, o_new : o_new + w] - motif[:, o_old : o_old + w])
            state.offsets[i] = o_new
    state.updates += 1


def _width_weights(
    state: SamplerState, cids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Unnormalized log weights of the core widths of the listed clusters
    that can take more than one width.

    Returns the indices into cids of those clusters, their log weights (row
    per cluster, column w - wmin, -inf past the widest core every member
    can hold) and their members' summed column stacks (5, rows, columns),
    whose first w columns are the cluster's core at width w.  Weight of
    width w: the first w column marginals of the summed stacks, the
    background term of the columns beyond w, and the width prior.  With no
    such cluster, the weights and stacks are None.
    """
    tables = state.tables
    wmin = state.hyper.wmin
    top, members, sizes = state._room(cids)
    free = top > wmin
    rows = free.nonzero()[0]
    if not len(rows):
        return rows, None, None
    members = members[np.repeat(free, sizes)]
    sizes, top = sizes[rows], top[rows]
    span = int(top.max())
    windows = state._win[:, state._base_arr[members] + state.offsets[members], :span]
    sums = np.add.reduceat(windows, np.add.accumulate(sizes) - sizes, axis=1)
    sums[4] += tables.split
    col_bg = (state._log_theta0 @ sums[:4].reshape(4, -1)).reshape(len(rows), span)
    col = tables.column_marginals(sums) + tables.log_const - col_bg
    logw = np.add.accumulate(col, axis=1)[:, wmin - 1 :] + state._wprior[top, wmin : span + 1]
    return rows, logw, sums


def resample_width(state: SamplerState, cids: Sequence[int], rng: np.random.Generator) -> None:
    """Gibbs update of the core widths of the listed clusters, in list order.

    Given the partition and the offsets, the widths of different clusters
    are independent, so all of them are drawn from one evaluation (see
    _width_weights), one uniform per cluster with more than one feasible
    width, in list order.  The moved clusters are retired and appended to
    the column table as one block.

    The evaluation is memoised against the state's mutation clock and the
    listed clusters: a sweep that finds the table as the last one left it
    draws from the stored CDFs.
    """
    state.updates += len(cids)
    key = (state._clock, tuple(cids))
    if state._width_memo[0] == key:
        _, rows, cum, sums = state._width_memo
    else:
        rows, logw, sums = _width_weights(state, cids)
        cum = None if logw is None else _cdf(logw)
        state._width_memo = (key, rows, cum, sums)
    if cum is None:
        return
    # row-wise inverse CDF, searchsorted(side="right") as in _draw
    u = rng.random(len(rows)) * cum[:, -1]
    w_new = state.hyper.wmin + np.add.reduce(cum <= u[:, None], axis=1)
    segs = np.array([state._seg_of[cids[r]] for r in rows.tolist()])
    moved = (w_new != state._seg_width[segs]).nonzero()[0]
    if not len(moved):
        return
    # block[:, k, :w] is moved cluster k's core at width w
    block = sums[:, moved]
    new = state._arange[: block.shape[2]] < w_new[moved, None]
    state._relocate(segs[moved].tolist(), w_new[moved].tolist(), block[:, new])


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
        resample_width(state, list(state._seg_of), rng)
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
    out: dict[int | None, float] = {
        cid: float(p)
        for cid, lw, p in zip(state._seg_cid[: state._nseg].tolist(), logw, probs)
        if lw > -np.inf
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
