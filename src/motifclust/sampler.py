"""Collapsed Gibbs sampler over cluster assignments, alignments and widths.

State holds, per cluster, the summed core counts of its aligned members;
cluster parameters are integrated out, so moves only ever touch these
sufficient statistics plus the pooled background counts.  Each iteration
sweeps assignments in motif-index order, then (on the align_every schedule)
core offsets, then per-cluster widths.  All randomness flows through one
numpy Generator, making runs bit-reproducible from the seed.

Offsets are 0-based column indices into the raw matrix; a core of width w
at offset a covers columns [a, a + w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import (
    ClusterStats,
    GammaTables,
    Hyperparameters,
    PriorKind,
    log_joint_from_arrays,
    log_partition_prior,
    log_width_probs,
    tables_for,
)
from .matrices import MotifRecord

INIT_MODES = ("singletons", "single", "random")


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
    record_trace: bool = True
    audit_every: int | None = None
    init_mode: str = "singletons"

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
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")


@dataclass(frozen=True)
class Snapshot:
    """One recorded state: canonical labels (first appearance order),
    0-based offsets, and per-canonical-cluster widths."""

    iteration: int
    log_joint: float
    z: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray

    def n_clusters(self) -> int:
        return int(self.widths.shape[0])


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


class _Cluster:
    """One live cluster: its members, its statistics and the index of its
    segment in the state's column table.  stats.core_counts is a (width, 4)
    view of that segment."""

    __slots__ = ("cid", "stats", "members", "seg", "start", "tables")

    def __init__(self, cid: int, stats: ClusterStats, members: set[int], tables: GammaTables):
        self.cid = cid
        self.stats = stats
        self.members = members
        self.seg = self.start = -1
        self.tables = tables

    @property
    def logm(self) -> float:
        """Log marginal likelihood of the summed core counts."""
        return self.tables.log_dm_matrix(self.stats.core_counts)


class SamplerState:
    """Mutable sampler state bound to its data and hyperparameters.

    The summed core counts of every cluster live in one column table: a
    (5, capacity) column stack (see GammaTables.stack) in which each cluster
    owns a contiguous segment of `width` columns, next to the marginal f of
    each column.  A new cluster, or one whose width changes, gets a segment
    appended at the end; the segment it leaves is retired (zero counts and
    marginals, prior -inf).  Before an append, the table is compacted if
    retired columns outnumber live ones; live columns never exceed the
    summed motif lengths, so the table has a fixed capacity.  The segment
    map holds start, width and log prior mass (log m under the DP, 0 under
    the uniform prior, -inf once retired) of each segment, in table order.
    """

    __slots__ = (
        "data",
        "hyper",
        "tables",
        "ids",
        "raw",
        "lengths",
        "z",
        "offsets",
        "clusters",
        "background",
        "iteration",
        "updates",
        "_next_id",
        "_grand_total",
        "_log_theta0",
        "_dp",
        "_log_b",
        "_stacks",
        "_windows",
        "_bg",
        "_new_prefix",
        "_cols",
        "_fcol",
        "_pos",
        "_empty",
        "_arange",
        "_ncols",
        "_dead",
        "_seg_start",
        "_seg_width",
        "_seg_prior",
        "_seg_owner",
    )

    def __init__(self, data: Sequence[MotifRecord], hyper: Hyperparameters):
        if not data:
            raise ValueError("need at least one motif")
        self.data = list(data)
        self.hyper = hyper
        self.ids = [rec.id for rec in self.data]
        self.raw = [rec.matrix.counts for rec in self.data]
        self.lengths = np.array([r.shape[0] for r in self.raw], dtype=np.int64)
        short = [rec.id for rec in self.data if rec.width < hyper.wmin]
        if short:
            raise ValueError(
                f"motifs narrower than wmin={hyper.wmin}: {short}; filter first"
            )
        self._grand_total = np.sum([r.sum(axis=0) for r in self.raw], axis=0)
        self.tables: GammaTables = tables_for(hyper.alpha, int(self._grand_total.sum()))
        tables = self.tables
        self._log_theta0 = hyper.log_theta0
        self._dp = hyper.prior_kind is PriorKind.DP
        self._log_b = math.log(hyper.b)
        n = len(self.data)
        max_len = int(self.lengths.max())
        # per motif: its column stack with plain totals, zero-padded by the
        # widest possible core so any segment can be gathered at any offset,
        # and the view _windows[i][:, o, p] = column o + p of that stack
        self._stacks = []
        self._windows = []
        # _bg[i][o, w]: background term of core [o, o + w), +inf where it
        # does not fit; _new_prefix[i][j]: new-cluster weight of columns < j
        self._bg = []
        self._new_prefix = []
        for r in self.raw:
            length = r.shape[0]
            cols = np.zeros((5, length + max_len), dtype=np.int64, order="F")
            cols[:4, :length] = r.T
            cols[4, :length] = r.sum(axis=1)
            self._stacks.append(cols)
            self._windows.append(
                np.lib.stride_tricks.sliding_window_view(cols, max_len, axis=1)[:, :length]
            )
            col_bg = self._log_theta0 @ cols[:4, :length]
            bg_prefix = np.concatenate([[0.0], np.cumsum(col_bg)])
            ends = np.arange(length)[:, None] + np.arange(max_len + 1)
            core_bg = bg_prefix[np.minimum(ends, length)] - bg_prefix[:length, None]
            self._bg.append(np.where(ends <= length, core_bg, np.inf))
            own = tables.column_marginals(tables.stack(r)) + tables.log_const - col_bg
            self._new_prefix.append(np.concatenate([[0.0], np.cumsum(own)]))
        self.z = np.zeros(n, dtype=np.int64)
        self.offsets = np.zeros(n, dtype=np.int64)
        self.clusters: dict[int, _Cluster] = {}
        # per-base counts outside the cores of attached motifs
        self.background = self._grand_total.copy()
        self.iteration = 0
        self.updates = 0
        self._next_id = 0
        # live columns never exceed the summed lengths, retired ones never
        # exceed the live ones before an append: capacity is fixed
        capacity = 2 * int(self.lengths.sum()) + max_len
        self._cols = np.zeros((5, capacity), dtype=np.int64, order="F")
        self._fcol = np.zeros(capacity)
        self._pos = np.zeros(capacity, dtype=np.int64)
        self._empty = tables.stack(np.zeros((1, 4), dtype=np.int64))
        self._arange = np.arange(max_len + 1)
        self._ncols = 0
        self._dead = 0
        segments = n + int(self.lengths.sum()) + 1
        self._seg_start = np.zeros(segments, dtype=np.int64)
        self._seg_width = np.zeros(segments, dtype=np.int64)
        self._seg_prior = np.zeros(segments)
        self._seg_owner: list[_Cluster | None] = []

    # ------------------------------------------------------------ bookkeeping

    def n_motifs(self) -> int:
        return len(self.data)

    def core(self, i: int, offset: int, width: int) -> np.ndarray:
        return self.raw[i][offset : offset + width]

    def core_base_sums(self, i: int, offset: int, width: int) -> np.ndarray:
        return np.add.reduce(self._stacks[i][:4, offset : offset + width], axis=1)

    def _log_mass(self, member_count: int) -> float:
        return math.log(member_count) if self._dp else 0.0

    def _refresh(self, start: int, width: int) -> None:
        cols = self._cols[:, start : start + width]
        self._fcol[start : start + width] = self.tables.column_marginals(cols)

    def _place(self, cl: _Cluster, cols: np.ndarray) -> None:
        """Append a segment holding `cols` (a column stack) for cluster cl."""
        if self._dead > self._ncols - self._dead:
            self._compact()
        start, width, k = self._ncols, cols.shape[1], len(self._seg_owner)
        self._cols[:, start : start + width] = cols
        self._refresh(start, width)
        self._pos[start : start + width] = self._arange[:width]
        self._seg_start[k] = start
        self._seg_width[k] = width
        self._seg_prior[k] = self._log_mass(cl.stats.member_count)
        self._seg_owner.append(cl)
        self._ncols = start + width
        cl.seg, cl.start = k, start
        cl.stats.core_counts = self._cols[:4, start : start + width].T

    def _retire(self, cl: _Cluster) -> None:
        """Empty cluster cl's segment (zero counts and marginals) and mark
        it retired."""
        start, width = cl.start, cl.stats.width
        self._cols[:, start : start + width] = self._empty
        self._fcol[start : start + width] = 0.0
        self._seg_prior[cl.seg] = -np.inf
        self._seg_owner[cl.seg] = None
        self._dead += width

    def _relocate(self, cl: _Cluster, cols: np.ndarray) -> None:
        """Move cluster cl to a new segment holding `cols`, of any width."""
        self._retire(cl)
        cl.stats.width = cols.shape[1]
        self._place(cl, cols)

    def _compact(self) -> None:
        """Drop retired segments, keeping the live ones in table order."""
        k, n = len(self._seg_owner), self._ncols
        alive = self._seg_prior[:k] > -np.inf
        keep = np.repeat(alive, self._seg_width[:k])
        m = int(keep.sum())
        self._cols[:, :m] = self._cols[:, :n][:, keep]
        self._fcol[:m] = self._fcol[:n][keep]
        self._pos[:m] = self._pos[:n][keep]
        widths = self._seg_width[:k][alive]
        live = len(widths)
        self._seg_prior[:live] = self._seg_prior[:k][alive]
        self._seg_width[:live] = widths
        self._seg_start[:live] = np.cumsum(widths) - widths
        self._seg_owner = [cl for cl in self._seg_owner if cl is not None]
        self._ncols, self._dead = m, 0
        for seg, cl in enumerate(self._seg_owner):
            start = int(self._seg_start[seg])
            cl.seg, cl.start = seg, start
            cl.stats.core_counts = self._cols[:4, start : start + cl.stats.width].T

    def _core_cols(self, i: int, offset: int, width: int) -> np.ndarray:
        """Column stack of motif i's core, as the table holds it."""
        cols = np.array(self._stacks[i][:, offset : offset + width], order="F")
        cols[4] += self.tables.split
        return cols

    def _new_cluster(self, cols: np.ndarray, members: set[int]) -> int:
        """Open a cluster holding `cols` (a column stack) for these members."""
        cid = self._next_id
        self._next_id += 1
        stats = ClusterStats(width=cols.shape[1], core_counts=cols[:4].T, member_count=len(members))
        cl = _Cluster(cid, stats, members, self.tables)
        self._place(cl, cols)
        self.clusters[cid] = cl
        self.background -= np.add.reduce(cols[:4], axis=1)
        for i in members:
            self.z[i] = cid
        return cid

    def attach(self, i: int, cid: int) -> None:
        """Add motif i's core (at its current offset) to cluster cid."""
        cl = self.clusters[cid]
        start, w = cl.start, cl.stats.width
        o = int(self.offsets[i])
        self._cols[:, start : start + w] += self._stacks[i][:, o : o + w]
        self._refresh(start, w)
        cl.stats.member_count += 1
        cl.members.add(i)
        self._seg_prior[cl.seg] = self._log_mass(cl.stats.member_count)
        self.z[i] = cid
        self.background -= self.core_base_sums(i, o, w)

    def detach(self, i: int) -> tuple[int, int]:
        """Remove motif i from its cluster; returns (old cluster id, old width).
        Emptied clusters are retired, their ids never reused."""
        cid = int(self.z[i])
        cl = self.clusters[cid]
        start, w = cl.start, cl.stats.width
        o = int(self.offsets[i])
        cl.stats.member_count -= 1
        cl.members.discard(i)
        if cl.stats.member_count == 0:
            self._retire(cl)
            del self.clusters[cid]
        else:
            self._cols[:, start : start + w] -= self._stacks[i][:, o : o + w]
            self._refresh(start, w)
            self._seg_prior[cl.seg] = self._log_mass(cl.stats.member_count)
        self.background += self.core_base_sums(i, o, w)
        return cid, w

    def audit(self) -> None:
        """Rebuild all sufficient statistics and the column table from
        scratch; exact match required."""
        seen: set[int] = set()
        for i in range(self.n_motifs()):
            cid = int(self.z[i])
            if cid not in self.clusters:
                raise AssertionError(f"motif {i} assigned to unknown cluster {cid}")
            seen.add(cid)
        if seen != set(self.clusters):
            raise AssertionError("clusters without members present")
        tables = self.tables
        bg = self._grand_total.copy()
        for cid, cl in self.clusters.items():
            members = {i for i in range(self.n_motifs()) if int(self.z[i]) == cid}
            if members != cl.members:
                raise AssertionError(f"cluster {cid} member set out of sync")
            if cl.stats.member_count != len(members):
                raise AssertionError(f"cluster {cid} member count out of sync")
            w = cl.stats.width
            rebuilt = np.zeros((w, 4), dtype=np.int64)
            for i in members:
                o = int(self.offsets[i])
                if o < 0 or o + w > int(self.lengths[i]):
                    raise AssertionError(f"motif {i} core outside matrix bounds")
                rebuilt += self.core(i, o, w)
            if not (0 <= cl.seg < len(self._seg_owner)) or self._seg_owner[cl.seg] is not cl:
                raise AssertionError(f"cluster {cid} segment map out of sync")
            start = cl.start
            if int(self._seg_start[cl.seg]) != start:
                raise AssertionError(f"cluster {cid} segment start out of sync")
            segment = self._cols[:, start : start + w]
            expected = tables.stack(rebuilt)
            if int(self._seg_width[cl.seg]) != w or not np.array_equal(segment, expected):
                raise AssertionError(f"cluster {cid} table columns out of sync")
            if not np.array_equal(self._fcol[start : start + w], tables.column_marginals(expected)):
                raise AssertionError(f"cluster {cid} column marginals out of sync")
            if not np.array_equal(self._pos[start : start + w], np.arange(w)):
                raise AssertionError(f"cluster {cid} column positions out of sync")
            if self._seg_prior[cl.seg] != self._log_mass(len(members)):
                raise AssertionError(f"cluster {cid} prior mass out of sync")
            view = cl.stats.core_counts
            if not (np.shares_memory(view, self._cols) and np.array_equal(view, rebuilt)):
                raise AssertionError(f"cluster {cid} core counts out of sync")
            bg -= rebuilt.sum(axis=0)
        start = dead = 0
        for seg, owner in enumerate(self._seg_owner):
            w = int(self._seg_width[seg])
            if int(self._seg_start[seg]) != start:
                raise AssertionError(f"segment {seg} start out of sync")
            if owner is None:
                if (
                    self._seg_prior[seg] != -np.inf
                    or np.any(self._cols[:, start : start + w] != self._empty)
                    or np.any(self._fcol[start : start + w] != 0.0)
                ):
                    raise AssertionError(f"retired segment {seg} not cleared")
                dead += w
            start += w
        if start != self._ncols or dead != self._dead:
            raise AssertionError("column table extent out of sync")
        if not np.array_equal(bg, self.background):
            raise AssertionError("background counts out of sync")

    # ------------------------------------------------------------- densities

    def log_joint_fast(self) -> float:
        """Joint log density from the incrementally-maintained statistics."""
        hyper = self.hyper
        lp = log_partition_prior(self.z, hyper)
        lp += float(self.background @ self._log_theta0)
        # retired columns hold f = 0
        lp += float(np.add.reduce(self._fcol[: self._ncols]))
        lp += (self._ncols - self._dead) * self.tables.log_const
        room = (self.lengths - self.offsets).tolist()
        for cl in self.clusters.values():
            top = min(room[m] for m in cl.members)
            lp += float(log_width_probs(hyper, top)[cl.stats.width - hyper.wmin])
        return lp

    def snapshot(self, iteration: int, log_joint: float) -> Snapshot:
        relabel: dict[int, int] = {}
        z = np.empty_like(self.z)
        for i, lab in enumerate(self.z):
            lab = int(lab)
            if lab not in relabel:
                relabel[lab] = len(relabel)
            z[i] = relabel[lab]
        widths = np.zeros(len(relabel), dtype=np.int64)
        for old, new in relabel.items():
            widths[new] = self.clusters[old].stats.width
        return Snapshot(
            iteration=iteration,
            log_joint=log_joint,
            z=z,
            offsets=self.offsets.copy(),
            widths=widths,
        )


# ------------------------------------------------------------------ init


def init_state(
    data: Sequence[MotifRecord],
    hyper: Hyperparameters,
    rng: np.random.Generator,
    init_mode: str = "singletons",
) -> SamplerState:
    """Build a feasible starting state.

    Initial widths are lam rounded, clamped into [wmin, narrowest feasible];
    offsets are uniform over the feasible range for the chosen width.
    """
    if init_mode not in INIT_MODES:
        raise ValueError(f"init_mode must be one of {INIT_MODES}")
    state = SamplerState(data, hyper)
    n = state.n_motifs()
    target_w = max(hyper.wmin, int(round(hyper.lam)))

    if init_mode == "singletons":
        groups = [[i] for i in range(n)]
    elif init_mode == "single":
        groups = [list(range(n))]
    else:
        from .priorsim import simulate_partition

        labels = simulate_partition(n, hyper, rng)
        groups = [
            [i for i in range(n) if labels[i] == lab]
            for lab in range(int(labels.max()) + 1)
        ]

    for group in groups:
        w = min(target_w, min(int(state.lengths[i]) for i in group))
        counts = np.zeros((w, 4), dtype=np.int64)
        for i in group:
            o = int(rng.integers(0, int(state.lengths[i]) - w + 1))
            state.offsets[i] = o
            counts += state.core(i, o, w)
        state._new_cluster(state.tables.stack(counts), set(group))
    return state


# ------------------------------------------------------------------ moves


def _categorical(logw: np.ndarray, rng: np.random.Generator) -> int:
    # ufunc methods, not np.max/np.cumsum/np.searchsorted: on small inputs
    # their Python-level dispatch is a sizeable share of an update
    w = np.exp(logw - np.maximum.reduce(logw))
    cum = np.add.accumulate(w)
    return int(cum.searchsorted(rng.random() * cum[-1], side="right"))


def _assignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weights of motif i, held out of its own cluster,
    joining each segment of the column table (in table order), then of
    opening a new cluster scored on its current core extent.  Retired
    segments, clusters too wide for the motif's offset, and the motif's own
    cluster when it is the only member get weight -inf."""
    cl = state.clusters[int(state.z[i])]
    start, w = cl.start, cl.stats.width
    o = int(state.offsets[i])
    n, k = state._ncols, len(state._seg_owner)
    bg = state._bg[i][o]
    # the motif's columns against every table column; subtracted on its own
    # segment, so that segment evaluates the other members without it
    motif = state._stacks[i].T[o:].take(state._pos[:n], axis=0).T
    motif[:, start : start + w] *= -1
    gain = state.tables.column_marginals(state._cols[:, :n] + motif) - state._fcol[:n]
    logw = np.empty(k + 1)
    np.add.reduceat(gain, state._seg_start[:k], out=logw[:k])
    leave = logw[cl.seg]
    logw[:k] += state._seg_prior[:k] - bg[state._seg_width[:k]]
    others = cl.stats.member_count - 1
    logw[cl.seg] = -leave + state._log_mass(others) - bg[w] if others else -np.inf
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
    """
    cl = state.clusters[int(state.z[i])]
    choice = _categorical(_assignment_weights(state, i), rng)
    if choice < len(state._seg_owner):
        if choice != cl.seg:
            state.detach(i)
            state.attach(i, state._seg_owner[choice].cid)
    else:
        hyper = state.hyper
        length = int(state.lengths[i])
        w_new = hyper.wmin + _categorical(log_width_probs(hyper, length), rng)
        o_old, w_old = int(state.offsets[i]), cl.stats.width
        o = min(o_old, length - w_new)
        if cl.stats.member_count > 1:
            state.detach(i)
            state.offsets[i] = o
            state._new_cluster(state._core_cols(i, o, w_new), {i})
        elif w_new != w_old:
            # a singleton stays alone only through this option, so it keeps
            # its id and segment, moved only when its width is redrawn
            state._relocate(cl, state._core_cols(i, o, w_new))
            state.offsets[i] = o
            state.background += state.core_base_sums(i, o_old, w_old) - state.core_base_sums(i, o, w_new)
    state.updates += 1


def _alignment_weights(state: SamplerState, i: int) -> np.ndarray:
    """Unnormalized log weight of every offset of motif i's core within its
    cluster of width w: the join predictive against the other members (for
    singletons, the fresh-cluster marginal) minus the background term of
    the columns it displaces.  Scores all L - w + 1 offsets at once."""
    tables = state.tables
    cl = state.clusters[int(state.z[i])]
    start, w = cl.start, cl.stats.width
    length = int(state.lengths[i])
    o = int(state.offsets[i])
    rest = state._cols[:, start : start + w] - state._stacks[i][:, o : o + w]
    windows = state._windows[i][:, : length - w + 1, :w]
    gain = tables.column_marginals(windows + rest[:, None, :]) - tables.column_marginals(rest)
    return gain.sum(axis=1) - state._bg[i][: length - w + 1, w]


def resample_alignment(state: SamplerState, i: int, rng: np.random.Generator) -> None:
    """Gibbs update of motif i's core offset within its cluster.

    The motif's own core is held out of the cluster statistics; each
    feasible offset is scored by the join predictive against the remaining
    members (for singletons this is the fresh-cluster marginal) plus the
    background term for the columns it displaces.
    """
    cl = state.clusters[int(state.z[i])]
    if int(state.lengths[i]) > cl.stats.width:
        o_old = int(state.offsets[i])
        o_new = _categorical(_alignment_weights(state, i), rng)
        if o_new != o_old:
            start, w = cl.start, cl.stats.width
            stack = state._stacks[i]
            state._cols[:, start : start + w] += stack[:, o_new : o_new + w] - stack[:, o_old : o_old + w]
            state._refresh(start, w)
            state.offsets[i] = o_new
            state.background += state.core_base_sums(i, o_old, w) - state.core_base_sums(i, o_new, w)
    state.updates += 1


def resample_width(state: SamplerState, cid: int, rng: np.random.Generator) -> None:
    """Gibbs update of one cluster's core width.

    Support runs from wmin to the widest core every member can still hold at
    its current offset.  Weight of width w: the first w column marginals of
    the (prefix-shared) stacked member counts, the background term for
    columns beyond w, and the width prior.
    """
    cl = state.clusters[cid]
    hyper = state.hyper
    tables = state.tables
    top = min(int(state.lengths[m]) - int(state.offsets[m]) for m in cl.members)
    wmin = hyper.wmin
    w_old = cl.stats.width
    if top == wmin:
        state.updates += 1
        return
    stacked = np.zeros((5, top), dtype=np.int64, order="F")
    stacked[4] = tables.split
    for m in cl.members:
        o = int(state.offsets[m])
        stacked += state._stacks[m][:, o : o + top]
    col = (
        tables.column_marginals(stacked)
        + tables.log_const
        - state._log_theta0 @ stacked[:4]
    )
    logws = np.cumsum(col)[wmin - 1 :] + log_width_probs(hyper, top)
    w_new = wmin + _categorical(logws, rng)
    if w_new != w_old:
        state._relocate(cl, stacked[:, :w_new])
        state.background += stacked[:4, w_new:w_old].sum(axis=1) - stacked[:4, w_old:w_new].sum(axis=1)
    state.updates += 1


# ------------------------------------------------------------------ run loop


def run(
    data: Sequence[MotifRecord],
    hyper: Hyperparameters,
    config: RunConfig,
    rng: np.random.Generator | None = None,
) -> RunTrace:
    """Run the sampler; returns the trace with series, snapshots and best state."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = init_state(data, hyper, rng, init_mode=config.init_mode)
    n = state.n_motifs()
    logp0 = state.log_joint_fast()
    initial = state.snapshot(0, logp0)
    best = initial
    log_joint_series = np.empty(config.iterations)
    n_clusters_series = np.empty(config.iterations, dtype=np.int64)
    snapshots: list[Snapshot] = []
    next_audit = config.audit_every

    for t in range(1, config.iterations + 1):
        state.iteration = t
        for i in range(n):
            resample_assignment(state, i, rng)
        if config.align_every is not None and t % config.align_every == 0:
            for i in range(n):
                resample_alignment(state, i, rng)
        for cid in sorted(state.clusters):
            resample_width(state, cid, rng)
        logp = state.log_joint_fast()
        log_joint_series[t - 1] = logp
        n_clusters_series[t - 1] = len(state.clusters)
        post_burn = t > config.burn_in
        record = (
            config.record_trace
            and post_burn
            and (t - config.burn_in - 1) % config.thin == 0
        )
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
        members = {i for i in range(state.n_motifs()) if int(snap.z[i]) == lab}
        if not members:
            raise ValueError(f"snapshot cluster {lab} has no members")
        w = int(snap.widths[lab])
        counts = np.zeros((w, 4), dtype=np.int64)
        for i in members:
            o = int(state.offsets[i])
            counts += state.core(i, o, w)
        state._new_cluster(state.tables.stack(counts), members)
    state.audit()
    return state


def log_joint_of_snapshot(
    data: Sequence[MotifRecord], hyper: Hyperparameters, snap: Snapshot
) -> float:
    """Recompute a snapshot's joint log density from raw matrices alone."""
    widths = {lab: int(snap.widths[lab]) for lab in range(snap.widths.shape[0])}
    raw = [rec.matrix.counts for rec in data]
    return log_joint_from_arrays(snap.z, snap.offsets, widths, raw, hyper)


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
        cl.cid: float(p)
        for cl, lw, p in zip(state._seg_owner, logw, probs)
        if lw > -np.inf
    }
    out[None] = float(probs[-1])
    return out


def own_cluster_probability(state: SamplerState, i: int) -> float:
    """Probability the conditional reassigns motif i to where it sits now
    (for singletons: the probability of standing alone)."""
    cid = int(state.z[i])
    solo = state.clusters[cid].stats.member_count == 1
    probs = membership_probability(state, i)
    return probs[None] if solo else probs[cid]
