"""Posterior summaries computed from recorded traces.

Everything here is a pure function of immutable run traces: co-clustering
proportions and their distance view, an average-linkage tree over that
distance with Newick serialization, ranked best-partition reports with
cluster strengths and consensus strings, per-motif width intervals, and
the super-matrix export.  Chain diagnostics (autocorrelation, cross-chain
agreement) live here as well since they are trace post-processing too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import ClusterStats, Hyperparameters, cluster_strength
from .matrices import (
    CountMatrix,
    MotifRecord,
    UNIFORM_BACKGROUND,
    consensus_string,
    frequency_matrix,
    information_profile,
)
from .parsers import write_jaspar
from .sampler import (
    RunTrace,
    Snapshot,
    own_cluster_probability,
    state_from_snapshot,
)

# --------------------------------------------------------------- pairwise


@dataclass(frozen=True)
class PairwiseMatrix:
    """Co-clustering proportions over recorded snapshots.

    p[i, j] is the fraction of snapshots with motifs i and j in the same
    cluster: symmetric with a unit diagonal.  distances() gives the
    complementary dissimilarity with a zero diagonal.
    """

    ids: tuple[str, ...]
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        n = len(self.ids)
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} does not match {n} ids")
        object.__setattr__(self, "p", arr)

    def distances(self) -> np.ndarray:
        d = 1.0 - self.p
        np.fill_diagonal(d, 0.0)
        return d


def _pairwise_from_snapshots(
    ids: Sequence[str], snapshots: Sequence[Snapshot]
) -> PairwiseMatrix:
    if not snapshots:
        raise ValueError("no recorded snapshots to summarize")
    n = len(ids)
    acc = np.zeros((n, n), dtype=np.int64)
    for chunk in range(0, len(snapshots), 512):
        z = np.stack([s.z for s in snapshots[chunk : chunk + 512]])
        acc += (z[:, :, None] == z[:, None, :]).sum(axis=0)
    return PairwiseMatrix(ids=tuple(ids), p=acc / len(snapshots))


def pairwise_probabilities(trace: RunTrace) -> PairwiseMatrix:
    """Co-clustering proportions over the trace's post-burn-in snapshots."""
    return _pairwise_from_snapshots(trace.ids, trace.snapshots)


def pooled_pairwise_probabilities(traces: Sequence[RunTrace]) -> PairwiseMatrix:
    """Proportions over the concatenated snapshots of several chains."""
    if not traces:
        raise ValueError("no traces given")
    ids = traces[0].ids
    for t in traces[1:]:
        if t.ids != ids:
            raise ValueError("traces describe different motif collections")
    pooled: list[Snapshot] = []
    for t in traces:
        pooled.extend(t.snapshots)
    return _pairwise_from_snapshots(ids, pooled)


def max_pairwise_discrepancy(matrices: Sequence[PairwiseMatrix]) -> float:
    """Largest |p_ij| difference between any two chains; 0 for one chain."""
    if not matrices:
        raise ValueError("no matrices given")
    worst = 0.0
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            worst = max(worst, float(np.abs(matrices[a].p - matrices[b].p).max()))
    return worst


def pairwise_tsv(pm: PairwiseMatrix) -> str:
    """Tab-separated matrix with a header row of motif ids."""
    lines = ["id\t" + "\t".join(pm.ids)]
    for i, rid in enumerate(pm.ids):
        lines.append(rid + "\t" + "\t".join(f"{x:.6f}" for x in pm.p[i]))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ tree


@dataclass(frozen=True)
class TreeNode:
    """Node of an average-linkage tree; height is the merge dissimilarity
    (0 for leaves)."""

    height: float
    name: str | None = None
    children: tuple["TreeNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children


def average_linkage_tree(d: np.ndarray, ids: Sequence[str]) -> TreeNode:
    """Agglomerative average-linkage clustering of a dissimilarity matrix.

    At every step the pair of groups with the smallest average
    dissimilarity merges at that value; ties go to the smallest pair
    indices so the tree is deterministic.  A merged group takes the index
    after every existing one.
    """
    d = np.asarray(d, dtype=float)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 items to build a tree")
    if d.shape != (n, n):
        raise ValueError(f"distance shape {d.shape} does not match {n} ids")
    if not np.array_equal(d, d.T):
        raise ValueError("distances must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("distances must have a zero diagonal")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")

    # live groups in index order; dist[:k, :k] holds their distances above
    # the diagonal and +inf on and below it, so the first argmin in
    # row-major order is the smallest pair of indices among the closest
    dist = np.where(np.tri(n, dtype=bool), np.inf, d)
    nodes = [TreeNode(height=0.0, name=str(ids[i])) for i in range(n)]
    sizes = [1] * n
    for k in range(n, 1, -1):
        live = dist[:k, :k]
        a, b = divmod(int(live.argmin()), k)
        merged = TreeNode(height=float(live[a, b]), children=(nodes[a], nodes[b]))
        # distances of a and b to every live group (inf to themselves)
        da = np.minimum(live[a], live[:, a])
        db = np.minimum(live[b], live[:, b])
        avg = (sizes[a] * da + sizes[b] * db) / (sizes[a] + sizes[b])
        keep = [i for i in range(k) if i != a and i != b]
        dist[: k - 2, : k - 2] = live[np.ix_(keep, keep)]
        dist[: k - 2, k - 2] = avg[keep]
        dist[k - 2, : k - 1] = np.inf
        sizes = [sizes[i] for i in keep] + [sizes[a] + sizes[b]]
        nodes = [nodes[i] for i in keep] + [merged]
    return nodes[0]


_PLAIN_LABEL = re.compile(r"^[A-Za-z0-9_.|/-]+$")


def _newick_label(name: str) -> str:
    if _PLAIN_LABEL.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def newick(tree: TreeNode) -> str:
    """Serialize a tree; branch lengths are height differences, so root-to-
    leaf path length equals the root's merge height."""

    def fmt(node: TreeNode) -> str:
        if node.is_leaf():
            return _newick_label(node.name or "")
        parts = []
        for child in node.children:
            parts.append(f"{fmt(child)}:{node.height - child.height:.12g}")
        return "(" + ",".join(parts) + ")"

    return fmt(tree) + ";"


# ------------------------------------------------------- partition report


@dataclass(frozen=True)
class ClusterReport:
    """One cluster of the best partition.

    membership[k] is the probability that members[k] stays in this cluster
    under its single-motif conditional at the best snapshot (for a
    singleton: the probability of staying alone).
    """

    members: tuple[str, ...]
    width: int
    strength: float
    consensus: str
    super_matrix: CountMatrix
    membership: tuple[float, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must have members")
        if self.super_matrix.width != self.width:
            raise ValueError("super-matrix width must equal cluster width")
        if len(self.membership) != len(self.members):
            raise ValueError("one membership probability per member")

    @property
    def size(self) -> int:
        return len(self.members)


def best_partition_report(
    trace: RunTrace, data: Sequence[MotifRecord], hyper: Hyperparameters
) -> list[ClusterReport]:
    """Every cluster of the highest-density snapshot.

    Multi-member clusters come first, sorted by descending strength (ties:
    larger size, then smallest member id), then the singletons in id order;
    a singleton's strength is exactly 0.
    """
    if [r.id for r in data] != list(trace.ids):
        raise ValueError("data does not match the trace's motif ids")
    state = state_from_snapshot(data, hyper, trace.best)
    reports: list[ClusterReport] = []
    for cid in sorted(state.clusters):
        cl = state.clusters[cid]
        members = sorted(cl.members)
        width = cl.stats.width
        cores = [state.core(i, int(state.offsets[i]), width) for i in members]
        stats = ClusterStats(width, np.sum(cores, axis=0), len(members))
        strength = cluster_strength(cores, stats, hyper)
        super_matrix = CountMatrix(stats.core_counts)
        probs = tuple(own_cluster_probability(state, i) for i in members)
        reports.append(
            ClusterReport(
                members=tuple(trace.ids[i] for i in members),
                width=width,
                strength=strength,
                consensus=consensus_string(super_matrix),
                super_matrix=super_matrix,
                membership=probs,
            )
        )
    multi = [r for r in reports if r.size > 1]
    multi.sort(key=lambda r: (-r.strength, -r.size, r.members[0]))
    singles = sorted((r for r in reports if r.size == 1), key=lambda r: r.members[0])
    return multi + singles


def report_text(reports: Sequence[ClusterReport], n_motifs: int) -> str:
    """Ranked plain-text report: one header line per cluster with size,
    strength, width and consensus, then one line per member with its
    membership probability.  Singleton entries (if present) follow the
    ranked multi-member clusters."""
    lines = ["rank\tsize\tstrength\twidth\tconsensus"]
    multi = [r for r in reports if r.size > 1]
    singles = [r for r in reports if r.size == 1]
    for rank, rep in enumerate(multi, 1):
        lines.append(
            f"{rank}\t{rep.size}\t{rep.strength:.4f}\t{rep.width}\t{rep.consensus}"
        )
        for member, prob in zip(rep.members, rep.membership):
            lines.append(f"\t{member}\t{prob:.4f}")
    if singles:
        lines.append("")
        lines.append(f"singletons ({len(singles)}):")
        for rep in singles:
            lines.append(f"\t{rep.members[0]}\t{rep.membership[0]:.4f}")
    clustered = sum(r.size for r in multi)
    lines.append("")
    lines.append(f"motifs in multi-member clusters: {clustered}/{n_motifs}")
    return "\n".join(lines) + "\n"


def export_super_matrices(reports: Sequence[ClusterReport]) -> str:
    """JASPAR text with one record per multi-member cluster; ids are
    cluster ranks in report order."""
    records = [
        MotifRecord(id=f"cluster{rank}", matrix=rep.super_matrix)
        for rank, rep in enumerate((r for r in reports if r.size > 1), 1)
    ]
    return write_jaspar(records)


def ic_table_tsv(
    reports: Sequence[ClusterReport], theta0=UNIFORM_BACKGROUND
) -> str:
    """Per-column information content (bits) and base frequencies of each
    multi-member cluster's super-matrix, for external logo rendering.
    Positions are 0-based."""
    lines = ["cluster\tposition\tic_bits\tfreq_a\tfreq_c\tfreq_g\tfreq_t"]
    multi = (r for r in reports if r.size > 1)
    for rank, rep in enumerate(multi, 1):
        fm = frequency_matrix(rep.super_matrix)
        ic = information_profile(fm, theta0)
        for pos in range(rep.width):
            fa, fc, fg, ft = fm.freqs[pos]
            lines.append(
                f"cluster{rank}\t{pos}\t{ic[pos]:.4f}"
                f"\t{fa:.4f}\t{fc:.4f}\t{fg:.4f}\t{ft:.4f}"
            )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- width intervals


@dataclass(frozen=True)
class WidthIntervals:
    """Equal-tailed posterior width intervals, one per motif (each motif
    inherits its cluster's width in every snapshot)."""

    ids: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def single_point_fraction(self) -> float:
        return float(np.mean(self.lower == self.upper))


def width_intervals_from_snapshots(
    ids: Sequence[str], snapshots: Sequence[Snapshot], level: float = 0.95
) -> WidthIntervals:
    """Per-motif equal-tailed interval of cluster width over snapshots.

    With S snapshots, k = max(1, floor(S*(1-level)/2)) order statistics
    are trimmed from each tail.
    """
    if not 0 < level < 1:
        raise ValueError("level must lie strictly between 0 and 1")
    if not snapshots:
        raise ValueError("no recorded snapshots to summarize")
    n = len(ids)
    widths = np.empty((len(snapshots), n), dtype=np.int64)
    for s, snap in enumerate(snapshots):
        widths[s] = snap.widths[snap.z]
    widths.sort(axis=0)
    count = len(snapshots)
    k = max(1, math.floor(count * (1 - level) / 2))
    return WidthIntervals(
        ids=tuple(ids), lower=widths[k - 1].copy(), upper=widths[count - k].copy()
    )


def width_intervals_tsv(wi: WidthIntervals) -> str:
    lines = ["id\tlower\tupper"]
    for i, rid in enumerate(wi.ids):
        lines.append(f"{rid}\t{int(wi.lower[i])}\t{int(wi.upper[i])}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- diagnostics


def autocorrelation(series: np.ndarray, lags: Sequence[int]) -> list[float]:
    """Normalized autocorrelation at the given positive lags; a constant
    series reports 0 by convention."""
    x = np.asarray(series, dtype=float)
    n = x.size
    out: list[float] = []
    centered = x - x.mean() if n else x
    denom = float(centered @ centered)
    for lag in lags:
        if lag < 1:
            raise ValueError("lags must be >= 1")
        if lag >= n or denom == 0.0:
            out.append(0.0)
        else:
            out.append(float(centered[:-lag] @ centered[lag:]) / denom)
    return out


LAGS = (1, 5, 10, 50)


def diagnostics_report(
    traces: Sequence[RunTrace], pairwise: Sequence[PairwiseMatrix]
) -> dict:
    """Chain diagnostics: per-chain autocorrelations at LAGS of the log
    joint density and cluster-count series, plus the largest cross-chain
    difference between `pairwise`, the chains' pairwise matrices in order."""
    if not traces:
        raise ValueError("no traces given")
    chains = []
    for t in traces:
        chains.append(
            {
                "seed": t.config.seed,
                "best_log_joint": float(t.best.log_joint),
                "log_joint_autocorrelation": autocorrelation(t.log_joint_series, LAGS),
                "n_clusters_autocorrelation": autocorrelation(t.n_clusters_series, LAGS),
            }
        )
    return {
        "lags": list(LAGS),
        "chains": chains,
        "max_cross_chain_pairwise_difference": max_pairwise_discrepancy(pairwise),
    }

