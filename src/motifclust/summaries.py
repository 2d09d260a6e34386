"""Posterior summaries computed from recorded traces.

Everything here is a pure function of immutable run traces: co-clustering
proportions and their distance view, an average-linkage tree over that
distance with Newick serialization, ranked best-partition reports with
cluster strengths and consensus strings, per-motif width intervals, and
the super-matrix export.  Chain diagnostics (autocorrelation, cross-chain
agreement) live here as well since they are trace post-processing too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .kernels import Hyperparameters, cluster_strength
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

    def leaf_names(self) -> list[str]:
        if self.is_leaf():
            return [self.name or ""]
        out: list[str] = []
        for child in self.children:
            out.extend(child.leaf_names())
        return out

    def merge_heights(self) -> list[float]:
        """Heights of all internal nodes, sorted ascending."""
        out: list[float] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.is_leaf():
                out.append(node.height)
                stack.extend(node.children)
        return sorted(out)


def average_linkage_tree(d: np.ndarray, ids: Sequence[str]) -> TreeNode:
    """Agglomerative average-linkage clustering of a dissimilarity matrix.

    At every step the pair of groups with the smallest average
    dissimilarity merges at that value; ties go to the smallest pair
    indices so the tree is deterministic.
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

    total = 2 * n - 1
    dist = np.full((total, total), np.inf)
    dist[:n, :n] = d
    nodes = [TreeNode(height=0.0, name=str(ids[i])) for i in range(n)]
    sizes = [1] * n
    active = list(range(n))
    while len(active) > 1:
        best = math.inf
        bi = bj = -1
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                i, j = active[a], active[b]
                if dist[i, j] < best:
                    best, bi, bj = dist[i, j], i, j
        merged = TreeNode(height=best, children=(nodes[bi], nodes[bj]))
        new = len(nodes)
        nodes.append(merged)
        sizes.append(sizes[bi] + sizes[bj])
        for k in active:
            if k in (bi, bj):
                continue
            avg = (sizes[bi] * dist[bi, k] + sizes[bj] * dist[bj, k]) / (
                sizes[bi] + sizes[bj]
            )
            dist[new, k] = dist[k, new] = avg
        active = [k for k in active if k not in (bi, bj)]
        active.append(new)
    return nodes[active[0]]


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


class _NewickReader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, what: str):
        raise ValueError(f"newick parse error at {self.pos}: {what}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def label(self) -> str:
        if self.peek() == "'":
            self.take()
            out: list[str] = []
            while True:
                ch = self.take()
                if ch == "":
                    self.error("unterminated quoted label")
                if ch == "'":
                    if self.peek() == "'":
                        out.append(self.take())
                    else:
                        return "".join(out)
                else:
                    out.append(ch)
        start = self.pos
        while self.peek() not in ("", "(", ")", ",", ":", ";"):
            self.take()
        return self.text[start : self.pos]

    def branch_length(self) -> float:
        if self.peek() != ":":
            self.error("expected ':' before branch length")
        self.take()
        start = self.pos
        while self.peek() not in ("", "(", ")", ",", ";"):
            self.take()
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            self.error(f"bad branch length {self.text[start:self.pos]!r}")

    def node(self) -> tuple["_ParsedNode", float | None]:
        if self.peek() == "(":
            self.take()
            children = [self.node()]
            while self.peek() == ",":
                self.take()
                children.append(self.node())
            if self.take() != ")":
                self.error("expected ')'")
            length = self.branch_length() if self.peek() == ":" else None
            return _ParsedNode(name=None, children=children), length
        name = self.label()
        length = self.branch_length() if self.peek() == ":" else None
        return _ParsedNode(name=name, children=[]), length


@dataclass
class _ParsedNode:
    name: str | None
    children: list[tuple["_ParsedNode", float | None]] = field(default_factory=list)


def parse_newick(text: str) -> TreeNode:
    """Parse a Newick string back into a TreeNode; node heights are
    reconstructed from branch lengths (leaves sit at height 0)."""
    reader = _NewickReader(text.strip())
    root, _ = reader.node()
    if reader.take() != ";":
        reader.error("expected ';'")

    def build(parsed: _ParsedNode) -> TreeNode:
        if not parsed.children:
            return TreeNode(height=0.0, name=parsed.name)
        kids = []
        height = 0.0
        for child, length in parsed.children:
            node = build(child)
            if length is None:
                raise ValueError("internal edges must carry branch lengths")
            height = max(height, node.height + length)
            kids.append(node)
        return TreeNode(height=height, children=tuple(kids))

    return build(root)


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
    trace: RunTrace,
    data: Sequence[MotifRecord],
    hyper: Hyperparameters,
    include_singletons: bool = False,
) -> list[ClusterReport]:
    """Ranked clusters of the highest-density snapshot.

    Multi-member clusters come first, sorted by descending strength (ties:
    larger size, then smallest member id).  Singletons are appended in id
    order when requested; their strength is exactly 0.
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
        strength = cluster_strength(cores, cl.stats, hyper)
        # copy: the summed counts are a view of the sampler's column table
        super_matrix = CountMatrix(cl.stats.core_counts.copy())
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
    if not include_singletons:
        return multi
    singles = sorted((r for r in reports if r.size == 1), key=lambda r: r.members[0])
    return multi + singles


def report_text(reports: Sequence[ClusterReport], n_motifs: int | None = None) -> str:
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
    if n_motifs is not None:
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


def width_intervals(trace: RunTrace, level: float = 0.95) -> WidthIntervals:
    """Per-motif equal-tailed interval of cluster width over snapshots.

    With S snapshots, k = max(1, floor(S*(1-level)/2)) order statistics
    are trimmed from each tail.
    """
    return width_intervals_from_snapshots(trace.ids, trace.snapshots, level)


def width_intervals_from_snapshots(
    ids: Sequence[str], snapshots: Sequence[Snapshot], level: float = 0.95
) -> WidthIntervals:
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


def diagnostics_report(
    traces: Sequence[RunTrace], lags: Sequence[int] = (1, 5, 10, 50)
) -> dict:
    """Chain diagnostics: per-chain lag autocorrelations of the log joint
    density and cluster-count series, plus the largest cross-chain
    difference in pairwise probabilities."""
    if not traces:
        raise ValueError("no traces given")
    chains = []
    for t in traces:
        chains.append(
            {
                "seed": t.config.seed,
                "best_log_joint": float(t.best.log_joint),
                "log_joint_autocorrelation": autocorrelation(t.log_joint_series, lags),
                "n_clusters_autocorrelation": autocorrelation(
                    t.n_clusters_series, lags
                ),
            }
        )
    matrices = [pairwise_probabilities(t) for t in traces]
    return {
        "lags": list(lags),
        "chains": chains,
        "max_cross_chain_pairwise_difference": max_pairwise_discrepancy(matrices),
    }


def diagnostics_json(traces: Sequence[RunTrace], lags: Sequence[int] = (1, 5, 10, 50)) -> str:
    return json.dumps(diagnostics_report(traces, lags), indent=2, sort_keys=True) + "\n"
