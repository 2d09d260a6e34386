"""Log-space probability kernels for clustering count matrices.

All likelihood terms are Dirichlet-multinomial column marginals with a
symmetric Dirichlet(alpha) prior per position, integrated analytically;
GammaTables can also score the columns against the background theta0.
Partition priors come in two flavours (Dirichlet process and uniform), both
defined by sequential assignment weights (seq_prior_weights): prior
simulation draws from them and log_partition_prior is their density.  The
Gibbs conditionals do not use them; the sampler reads per-cluster log
masses (log m under the DP, 0 under the uniform prior) from member counts,
which under the uniform prior target b^C rather than the sequential
density.  Everything returns natural-log values, normalized at call sites.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .matrices import UNIFORM_BACKGROUND


class PriorKind(str, enum.Enum):
    DP = "dp"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters.

    alpha   symmetric Dirichlet pseudocount per base
    b       new-cluster mass in the partition prior
    lam     expected core width (rate of the width prior)
    wmin    smallest width a core may take
    theta0  background base frequencies (A, C, G, T)
    prior_kind  partition prior flavour
    """

    alpha: float = 1.0
    b: float = 1.0
    lam: float = 8.0
    wmin: int = 6
    theta0: tuple[float, float, float, float] = UNIFORM_BACKGROUND
    prior_kind: PriorKind = PriorKind.DP

    def __post_init__(self):
        for name in ("alpha", "b", "lam"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.wmin < 1:
            raise ValueError("wmin must be >= 1")
        t = tuple(float(x) for x in self.theta0)
        if len(t) != 4 or not all(0 < x < math.inf for x in t):
            raise ValueError("theta0 must hold 4 positive finite frequencies")
        if abs(sum(t) - 1.0) > 1e-9:
            raise ValueError(f"theta0 must sum to 1, got {sum(t)}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta0", t)
        object.__setattr__(self, "prior_kind", PriorKind(self.prior_kind))

    @property
    def log_theta0(self) -> np.ndarray:
        return np.log(np.asarray(self.theta0))


@dataclass
class ClusterStats:
    """Sufficient statistics of one cluster: core width, summed core counts
    of the aligned members (width x 4), and the member count."""

    width: int
    core_counts: np.ndarray
    member_count: int

    def __post_init__(self):
        arr = np.asarray(self.core_counts, dtype=np.int64)
        if arr.shape != (self.width, 4):
            raise ValueError(
                f"core_counts shape {arr.shape} does not match width {self.width}"
            )
        if np.any(arr < 0) or self.member_count < 0:
            raise ValueError("cluster statistics must be non-negative")
        self.core_counts = arr


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma of every entry of a 1-d array, as a float array."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, len(x))


class GammaTables:
    """Log-gamma lookups for integer counts shifted by alpha, of fixed size,
    that score columns against a background log_theta0 (default all zero).

    Every likelihood term is built from one column marginal,
    f(x) = sum_b lgamma(x_b + alpha) - lgamma(sum_b x_b + 4*alpha),
    read in a single gather from `lut` over a column stack (see `stack`):
    block b < 4 of `split` entries holds lgamma(v + alpha) - v*log_theta0[b],
    block 4 holds -lgamma(v + 4*alpha), and a stack offsets row r by
    r*split, so a gather gives the score f(x) - x.log_theta0.  log_const is
    the per-column constant lgamma(4a) - 4*lgamma(a): f(x) + log_const is
    the column's log marginal.  The tables never change once built;
    tables_for hands out larger ones.
    """

    def __init__(self, alpha: float, size: int = 4096, log_theta0: Sequence[float] = (0.0,) * 4):
        self.alpha = float(alpha)
        self.split = int(size)
        self.log_theta0 = tuple(float(x) for x in log_theta0)
        v = np.arange(self.split, dtype=float)
        lg = _lgamma(v + self.alpha)
        self.lut = np.concatenate([lg - v * b for b in self.log_theta0] + [-_lgamma(v + 4 * self.alpha)])
        self.lut.flags.writeable = False
        self.log_const = math.lgamma(4 * self.alpha) - 4 * math.lgamma(self.alpha)

    def stack(self, counts: np.ndarray) -> np.ndarray:
        """(5, width) column stack of a (width, 4) count table: the four base
        rows, then the column totals, row r offset by r*split."""
        cols = np.empty((5, counts.shape[0]), dtype=np.int64)
        cols[:4] = counts.T
        cols[4] = cols[:4].sum(axis=0)
        return cols + np.arange(0, 5 * self.split, self.split)[:, None]

    def column_marginals(self, cols: np.ndarray) -> np.ndarray:
        """Score of every column of a column stack (stack rows on axis 0,
        any trailing shape); totals must stay below `split`.

        Pass row-major stacks (unit-stride columns): the gather then comes
        out C-contiguous and each score sums five contiguous rows.  On a
        column-major stack the same reduce is a five-element strided loop
        per column, about 6x slower."""
        return np.add.reduce(self.lut[cols], axis=0)

    def log_dm_matrix(self, counts: np.ndarray) -> float:
        """Sum of per-column scores plus constants for a (width, 4) integer
        table: at the default background, its columns' log marginals."""
        top = int(counts.sum(axis=1).max(initial=0))
        if top >= self.split:
            return tables_for(self.alpha, top, self.log_theta0).log_dm_matrix(counts)
        return float(self.column_marginals(self.stack(counts)).sum() + counts.shape[0] * self.log_const)

    # the benchmark still wraps this name; its next change drops it from METHODS
    log_dm_matrix_cached = log_dm_matrix


def tables_for(alpha: float, top: int = 0, log_theta0: Sequence[float] = (0.0,) * 4) -> GammaTables:
    """Shared tables for alpha and log_theta0 covering counts and totals up to top."""
    return _tables(float(alpha), max(4096, 1 << int(top).bit_length()), tuple(map(float, log_theta0)))


@lru_cache(maxsize=32)
def _tables(alpha: float, size: int, log_theta0: tuple[float, ...]) -> GammaTables:
    return GammaTables(alpha, size, log_theta0)


def log_dm_column(counts: Sequence[int], alpha: float) -> float:
    """Log marginal of a single count column under Dirichlet(alpha) per base.

    No multinomial coefficient: sites are treated as labelled.  All-zero
    columns give exactly 0.
    """
    arr = np.asarray(counts, dtype=np.int64)
    if arr.shape != (4,):
        raise ValueError("counts must hold 4 values")
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return tables_for(alpha).log_dm_matrix(arr[None, :])


def _core_array(core) -> np.ndarray:
    arr = np.asarray(core, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"core must be a (width, 4) table, got shape {arr.shape}")
    return arr


def log_pred_new(core, hyper: Hyperparameters) -> float:
    """Likelihood factor for opening a new cluster on this core (the prior
    mass b is applied separately by the caller)."""
    return tables_for(hyper.alpha).log_dm_matrix(_core_array(core))


def log_pred_join(core, stats: ClusterStats, hyper: Hyperparameters) -> float:
    """Likelihood factor for merging a core into an existing cluster.

    Telescopes: log marginal of merged counts minus log marginal of the
    cluster's current counts.  Joining an empty cluster reduces to
    log_pred_new.
    """
    arr = _core_array(core)
    if arr.shape[0] != stats.width:
        raise ValueError(
            f"core width {arr.shape[0]} does not match cluster width {stats.width}"
        )
    t = tables_for(hyper.alpha)
    return t.log_dm_matrix(arr + stats.core_counts) - t.log_dm_matrix(stats.core_counts)


def seq_prior_weights(
    cluster_sizes: Sequence[int], hyper: Hyperparameters
) -> tuple[float, np.ndarray]:
    """Unnormalized sequential assignment weights (new-cluster weight, one
    weight per existing cluster) for the next observation."""
    sizes = np.asarray(cluster_sizes, dtype=float)
    if np.any(sizes <= 0):
        raise ValueError("cluster sizes must be positive")
    if hyper.prior_kind is PriorKind.DP:
        return hyper.b, sizes
    return hyper.b, np.ones_like(sizes)


def log_partition_prior(z: Sequence[int], hyper: Hyperparameters) -> float:
    """Log prior density of the partition encoded by label vector z.

    DP: closed form b^C * prod (n_c - 1)! / prod_{i=1..n} (b + i - 1), which
    equals the sequential construction probability for every arrival order.
    Uniform: the sequential construction composed along observation order
    (labels by first appearance) - the normalized density the simulator
    draws from; for partitions whose clusters are contiguous blocks in
    decreasing size order it coincides with the closed form
    b^(C-1) (b + C) / prod_c (b + c)^{n_c}.
    """
    labels = list(z)
    n = len(labels)
    if n == 0:
        raise ValueError("partition must cover at least one observation")
    b = hyper.b
    if hyper.prior_kind is PriorKind.DP:
        sizes = Counter(labels).values()
        lp = len(sizes) * math.log(b) + sum(map(math.lgamma, sizes))
        return lp - (math.lgamma(b + n) - math.lgamma(b))
    seen: dict[int, int] = {}
    lp = 0.0
    for lab in labels:
        c = len(seen)
        if lab in seen:
            lp -= math.log(b + c)
            seen[lab] += 1
        else:
            lp += math.log(b) - math.log(b + c)
            seen[lab] = 1
    return lp


def log_width_prior(
    w: int, hyper: Hyperparameters, support: Iterable[int] | None = None
) -> float:
    """Log prior weight of core width w: w*log(lam) - lam - lgamma(w).

    With a finite support supplied, which must be the widths wmin..top, the
    value is renormalized over exactly those widths (the truncated prior the
    sampler draws new widths from).
    """
    if w < hyper.wmin:
        raise ValueError(f"width {w} below minimum width {hyper.wmin}")
    if support is None:
        return w * math.log(hyper.lam) - hyper.lam - math.lgamma(w)
    ws = sorted(set(int(v) for v in support))
    if not ws or ws != list(range(hyper.wmin, ws[-1] + 1)):
        raise ValueError(f"support must be the widths {hyper.wmin}..top, got {ws}")
    if w not in ws:
        raise ValueError(f"width {w} not in support {ws}")
    return float(log_width_probs(hyper, ws[-1])[w - hyper.wmin])


def log_width_probs(hyper: Hyperparameters, top: int) -> np.ndarray:
    """Log width prior truncated to the widths wmin..top and renormalized,
    indexed by w - wmin.  This is the one normalizer; it is cached on top."""
    if top < hyper.wmin:
        raise ValueError(f"top width {top} below minimum width {hyper.wmin}")
    return _log_width_probs(hyper.lam, hyper.wmin, int(top))


@lru_cache(maxsize=256)
def _log_width_probs(lam: float, wmin: int, top: int) -> np.ndarray:
    ws = np.arange(wmin, top + 1)
    raw = ws * math.log(lam) - lam - _lgamma(ws)
    m = raw.max()
    probs = raw - (m + math.log(np.exp(raw - m).sum()))
    probs.flags.writeable = False
    return probs


def log_background(bg_counts: Sequence[int], hyper: Hyperparameters) -> float:
    """Log probability of the non-core columns: sum_k B_k * log theta0_k."""
    arr = np.asarray(bg_counts, dtype=np.int64)
    if arr.shape != (4,):
        raise ValueError("background counts must hold 4 per-base totals")
    if np.any(arr < 0):
        raise ValueError("background counts must be non-negative")
    return float(arr @ hyper.log_theta0)


def cluster_strength(
    member_cores: Sequence[np.ndarray], stats: ClusterStats, hyper: Hyperparameters
) -> float:
    """Log Bayes factor of the cluster against splitting it into singletons.

    log[ marginal(merged) / prod_i marginal(member_i) * (m-1)! / b^(m-1) ].
    Single-member clusters score exactly 0.
    """
    m = len(member_cores)
    if m != stats.member_count:
        raise ValueError("member_cores length must equal stats.member_count")
    if m <= 1:
        return 0.0
    t = tables_for(hyper.alpha)
    lp = t.log_dm_matrix(stats.core_counts)
    for core in member_cores:
        arr = _core_array(core)
        if arr.shape[0] != stats.width:
            raise ValueError("member core width does not match cluster width")
        lp -= t.log_dm_matrix(arr)
    return lp + math.lgamma(m) - (m - 1) * math.log(hyper.b)


def log_joint_from_arrays(
    z: np.ndarray,
    offsets: np.ndarray,
    widths: dict[int, int],
    raw_counts: Sequence[np.ndarray],
    hyper: Hyperparameters,
) -> float:
    """Joint log density of labels z, 0-based offsets and per-label widths
    over the raw count matrices, recomputed from scratch.

    Sum of per-cluster core marginals, the background term over all non-core
    columns, the partition prior, and per-cluster width priors renormalized
    over the currently feasible width support.  This is the reference the
    sampler's incremental bookkeeping is checked against.
    """
    t = tables_for(hyper.alpha)
    lp = log_partition_prior(z, hyper)
    bg = np.zeros(4, dtype=np.int64)
    members: dict[int, list[int]] = {}
    for i, lab in enumerate(z):
        members.setdefault(int(lab), []).append(i)
    for cid, idx in sorted(members.items()):
        w = widths[cid]
        core_sum = np.zeros((w, 4), dtype=np.int64)
        max_w = None
        for i in idx:
            mat = raw_counts[i]
            o = int(offsets[i])
            if o < 0 or o + w > mat.shape[0]:
                raise ValueError(
                    f"motif {i}: core [{o}, {o + w}) outside matrix of width {mat.shape[0]}"
                )
            core_sum += mat[o : o + w]
            bg += mat.sum(axis=0) - mat[o : o + w].sum(axis=0)
            room = mat.shape[0] - o
            max_w = room if max_w is None else min(max_w, room)
        lp += t.log_dm_matrix(core_sum)
        lp += log_width_prior(w, hyper, support=range(hyper.wmin, max_w + 1))
    lp += log_background(bg, hyper)
    return lp
