"""Rank-normalised split bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16(2): every chain is split in
half, the pooled draws are replaced by the normal scores of their ranks,
and the multi-chain autocorrelation is summed with Geyer's initial
monotone sequence.  Kept apart from motifclust so that the benchmark's
efficiency metric does not move when the program's own diagnostics do.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(chains: Sequence[np.ndarray]) -> np.ndarray:
    """(2M, N//2) array of chain halves; an odd middle draw is dropped."""
    n = min(len(c) for c in chains)
    half = n // 2
    parts = []
    for c in chains:
        c = np.asarray(c[:n], dtype=float)
        parts.append(c[:half])
        parts.append(c[n - half :])
    return np.stack(parts)


def _rank_normalise(draws: np.ndarray) -> np.ndarray:
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, at every lag, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def ess_of(draws: np.ndarray) -> float | None:
    """Multi-chain ESS of a (chains, draws) array, without splitting or
    ranking.  None when the draws carry no variance."""
    m, n = draws.shape
    if n < 4:
        return None
    acov = _autocovariance(draws)
    within = float(acov[:, 0].mean()) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(draws.mean(axis=1), ddof=1))
    if not var_plus > 0:
        return None
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum adjacent pairs while positive, forcing them non-increasing
    total = 0.0
    prev_pair = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        pair = min(pair, prev_pair)
        total += pair
        prev_pair = pair
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(chains: Sequence[np.ndarray]) -> float | None:
    """Rank-normalised split bulk ESS of one quantity over its chains.

    None for a constant series (no variance to estimate from) and for
    chains too short to split."""
    if not chains or min(len(c) for c in chains) < 8:
        return None
    halves = _split(chains)
    if np.ptp(halves) == 0:
        return None
    return ess_of(_rank_normalise(halves))
