"""Tests of the benchmark's ESS against closed forms.

    python3 -m pytest perfbench/test_ess.py
"""

import numpy as np
import pytest

from ess import bulk_ess, ess_of


def ar1(phi: float, chains: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.empty((chains, draws))
    x[:, 0] = rng.normal(size=chains) / np.sqrt(1 - phi**2)
    noise = rng.normal(size=(chains, draws))
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_matches_closed_form(phi):
    # stationary AR(1): integrated autocorrelation time (1 + phi) / (1 - phi)
    chains, draws = 4, 20_000
    x = ar1(phi, chains, draws, seed=1)
    expected = chains * draws * (1 - phi) / (1 + phi)
    assert bulk_ess(list(x)) == pytest.approx(expected, rel=0.1)
    assert ess_of(x) == pytest.approx(expected, rel=0.1)


def test_rank_normalisation_ignores_monotone_transforms():
    x = ar1(0.5, 4, 2000, seed=2)
    assert bulk_ess(list(np.exp(x))) == pytest.approx(bulk_ess(list(x)), rel=1e-12)


def test_antithetic_chain_is_capped_not_negative():
    x = np.tile([1.0, -1.0], 500)[None, :]
    value = ess_of(x)
    assert value == pytest.approx(1000 * np.log10(1000))


def test_stuck_chains_are_seen_by_the_pooled_estimate():
    x = ar1(0.5, 2, 4000, seed=3)
    x[1] += 50.0  # the second chain sits in another mode
    assert bulk_ess(list(x)) < 10
    assert bulk_ess([x[0]]) > 500


def test_constant_or_short_series_give_none():
    assert bulk_ess([np.full(100, 3.0)]) is None
    assert bulk_ess([np.full(100, 3.0), np.full(100, 3.0)]) is None
    assert bulk_ess([np.arange(5.0)]) is None
    assert bulk_ess([]) is None
