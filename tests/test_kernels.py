"""Log-space kernel oracles.

Expected values here were frozen from independent hand/closed-form
evaluation before the kernels were written (exact fractions where they
exist), so these tests are the reference the implementation must hit.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from motifclust.kernels import (
    ClusterStats,
    GammaTables,
    Hyperparameters,
    PriorKind,
    cluster_strength,
    log_background,
    log_dm_column,
    log_partition_prior,
    log_pred_join,
    log_pred_new,
    log_width_prior,
    log_width_probs,
    seq_prior_weights,
    tables_for,
)
from motifclust.priorsim import iter_set_partitions

from conftest import ma0011_counts

HYPER_DP = Hyperparameters(alpha=1.0, b=1.0, lam=8.0, wmin=1)
HYPER_UNIF = Hyperparameters(alpha=1.0, b=1.0, lam=8.0, wmin=1, prior_kind=PriorKind.UNIFORM)


def stats_for(counts) -> ClusterStats:
    arr = np.asarray(counts, dtype=np.int64)
    return ClusterStats(width=arr.shape[0], core_counts=arr, member_count=1)


# ---------------------------------------------------------------- dm column

def test_log_dm_column_spot_values():
    # all-zero column integrates to exactly 1
    assert log_dm_column([0, 0, 0, 0], 1.0) == pytest.approx(0.0, abs=1e-12)
    # (2,0,0,0), alpha=1: Gamma(3)/Gamma(6) * Gamma(4) = 2*6/120 = 1/10
    assert log_dm_column([2, 0, 0, 0], 1.0) == pytest.approx(math.log(0.1), abs=1e-9)
    # (1,1,1,1), alpha=1: 1/Gamma(8) * Gamma(4) = 6/5040 = 1/840
    assert log_dm_column([1, 1, 1, 1], 1.0) == pytest.approx(
        math.log(1 / 840), abs=1e-9
    )


def test_log_dm_column_brute_force_formula():
    rng = np.random.default_rng(7)
    for alpha in (0.25, 0.5, 1.0, 2.5):
        for _ in range(20):
            c = rng.integers(0, 40, size=4)
            expected = (
                gammaln(c + alpha).sum()
                - gammaln(c.sum() + 4 * alpha)
                + gammaln(4 * alpha)
                - 4 * gammaln(alpha)
            )
            assert log_dm_column(c, alpha) == pytest.approx(expected, abs=1e-10)


def test_log_dm_column_validation():
    with pytest.raises(ValueError):
        log_dm_column([1, 2, 3], 1.0)
    with pytest.raises(ValueError):
        log_dm_column([1, 2, 3, -1], 1.0)
    with pytest.raises(ValueError):
        log_dm_column([1, 2, 3, 4], 0.0)


def test_log_dm_column_large_counts_finite():
    v = log_dm_column([1_000_000, 2, 3, 4], 1.0)
    assert np.isfinite(v)


# ------------------------------------------------------------ cluster marginal
# a cluster's log marginal is log_pred_new of its summed core counts

def test_log_marginal_cluster_spot_values():
    empty = stats_for(np.zeros((3, 4), dtype=int))
    assert log_pred_new(empty.core_counts, HYPER_DP) == pytest.approx(0.0, abs=1e-12)
    # width-1 (4,0,0,0): Gamma(5)Gamma(4)/Gamma(8) = 24*6/5040 = 1/35
    one = stats_for([[4, 0, 0, 0]])
    assert log_pred_new(one.core_counts, HYPER_DP) == pytest.approx(
        math.log(1 / 35), abs=1e-9
    )


def test_log_marginal_cluster_is_column_sum():
    counts = ma0011_counts()
    total = log_pred_new(stats_for(counts).core_counts, HYPER_DP)
    per_column = sum(log_dm_column(counts[j], 1.0) for j in range(8))
    assert total == pytest.approx(per_column, abs=1e-9)


# ------------------------------------------------------------------ predictives

def test_log_pred_new_matches_column_sum():
    core = ma0011_counts()[:6]
    expected = sum(log_dm_column(core[j], 1.0) for j in range(6))
    assert log_pred_new(core, HYPER_DP) == pytest.approx(expected, abs=1e-9)
    assert expected < 0 and np.isfinite(expected)


def test_log_pred_new_zero_core():
    assert log_pred_new(np.zeros((4, 4), dtype=int), HYPER_DP) == pytest.approx(
        0.0, abs=1e-12
    )


def test_log_pred_join_spot_value():
    # (2,0,0,0) joining a cluster holding (2,0,0,0): (1/35)/(1/10) = 2/7
    cluster = stats_for([[2, 0, 0, 0]])
    core = np.array([[2, 0, 0, 0]])
    assert log_pred_join(core, cluster, HYPER_DP) == pytest.approx(
        math.log(2 / 7), abs=1e-9
    )


def test_log_pred_join_empty_cluster_equals_new():
    empty = ClusterStats(width=6, core_counts=np.zeros((6, 4), dtype=int), member_count=0)
    core = ma0011_counts()[:6]
    assert log_pred_join(core, empty, HYPER_DP) == pytest.approx(
        log_pred_new(core, HYPER_DP), abs=1e-12
    )


def test_log_pred_join_width_mismatch():
    cluster = stats_for(np.ones((5, 4), dtype=int))
    with pytest.raises(ValueError, match="width"):
        log_pred_join(np.ones((4, 4), dtype=int), cluster, HYPER_DP)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40)
def test_log_pred_join_telescopes(seed):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, 6))
    a = rng.integers(0, 30, size=(w, 4))
    bcounts = rng.integers(0, 30, size=(w, 4))
    merged = stats_for(a + bcounts)
    cl = stats_for(bcounts)
    lhs = log_pred_join(a, cl, HYPER_DP)
    rhs = log_pred_new(merged.core_counts, HYPER_DP) - log_pred_new(cl.core_counts, HYPER_DP)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# ------------------------------------------------------------------ seq weights

def test_seq_prior_weights_examples():
    new, join = seq_prior_weights([1], HYPER_DP)
    total = new + join.sum()
    assert new / total == pytest.approx(0.5)
    assert (join / total).tolist() == pytest.approx([0.5])

    new, join = seq_prior_weights([2], HYPER_DP)
    total = new + join.sum()
    assert new / total == pytest.approx(1 / 3)
    assert (join / total).tolist() == pytest.approx([2 / 3])

    new, join = seq_prior_weights([5, 1], HYPER_UNIF)
    total = new + join.sum()
    assert new / total == pytest.approx(1 / 3)
    assert (join / total).tolist() == pytest.approx([1 / 3, 1 / 3])


def test_seq_prior_weights_empty_state_forces_new():
    for hyper in (HYPER_DP, HYPER_UNIF):
        new, join = seq_prior_weights([], hyper)
        assert new == hyper.b and join.size == 0


def test_seq_prior_weights_rejects_empty_cluster():
    with pytest.raises(ValueError):
        seq_prior_weights([2, 0], HYPER_DP)


# ------------------------------------------------------------ partition prior

def closed_form_dp(z, b):
    sizes = list(Counter(z).values())
    num = len(sizes) * math.log(b) + sum(math.lgamma(s) for s in sizes)
    den = sum(math.log(b + i) for i in range(len(z)))
    return num - den


def closed_form_uniform_sorted_blocks(sizes, b):
    """Printed closed form for a partition whose clusters are contiguous
    blocks in decreasing size order: b^(C-1)(b+C) / prod_c (b+c)^{n_c}."""
    C = len(sizes)
    num = (C - 1) * math.log(b) + math.log(b + C)
    den = sum(n * math.log(b + c) for c, n in enumerate(sizes, start=1))
    return num - den


def test_partition_prior_spot_values():
    assert log_partition_prior([0, 0, 0], HYPER_DP) == pytest.approx(
        math.log(1 / 3), abs=1e-12
    )
    assert log_partition_prior([0, 1, 2], HYPER_DP) == pytest.approx(
        math.log(1 / 6), abs=1e-12
    )
    assert log_partition_prior([0, 0, 0], HYPER_UNIF) == pytest.approx(
        math.log(1 / 4), abs=1e-12
    )


def test_partition_prior_single_observation():
    for hyper in (HYPER_DP, HYPER_UNIF):
        assert log_partition_prior([0], hyper) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", [PriorKind.DP, PriorKind.UNIFORM])
def test_partition_prior_normalizes(b, kind):
    hyper = Hyperparameters(b=b, wmin=1, prior_kind=kind)
    for n in range(2, 9):
        total = sum(
            math.exp(log_partition_prior(z, hyper)) for z in iter_set_partitions(n)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def compose_sequential(z, hyper):
    """Chain seq_prior_weights along observation order; labels by first appearance."""
    sizes: dict[int, int] = {}
    order: list[int] = []
    lp = 0.0
    for lab in z:
        new_w, join_w = seq_prior_weights([sizes[c] for c in order], hyper)
        total = new_w + join_w.sum()
        if lab in sizes:
            lp += math.log(join_w[order.index(lab)] / total)
            sizes[lab] += 1
        else:
            lp += math.log(new_w / total)
            sizes[lab] = 1
            order.append(lab)
    return lp


@pytest.mark.parametrize("kind", [PriorKind.DP, PriorKind.UNIFORM])
def test_sequential_composition_reproduces_prior(kind):
    hyper = Hyperparameters(b=0.7, wmin=1, prior_kind=kind)
    for n in range(1, 8):
        for z in iter_set_partitions(n):
            assert compose_sequential(z, hyper) == pytest.approx(
                log_partition_prior(z, hyper), abs=1e-10
            )


def test_dp_matches_closed_form_everywhere():
    for b in (0.5, 1.0, 3.0):
        hyper = Hyperparameters(b=b, wmin=1)
        for z in iter_set_partitions(6):
            assert log_partition_prior(z, hyper) == pytest.approx(
                closed_form_dp(z, b), abs=1e-10
            )


def test_uniform_matches_closed_form_on_sorted_blocks():
    # partitions whose clusters are contiguous observation blocks in
    # decreasing size order hit the printed closed form exactly
    for b in (0.5, 1.0, 2.0):
        hyper = Hyperparameters(b=b, wmin=1, prior_kind=PriorKind.UNIFORM)
        for sizes in [(3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (4, 1, 1)]:
            z = [c for c, n in enumerate(sizes) for _ in range(n)]
            assert log_partition_prior(z, hyper) == pytest.approx(
                closed_form_uniform_sorted_blocks(sizes, b), abs=1e-10
            )


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30)
def test_dp_prior_exchangeable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    z = rng.integers(0, 4, size=n)
    base = log_partition_prior(z, HYPER_DP)
    perm = rng.permutation(n)
    assert log_partition_prior(z[perm], HYPER_DP) == pytest.approx(base, abs=1e-10)
    relabel = {lab: 10 + lab for lab in set(z.tolist())}
    assert log_partition_prior([relabel[v] for v in z], HYPER_DP) == pytest.approx(
        base, abs=1e-12
    )


def test_partition_prior_rejects_empty():
    with pytest.raises(ValueError):
        log_partition_prior([], HYPER_DP)


# ------------------------------------------------------------------ width prior

def test_width_prior_reference_difference():
    hyper = Hyperparameters(lam=8.0, wmin=1)
    diff = log_width_prior(8, hyper) - log_width_prior(6, hyper)
    assert diff == pytest.approx(2 * math.log(8) - math.log(42), abs=1e-12)
    assert diff == pytest.approx(0.4212134650763, abs=1e-10)


def test_width_prior_ratio_identity():
    hyper = Hyperparameters(lam=5.5, wmin=1)
    for w in range(1, 12):
        ratio = log_width_prior(w + 1, hyper) - log_width_prior(w, hyper)
        assert ratio == pytest.approx(math.log(hyper.lam / w), abs=1e-12)


def test_width_prior_truncated_support():
    hyper = Hyperparameters(lam=8.0, wmin=6)
    assert log_width_prior(6, hyper, support=[6]) == pytest.approx(0.0, abs=1e-12)
    support = range(6, 11)
    values = [log_width_prior(w, hyper, support=support) for w in support]
    assert math.fsum(math.exp(v) for v in values) == pytest.approx(1.0, abs=1e-12)
    # renormalization preserves ratios
    raw = [log_width_prior(w, hyper) for w in support]
    assert values[3] - values[0] == pytest.approx(raw[3] - raw[0], abs=1e-12)


def test_width_prior_below_minimum():
    hyper = Hyperparameters(lam=8.0, wmin=6)
    with pytest.raises(ValueError):
        log_width_prior(5, hyper)
    with pytest.raises(ValueError):
        log_width_prior(7, hyper, support=[8, 9])


def test_width_probs_one_cached_normalizer():
    hyper = Hyperparameters(lam=8.0, wmin=6)
    probs = log_width_probs(hyper, 11)
    assert probs is log_width_probs(Hyperparameters(lam=8.0, wmin=6), 11)
    assert probs.shape == (6,)
    assert math.fsum(math.exp(v) for v in probs) == pytest.approx(1.0, abs=1e-12)
    for w in range(6, 12):
        assert log_width_prior(w, hyper, support=range(6, 12)) == probs[w - 6]
    assert log_width_probs(hyper, 6).tolist() == [0.0]
    with pytest.raises(ValueError):
        log_width_probs(hyper, 5)
    with pytest.raises(ValueError):
        log_width_prior(6, hyper, support=[6, 8])
    with pytest.raises(ValueError):
        log_width_prior(12, hyper, support=range(6, 12))


# ------------------------------------------------------------------ background

def test_log_background_values():
    hyper = Hyperparameters(theta0=(0.4, 0.1, 0.1, 0.4), wmin=1)
    assert log_background([0, 0, 0, 0], hyper) == pytest.approx(0.0, abs=1e-12)
    assert log_background([1, 0, 0, 1], hyper) == pytest.approx(
        math.log(0.16), abs=1e-12
    )
    uniform = Hyperparameters(wmin=1)
    assert log_background([3, 3, 3, 3], uniform) == pytest.approx(
        12 * math.log(0.25), abs=1e-12
    )


def test_log_background_rejects_negative():
    with pytest.raises(ValueError):
        log_background([1, -1, 0, 0], HYPER_DP)


# ------------------------------------------------------------------ strength

def test_cluster_strength_singleton_is_zero():
    core = ma0011_counts()
    stats = stats_for(core)
    assert cluster_strength([core], stats, HYPER_DP) == 0.0


def test_cluster_strength_two_identical_members():
    # two width-1 (2,0,0,0) members: ln[(1/35) / (1/10)^2 * 1!/1] = ln(100/35)
    core = np.array([[2, 0, 0, 0]])
    stats = ClusterStats(width=1, core_counts=core * 2, member_count=2)
    got = cluster_strength([core, core], stats, HYPER_DP)
    assert got == pytest.approx(math.log(100 / 35), abs=1e-9)
    assert got == pytest.approx(1.049822, abs=1e-6)


def test_cluster_strength_member_order_invariant():
    rng = np.random.default_rng(3)
    cores = [rng.integers(0, 8, size=(4, 4)) for _ in range(3)]
    stats = ClusterStats(width=4, core_counts=sum(cores), member_count=3)
    a = cluster_strength(cores, stats, HYPER_DP)
    b = cluster_strength(cores[::-1], stats, HYPER_DP)
    assert a == pytest.approx(b, abs=1e-10)


def test_cluster_strength_validates_member_count():
    core = np.array([[2, 0, 0, 0]])
    stats = ClusterStats(width=1, core_counts=core, member_count=2)
    with pytest.raises(ValueError):
        cluster_strength([core], stats, HYPER_DP)


# ------------------------------------------------------------------ tables

def test_alpha_normalized_to_float_shares_tables():
    hyper = Hyperparameters(alpha=1)
    assert type(hyper.alpha) is float
    assert hyper == Hyperparameters(alpha=1.0)
    assert tables_for(1) is tables_for(1.0)
    assert tables_for(hyper.alpha) is tables_for(1.0)


def test_tables_grow_by_handing_out_larger_ones():
    small = tables_for(1.0)
    big = small.split + 5
    col = np.array([[big, 0, 0, 0]])
    # beyond the shared table the value comes from a larger one, unchanged
    assert small.log_dm_matrix(col) == pytest.approx(
        float(gammaln(big + 1.0) - gammaln(big + 4.0) + gammaln(4.0)), rel=1e-12
    )
    assert tables_for(1.0, big).split > big


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
def test_tables_match_scipy_gammaln(alpha):
    t = GammaTables(alpha)
    v = np.arange(t.split, dtype=float)
    expected = np.concatenate([gammaln(v + alpha), -gammaln(v + 4 * alpha)])
    np.testing.assert_allclose(t.lut, expected, rtol=1e-14, atol=0)
    assert t.log_const == pytest.approx(
        float(gammaln(4 * alpha) - 4 * gammaln(alpha)), rel=1e-14, abs=0
    )


@pytest.mark.parametrize("lam, wmin, top", [(8.0, 6, 11), (3.0, 1, 20), (0.5, 2, 40)])
def test_width_probs_match_scipy_gammaln(lam, wmin, top):
    ws = np.arange(wmin, top + 1)
    raw = ws * math.log(lam) - lam - gammaln(ws)
    expected = raw - np.logaddexp.reduce(raw)
    got = log_width_probs(Hyperparameters(lam=lam, wmin=wmin), top)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
