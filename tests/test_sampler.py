import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifclust import (
    ClusterStats,
    CountMatrix,
    Hyperparameters,
    MotifRecord,
    PriorKind,
    log_background,
    log_pred_join,
    log_pred_new,
    log_width_prior,
    seq_prior_weights,
)
from motifclust.kernels import log_joint_from_arrays
from motifclust.sampler import (
    RunConfig,
    _alignment_weights,
    _assignment_weights,
    Snapshot,
    init_state,
    log_joint_of_snapshot,
    membership_probability,
    own_cluster_probability,
    resample_alignment,
    resample_assignment,
    resample_width,
    run,
    state_from_snapshot,
)
from motifclust.synthetic import planted_motif_groups, shifted_core_collection


def rec(rec_id, rows):
    return MotifRecord(id=rec_id, matrix=CountMatrix(np.asarray(rows, dtype=np.int64)))


def col_motif(rec_id, *cols):
    return rec(rec_id, np.array(cols))


HYPER_W1 = Hyperparameters(alpha=1.0, b=1.0, lam=1.0, wmin=1, prior_kind=PriorKind.DP)

A2 = (2, 0, 0, 0)


def two_identical_state(hyper=HYPER_W1):
    data = [col_motif("m0", A2), col_motif("m1", A2)]
    rng = np.random.default_rng(0)
    return init_state(data, hyper, rng, init_mode="singletons"), data


def planted_records(n_members, length, core, offsets, flank_depth=5, prefix="p"):
    """Motifs sharing one strong core at known offsets, uniform flanks."""
    core = np.asarray(core, dtype=np.int64)
    out = []
    for k in range(n_members):
        rows = np.full((length, 4), flank_depth, dtype=np.int64)
        o = offsets[k]
        rows[o : o + core.shape[0]] = core
        out.append(rec(f"{prefix}{k}", rows))
    return out


STRONG_CORE6 = np.array(
    [
        [20, 0, 0, 0],
        [0, 20, 0, 0],
        [0, 0, 20, 0],
        [0, 0, 0, 20],
        [20, 0, 0, 0],
        [0, 0, 20, 0],
    ]
)


class TestMembershipConditional:
    def test_two_identical_motifs_join_probability(self):
        state, _ = two_identical_state()
        probs = membership_probability(state, 1)
        other = int(state.z[0])
        assert probs[other] == pytest.approx(20 / 27, abs=1e-12)
        assert probs[None] == pytest.approx(7 / 27, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_motif_always_new(self):
        data = [col_motif("m0", A2)]
        state = init_state(data, HYPER_W1, np.random.default_rng(0))
        probs = membership_probability(state, 0)
        assert probs == {None: 1.0}

    def test_state_restored_exactly(self):
        state, _ = two_identical_state()
        z_before = state.z.copy()
        off_before = state.offsets.copy()
        bg_before = state.background.copy()
        stats_before = {
            cid: (cl.stats.width, cl.stats.core_counts.copy(), cl.stats.member_count, cl.logm)
            for cid, cl in state.clusters.items()
        }
        membership_probability(state, 0)
        membership_probability(state, 1)
        assert np.array_equal(state.z, z_before)
        assert np.array_equal(state.offsets, off_before)
        assert np.array_equal(state.background, bg_before)
        assert set(state.clusters) == set(stats_before)
        for cid, (w, counts, m, logm) in stats_before.items():
            cl = state.clusters[cid]
            assert cl.stats.width == w
            assert np.array_equal(cl.stats.core_counts, counts)
            assert cl.stats.member_count == m
            assert cl.logm == logm
        state.audit()

    def test_own_cluster_probability_for_singleton(self):
        state, _ = two_identical_state()
        assert own_cluster_probability(state, 1) == pytest.approx(7 / 27, abs=1e-12)

    def test_own_cluster_probability_for_member(self):
        data = [col_motif("m0", A2), col_motif("m1", A2)]
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.array([0, 0]),
            offsets=np.array([0, 0]),
            widths=np.array([1]),
        )
        state = state_from_snapshot(data, HYPER_W1, snap)
        assert own_cluster_probability(state, 1) == pytest.approx(20 / 27, abs=1e-12)


class TestAssignmentMove:
    def test_lone_motif_resample_keeps_singleton(self):
        data = [col_motif("m0", A2)]
        state = init_state(data, HYPER_W1, np.random.default_rng(0))
        resample_assignment(state, 0, np.random.default_rng(1))
        assert len(state.clusters) == 1
        assert state.clusters[int(state.z[0])].stats.member_count == 1
        state.audit()

    def test_retired_cluster_ids_never_reused(self):
        data = [col_motif("m0", A2), col_motif("m1", (0, 0, 0, 2))]
        state = init_state(data, HYPER_W1, np.random.default_rng(0))
        rng = np.random.default_rng(7)
        seen: set[int] = set(int(v) for v in state.z)
        for _ in range(200):
            for i in range(2):
                before = set(state.clusters)
                resample_assignment(state, i, rng)
                fresh = set(state.clusters) - before
                for cid in fresh:
                    assert cid not in seen or cid in before
                    # a genuinely new id must exceed every id ever seen
                    if cid not in seen:
                        assert cid > max(seen)
                    seen.add(cid)
        state.audit()

    def test_width_mismatched_cluster_excluded(self):
        # cluster of width 3 cannot host a length-2 motif at any offset
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=3.0, wmin=1)
        data = [
            rec("long0", np.full((3, 4), 2)),
            rec("long1", np.full((3, 4), 2)),
            rec("short", np.full((2, 4), 2)),
        ]
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.array([0, 0, 1]),
            offsets=np.array([0, 0, 0]),
            widths=np.array([3, 2]),
        )
        state = state_from_snapshot(data, hyper, snap)
        probs = membership_probability(state, 2)
        wide = int(state.z[0])
        assert wide not in probs
        assert probs[None] == pytest.approx(1.0)

    def test_two_motif_chain_matches_exact_posterior(self):
        data = [col_motif("m0", A2), col_motif("m1", A2)]
        raw = [r.matrix.counts for r in data]
        lj_together = log_joint_from_arrays(
            np.array([0, 0]), np.array([0, 0]), {0: 1}, raw, HYPER_W1
        )
        lj_apart = log_joint_from_arrays(
            np.array([0, 1]), np.array([0, 0]), {0: 1, 1: 1}, raw, HYPER_W1
        )
        exact = math.exp(lj_together) / (math.exp(lj_together) + math.exp(lj_apart))
        assert exact == pytest.approx(20 / 27, abs=1e-12)
        trace = run(data, HYPER_W1, RunConfig(iterations=6000, burn_in=500, seed=3))
        together = np.mean([int(s.z[0] == s.z[1]) for s in trace.snapshots])
        assert together == pytest.approx(exact, abs=0.02)


class TestAlignmentMove:
    def test_forced_offset_when_core_spans_matrix(self):
        data = [col_motif("m0", A2, (0, 2, 0, 0))]
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=2.0, wmin=2)
        state = init_state(data, hyper, np.random.default_rng(0))
        before = state.updates
        resample_alignment(state, 0, np.random.default_rng(1))
        assert int(state.offsets[0]) == 0
        assert state.updates == before + 1
        state.audit()

    def test_singleton_offset_distribution_matches_enumeration(self):
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=4.0, wmin=4)
        rows = np.array(
            [
                [9, 0, 0, 0],
                [0, 9, 0, 0],
                [3, 3, 3, 0],
                [0, 0, 0, 9],
                [9, 0, 0, 0],
                [2, 3, 2, 2],
            ]
        )
        data = [rec("m0", rows)]
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.array([0]),
            offsets=np.array([0]),
            widths=np.array([4]),
        )
        state = state_from_snapshot(data, hyper, snap)
        total = rows.sum(axis=0)
        logw = []
        for o in range(3):
            core = rows[o : o + 4]
            bg = total - core.sum(axis=0)
            logw.append(log_pred_new(core, hyper) + log_background(bg, hyper))
        logw = np.array(logw)
        exact = np.exp(logw - logw.max())
        exact /= exact.sum()
        rng = np.random.default_rng(11)
        hits = np.zeros(3)
        for _ in range(20000):
            resample_alignment(state, 0, rng)
            hits[int(state.offsets[0])] += 1
        hits /= hits.sum()
        assert np.abs(hits - exact).max() < 0.02
        state.audit()

    def test_conditional_snaps_misaligned_member(self):
        # three members aligned on the planted core, one member off by one:
        # a single update must put it back
        offsets_true = [0, 2, 1, 4]
        data = planted_records(4, 10, STRONG_CORE6, offsets_true)
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=6)
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.zeros(4, dtype=np.int64),
            offsets=np.array([0, 3, 1, 4]),
            widths=np.array([6]),
        )
        state = state_from_snapshot(data, hyper, snap)
        resample_alignment(state, 1, np.random.default_rng(5))
        assert list(state.offsets) == offsets_true
        state.audit()

    def test_planted_relative_alignment_held(self):
        # translation of all cores at once is a flat posterior direction
        # under uniform flanks, so only relative offsets are identifiable;
        # the planted relative pattern must persist under resampling
        offsets_true = np.array([3, 2, 4, 3])
        data = planted_records(4, 12, STRONG_CORE6 // 2, offsets_true, flank_depth=2)
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=6)
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.zeros(4, dtype=np.int64),
            offsets=offsets_true.copy(),
            widths=np.array([6]),
        )
        state = state_from_snapshot(data, hyper, snap)
        rng = np.random.default_rng(3)
        rel_true = tuple(offsets_true - offsets_true[0])
        held = 0
        for _ in range(80):
            for i in range(4):
                resample_alignment(state, i, rng)
            rel = tuple(int(o) - int(state.offsets[0]) for o in state.offsets)
            held += rel == rel_true
        assert held >= 76
        state.audit()


class TestWidthMove:
    def test_forced_width_when_support_degenerate(self):
        data = [col_motif("m0", A2, (0, 2, 0, 0))]
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=2.0, wmin=2)
        state = init_state(data, hyper, np.random.default_rng(0))
        cid = int(state.z[0])
        before = state.updates
        resample_width(state, cid, np.random.default_rng(1))
        assert state.clusters[cid].stats.width == 2
        assert state.updates == before + 1
        state.audit()

    def test_width_distribution_matches_enumeration(self):
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=2.0, wmin=1)
        rows = np.array([[6, 0, 0, 0], [0, 6, 0, 0], [2, 2, 1, 1]])
        data = [rec("m0", rows)]
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.array([0]),
            offsets=np.array([0]),
            widths=np.array([1]),
        )
        state = state_from_snapshot(data, hyper, snap)
        total = rows.sum(axis=0)
        logw = []
        for w in (1, 2, 3):
            core = rows[:w]
            bg = total - core.sum(axis=0)
            logw.append(
                log_pred_new(core, hyper)
                + log_background(bg, hyper)
                + log_width_prior(w, hyper)
            )
        logw = np.array(logw)
        exact = np.exp(logw - logw.max())
        exact /= exact.sum()
        cid = int(state.z[0])
        rng = np.random.default_rng(13)
        hits = np.zeros(3)
        for _ in range(20000):
            resample_width(state, cid, rng)
            hits[state.clusters[cid].stats.width - 1] += 1
        hits /= hits.sum()
        assert np.abs(hits - exact).max() < 0.02
        state.audit()

    def test_planted_width_is_modal(self):
        data = planted_records(6, 12, STRONG_CORE6, [2] * 6, flank_depth=13)
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=3)
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.zeros(6, dtype=np.int64),
            offsets=np.full(6, 2),
            widths=np.array([4]),
        )
        state = state_from_snapshot(data, hyper, snap)
        cid = int(state.z[0])
        rng = np.random.default_rng(17)
        widths = []
        for _ in range(400):
            resample_width(state, cid, rng)
            widths.append(state.clusters[cid].stats.width)
        values, counts = np.unique(widths, return_counts=True)
        assert values[counts.argmax()] == 6
        state.audit()


class TestRunLoop:
    def small_data(self):
        rng = np.random.default_rng(99)
        out = []
        for k in range(5):
            rows = rng.integers(0, 8, size=(rng.integers(4, 8), 4))
            out.append(rec(f"r{k}", rows))
        return out

    def hyper(self):
        return Hyperparameters(alpha=0.5, b=1.0, lam=4.0, wmin=3)

    def test_bit_identical_reruns(self):
        data = self.small_data()
        config = RunConfig(iterations=40, burn_in=10, seed=21, align_every=3)
        t1 = run(data, self.hyper(), config)
        t2 = run(data, self.hyper(), config)
        assert np.array_equal(t1.log_joint_series, t2.log_joint_series)
        assert np.array_equal(t1.n_clusters_series, t2.n_clusters_series)
        assert len(t1.snapshots) == len(t2.snapshots)
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert a.iteration == b.iteration
            assert a.log_joint == b.log_joint
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.widths, b.widths)
        assert t1.best.iteration == t2.best.iteration
        assert t1.best.log_joint == t2.best.log_joint

    def test_different_seeds_differ(self):
        data = self.small_data()
        t1 = run(data, self.hyper(), RunConfig(iterations=30, burn_in=5, seed=1))
        t2 = run(data, self.hyper(), RunConfig(iterations=30, burn_in=5, seed=2))
        assert not np.array_equal(t1.log_joint_series, t2.log_joint_series)

    def test_zero_iterations(self):
        data = self.small_data()
        trace = run(data, self.hyper(), RunConfig(iterations=0, seed=0))
        assert trace.log_joint_series.shape == (0,)
        assert trace.snapshots == []
        assert trace.best is trace.initial

    def test_snapshot_log_joints_match_reference(self):
        data = self.small_data()
        hyper = self.hyper()
        trace = run(data, hyper, RunConfig(iterations=25, burn_in=5, seed=4))
        for snap in [trace.initial, trace.best] + trace.snapshots[::5]:
            ref = log_joint_of_snapshot(data, hyper, snap)
            assert snap.log_joint == pytest.approx(ref, abs=1e-9)

    def test_snapshots_use_canonical_labels(self):
        data = self.small_data()
        trace = run(data, self.hyper(), RunConfig(iterations=20, burn_in=5, seed=8))
        for snap in trace.snapshots:
            seen: list[int] = []
            for lab in snap.z:
                if int(lab) not in seen:
                    assert int(lab) == len(seen)
                    seen.append(int(lab))
            assert snap.widths.shape[0] == len(seen)

    def test_audits_run_clean(self):
        data = self.small_data()
        config = RunConfig(iterations=30, burn_in=5, seed=6, audit_every=1)
        run(data, self.hyper(), config)

    def test_audit_catches_corruption(self):
        data = self.small_data()
        state = init_state(data, self.hyper(), np.random.default_rng(0))
        state.audit()
        state.background[0] += 1
        with pytest.raises(AssertionError):
            state.audit()

    def test_thinning(self):
        data = self.small_data()
        t = run(data, self.hyper(), RunConfig(iterations=21, burn_in=1, seed=3, thin=5))
        assert [s.iteration for s in t.snapshots] == [2, 7, 12, 17]

    def test_best_at_least_every_snapshot(self):
        data = self.small_data()
        t = run(data, self.hyper(), RunConfig(iterations=30, burn_in=5, seed=9))
        top = max(s.log_joint for s in t.snapshots)
        assert t.best.log_joint >= top
        assert t.best.log_joint >= t.initial.log_joint or t.best is not t.initial

    def test_planted_groups_recovered(self):
        # lam equal to the raw length starts every motif at full width, so
        # the chain begins in the planted frame and only has to separate
        # the groups and trim the flanks down to the core
        truth = planted_motif_groups(
            n_groups=2, members=4, peak=0.9, seed=7, core_offset=0
        )
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=12.0, wmin=6)
        trace = run(
            truth.records,
            hyper,
            RunConfig(iterations=300, burn_in=100, seed=2, align_every=1),
        )
        got = {}
        for i, lab in enumerate(trace.best.z):
            got.setdefault(lab, set()).add(i)
        assert {frozenset(m) for m in got.values()} == {
            frozenset(truth.group_members(0)),
            frozenset(truth.group_members(1)),
        }
        for g in range(2):
            member = truth.group_members(g)[0]
            widths = collections.Counter(
                s.widths[s.z[member]] for s in trace.snapshots
            )
            assert widths.most_common(1)[0][0] == truth.core_width

    def test_planted_shifts_recovered(self):
        # trimmed same-profile members admit a single placement; the
        # full-length member of each family aligns against them, so its
        # modal offset identifies the planted shift absolutely
        truth = shifted_core_collection(n_families=3, anchors_per_family=2, seed=5)
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=12.0, wmin=6)
        trace = run(
            truth.records,
            hyper,
            RunConfig(iterations=300, burn_in=100, seed=4, align_every=1),
        )
        for i, planted in enumerate(truth.offsets):
            modal = collections.Counter(
                int(s.offsets[i]) for s in trace.snapshots
            ).most_common(1)[0][0]
            assert modal == int(planted)


class TestInitModes:
    def data(self):
        rng = np.random.default_rng(44)
        return [rec(f"x{k}", rng.integers(0, 6, size=(6 + k % 3, 4))) for k in range(6)]

    def test_singletons(self):
        state = init_state(self.data(), Hyperparameters(wmin=4, lam=5.0), np.random.default_rng(0))
        assert len(state.clusters) == 6
        state.audit()

    def test_single(self):
        state = init_state(
            self.data(), Hyperparameters(wmin=4, lam=5.0), np.random.default_rng(0), "single"
        )
        assert len(state.clusters) == 1
        assert state.clusters[int(state.z[0])].stats.width == 5
        state.audit()

    def test_random_mode_valid(self):
        state = init_state(
            self.data(), Hyperparameters(wmin=4, lam=5.0), np.random.default_rng(1), "random"
        )
        assert 1 <= len(state.clusters) <= 6
        state.audit()

    def test_width_clamped_to_shortest_member(self):
        data = [rec("s", np.ones((4, 4), dtype=np.int64))]
        state = init_state(data, Hyperparameters(wmin=4, lam=8.0), np.random.default_rng(0))
        assert state.clusters[int(state.z[0])].stats.width == 4

    def test_too_narrow_motif_rejected(self):
        data = [rec("tiny", np.ones((3, 4), dtype=np.int64))]
        with pytest.raises(ValueError, match="tiny"):
            init_state(data, Hyperparameters(wmin=6), np.random.default_rng(0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_state(self.data(), Hyperparameters(wmin=4), np.random.default_rng(0), "bogus")


class TestRunConfigValidation:
    def test_default_burn_in_is_fifth(self):
        assert RunConfig(iterations=100).burn_in == 20

    def test_burn_in_must_be_below_iterations(self):
        with pytest.raises(ValueError):
            RunConfig(iterations=10, burn_in=10)

    def test_zero_iterations_allowed(self):
        assert RunConfig(iterations=0).burn_in == 0

    def test_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(iterations=-1)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, thin=0)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, align_every=0)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, audit_every=0)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, init_mode="nope")


class TestStateFromSnapshot:
    def test_missing_cluster_label_rejected(self):
        data = [col_motif("m0", A2)]
        snap = Snapshot(
            iteration=0,
            log_joint=0.0,
            z=np.array([1]),
            offsets=np.array([0]),
            widths=np.array([1, 1]),
        )
        with pytest.raises(ValueError):
            state_from_snapshot(data, HYPER_W1, snap)


@st.composite
def random_state_and_ops(draw):
    n = draw(st.integers(2, 5))
    hyper = Hyperparameters(
        alpha=draw(st.sampled_from([0.5, 1.0])),
        b=draw(st.sampled_from([0.5, 1.0, 2.0])),
        lam=3.0,
        wmin=2,
        prior_kind=draw(st.sampled_from([PriorKind.DP, PriorKind.UNIFORM])),
    )
    lengths = [draw(st.integers(2, 6)) for _ in range(n)]
    seed = draw(st.integers(0, 2**16))
    ops = draw(st.lists(st.integers(0, 2), min_size=5, max_size=40))
    return n, hyper, lengths, seed, ops


class TestStressInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_state_and_ops())
    def test_incremental_state_stays_consistent(self, case):
        n, hyper, lengths, seed, ops = case
        rng = np.random.default_rng(seed)
        data = [
            rec(f"s{k}", rng.integers(0, 9, size=(lengths[k], 4))) for k in range(n)
        ]
        state = init_state(data, hyper, rng, init_mode="random")
        for op in ops:
            if op == 0:
                resample_assignment(state, int(rng.integers(0, n)), rng)
            elif op == 1:
                resample_alignment(state, int(rng.integers(0, n)), rng)
            else:
                cids = sorted(state.clusters)
                resample_width(state, cids[int(rng.integers(0, len(cids)))], rng)
        state.audit()
        z = state.z.copy()
        offsets = state.offsets.copy()
        widths = {cid: cl.stats.width for cid, cl in state.clusters.items()}
        raw = [r.matrix.counts for r in data]
        ref = log_joint_from_arrays(z, offsets, widths, raw, hyper)
        assert state.log_joint_fast() == pytest.approx(ref, abs=1e-9)


def _swept_state(case):
    """A random state with mixed widths, reached by random moves so that the
    column table also holds retired segments."""
    n, hyper, lengths, seed, ops = case
    rng = np.random.default_rng(seed)
    data = [rec(f"s{k}", rng.integers(0, 9, size=(lengths[k], 4))) for k in range(n)]
    state = init_state(data, hyper, rng, init_mode="random")
    for op in ops:
        if op == 0:
            resample_assignment(state, int(rng.integers(0, n)), rng)
        elif op == 1:
            resample_alignment(state, int(rng.integers(0, n)), rng)
        else:
            cids = sorted(state.clusters)
            resample_width(state, cids[int(rng.integers(0, len(cids)))], rng)
    return state, rng


def _log_prior_mass(member_count, hyper):
    _, sizes = seq_prior_weights([member_count], hyper)
    return math.log(sizes[0])


class TestVectorisedWeights:
    """The column-table kernels against per-cluster and per-offset loops
    over the kernel-level predictives."""

    @settings(max_examples=60, deadline=None)
    @given(random_state_and_ops())
    def test_assignment_weights_match_per_cluster_predictives(self, case):
        state, rng = _swept_state(case)
        hyper = state.hyper
        i = int(rng.integers(0, state.n_motifs()))
        own = state.clusters[int(state.z[i])]
        o, length = int(state.offsets[i]), int(state.lengths[i])
        logw = _assignment_weights(state, i)
        assert logw.shape == (len(state._seg_owner) + 1,)
        for seg, cl in enumerate(state._seg_owner):
            if cl is None:
                assert logw[seg] == -np.inf  # retired segment
                continue
            w = cl.stats.width
            if o + w > length:
                assert logw[seg] == -np.inf  # too wide at this offset
                continue
            core = state.core(i, o, w)
            stats = cl.stats
            if cl is own:
                if own.stats.member_count == 1:
                    assert logw[seg] == -np.inf  # leaving a singleton is "new"
                    continue
                stats = ClusterStats(
                    width=w,
                    core_counts=cl.stats.core_counts - core,
                    member_count=cl.stats.member_count - 1,
                )
            expected = (
                _log_prior_mass(stats.member_count, hyper)
                + log_pred_join(core, stats, hyper)
                - log_background(core.sum(axis=0), hyper)
            )
            assert logw[seg] == pytest.approx(expected, abs=1e-9)
        core = state.core(i, o, own.stats.width)
        expected_new = (
            math.log(hyper.b)
            + log_pred_new(core, hyper)
            - log_background(core.sum(axis=0), hyper)
        )
        assert logw[-1] == pytest.approx(expected_new, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(random_state_and_ops())
    def test_alignment_weights_match_per_offset_loop(self, case):
        state, rng = _swept_state(case)
        hyper = state.hyper
        i = int(rng.integers(0, state.n_motifs()))
        cl = state.clusters[int(state.z[i])]
        w, o = cl.stats.width, int(state.offsets[i])
        rest = ClusterStats(
            width=w,
            core_counts=cl.stats.core_counts - state.core(i, o, w),
            member_count=cl.stats.member_count - 1,
        )
        expected = [
            log_pred_join(state.core(i, a, w), rest, hyper)
            - log_background(state.core(i, a, w).sum(axis=0), hyper)
            for a in range(int(state.lengths[i]) - w + 1)
        ]
        np.testing.assert_allclose(_alignment_weights(state, i), expected, rtol=0, atol=1e-9)


class TestColumnTableAudit:
    def swept(self):
        """An audited state whose table holds live and retired segments."""
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=3.0, wmin=2)
        ops = [0, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 0, 0, 0, 2, 2, 0, 1]
        for seed in range(50):
            state, _ = _swept_state((5, hyper, [4, 6, 5, 3, 6], seed, ops))
            if None in state._seg_owner and len(state.clusters) > 1:
                state.audit()
                return state
        raise AssertionError("no seed left a retired segment behind")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s, cl: s._cols.__setitem__((0, cl.start), s._cols[0, cl.start] + 1),
            lambda s, cl: s._cols.__setitem__((4, cl.start), s._cols[4, cl.start] + 1),
            lambda s, cl: s._fcol.__setitem__(cl.start, s._fcol[cl.start] + 1e-12),
            lambda s, cl: s._pos.__setitem__(cl.start, s._pos[cl.start] + 1),
            lambda s, cl: s._seg_prior.__setitem__(cl.seg, s._seg_prior[cl.seg] + 1.0),
            lambda s, cl: s._seg_start.__setitem__(cl.seg, s._seg_start[cl.seg] + 1),
            lambda s, cl: setattr(s, "_dead", s._dead + 1),
        ],
        ids=["counts", "totals", "marginal", "position", "prior", "segment-map", "dead"],
    )
    def test_audit_rebuilds_and_compares_column_table(self, corrupt):
        state = self.swept()
        corrupt(state, state.clusters[max(state.clusters)])
        with pytest.raises(AssertionError):
            state.audit()

    def test_retired_segments_must_be_empty(self):
        state = self.swept()
        dead = [seg for seg, cl in enumerate(state._seg_owner) if cl is None]
        state._cols[0, int(state._seg_start[dead[0]])] += 1
        with pytest.raises(AssertionError):
            state.audit()

    def test_table_capacity_fixed_over_long_runs(self):
        data = planted_motif_groups(
            n_groups=3, members=3, core_width=6, length=9, sites=20, peak=0.8, seed=5
        ).records
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=4)
        rng = np.random.default_rng(2)
        state = init_state(data, hyper, rng)
        capacity = state._cols.shape
        for _ in range(300):
            for i in range(state.n_motifs()):
                resample_assignment(state, i, rng)
                resample_alignment(state, i, rng)
            for cid in sorted(state.clusters):
                resample_width(state, cid, rng)
        state.audit()
        assert state._cols.shape == capacity
        live = state._ncols - state._dead
        assert live <= int(state.lengths.sum())
