import json
import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from motifclust import CountMatrix, Hyperparameters, MotifRecord
from motifclust.cli import _json_text
from motifclust.parsers import parse_jaspar
from motifclust.sampler import RunConfig, Snapshot, run
from motifclust.summaries import (
    PairwiseMatrix,
    TreeNode,
    autocorrelation,
    average_linkage_tree,
    best_partition_report,
    diagnostics_report,
    export_super_matrices,
    ic_table_tsv,
    max_pairwise_discrepancy,
    newick,
    pairwise_probabilities,
    pairwise_tsv,
    pooled_pairwise_probabilities,
    report_text,
    width_intervals_from_snapshots,
    width_intervals_tsv,
)
from motifclust.sampler import RunTrace
from motifclust.synthetic import planted_motif_groups


def snap(z, offsets, widths, iteration=1, log_joint=-1.0):
    return Snapshot(
        iteration=iteration,
        log_joint=log_joint,
        z=np.asarray(z, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        widths=np.asarray(widths, dtype=np.int64),
    )


def fake_trace(ids, snapshots, best=None, hyper=None):
    return RunTrace(
        ids=list(ids),
        config=RunConfig(iterations=0),
        hyper=hyper or Hyperparameters(wmin=1, lam=2.0),
        initial=snapshots[0],
        log_joint_series=np.array([]),
        n_clusters_series=np.array([], dtype=np.int64),
        snapshots=list(snapshots),
        best=best or snapshots[-1],
    )


class TestPairwise:
    def test_unit_diagonal_and_symmetry_exact(self):
        snaps = [
            snap([0, 0, 1], [0, 0, 0], [2, 3]),
            snap([0, 1, 1], [0, 0, 0], [2, 3]),
            snap([0, 1, 2], [0, 0, 0], [2, 3, 2]),
        ]
        pm = pairwise_probabilities(fake_trace(["a", "b", "c"], snaps))
        assert np.all(np.diag(pm.p) == 1.0)
        assert np.array_equal(pm.p, pm.p.T)
        assert pm.p[0, 1] == pytest.approx(1 / 3, abs=0)
        assert pm.p[1, 2] == pytest.approx(1 / 3, abs=0)
        assert pm.p[0, 2] == 0.0

    def test_always_together_gives_one(self):
        snaps = [snap([0, 0], [0, 0], [2]) for _ in range(5)]
        pm = pairwise_probabilities(fake_trace(["a", "b"], snaps))
        assert pm.p[0, 1] == 1.0

    def test_distance_view(self):
        snaps = [snap([0, 0], [0, 0], [2]), snap([0, 1], [0, 0], [2, 2])]
        pm = pairwise_probabilities(fake_trace(["a", "b"], snaps))
        d = pm.distances()
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0
        assert d[0, 1] == pytest.approx(0.5, abs=0)

    def test_empty_trace_rejected(self):
        trace = fake_trace(["a"], [snap([0], [0], [2])])
        trace.snapshots = []
        with pytest.raises(ValueError, match="no recorded snapshots"):
            pairwise_probabilities(trace)

    def test_pooling_concatenates_snapshots(self):
        t1 = fake_trace(["a", "b"], [snap([0, 0], [0, 0], [2])] * 3)
        t2 = fake_trace(["a", "b"], [snap([0, 1], [0, 0], [2, 2])])
        pooled = pooled_pairwise_probabilities([t1, t2])
        assert pooled.p[0, 1] == pytest.approx(0.75, abs=0)

    def test_pooling_rejects_mismatched_ids(self):
        t1 = fake_trace(["a", "b"], [snap([0, 0], [0, 0], [2])])
        t2 = fake_trace(["a", "x"], [snap([0, 0], [0, 0], [2])])
        with pytest.raises(ValueError, match="different motif"):
            pooled_pairwise_probabilities([t1, t2])

    def test_discrepancy(self):
        a = PairwiseMatrix(ids=("a", "b"), p=np.array([[1.0, 0.2], [0.2, 1.0]]))
        b = PairwiseMatrix(ids=("a", "b"), p=np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert max_pairwise_discrepancy([a, a]) == 0.0
        assert max_pairwise_discrepancy([a, b]) == pytest.approx(0.3)

    def test_tsv_layout(self):
        snaps = [snap([0, 0], [0, 0], [2])]
        text = pairwise_tsv(pairwise_probabilities(fake_trace(["m1", "m2"], snaps)))
        lines = text.splitlines()
        assert lines[0] == "id\tm1\tm2"
        assert lines[1] == "m1\t1.000000\t1.000000"
        assert len(lines) == 3


def leaf_names(node):
    if node.is_leaf():
        return [node.name or ""]
    out = []
    for child in node.children:
        out.extend(leaf_names(child))
    return out


def merge_heights(tree):
    """Heights of all internal nodes, sorted ascending."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            out.append(node.height)
            stack.extend(node.children)
    return sorted(out)


def loop_average_linkage(d, ids):
    """Reference: scan every live pair in index order for the smallest
    average distance (first one wins ties), merge it into a new group
    that takes the next index, and average its distances by group size."""
    n = len(ids)
    dist = np.full((2 * n - 1, 2 * n - 1), np.inf)
    dist[:n, :n] = d
    nodes = [TreeNode(height=0.0, name=name) for name in ids]
    sizes = [1] * n
    active = list(range(n))
    while len(active) > 1:
        best, bi, bj = np.inf, -1, -1
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                i, j = active[a], active[b]
                if dist[i, j] < best:
                    best, bi, bj = dist[i, j], i, j
        new = len(nodes)
        nodes.append(TreeNode(height=best, children=(nodes[bi], nodes[bj])))
        sizes.append(sizes[bi] + sizes[bj])
        active = [k for k in active if k not in (bi, bj)]
        for k in active:
            avg = (sizes[bi] * dist[bi, k] + sizes[bj] * dist[bj, k]) / sizes[new]
            dist[new, k] = dist[k, new] = avg
        active.append(new)
    return nodes[active[0]]


class TestAverageLinkageTree:
    def test_two_leaves(self):
        tree = average_linkage_tree(np.array([[0, 0.4], [0.4, 0]]), ["a", "b"])
        assert tree.height == pytest.approx(0.4, abs=0)
        assert sorted(leaf_names(tree)) == ["a", "b"]
        assert newick(tree) == "(a:0.4,b:0.4);"

    def test_three_leaves_hand_execution(self):
        d = np.array([[0, 0.1, 0.5], [0.1, 0, 0.5], [0.5, 0.5, 0]])
        tree = average_linkage_tree(d, ["a", "b", "c"])
        assert merge_heights(tree) == pytest.approx([0.1, 0.5], abs=0)
        inner = [c for c in tree.children if not c.is_leaf()][0]
        assert sorted(leaf_names(inner)) == ["a", "b"]

    def test_tie_breaks_to_smallest_pair(self):
        d = np.full((3, 3), 0.3)
        np.fill_diagonal(d, 0.0)
        tree = average_linkage_tree(d, ["a", "b", "c"])
        inner = [c for c in tree.children if not c.is_leaf()][0]
        # all pairs tie at 0.3; (0, 1) must merge first
        assert sorted(leaf_names(inner)) == ["a", "b"]

    def test_label_permutation_isomorphic(self):
        rng = np.random.default_rng(5)
        d = squareform(rng.uniform(0.05, 1.0, size=15))
        ids = [f"m{i}" for i in range(6)]
        perm = rng.permutation(6)
        tree = average_linkage_tree(d, ids)
        tree_p = average_linkage_tree(d[np.ix_(perm, perm)], [ids[i] for i in perm])
        assert merge_heights(tree) == pytest.approx(merge_heights(tree_p), abs=1e-12)

        def clades(node, acc):
            if not node.is_leaf():
                acc.add(frozenset(leaf_names(node)))
                for c in node.children:
                    clades(c, acc)
            return acc

        assert clades(tree, set()) == clades(tree_p, set())

    def test_matches_scipy_average_linkage(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = squareform(rng.uniform(0.01, 1.0, size=45))  # 10 leaves
            tree = average_linkage_tree(d, [f"m{i}" for i in range(10)])
            ref = linkage(squareform(d), method="average")
            assert merge_heights(tree) == pytest.approx(
                sorted(ref[:, 2]), abs=1e-9
            )

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            average_linkage_tree(np.zeros((1, 1)), ["a"])
        bad = np.array([[0, 0.2], [0.3, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            average_linkage_tree(bad, ["a", "b"])
        with pytest.raises(ValueError, match="zero diagonal"):
            average_linkage_tree(np.array([[0.1, 0.2], [0.2, 0]]), ["a", "b"])
        with pytest.raises(ValueError, match="finite"):
            average_linkage_tree(np.array([[0, np.inf], [np.inf, 0]]), ["a", "b"])

    @pytest.mark.parametrize("n, levels", [(3, 2), (12, 3), (40, 4), (106, 9)])
    def test_matches_pairwise_loop_on_ties(self, n, levels):
        rng = np.random.default_rng(n)
        d = squareform(rng.integers(0, levels, size=n * (n - 1) // 2) / levels)
        ids = [f"m{i}" for i in range(n)]
        assert newick(average_linkage_tree(d, ids)) == newick(loop_average_linkage(d, ids))


class TestNewick:
    def test_branch_lengths_are_height_differences(self):
        d = np.array([[0, 0.2, 0.6], [0.2, 0, 0.8], [0.6, 0.8, 0]])
        tree = average_linkage_tree(d, ["a", "b", "c"])
        # a and b merge at 0.2, then c joins at their average 0.7
        assert newick(tree) == "(c:0.7,(a:0.2,b:0.2):0.5);"

    def test_awkward_labels_quoted(self):
        d = np.array([[0, 0.4], [0.4, 0]])
        tree = average_linkage_tree(d, ["has space", "par(en)'s"])
        assert newick(tree) == "('has space':0.4,'par(en)''s':0.4);"


def cluster_pair_records(counts_a, n_copies, ids=None):
    recs = []
    for k in range(n_copies):
        recs.append(
            MotifRecord(id=(ids[k] if ids else f"m{k}"), matrix=CountMatrix(counts_a))
        )
    return recs


STRONG6 = np.array(
    [[20, 0, 0, 0], [0, 20, 0, 0], [0, 0, 20, 0], [0, 0, 0, 20], [20, 0, 0, 0], [0, 20, 0, 0]],
    dtype=np.int64,
)


class TestBestPartitionReport:
    def hyper(self):
        return Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=4)

    def one_cluster_trace(self, m):
        data = cluster_pair_records(STRONG6, m)
        best = snap([0] * m, [0] * m, [6])
        return fake_trace([r.id for r in data], [best], hyper=self.hyper()), data

    def test_larger_cluster_scores_higher(self):
        t6, d6 = self.one_cluster_trace(6)
        t2, d2 = self.one_cluster_trace(2)
        r6 = best_partition_report(t6, d6, self.hyper())[0]
        r2 = best_partition_report(t2, d2, self.hyper())[0]
        assert r6.strength > r2.strength > 0

    def test_singletons_excluded_then_included(self):
        data = cluster_pair_records(STRONG6, 2) + [
            MotifRecord(id="odd", matrix=CountMatrix(np.full((6, 4), 5)))
        ]
        best = snap([0, 0, 1], [0, 0, 0], [6, 6])
        trace = fake_trace(["m0", "m1", "odd"], [best], hyper=self.hyper())
        reports = best_partition_report(trace, data, self.hyper())
        # singletons come after the ranked clusters, out of every ranking
        assert [r.members for r in reports] == [("m0", "m1"), ("odd",)]
        assert reports[1].strength == 0.0
        assert 0 < reports[1].membership[0] <= 1
        assert [r.id for r in parse_jaspar(export_super_matrices(reports))] == ["cluster1"]
        text = report_text(reports, n_motifs=3)
        assert "singletons (1):\n\todd\t" in text
        assert "motifs in multi-member clusters: 2/3" in text

    def test_super_matrix_totals_and_width(self):
        trace, data = self.one_cluster_trace(3)
        rep = best_partition_report(trace, data, self.hyper())[0]
        assert rep.super_matrix.width == rep.width == 6
        assert np.array_equal(rep.super_matrix.counts, 3 * STRONG6)
        member_total = sum(int(r.matrix.core(0, 6).sum()) for r in data)
        assert int(rep.super_matrix.counts.sum()) == member_total

    def test_unanimous_consensus_uppercase(self):
        trace, data = self.one_cluster_trace(2)
        rep = best_partition_report(trace, data, self.hyper())[0]
        assert rep.consensus == "ACGTAC"

    def test_ordering_by_strength_then_size(self):
        weak = np.array([[6, 5, 5, 4]] * 6, dtype=np.int64)
        data = (
            cluster_pair_records(STRONG6, 2, ids=["s0", "s1"])
            + cluster_pair_records(weak, 3, ids=["w0", "w1", "w2"])
        )
        best = snap([0, 0, 1, 1, 1], [0] * 5, [6, 6])
        trace = fake_trace([r.id for r in data], [best], hyper=self.hyper())
        reports = best_partition_report(trace, data, self.hyper())
        # the sharp pair outranks the larger flat triple
        assert [r.members[0] for r in reports] == ["s0", "w0"]
        assert reports[0].strength > reports[1].strength

    def test_mismatched_data_rejected(self):
        trace, data = self.one_cluster_trace(2)
        with pytest.raises(ValueError, match="does not match"):
            best_partition_report(trace, list(reversed(data)), self.hyper())

    def test_membership_probabilities_from_sampled_run(self):
        truth = planted_motif_groups(
            n_groups=2, members=4, peak=0.9, seed=7, core_offset=0
        )
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=12.0, wmin=6)
        trace = run(
            truth.records,
            hyper,
            RunConfig(iterations=120, burn_in=40, seed=2, align_every=1),
        )
        reports = best_partition_report(trace, truth.records, hyper)
        assert [r.size for r in reports] == [4, 4]
        for rep in reports:
            assert all(0.5 < p <= 1 for p in rep.membership)
            assert len(rep.consensus) == rep.width


class TestExports:
    def make_reports(self):
        data = cluster_pair_records(STRONG6, 2)
        best = snap([0, 0], [0, 0], [6])
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=4)
        trace = fake_trace(["m0", "m1"], [best], hyper=hyper)
        return best_partition_report(trace, data, hyper)

    def test_super_matrix_doubled_counts_roundtrip(self):
        text = export_super_matrices(self.make_reports())
        parsed = parse_jaspar(text)
        assert [r.id for r in parsed] == ["cluster1"]
        assert np.array_equal(parsed[0].matrix.counts, 2 * STRONG6)

    def test_report_text_layout(self):
        text = report_text(self.make_reports(), n_motifs=2)
        lines = text.splitlines()
        assert lines[0] == "rank\tsize\tstrength\twidth\tconsensus"
        assert lines[1].startswith("1\t2\t")
        assert lines[1].endswith("\t6\tACGTAC")
        assert lines[2].startswith("\tm0\t")
        assert "motifs in multi-member clusters: 2/2" in text

    def test_ic_table(self):
        text = ic_table_tsv(self.make_reports())
        lines = text.splitlines()
        assert lines[0].startswith("cluster\tposition")
        assert len(lines) == 1 + 6
        # unanimous columns carry the full 2 bits
        assert lines[1].split("\t")[2] == "2.0000"


class TestWidthIntervals:
    def snaps_with_widths(self, widths):
        return [snap([0], [0], [w]) for w in widths]

    def test_point_interval(self):
        wi = width_intervals_from_snapshots(["m0"], self.snaps_with_widths([6] * 10), 0.95)
        assert (int(wi.lower[0]), int(wi.upper[0])) == (6, 6)
        assert wi.single_point_fraction() == 1.0

    def test_equal_tailed_quantiles(self):
        widths = [6] * 2 + [7] * 96 + [8] * 2
        wi = width_intervals_from_snapshots(["m0"], self.snaps_with_widths(widths), 0.95)
        assert (int(wi.lower[0]), int(wi.upper[0])) == (6, 8)

    def test_tighter_trim_at_lower_level(self):
        widths = [6] * 2 + [7] * 96 + [8] * 2
        wi = width_intervals_from_snapshots(["m0"], self.snaps_with_widths(widths), 0.90)
        assert (int(wi.lower[0]), int(wi.upper[0])) == (7, 7)

    def test_level_bounds(self):
        snaps = self.snaps_with_widths([6])
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="level"):
                width_intervals_from_snapshots(["m0"], snaps, level)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no recorded snapshots"):
            width_intervals_from_snapshots(["m0"], [])

    def test_widths_follow_cluster_assignment(self):
        snaps = [snap([0, 1], [0, 0], [5, 9]), snap([1, 0], [0, 0], [4, 8])]
        wi = width_intervals_from_snapshots(["a", "b"], snaps, 0.5)
        assert (int(wi.lower[0]), int(wi.upper[0])) == (5, 8)
        assert (int(wi.lower[1]), int(wi.upper[1])) == (4, 9)

    def test_tsv(self):
        wi = width_intervals_from_snapshots(["m0"], self.snaps_with_widths([6] * 4))
        assert width_intervals_tsv(wi).splitlines() == ["id\tlower\tupper", "m0\t6\t6"]


class TestDiagnostics:
    def test_autocorrelation_basics(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000)
        acf = autocorrelation(x, [1, 5])
        assert abs(acf[0]) < 0.05 and abs(acf[1]) < 0.05
        smooth = np.repeat(rng.normal(size=100), 40)
        assert autocorrelation(smooth, [1])[0] > 0.9

    def test_constant_series_reports_zero(self):
        assert autocorrelation(np.ones(50), [1, 10]) == [0.0, 0.0]

    def test_lag_validation(self):
        with pytest.raises(ValueError, match="lags"):
            autocorrelation(np.arange(10.0), [0])

    def test_report_structure(self):
        rng = np.random.default_rng(17)
        data = [
            MotifRecord(id=f"m{k}", matrix=CountMatrix(rng.integers(0, 8, size=(5, 4))))
            for k in range(3)
        ]
        hyper = Hyperparameters(alpha=1.0, b=1.0, lam=4.0, wmin=3)
        traces = [
            run(data, hyper, RunConfig(iterations=20, burn_in=4, seed=s)) for s in (0, 1)
        ]
        rep = diagnostics_report(traces, [pairwise_probabilities(t) for t in traces])
        assert len(rep["chains"]) == 2
        assert rep["chains"][0]["seed"] == 0
        assert 0 <= rep["max_cross_chain_pairwise_difference"] <= 1
        parsed = json.loads(_json_text(rep))
        assert parsed["lags"] == [1, 5, 10, 50]
