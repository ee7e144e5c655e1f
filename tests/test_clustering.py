"""Feature aggregation, k-means, elbow selection, Louvain, mono labels."""

from __future__ import annotations

import base64
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from classlink import clustering
from classlink.clustering import (
    _aggregate,
    _Centroids,
    _class_moves,
    _class_rows,
    _colour_classes,
    _degrees,
    _elbow_runs,
    _kmeans_full,
    _lloyd,
    _local_move,
    _modularity,
    _off_diagonal,
    _prepare_points,
    _renumber,
    aggregate_features,
    elbow_kmeans,
    kmeans,
    knee_point,
    load_labeling_json,
    louvain,
    mono_label,
    save_labeling_json,
    save_labels_csv,
    save_ssd_curve_csv,
)
from classlink.errors import ConfigurationError, DimensionError, ParseError
from classlink.graph import build_graph, split_edges
from classlink.rand import STREAM_CLUSTER, make_rng

import clustering_oracles as oracle
from conftest import encode_blob, random_edges
from test_graph import brute_adjacency


def make_blobs(rng, n_per_blob=100, n_blobs=3, spacing=10.0, sigma=0.1, dim=2):
    """Well-separated Gaussian blobs along the first axis."""
    centers = np.zeros((n_blobs, dim))
    centers[:, 0] = spacing * np.arange(n_blobs)
    points = np.concatenate(
        [c + sigma * rng.standard_normal((n_per_blob, dim)) for c in centers]
    )
    truth = np.repeat(np.arange(n_blobs), n_per_blob)
    return points, truth


def co_membership(labels):
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


class TestAggregateFeatures:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1001)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            edges = random_edges(rng, n, 0.3)
            feats = rng.standard_normal((n, 5))
            g = build_graph(n, edges, features=feats)
            adj = brute_adjacency(edges, n)
            dense = np.eye(n)
            for u in range(n):
                for v in adj[u]:
                    dense[u, v] = 1.0
            agg = aggregate_features(g)
            assert sp.isspmatrix_csr(agg)
            np.testing.assert_allclose(agg.toarray(), dense @ feats, atol=1e-12)

    def test_path_hand_value(self, path3):
        x = np.array([[1.0], [2.0], [4.0]])
        g = build_graph(3, path3.undirected_edges(), features=x)
        # H1 = (A+I)X: node0: 1+2, node1: 2+1+4, node2: 4+2
        np.testing.assert_allclose(
            aggregate_features(g).toarray(), [[3.0], [7.0], [6.0]]
        )

    def test_empty_features_rejected(self, path3):
        with pytest.raises(ConfigurationError):
            aggregate_features(path3)

    def test_shape_mismatch_rejected(self, path3):
        # aggregate_features reads g.features, so a feature matrix of the
        # wrong height is stopped where the graph is built, before any product.
        with pytest.raises(DimensionError):
            build_graph(3, path3.undirected_edges(), features=np.ones((5, 2)))
        with pytest.raises(DimensionError):
            build_graph(
                3, path3.undirected_edges(), features=sp.csr_matrix(np.ones((5, 2)))
            )


class TestKmeans:
    def test_k1_ssd_is_total_scatter(self):
        rng = np.random.default_rng(1002)
        pts = rng.standard_normal((40, 3))
        _, _, hist = _kmeans_full(pts, 1, make_rng(0))
        expect = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert hist[-1] == pytest.approx(expect, rel=1e-12)

    def test_k_equals_n_gives_zero_ssd(self):
        rng = np.random.default_rng(1003)
        pts = rng.standard_normal((12, 2))
        labels, _, hist = _kmeans_full(pts, 12, make_rng(1))
        assert hist[-1] == pytest.approx(0.0, abs=1e-20)
        assert len(set(labels.tolist())) == 12

    def test_ssd_nonincreasing_per_iteration(self):
        rng = np.random.default_rng(1004)
        for trial in range(10):
            pts = rng.standard_normal((60, 4)) * rng.uniform(0.5, 3.0)
            _, _, hist = _kmeans_full(pts, int(rng.integers(2, 8)), make_rng(trial))
            diffs = np.diff(hist)
            assert np.all(diffs <= 1e-9), hist

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(1005)
        pts, truth = make_blobs(rng)
        labeling = kmeans(pts, 3, seed=7)
        np.testing.assert_array_equal(
            co_membership(labeling.labels), co_membership(truth)
        )
        assert labeling.k == 3
        assert labeling.method == "kmeans"

    def test_deterministic(self):
        rng = np.random.default_rng(1006)
        pts = rng.standard_normal((50, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_contiguous_first_occurrence(self):
        rng = np.random.default_rng(1007)
        pts, _ = make_blobs(rng)
        labeling = kmeans(pts, 3, seed=3)
        assert labeling.labels[0] == 0
        assert sorted(set(labeling.labels.tolist())) == [0, 1, 2]

    def test_k_out_of_range(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ConfigurationError):
            kmeans(pts, 0, seed=0)
        with pytest.raises(ConfigurationError):
            kmeans(pts, 6, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_points_rejected(self, value, sparse):
        pts, _ = make_blobs(np.random.default_rng(1021), n_per_blob=10)
        pts[7, 1] = value
        if sparse:
            pts = sp.csr_matrix(pts)
        with pytest.raises(ConfigurationError, match="finite"):
            kmeans(pts, 3, seed=0)
        with pytest.raises(ConfigurationError, match="finite"):
            elbow_kmeans(pts, [1, 2, 3], seed=0)

    def test_iteration_cap_below_one_rejected(self):
        """A cap of 0 runs no Lloyd step, so no clustering exists to return."""
        pts, _ = make_blobs(np.random.default_rng(1022), n_per_blob=10)
        with pytest.raises(ConfigurationError, match="max_iters must be >= 1, got 0"):
            kmeans(pts, 2, 0, max_iters=0)
        with pytest.raises(ConfigurationError, match="max_iters must be >= 1, got 0"):
            elbow_kmeans(pts, [1, 2, 3], 0, max_iters=0)

    def test_normalize_rows_changes_geometry(self):
        # two directions, very different magnitudes
        pts = np.array([[10.0, 0.0], [0.1, 0.0], [0.0, 10.0], [0.0, 0.1]])
        raw = kmeans(pts, 2, seed=0)
        unit = kmeans(pts, 2, seed=0, normalize_rows=True)
        # normalized: clusters by direction -> {0,1} together
        assert unit.labels[0] == unit.labels[1]
        assert unit.labels[2] == unit.labels[3]
        # raw: magnitude dominates -> the two small points cluster together
        assert raw.labels[1] == raw.labels[3]


class TestElbow:
    def test_knee_rule_canonical(self):
        assert knee_point([(1, 100.0), (2, 10.0), (3, 5.0), (4, 4.0)]) == 2

    def test_knee_rule_linear_curve_picks_smallest(self):
        assert knee_point([(1, 100.0), (2, 75.0), (3, 50.0), (4, 25.0)]) == 1

    def test_knee_rule_flat_curve_picks_smallest(self):
        assert knee_point([(2, 5.0), (4, 5.0), (8, 5.0)]) == 2

    def test_three_blobs_yield_three(self):
        rng = np.random.default_rng(1008)
        pts, _ = make_blobs(rng)
        labeling = elbow_kmeans(pts, [1, 2, 3, 5, 8, 10], seed=0)
        assert labeling.k == 3
        ks = [k for k, _ in labeling.ssd_curve]
        assert ks == [1, 2, 3, 5, 8, 10]

    def test_curve_nonincreasing(self):
        rng = np.random.default_rng(1009)
        for trial in range(5):
            pts = rng.standard_normal((80, 3))
            curve = elbow_kmeans(pts, [1, 2, 3, 5, 8, 10], seed=trial).ssd_curve
            ssds = [s for _, s in curve]
            assert all(a >= b - 1e-9 for a, b in zip(ssds, ssds[1:])), curve

    def test_elbow_kmeans_returns_curve_and_labels(self):
        rng = np.random.default_rng(1010)
        pts, truth = make_blobs(rng)
        labeling = elbow_kmeans(pts, [1, 2, 3, 5, 8, 10], seed=0)
        assert labeling.k == 3
        assert labeling.ssd_curve is not None and len(labeling.ssd_curve) == 6
        np.testing.assert_array_equal(
            co_membership(labeling.labels), co_membership(truth)
        )

    def test_candidate_validation(self):
        pts = np.zeros((10, 2))
        with pytest.raises(ConfigurationError, match="at least 3"):
            elbow_kmeans(pts, [1, 2], seed=0)
        with pytest.raises(ConfigurationError, match="increasing"):
            elbow_kmeans(pts, [3, 2, 1], seed=0)
        with pytest.raises(ConfigurationError, match="increasing"):
            elbow_kmeans(pts, [1, 2, 2, 3], seed=0)
        with pytest.raises(ConfigurationError):
            elbow_kmeans(pts, [1, 2, 11], seed=0)


def oracle_modularity(edges, labels, n):
    """Q = (1/2m) Σ_ij (A_ij - k_i k_j / 2m) δ(c_i, c_j) on a simple graph."""
    adj = brute_adjacency(edges, n)
    deg = np.array([len(a) for a in adj], dtype=float)
    m2 = deg.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            a_ij = 1.0 if j in adj[i] else 0.0
            if labels[i] == labels[j]:
                q += a_ij - deg[i] * deg[j] / m2
    return q / m2


class TestLouvain:
    def two_cliques(self):
        """Two 5-cliques joined by a single bridge edge."""
        edges = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j))
        edges.append((0, 5))
        return build_graph(10, np.array(edges))

    def test_two_cliques_two_communities(self):
        g = self.two_cliques()
        labeling = louvain(g, seed=0)
        assert labeling.k == 2
        labs = labeling.labels
        assert len(set(labs[:5].tolist())) == 1
        assert len(set(labs[5:].tolist())) == 1
        assert labs[0] != labs[5]
        assert labs[0] == 0  # first-occurrence renumbering

    def test_single_clique_single_community(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = build_graph(6, np.array(edges))
        labeling = louvain(g, seed=1)
        assert labeling.k == 1

    def test_four_bridged_cliques_recovered(self):
        """Four 8-cliques in a ring, each joined to the next by one edge."""
        edges = []
        for base in range(0, 32, 8):
            edges += [(base + i, base + j) for i in range(8) for j in range(i + 1, 8)]
            edges.append((base + 7, (base + 8) % 32))
        g = build_graph(32, np.array(edges))
        for seed in (0, 1, 2, 3):
            labeling = louvain(g, seed)
            np.testing.assert_array_equal(labeling.labels, np.repeat(np.arange(4), 8))

    def test_modularity_at_least_mono(self):
        """Result never scores below the single-community partition (Q=0)."""
        rng = np.random.default_rng(1011)
        for trial in range(10):
            n = int(rng.integers(8, 40))
            edges = random_edges(rng, n, 0.2)
            if len(edges) == 0:
                continue
            g = build_graph(n, edges)
            labeling = louvain(g, seed=trial)
            q = oracle_modularity(g.undirected_edges(), labeling.labels, n)
            assert q >= -1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1012)
        g = build_graph(30, random_edges(rng, 30, 0.15))
        if g.n_edges == 0:
            pytest.skip("degenerate draw")
        a = louvain(g, seed=5)
        b = louvain(g, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_edgeless_rejected(self):
        g = build_graph(4, np.empty((0, 2), dtype=int))
        with pytest.raises(ConfigurationError, match="edgeless"):
            louvain(g, seed=0)

    def test_labels_contiguous(self):
        rng = np.random.default_rng(1013)
        g = build_graph(25, random_edges(rng, 25, 0.2))
        labeling = louvain(g, seed=2)
        labs = sorted(set(labeling.labels.tolist()))
        assert labs == list(range(labeling.k))


class TestColourClasses:
    def graphs(self):
        rng = np.random.default_rng(1020)
        yield from louvain_graphs()
        for n, p in ((1, 0.0), (2, 1.0), (50, 0.5), (300, 0.02)):
            yield build_graph(n, random_edges(rng, n, p))

    def test_classes_are_independent_sets_partitioning_the_nodes(self):
        for g in self.graphs():
            order, bounds = _colour_classes(g.adj, make_rng(3))
            assert sorted(order.tolist()) == list(range(g.n_nodes))
            assert bounds[0] == 0 and bounds[-1] == g.n_nodes
            assert np.all(np.diff(bounds) > 0)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                members = order[lo:hi]
                assert np.all(np.diff(members) > 0)  # ascending ids
                assert g.adj[members][:, members].nnz == 0

    def test_each_colour_is_the_smallest_free_one(self):
        """A node of colour c has a neighbour of every colour below c."""
        for g in self.graphs():
            order, bounds = _colour_classes(g.adj, make_rng(4))
            colour = np.empty(g.n_nodes, dtype=np.int64)
            colour[order] = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
            for v in range(g.n_nodes):
                below = set(colour[g.neighbors(v)].tolist())
                assert set(range(colour[v])) <= below

    def test_deterministic_given_seed(self):
        for g in self.graphs():
            a = _colour_classes(g.adj, make_rng(5))
            b = _colour_classes(g.adj, make_rng(5))
            assert a[0].tobytes() == b[0].tobytes()
            assert a[1].tobytes() == b[1].tobytes()


class TestMonoLabel:
    def test_all_zero(self):
        labeling = mono_label(7)
        np.testing.assert_array_equal(labeling.labels, np.zeros(7, dtype=int))
        assert labeling.k == 1
        assert labeling.method == "mono"

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            mono_label(0)


class TestLeakage:
    def test_pseudo_labels_ignore_held_out_edges(self):
        """Clustering the train graph is bit-identical with held-out edges
        physically absent from the input."""
        rng = np.random.default_rng(1014)
        n = 40
        edges = random_edges(rng, n, 0.25)
        feats = rng.standard_normal((n, 6))
        g = build_graph(n, edges, features=feats)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=3, negatives=10)

        g_train_view = split.train_graph(g)
        g_train_only = build_graph(n, split.train_edges, features=feats)

        h_view = aggregate_features(g_train_view)
        h_only = aggregate_features(g_train_only)
        assert h_view.toarray().tobytes() == h_only.toarray().tobytes()

        km_view = kmeans(h_view, 4, seed=11)
        km_only = kmeans(h_only, 4, seed=11)
        assert km_view.labels.tobytes() == km_only.labels.tobytes()

        lv_view = louvain(g_train_view, seed=11)
        lv_only = louvain(g_train_only, seed=11)
        assert lv_view.labels.tobytes() == lv_only.labels.tobytes()


class TestArtifacts:
    def test_labels_csv(self, tmp_path):
        labeling = mono_label(3)
        save_labels_csv(labeling, ("a", "b", "c"), tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_text() == "a,0\nb,0\nc,0\n"

    def test_labels_csv_length_mismatch(self, tmp_path):
        with pytest.raises(DimensionError):
            save_labels_csv(mono_label(3), ("a", "b"), tmp_path / "x.csv")

    def test_ssd_curve_csv(self, tmp_path):
        save_ssd_curve_csv([(1, 10.0), (2, 2.5)], tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_text() == "1,10\n2,2.5\n"

    def test_labeling_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1015)
        pts, _ = make_blobs(rng, n_per_blob=20)
        labeling = elbow_kmeans(pts, [1, 2, 3, 5], seed=4)
        save_labeling_json(labeling, tmp_path / "labeling.json")
        back = load_labeling_json(tmp_path / "labeling.json")
        np.testing.assert_array_equal(labeling.labels, back.labels)
        assert back.k == labeling.k
        assert back.method == labeling.method
        assert back.ssd_curve == labeling.ssd_curve
        assert back.seed == labeling.seed


def louvain_graphs():
    """Graphs with isolated nodes, several components, stars and cliques."""
    rng = np.random.default_rng(1016)
    sizes = [(30, 0.08), (60, 0.05), (120, 0.04), (200, 0.03)] + [
        (int(rng.integers(20, 80)), float(rng.uniform(0.02, 0.2))) for _ in range(12)
    ]
    graphs = [build_graph(n, random_edges(rng, n, p)) for n, p in sizes]
    edges, base = [], 0
    for size in (4, 6, 9):  # cliques
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        base += size
    for leaves in (5, 12):  # stars
        edges += [(base, base + 1 + i) for i in range(leaves)]
        base += leaves + 1
    edges += [(base + i, base + i + 1) for i in range(7)]  # a path
    base += 8
    edges = np.array(edges)
    graphs.append(build_graph(base + 5, edges))  # five isolated nodes
    bridges = rng.integers(0, base, size=(8, 2))
    graphs.append(build_graph(base + 5, np.concatenate([edges, bridges])))
    return graphs


def dense(adj: list[dict[int, float]]) -> np.ndarray:
    out = np.zeros((len(adj), len(adj)))
    for i, row in enumerate(adj):
        for j, w in row.items():
            out[i, j] = w
    return out


def csr(level) -> sp.csr_matrix:
    """A Louvain level's arrays as a scipy CSR matrix."""
    return sp.csr_matrix((level.data, level.indices, level.indptr), shape=level.shape)


def levels_of(g, seed: int) -> list:
    """The graph's adjacency and every level that aggregating its local moves
    gives, down to the level whose moves merge nothing."""
    adj, rng, levels = g.adj, make_rng(seed, STREAM_CLUSTER), []
    while True:
        levels.append(adj)
        comm = _renumber(_local_move(adj, rng))
        if int(comm.max()) + 1 == adj.shape[0]:
            return levels
        adj = _aggregate(adj, comm)


class TestLouvainArraysMatchScipy:
    """The numpy steps of Louvain give the bits of the scipy products they
    replaced, on 0/1 graphs and on the weighted levels aggregation makes."""

    def graphs(self):
        rng = np.random.default_rng(1030)
        yield from louvain_graphs()
        for n, p in ((12, 0.3), (60, 0.08), (200, 0.03)):
            yield build_graph(n + 5, random_edges(rng, n, p))  # five isolated nodes

    def test_class_moves_equal_the_scipy_link_product(self):
        """Movers, targets and gains of every colour class, against
        singletons, random partitions and a level's own moves."""
        rng = np.random.default_rng(1031)
        moved = 0
        for g in self.graphs():
            for level in levels_of(g, 3):
                n = level.shape[0]
                deg = _degrees(level)
                m2 = float(deg.sum())
                off = _off_diagonal(level)
                order, bounds = _colour_classes(off, make_rng(4))
                partitions = (
                    np.arange(n),
                    rng.integers(0, max(1, n // 3), size=n),
                    _local_move(level, make_rng(5)),
                )
                for comm in partitions:
                    sigma_tot = np.bincount(comm, weights=deg, minlength=n)
                    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                        nodes = order[lo:hi]
                        want = oracle.scipy_class_moves(
                            csr(off)[nodes], nodes, comm, sigma_tot, deg, m2
                        )
                        rows = _class_rows(off, nodes, deg)
                        if rows is None:
                            assert want[0].size == 0
                            continue
                        movers, targets, gains = _class_moves(rows, comm, sigma_tot, m2)
                        assert movers.tolist() == want[0].tolist()
                        assert targets.tolist() == want[1].tolist()
                        assert gains.tobytes() == want[2].tobytes()
                        moved += movers.size
        assert moved > 1000

    def test_aggregate_equals_the_scipy_product(self):
        """Index pointers, column ids and summed weights of ``CᵀAC``, rows
        sorted, for a level's own moves, random partitions and one community."""
        rng = np.random.default_rng(1032)
        for g in self.graphs():
            for level in levels_of(g, 6):
                n = level.shape[0]
                partitions = (
                    _renumber(_local_move(level, make_rng(7))),
                    rng.integers(0, max(1, n // 4), size=n),
                    np.zeros(n, dtype=np.int64),
                )
                for comm in partitions:
                    got = _aggregate(level, comm)
                    want = oracle.scipy_aggregate(csr(level), comm)
                    assert got.shape == want.shape
                    assert got.indptr.tolist() == want.indptr.tolist()
                    assert got.indices.tolist() == want.indices.tolist()
                    assert got.data.tobytes() == want.data.tobytes()


class TestLouvainMatchesOracle:
    """The dict code's batched moves fix the labels bit for bit; its
    sequential sweep is the quality oracle of the batched one.

    Batched moves read ``sigma_tot`` as it was before their colour class, so
    labels differ from a sequential sweep; the gates bound the modularity
    instead.  On these small graphs the oracle's own seeds differ by up to
    0.035 in modularity, so the gates compare means over seeds, not pairs.
    """

    SEEDS = (0, 1, 5, 7, 11, 123)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_labels_and_levels_bit_identical(self, seed, monkeypatch):
        """Labels and level count equal the dict code's batched moves."""
        levels = []

        def counted(adj, rng):
            levels.append(adj.shape[0])
            return _local_move(adj, rng)

        monkeypatch.setattr(clustering, "_local_move", counted)
        for g in louvain_graphs():
            levels.clear()
            labeling = louvain(g, seed)
            want, want_levels = oracle.batched_louvain_levels(g, seed)
            assert labeling.labels.tobytes() == want.tobytes()
            assert len(levels) == want_levels
            assert labeling.k == int(want.max()) + 1

    def test_modularity_gates_against_the_sequential_oracle(self):
        diffs = []
        for g in louvain_graphs():
            q_batched, q_oracle = [], []
            for seed in self.SEEDS:
                labeling = louvain(g, seed)
                assert labeling.k == int(labeling.labels.max()) + 1
                want, _ = oracle.louvain_levels(g, seed)
                q_batched.append(_modularity(g.adj, labeling.labels))
                q_oracle.append(_modularity(g.adj, want))
            assert min(q_batched) >= 0.0
            assert np.mean(q_batched) >= min(q_oracle) - 0.02
            diffs += [b - o for b, o in zip(q_batched, q_oracle)]
        assert np.mean(diffs) >= -2e-3

    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_level_matches_dict_code(self, seed):
        """Batched local moves, modularity and aggregation agree with the
        dict code level by level."""
        for g in louvain_graphs():
            adj = g.adj
            adj_dict = oracle.dict_adjacency(g)
            rng = make_rng(seed, STREAM_CLUSTER)
            rng_dict = make_rng(seed, STREAM_CLUSTER)
            while True:
                np.testing.assert_array_equal(csr(adj).toarray(), dense(adj_dict))
                comm = _local_move(adj, rng)
                want = oracle.batched_local_move(adj_dict, rng_dict)
                assert comm.tolist() == want
                assert _modularity(adj, comm) == oracle.modularity(adj_dict, want)
                comm = _renumber(comm)
                if int(comm.max()) + 1 == adj.shape[0]:
                    break
                adj = _aggregate(adj, comm)
                adj_dict = oracle.aggregate(adj_dict, comm)
                assert adj.indices.size == sum(len(row) for row in adj_dict)

    def test_modularity_of_random_partitions(self):
        rng = np.random.default_rng(1017)
        for g in louvain_graphs():
            adj, adj_dict = g.adj, oracle.dict_adjacency(g)
            for n_comm in (1, 3, g.n_nodes):
                comm = rng.integers(0, n_comm, size=g.n_nodes)
                assert _modularity(adj, comm) == oracle.modularity(
                    adj_dict, comm.tolist()
                )

    def test_renumber_matches_dict_oracle(self):
        rng = np.random.default_rng(1018)
        for size in (0, 1, 2, 17, 500):
            for span in (1, 3, 50, 10**9):
                labels = rng.integers(-span, span, size=size)
                got = _renumber(labels)
                assert got.dtype == np.int64
                assert got.tobytes() == oracle.renumber(labels).tobytes()


class TestKmeansMatchesOracle:
    def features(self):
        """Blobs, and one-hop sums of sparse 0/1 features on a random graph."""
        rng = np.random.default_rng(1019)
        blobs, _ = make_blobs(rng, n_per_blob=40, n_blobs=4, sigma=1.5, dim=5)
        n = 150
        feats = (rng.random((n, 40)) < 0.1).astype(np.float64)
        g = build_graph(n, random_edges(rng, n, 0.04), features=feats)
        return [blobs, aggregate_features(g).toarray()]

    @pytest.mark.parametrize("max_iters", [3, 100])
    @pytest.mark.parametrize("normalize_rows", [False, True])
    def test_elbow_curve_byte_identical(self, max_iters, normalize_rows):
        """Labels byte-identical to the float oracle; the SSD curve to 1e-12."""
        ks = [1, 2, 3, 5, 8]
        for feats in self.features():
            labeling = elbow_kmeans(
                feats, ks, seed=9, max_iters=max_iters, normalize_rows=normalize_rows
            )
            curve, labels_by_k = oracle.elbow_runs(feats, ks, 9, max_iters, normalize_rows)
            assert [k for k, _ in labeling.ssd_curve] == [k for k, _ in curve]
            assert [s for _, s in labeling.ssd_curve] == pytest.approx(
                [s for _, s in curve], rel=1e-12
            )
            want = oracle.renumber(labels_by_k[labeling.k])
            assert labeling.labels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_lloyd_run_byte_identical(self, k):
        """Labels byte-identical to the float oracle; centroids and history to 1e-12."""
        for feats in self.features():
            labels, cents, hist = _kmeans_full(feats, k, make_rng(k), max_iters=50)
            rng = make_rng(k)
            want = oracle.lloyd(feats, oracle.kmeanspp_init(feats, k, rng), 50)
            assert labels.tobytes() == want[0].tobytes()
            np.testing.assert_allclose(cents, want[1], rtol=1e-12, atol=0)
            assert hist == pytest.approx(want[2], rel=1e-12)


def integer_point_sets():
    """Small integer point sets, dense with duplicate points and exact ties."""
    rng = np.random.default_rng(1020)
    sets = []
    for _ in range(40):
        n, d, top = (int(rng.integers(lo, hi)) for lo, hi in ((4, 20), (1, 4), (2, 5)))
        sets.append(rng.integers(0, top, size=(n, d)).astype(np.float64))
    return sets


class TestKmeansMatchesExactOracle:
    """On integer points every distance and SSD is an exact rational rounded
    once, so the labels equal those of Lloyd over Fractions label for label."""

    def check_lloyd(self, pts, k, seed):
        labels, cents, hist = _kmeans_full(pts, k, make_rng(seed), max_iters=20)
        exact = oracle.exact_points(pts)
        init = oracle.exact_kmeanspp_init(exact, k, make_rng(seed))
        want, want_cents, want_hist = oracle.exact_lloyd(exact, init, 20)
        assert labels.tolist() == want
        # a centroid is its integer member sum over its count, rounded once
        assert cents.tolist() == [[float(v) for v in c] for c in want_cents]
        assert hist == pytest.approx([float(h) for h in want_hist], rel=1e-15)

    def check_elbow(self, pts, ks, seed):
        curve, labels_by_k = _elbow_runs(pts, ks, seed, 20, False)
        want_curve, want_labels = oracle.exact_elbow_runs(pts, ks, seed, 20)
        assert {k: labels.tolist() for k, labels in labels_by_k.items()} == want_labels
        assert [s for _, s in curve] == pytest.approx(
            [float(s) for _, s in want_curve], rel=1e-15
        )
        labeling = elbow_kmeans(pts, ks, seed=seed, max_iters=20)
        assert labeling.k == knee_point([(k, float(s)) for k, s in want_curve])
        want = oracle.renumber(np.array(want_labels[labeling.k]))
        assert labeling.labels.tobytes() == want.tobytes()

    def test_lloyd_runs(self):
        for seed, pts in enumerate(integer_point_sets()):
            for k in range(1, min(len(pts), 6) + 1):
                self.check_lloyd(pts, k, seed)

    def test_elbow_runs(self):
        ks = [1, 2, 3, 4, 6]
        for seed, pts in enumerate(integer_point_sets()):
            if len(pts) >= ks[-1]:
                self.check_elbow(pts, ks, seed)

    def test_point_equidistant_from_two_means_goes_to_the_lower_index(self):
        # From centroids on points 0 and 7, Lloyd converges to the mean
        # (4/3, 2/3, 5/6) of six points and the mean (0, 0, 1/2) of two;
        # point 1 lies at squared distance 5/4 from both.
        pts = np.array(
            [[2, 0, 1], [1, 0, 0], [0, 0, 0], [2, 1, 0],
             [1, 0, 1], [1, 1, 2], [1, 2, 1], [0, 0, 1]],
            dtype=np.float64,
        )
        exact = oracle.exact_points(pts)
        want, cents, _ = oracle.exact_lloyd(exact, [exact[0], exact[7]], 20)
        assert cents == [
            (Fraction(4, 3), Fraction(2, 3), Fraction(5, 6)),
            (Fraction(0), Fraction(0), Fraction(1, 2)),
        ]
        tie = [oracle.exact_sq_dist(exact[1], c) for c in cents]
        assert tie == [Fraction(5, 4), Fraction(5, 4)]
        assert want == [0, 0, 1, 0, 0, 0, 0, 1]
        points = _prepare_points(pts, normalize_rows=False)
        labels, _, _ = _lloyd(points, _Centroids.at(points, [0, 7]), 20)
        assert labels.tolist() == want

    def test_fresh_and_warm_runs_ending_in_one_partition_keep_the_fresh_labels(self):
        # At k = 4 the fresh and the warm run end in the same partition with
        # its clusters numbered differently; their SSDs must be equal floats,
        # whatever the cluster order, so that the fresh run is kept.
        pts = np.array(
            [[2, 3], [0, 1], [3, 1], [2, 1], [3, 1], [2, 3], [1, 3], [3, 2], [3, 3],
             [1, 1], [3, 2], [2, 1], [0, 1], [2, 0], [3, 0], [1, 0], [3, 3], [0, 2],
             [2, 3], [1, 0], [1, 3], [0, 1], [0, 1], [0, 3], [1, 3], [3, 0], [1, 0],
             [1, 1], [2, 1], [0, 3], [1, 3], [2, 1], [2, 2], [3, 1]],
            dtype=np.float64,
        )
        self.check_elbow(pts, [1, 2, 3, 4, 6], seed=195)

    def test_duplicate_points(self):
        """Seeding draws from all-zero distances once every distinct point is
        a centroid, and a cluster re-seeded onto a point that a later empty
        cluster takes again keeps that point as its centroid."""
        pts = np.array([[0, 0]] * 3 + [[1, 1]] * 2 + [[3, 0]] * 2, dtype=np.float64)
        for seed in range(6):
            for k in range(1, len(pts) + 1):
                self.check_lloyd(pts, k, seed)
            self.check_elbow(pts, [1, 2, 3, 5, 7], seed)


class TestSparseInput:
    @pytest.mark.parametrize("normalize_rows", [False, True])
    def test_dense_and_sparse_input_agree_byte_for_byte(self, normalize_rows):
        rng = np.random.default_rng(1021)
        n = 150
        feats = (rng.random((n, 40)) < 0.1).astype(np.float64)
        agg = aggregate_features(
            build_graph(n, random_edges(rng, n, 0.04), features=feats)
        )
        # shuffled COO entries with explicit zeros: the same points
        coo = agg.tocoo()
        order = np.random.default_rng(1022).permutation(coo.nnz)
        messy = sp.coo_matrix(
            (
                np.concatenate([coo.data[order], np.zeros(5)]),
                (
                    np.concatenate([coo.row[order], np.arange(5)]),
                    np.concatenate([coo.col[order], np.arange(5)]),
                ),
            ),
            shape=agg.shape,
        )
        ks = [1, 2, 3, 5, 8]
        runs = [
            elbow_kmeans(x, ks, seed=4, max_iters=30, normalize_rows=normalize_rows)
            for x in (agg.toarray(), agg, messy)
        ]
        fixed = [
            kmeans(x, 6, seed=4, normalize_rows=normalize_rows)
            for x in (agg.toarray(), agg, messy)
        ]
        for other, other_fixed in zip(runs[1:], fixed[1:]):
            assert other.labels.tobytes() == runs[0].labels.tobytes()
            assert np.array(other.ssd_curve).tobytes() == np.array(
                runs[0].ssd_curve
            ).tobytes()
            assert other_fixed.labels.tobytes() == fixed[0].labels.tobytes()

    def test_points_without_columns(self):
        # all points coincide: ties send them to centroid 0, and the empty
        # centroid 1 takes point 0, the first farthest one
        labels = kmeans(np.zeros((5, 0)), 2, seed=0).labels
        assert labels.tolist() == [0, 1, 1, 1, 1]

    def test_elbow_peak_memory_below_a_quarter_of_one_dense_copy(self):
        n, d = 3000, 4000
        rng = np.random.default_rng(1023)
        nnz = n * d // 100
        x = sp.csr_matrix(
            (np.ones(nnz), (rng.integers(0, n, nnz), rng.integers(0, d, nnz))),
            shape=(n, d),
        )
        tracemalloc.start()
        try:
            elbow_kmeans(x, [2, 3, 5, 8], seed=0, max_iters=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4, f"peak {peak / 2**20:.1f} MiB"


class TestLabelingJsonErrors:
    def saved(self, tmp_path) -> dict:
        labeling = kmeans(np.arange(12.0).reshape(6, 2), 3, seed=1)
        save_labeling_json(labeling, tmp_path / "labeling.json")
        return json.loads((tmp_path / "labeling.json").read_text())

    def load(self, tmp_path, payload):
        (tmp_path / "labeling.json").write_text(json.dumps(payload))
        return load_labeling_json(tmp_path / "labeling.json")

    @pytest.mark.parametrize("key", ["labels", "k", "method", "seed"])
    def test_missing_key(self, tmp_path, key):
        payload = self.saved(tmp_path)
        del payload[key]
        with pytest.raises(ParseError, match=key):
            self.load(tmp_path, payload)

    @pytest.mark.parametrize("payload", [[1, 2], "labeling", 3, None])
    def test_non_object_payload(self, tmp_path, payload):
        with pytest.raises(ParseError, match="not a labeling artifact"):
            self.load(tmp_path, payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", encode_blob(np.array([0, 1, 3, 0, 1, 2]))),
            ("labels", encode_blob(np.array([0, -1, 2, 0, 1, 2]))),
            ("labels", encode_blob(np.array([[0, 1], [2, 0]]))),
            ("labels", {**encode_blob(np.zeros(3, dtype=np.int64)), "dtype": "<U1"}),
            ("labels", encode_blob(np.array([0.0, 1.5, 2.0]))),
            ("labels", 7),
            ("k", "3"),
            ("k", 0),
            ("k", True),
            ("seed", 1.5),
            ("method", 4),
            ("ssd_curve", [[1, 2.0], [3]]),
            ("ssd_curve", 5),
        ],
    )
    def test_malformed_field(self, tmp_path, field, value):
        payload = self.saved(tmp_path)
        payload[field] = value
        with pytest.raises(ParseError):
            self.load(tmp_path, payload)

    def test_well_formed_payload_still_loads(self, tmp_path):
        payload = self.saved(tmp_path)
        back = self.load(tmp_path, payload)
        blob = payload["labels"]
        assert back.labels.tolist() == np.frombuffer(base64.b64decode(blob["data"]), "<i8").tolist()
        assert back.k == 3 and back.method == "kmeans" and back.seed == 1
