"""Graph construction, ingestion, splitting, and negative sampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from classlink.errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    ParseError,
)
from classlink import graph as graph_module
from classlink.graph import (
    build_graph,
    load_graph,
    load_graph_json,
    load_split_json,
    sample_negative_pools,
    sample_negatives,
    save_graph_json,
    save_split_json,
    split_edges,
)
from classlink.heuristics import make_heuristic_scorer
from classlink.rand import STREAM_TEST_NEG, STREAM_VALID_NEG, make_rng

from conftest import random_edges


def brute_adjacency(edges: np.ndarray, n: int) -> list[set[int]]:
    """Oracle adjacency built with plain Python sets."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in np.asarray(edges).tolist():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def oracle_sample_negatives(g, count, seed, stats=None):
    """Reference sampler: one seed, Python sets, one candidate at a time.

    Draws batches of ``max(1024, 2 * missing)`` candidates (all ``u``, then all
    ``v``) and keeps each new non-edge in order until ``count`` are found.
    ``stats["batches"]`` receives the number of batches drawn.
    """
    n = g.n_nodes
    taken = {u * n + v for u, v in g.undirected_edges().tolist()}
    capacity = n * (n - 1) // 2 - len(taken)
    if count > capacity:
        raise CapacityError(f"requested {count} negatives, {capacity} exist")
    rng = make_rng(seed) if isinstance(seed, int) else make_rng(*seed)
    chosen: list[int] = []
    batches = 0
    while len(chosen) < count:
        batch = max(1024, 2 * (count - len(chosen)))
        us = rng.integers(0, n, size=batch).tolist()
        vs = rng.integers(0, n, size=batch).tolist()
        batches += 1
        for u, v in zip(us, vs):
            key = min(u, v) * n + max(u, v)
            if u != v and key not in taken:
                taken.add(key)
                chosen.append(key)
                if len(chosen) == count:
                    break
    if stats is not None:
        stats["batches"] = batches
    return np.array([[k // n, k % n] for k in chosen], dtype=np.int64).reshape(-1, 2)


class TestConstruction:
    def test_csr_matches_set_oracle_on_random_graphs(self):
        rng = np.random.default_rng(701)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            edges = random_edges(rng, n, float(rng.uniform(0.05, 0.5)))
            g = build_graph(n, edges)
            oracle = brute_adjacency(edges, n)
            assert g.n_edges == sum(len(s) for s in oracle) // 2
            for u in range(n):
                row = g.neighbors(u)
                assert sorted(oracle[u]) == row.tolist()
                # strictly increasing, no self-loops
                assert np.all(np.diff(row) > 0)
                assert u not in row

    def test_canonicalization_is_input_order_independent(self):
        rng = np.random.default_rng(702)
        edges = random_edges(rng, 20, 0.3)
        # shuffle, duplicate, flip orientation, add self-loops
        noisy = np.concatenate([edges, edges[::-1, ::-1], [[3, 3], [7, 7]]])
        noisy = noisy[rng.permutation(len(noisy))]
        g1 = build_graph(20, edges)
        g2 = build_graph(20, noisy)
        np.testing.assert_array_equal(g1.adj.indptr, g2.adj.indptr)
        np.testing.assert_array_equal(g1.adj.indices, g2.adj.indices)

    def test_has_edge_and_degree(self, triangle):
        assert triangle.has_edge(0, 1) and triangle.has_edge(1, 0)
        assert not triangle.has_edge(1, 3)
        assert triangle.degree(0) == 3
        assert triangle.degree(3) == 1
        assert triangle.n_edges == 4

    def test_undirected_edges_roundtrip(self, triangle):
        und = triangle.undirected_edges()
        np.testing.assert_array_equal(
            und, np.array([[0, 1], [0, 2], [0, 3], [1, 2]])
        )

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DimensionError):
            build_graph(3, np.array([[0, 5]]))

    def test_node_id_out_of_range(self, triangle):
        with pytest.raises(ConfigurationError):
            triangle.degree(4)
        with pytest.raises(ConfigurationError):
            triangle.neighbors(-1)


class TestCommonNeighbors:
    """The CN kernel against per-pair set intersections."""

    def test_triangle(self, triangle):
        cn = make_heuristic_scorer("cn", triangle)
        pairs = np.array([[0, 1], [1, 2], [1, 3], [0, 3]])
        np.testing.assert_array_equal(cn(pairs), [1, 1, 1, 0])

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(703)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            edges = random_edges(rng, n, 0.3)
            g = build_graph(n, edges)
            adj = brute_adjacency(edges, n)
            pairs = rng.integers(0, n, size=(20, 2))
            expect = [len(adj[x] & adj[y]) for x, y in pairs.tolist()]
            assert make_heuristic_scorer("cn", g)(pairs).tolist() == expect


class TestIngestion:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_edge_file_with_comments_and_blanks(self, tmp_path):
        edges = self.write(
            tmp_path,
            "edges.txt",
            "# full-line comment\n"
            "a b\n"
            "\n"
            "b c  # trailing comment\n"
            "a c\n",
        )
        g = load_graph(edges)
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.node_ids == ("a", "b", "c")

    def test_malformed_edge_line_reports_lineno(self, tmp_path):
        edges = self.write(tmp_path, "edges.txt", "a b\nonly_one_token\n")
        with pytest.raises(ParseError, match=":2"):
            load_graph(edges)

    def test_feature_and_label_files(self, tmp_path):
        edges = self.write(tmp_path, "edges.txt", "a b\nb c\n")
        feats = self.write(
            tmp_path, "features.csv", "a,1.0,2.0\nb,0.5,-1.5\nc,0.0,3.25\n"
        )
        labels = self.write(tmp_path, "labels.csv", "a,red\nb,blue\nc,red\n")
        g = load_graph(edges, feats, labels)
        np.testing.assert_array_equal(
            g.features.toarray(), [[1.0, 2.0], [0.5, -1.5], [0.0, 3.25]]
        )
        np.testing.assert_array_equal(g.labels, [0, 1, 0])
        assert g.class_ids == ("red", "blue")
        assert g.n_classes == 2

    def test_interning_order_features_first(self, tmp_path):
        # feature file defines ids 0..2; edge-only node comes last
        edges = self.write(tmp_path, "edges.txt", "z a\na b\n")
        feats = self.write(tmp_path, "features.csv", "a,1\nb,2\nc,3\n")
        g = load_graph(edges, feats)
        assert g.node_ids == ("a", "b", "c", "z")
        # node 'z' has no feature row -> zeros
        np.testing.assert_array_equal(g.features.toarray()[:, 0], [1, 2, 3, 0])

    def test_removing_edges_keeps_node_ids_stable(self, tmp_path):
        """Dropping edge lines must not renumber feature/label nodes."""
        feats = self.write(tmp_path, "features.csv", "a,1\nb,2\nc,3\nd,4\n")
        labels = self.write(tmp_path, "labels.csv", "a,x\nb,y\nc,x\nd,y\n")
        full = self.write(tmp_path, "full.txt", "a b\nc d\nb c\n")
        pruned = self.write(tmp_path, "pruned.txt", "a b\n")
        g_full = load_graph(full, feats, labels)
        g_pruned = load_graph(pruned, feats, labels)
        assert g_full.node_ids == g_pruned.node_ids
        np.testing.assert_array_equal(g_full.labels, g_pruned.labels)
        np.testing.assert_array_equal(
            g_full.features.toarray(), g_pruned.features.toarray()
        )

    def test_ragged_feature_rows_rejected(self, tmp_path):
        edges = self.write(tmp_path, "edges.txt", "a b\n")
        feats = self.write(tmp_path, "features.csv", "a,1,2\nb,3\n")
        with pytest.raises(DimensionError, match=":2"):
            load_graph(edges, feats)

    def test_non_numeric_feature_rejected(self, tmp_path):
        edges = self.write(tmp_path, "edges.txt", "a b\n")
        feats = self.write(tmp_path, "features.csv", "a,1,oops\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_graph(edges, feats)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_feature_rejected_with_its_line(self, tmp_path, cell):
        edges = self.write(tmp_path, "edges.txt", "a b\nb c\n")
        feats = self.write(tmp_path, "features.csv", f"a,1,0\n\nb,0,2\nc,{cell},3\n")
        with pytest.raises(ParseError, match=r"features\.csv:4: non-finite"):
            load_graph(edges, feats)

    def test_unlabeled_nodes_get_minus_one(self, tmp_path):
        edges = self.write(tmp_path, "edges.txt", "a b\nb c\n")
        labels = self.write(tmp_path, "labels.csv", "a,red\n")
        g = load_graph(edges, label_path=labels)
        np.testing.assert_array_equal(g.labels, [0, -1, -1])

    def test_labels_remapped_contiguously(self, tmp_path):
        """Arbitrary label strings map to dense 0..C-1 in first-seen order."""
        edges = self.write(tmp_path, "edges.txt", "a b\nb c\n")
        labels = self.write(tmp_path, "labels.csv", "a,17\nb,900\nc,17\n")
        g = load_graph(edges, label_path=labels)
        np.testing.assert_array_equal(g.labels, [0, 1, 0])
        assert g.class_ids == ("17", "900")


class TestFeatureStorage:
    def test_dense_and_sparse_features_give_the_same_arrays(self):
        rng = np.random.default_rng(705)
        n, width = 30, 12
        dense = np.where(rng.random((n, width)) < 0.2, rng.standard_normal((n, width)), 0.0)
        dense[0, 0], dense[1, 1] = -0.0, np.nan
        rows, cols = np.nonzero((dense != 0) | np.signbit(dense))
        vals = dense[rows, cols]
        # shuffled COO entries plus explicit zeros, one of them repeated
        zeros = np.nonzero((dense == 0) & ~np.signbit(dense))
        extra_r, extra_c = zeros[0][[0, 0, 1]], zeros[1][[0, 0, 1]]
        order = rng.permutation(rows.size + 3)
        messy_rows = np.concatenate([rows, extra_r])[order]
        messy_cols = np.concatenate([cols, extra_c])[order]
        messy = sp.coo_matrix(
            (np.concatenate([vals, np.zeros(3)])[order], (messy_rows, messy_cols)),
            shape=dense.shape,
        )
        edges = random_edges(rng, n, 0.2)
        graphs = [
            build_graph(n, edges, features=x)
            for x in (dense, sp.csr_matrix((vals, (rows, cols)), shape=dense.shape), messy)
        ]
        first = graphs[0]
        x = first.features
        assert x.nnz == rows.size
        assert x.indices[0] == 0 and np.signbit(x.data[0])  # -0.0 is stored
        for g in graphs[1:]:
            for name in ("adj", "features"):
                a, b = getattr(first, name), getattr(g, name)
                assert a.shape == b.shape
                for part in ("indptr", "indices", "data"):
                    assert getattr(a, part).tobytes() == getattr(b, part).tobytes()

    def test_feature_file_is_read_without_a_dense_copy(self, tmp_path):
        """``load_graph`` on a 1000 x 3000 feature CSV at 1% density peaks
        below a quarter of one dense float64 copy of the features."""
        rng = np.random.default_rng(706)
        n, width = 1000, 3000
        stored = rng.random((n, width)) < 0.01
        with open(tmp_path / "features.csv", "w") as fh:
            for i in range(n):
                fh.write(f"{i}," + ",".join(np.where(stored[i], "1", "0")) + "\n")
        edges = random_edges(rng, n, 0.005)
        (tmp_path / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
        tracemalloc.start()
        try:
            g = load_graph(tmp_path / "edges.txt", tmp_path / "features.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * width * 8 / 4, f"peak {peak / 2**20:.1f} MiB"
        assert g.features.shape == (n, width)
        assert g.features.nnz == stored.sum()


class TestJsonRoundTrip:
    def test_graph_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(704)
        edges = random_edges(rng, 15, 0.3)
        feats = rng.standard_normal((15, 4))
        labels = rng.integers(0, 3, size=15)
        g = build_graph(15, edges, features=feats, labels=labels)
        path = tmp_path / "graph.json"
        save_graph_json(g, path)
        g2 = load_graph_json(path)
        np.testing.assert_array_equal(g.adj.indptr, g2.adj.indptr)
        np.testing.assert_array_equal(g.adj.indices, g2.adj.indices)
        np.testing.assert_array_equal(g.features.toarray(), g2.features.toarray())
        np.testing.assert_array_equal(g.labels, g2.labels)
        assert g.node_ids == g2.node_ids
        # serialize -> load -> serialize is byte-stable
        save_graph_json(g2, tmp_path / "graph2.json")
        assert (tmp_path / "graph.json").read_bytes() == (
            tmp_path / "graph2.json"
        ).read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "split"}')
        with pytest.raises(ParseError, match="kind"):
            load_graph_json(path)


class TestSplitEdges:
    def make_graph(self, n_edges: int) -> tuple:
        """A connected graph with exactly ``n_edges`` edges."""
        # chain over k nodes gives k-1 edges; add extra edges deterministically
        n = n_edges + 1
        chain = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        return build_graph(n, chain)

    def test_bucket_sizes_ratio_100(self):
        g = self.make_graph(100)
        s = split_edges(g, (0.85, 0.05, 0.10), seed=3)
        assert (len(s.train_edges), len(s.valid_edges), len(s.test_edges)) == (
            85,
            5,
            10,
        )

    def test_bucket_sizes_benchmark_scale(self):
        """5278 edges at 85/5/10 -> (4486, 264, 528) by cumulative floors."""
        g = self.make_graph(5278)
        s = split_edges(g, (0.85, 0.05, 0.10), seed=3, negatives=50)
        assert (len(s.train_edges), len(s.valid_edges), len(s.test_edges)) == (
            4486,
            264,
            528,
        )

    def test_buckets_partition_edge_set(self):
        rng = np.random.default_rng(705)
        edges = random_edges(rng, 30, 0.3)
        g = build_graph(30, edges)
        s = split_edges(g, (0.6, 0.2, 0.2), seed=11, negatives=20)
        parts = np.concatenate([s.train_edges, s.valid_edges, s.test_edges])
        np.testing.assert_array_equal(
            np.unique(parts, axis=0), g.undirected_edges()
        )
        assert len(parts) == g.n_edges

    def test_deterministic_and_seed_sensitive(self):
        g = self.make_graph(50)
        a = split_edges(g, (0.8, 0.1, 0.1), seed=5, negatives=10)
        b = split_edges(g, (0.8, 0.1, 0.1), seed=5, negatives=10)
        c = split_edges(g, (0.8, 0.1, 0.1), seed=6, negatives=10)
        np.testing.assert_array_equal(a.train_edges, b.train_edges)
        np.testing.assert_array_equal(a.test_negatives, b.test_negatives)
        assert not np.array_equal(a.train_edges, c.train_edges)

    def test_negative_pools_avoid_edges(self):
        rng = np.random.default_rng(706)
        edges = random_edges(rng, 25, 0.3)
        g = build_graph(25, edges)
        s = split_edges(g, (0.8, 0.1, 0.1), seed=9, negatives=40)
        adj = brute_adjacency(edges, 25)
        for pool in (s.valid_negatives, s.test_negatives):
            assert len(pool) == 40
            assert len(np.unique(pool, axis=0)) == 40
            for u, v in pool.tolist():
                assert u < v
                assert v not in adj[u]

    def test_bad_ratios_rejected(self):
        g = self.make_graph(20)
        with pytest.raises(ConfigurationError):
            split_edges(g, (0.8, 0.1, 0.2), seed=1)
        with pytest.raises(ConfigurationError):
            split_edges(g, (1.0, 0.0, 0.0), seed=1)
        with pytest.raises(ConfigurationError):
            split_edges(g, (np.nan, 0.5, 0.5), seed=1)

    def test_too_few_edges_rejected(self):
        g = self.make_graph(9)
        with pytest.raises(ConfigurationError, match="at least 10"):
            split_edges(g, (0.8, 0.1, 0.1), seed=1)

    def test_train_graph_contains_only_train_edges(self):
        g = self.make_graph(40)
        s = split_edges(g, (0.5, 0.25, 0.25), seed=2, negatives=10)
        tg = s.train_graph(g)
        np.testing.assert_array_equal(tg.undirected_edges(), s.train_edges)
        held_out = np.concatenate([s.valid_edges, s.test_edges])
        for u, v in held_out.tolist():
            assert not tg.has_edge(u, v)

    def test_split_roundtrip(self, tmp_path):
        g = self.make_graph(30)
        s = split_edges(g, (0.6, 0.2, 0.2), seed=4, negatives=15)
        save_split_json(s, tmp_path / "split.json")
        s2 = load_split_json(tmp_path / "split.json")
        np.testing.assert_array_equal(s.train_edges, s2.train_edges)
        np.testing.assert_array_equal(s.valid_negatives, s2.valid_negatives)
        assert s.seed == s2.seed


class TestSampleNegatives:
    def test_k4_has_no_negatives(self):
        g = build_graph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))
        with pytest.raises(CapacityError):
            sample_negatives(g, 1, seed=0)

    def test_path_has_single_negative(self, path3):
        neg = sample_negatives(path3, 1, seed=0)
        np.testing.assert_array_equal(neg, [[0, 2]])

    def test_uniform_no_duplicates_no_edges(self):
        rng = np.random.default_rng(707)
        edges = random_edges(rng, 20, 0.25)
        g = build_graph(20, edges)
        adj = brute_adjacency(edges, 20)
        capacity = 20 * 19 // 2 - g.n_edges
        neg = sample_negatives(g, capacity, seed=42)
        assert len(np.unique(neg, axis=0)) == capacity
        for u, v in neg.tolist():
            assert u < v and v not in adj[u]

    def test_deterministic(self):
        rng = np.random.default_rng(708)
        g = build_graph(30, random_edges(rng, 30, 0.2))
        a = sample_negatives(g, 25, seed=12)
        b = sample_negatives(g, 25, seed=12)
        np.testing.assert_array_equal(a, b)

    def test_one_pool_allocates_nothing_edge_sized(self):
        """One pool of 10 on a graph of about 200k edges peaks under 1 MB,
        below a single int64 per edge (1.6 MB)."""
        rng = np.random.default_rng(715)
        g = build_graph(50_000, rng.integers(0, 50_000, size=(200_000, 2)))
        assert g.n_edges > 199_000
        tracemalloc.start()
        try:
            pool = sample_negatives(g, 10, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"
        np.testing.assert_array_equal(pool, oracle_sample_negatives(g, 10, 3))


class TestSampleNegativePools:
    def test_pools_equal_per_seed_oracle(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_SEED_CHUNK", 5)  # several seed chunks
        rng = np.random.default_rng(709)
        for trial in range(16):
            n = int(rng.integers(5, 60))
            g = build_graph(n, random_edges(rng, n, float(rng.uniform(0.05, 0.6))))
            seeds = [(trial, 7, i) for i in range(20)] + [trial, 10_000 + trial]
            capacity = n * (n - 1) // 2 - g.n_edges
            count = int(rng.integers(1, max(2, min(capacity, 60))))
            pools = sample_negative_pools(g, count, seeds)
            assert pools.shape == (len(seeds), count, 2)
            for seed, pool in zip(seeds, pools):
                expect = oracle_sample_negatives(g, count, seed)
                np.testing.assert_array_equal(pool, expect)

    def test_every_count_up_to_capacity_on_a_tiny_graph(self):
        rng = np.random.default_rng(710)
        g = build_graph(30, random_edges(rng, 30, 0.1))
        capacity = 30 * 29 // 2 - g.n_edges
        most_batches = 0
        for count in range(1, capacity + 1):
            seeds = [(count, 1), (count, 2)]
            pools = sample_negative_pools(g, count, seeds)
            for seed, pool in zip(seeds, pools):
                stats: dict = {}
                expect = oracle_sample_negatives(g, count, seed, stats)
                np.testing.assert_array_equal(pool, expect)
                most_batches = max(most_batches, stats["batches"])
        assert most_batches > 1  # the largest pools need several batches
        with pytest.raises(CapacityError):
            sample_negative_pools(g, capacity + 1, [0, 1])

    def test_large_pools_draw_twice_the_missing_count(self):
        rng = np.random.default_rng(714)
        g = build_graph(70, random_edges(rng, 70, 0.05))
        capacity = 70 * 69 // 2 - g.n_edges
        for count in (513, 1500, capacity):  # batches of 2 * missing > 1024
            pools = sample_negative_pools(g, count, [(count, 1), (count, 2)])
            for seed, pool in zip([(count, 1), (count, 2)], pools):
                np.testing.assert_array_equal(
                    pool, oracle_sample_negatives(g, count, seed)
                )

    def test_sample_negatives_is_one_pool(self):
        rng = np.random.default_rng(711)
        g = build_graph(25, random_edges(rng, 25, 0.2))
        for seed in (3, (3, 7, 0), (4, 7, 12)):
            one = sample_negatives(g, 40, seed)
            np.testing.assert_array_equal(one, sample_negative_pools(g, 40, [seed])[0])
            np.testing.assert_array_equal(one, oracle_sample_negatives(g, 40, seed))

    def test_seed_rows_of_an_int_array(self):
        rng = np.random.default_rng(712)
        g = build_graph(25, random_edges(rng, 25, 0.2))
        seeds = np.column_stack([np.full(6, 9), np.full(6, 7), np.arange(6)])
        pools = sample_negative_pools(g, 12, seeds)
        for i, pool in enumerate(pools):
            np.testing.assert_array_equal(pool, oracle_sample_negatives(g, 12, (9, 7, i)))

    def test_empty_shapes(self, path3):
        assert sample_negative_pools(path3, 0, [1, 2, 3]).shape == (3, 0, 2)
        assert sample_negative_pools(path3, 1, []).shape == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            sample_negative_pools(path3, -1, [1])

    def test_split_pools_equal_oracle(self):
        rng = np.random.default_rng(713)
        g = build_graph(40, random_edges(rng, 40, 0.15))
        s = split_edges(g, (0.6, 0.2, 0.2), seed=6, negatives=50)
        np.testing.assert_array_equal(
            s.valid_negatives, oracle_sample_negatives(g, 50, (6, STREAM_VALID_NEG))
        )
        np.testing.assert_array_equal(
            s.test_negatives, oracle_sample_negatives(g, 50, (6, STREAM_TEST_NEG))
        )
