"""Graph construction, ingestion, splitting, and negative sampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from classlink.csr import Csr
from classlink.errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    ParseError,
)
from classlink import graph as graph_module
from classlink.graph import (
    EdgeSplit,
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
from classlink.rand import STREAM_TEST_NEG, STREAM_TRAIN_NEG, STREAM_VALID_NEG, make_rng

from conftest import random_edges, scipy_csr


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


def oracle_sample_pools(g, count, n_pools, seed, chunk=128):
    """Reference sampler of many pools: one generator, Python sets, one
    candidate at a time.

    Pools are drawn ``chunk`` at a time.  Each round draws one ``(2, pending,
    width)`` block (all ``u``, then all ``v``) for the pools still short,
    ``width = max(ceil(1024 / pending), 2 * most missing)``, and each of them
    keeps the new non-edges of its own row in order until ``count`` are found.
    """
    n = g.n_nodes
    edges = {u * n + v for u, v in g.undirected_edges().tolist()}
    capacity = n * (n - 1) // 2 - len(edges)
    if count > capacity:
        raise CapacityError(f"requested {count} negatives, {capacity} exist")
    rng = make_rng(seed) if isinstance(seed, int) else make_rng(*seed)
    pools: list[list[int]] = []
    for start in range(0, n_pools, chunk):
        chosen: list[list[int]] = [[] for _ in range(min(chunk, n_pools - start))]
        while pending := [i for i, keys in enumerate(chosen) if len(keys) < count]:
            most = max(count - len(chosen[i]) for i in pending)
            width = max(-(-1024 // len(pending)), 2 * most)
            us, vs = rng.integers(0, n, size=(2, len(pending), width)).tolist()
            for i, row_u, row_v in zip(pending, us, vs):
                keys = chosen[i]
                for u, v in zip(row_u, row_v):
                    key = min(u, v) * n + max(u, v)
                    if u != v and key not in edges and key not in keys:
                        keys.append(key)
                        if len(keys) == count:
                            break
        pools.extend(chosen)
    return np.array(
        [[[k // n, k % n] for k in keys] for keys in pools], dtype=np.int64
    ).reshape(n_pools, count, 2)


def oracle_csr_from_edges(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """The earlier canonicaliser: ``np.unique(axis=0)`` over ``(lo, hi)`` rows,
    then a ``lexsort`` of both directions into a CSR."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    und = np.unique(np.column_stack([lo, hi]), axis=0).reshape(-1, 2)
    src = np.concatenate([und[:, 0], und[:, 1]])
    dst = np.concatenate([und[:, 1], und[:, 0]])
    order = np.lexsort((dst, src))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return sp.csr_matrix((np.ones(dst.size), dst[order], offsets), shape=(n, n))


def assert_same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype, part
        assert x.tobytes() == y.tobytes(), part


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
        np.testing.assert_array_equal(g1.adj_indptr, g2.adj_indptr)
        np.testing.assert_array_equal(g1.adj_indices, g2.adj_indices)

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

    @pytest.mark.parametrize(
        "labels, class_ids, node",
        [([0, -2, 1], None, 1), ([0, 1, 0], ("a",), 1), ([0, -1, 2], ("a", "b"), 2)],
    )
    def test_label_outside_the_class_ids_rejected(self, labels, class_ids, node):
        """-1 marks an unlabeled node; any other label indexes ``class_ids``."""
        with pytest.raises(DimensionError, match=f"node {node} has label {labels[node]}, "):
            build_graph(3, np.array([[0, 1], [1, 2]]), labels=labels, class_ids=class_ids)

    def test_node_id_out_of_range(self, triangle):
        with pytest.raises(ConfigurationError):
            triangle.degree(4)
        with pytest.raises(ConfigurationError):
            triangle.neighbors(-1)


class TestPairKeys:
    def test_adjacency_is_bit_identical_to_the_unique_oracle(self):
        rng = np.random.default_rng(716)
        for trial in range(60):
            n = int(rng.integers(1, 80))
            edges = random_edges(rng, n, float(rng.uniform(0.0, 0.4)))
            # isolated nodes past the largest endpoint, both orientations,
            # duplicates, self-loops and shuffled input
            n_total = n + int(rng.integers(0, 5))
            loops = np.repeat(rng.integers(0, n_total, size=(int(rng.integers(0, 4)), 1)), 2, 1)
            noisy = np.concatenate(
                [edges, edges[:, ::-1], edges[rng.integers(0, max(len(edges), 1), size=len(edges) // 3)], loops]
            ).reshape(-1, 2)
            noisy = noisy[rng.permutation(len(noisy))]
            g = build_graph(n_total, noisy)
            assert_same_csr(scipy_csr(g), oracle_csr_from_edges(noisy, n_total))
            assert g.adj_indices.dtype == np.int32 and g.adj_indptr.dtype == np.int32
            split = EdgeSplit(
                n_total, edges, *(np.empty((0, 2), dtype=np.int64),) * 4, seed=trial
            )
            train = split.train_graph(g)
            assert_same_csr(scipy_csr(train), oracle_csr_from_edges(edges, n_total))
        for edges in (np.empty((0, 2), dtype=np.int64), np.array([[2, 2], [0, 0]])):
            assert_same_csr(scipy_csr(build_graph(4, edges)), oracle_csr_from_edges(edges, 4))

    @pytest.mark.parametrize(
        "edges, node",
        [
            ([[0, 1], [-2, 3]], -2),
            ([[0, 1], [3, 9], [-1, 2]], 9),
            ([[4, 4], [7, 7], [1, 5], [6, 0]], 5),
            ([[-3, -3], [0, 1], [2, -1]], -1),
        ],
    )
    def test_out_of_range_names_the_first_offending_id(self, edges, node):
        with pytest.raises(DimensionError, match=f"endpoint {node} out of range for 5 nodes"):
            build_graph(5, np.array(edges))

    def test_self_loops_are_dropped_before_the_range_check(self):
        g = build_graph(3, np.array([[-2, -2], [0, 1], [9, 9]]))
        assert g.undirected_edges().tolist() == [[0, 1]]

    def test_pair_keys_bound_the_node_count(self):
        bound = graph_module._MAX_NODES
        assert bound * bound - 1 <= np.iinfo(np.int64).max < (bound + 1) ** 2 - 1
        with pytest.raises(ConfigurationError, match="pair keys"):
            graph_module._adjacency_arrays(np.empty((0, 2), dtype=np.int64), bound + 1)


class TestFeaturePassThrough:
    @staticmethod
    def assert_same_features(got, want) -> None:
        assert got.n_features == want.n_features
        for part in ("data", "indices", "indptr"):
            x, y = getattr(got, f"feature_{part}"), getattr(want, f"feature_{part}")
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part

    def test_canonical_csr_equals_the_dense_path(self):
        rng = np.random.default_rng(717)
        no_edges = np.empty((0, 2))
        for _ in range(30):
            n, width = int(rng.integers(1, 25)), int(rng.integers(0, 9))
            dense = np.where(
                rng.random((n, width)) < 0.3, rng.standard_normal((n, width)), 0.0
            )
            x = sp.csr_matrix(dense)
            # explicit +0.0 and -0.0 entries, and some empty rows
            if x.nnz:
                x.data[rng.random(x.nnz) < 0.2] = 0.0
                x.data[rng.random(x.nnz) < 0.2] = -0.0
            x.data[x.indptr[0] : x.indptr[min(2, n)]] = 0.0
            assert x.has_canonical_format
            dense[:] = 0.0
            dense[np.repeat(np.arange(n), np.diff(x.indptr)), x.indices] = x.data
            got = build_graph(n, no_edges, features=x)
            self.assert_same_features(got, build_graph(n, no_edges, features=dense))
            assert not (got.feature_data.view(np.int64) == 0).any()
            assert np.signbit(got.feature_data).sum() == np.signbit(x.data).sum()

    def test_arrays_are_kept_as_given(self):
        for as_arrays in (False, True):
            x = sp.csr_matrix(np.array([[0.0, 1.5], [0.0, 0.0], [-0.0, 2.0]]))
            x.data[0] = -0.0  # 1.5 becomes -0.0: every entry still stored
            given = Csr(x.indptr, x.indices, x.data, x.shape) if as_arrays else x
            g = build_graph(3, np.empty((0, 2)), features=given)
            assert g.feature_data is x.data and g.feature_indices is x.indices
            assert g.feature_data.size == 2 and np.signbit(g.feature_data[0])
            assert not x.data.flags.writeable  # frozen in place, not copied

    def test_a_csr_that_breaks_the_rule_is_rejected(self):
        """A CSR is checked, never repaired: unsorted or repeated columns and
        a row count that is not the graph's are errors."""
        x = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        for cols in ([1, 0, 1], [0, 0, 1]):
            bad = Csr(x.indptr, np.array(cols), x.data, x.shape)
            with pytest.raises(DimensionError, match="columns do not strictly increase"):
                build_graph(2, np.empty((0, 2)), features=bad)
        with pytest.raises(DimensionError, match=r"shape \(2, 2\) does not match 3 nodes"):
            build_graph(3, np.empty((0, 2)), features=x)

    def test_feature_file_gives_the_dense_path_arrays(self, tmp_path):
        (tmp_path / "features.csv").write_text("a,0,1.5,-0.0\nb,0,0,0\nc,2,0,0.0\n")
        (tmp_path / "edges.txt").write_text("a b\nc d\n")
        g = load_graph(tmp_path / "edges.txt", tmp_path / "features.csv")
        dense = np.array([[0, 1.5, -0.0], [0, 0, 0], [2, 0, 0], [0, 0, 0]])
        self.assert_same_features(g, build_graph(4, np.empty((0, 2)), features=dense))


class TestArrayViews:
    """The graph's own arrays, and the scipy views the tests make of them."""

    @staticmethod
    def graphs(tmp_path):
        """``{how: (graph, its edges, its dense features)}`` for a graph from
        ``build_graph``, the same graph read back, and its train graph."""
        rng = np.random.default_rng(718)
        edges = random_edges(rng, 40, 0.2)
        feats = np.where(rng.random((43, 6)) < 0.3, rng.standard_normal((43, 6)), 0.0)
        g = build_graph(43, edges, features=feats, labels=rng.integers(0, 3, size=43))
        save_graph_json(g, tmp_path / "graph.json")
        empty = np.empty((0, 2), dtype=np.int64)
        split = EdgeSplit(43, edges[::2], empty, empty, empty, empty, seed=1)
        return {
            "build_graph": (g, edges, feats),
            "load_graph_json": (load_graph_json(tmp_path / "graph.json"), edges, feats),
            "train_graph": (split.train_graph(g), edges[::2], feats),
        }

    def test_arrays_are_read_only(self, tmp_path):
        for how, (g, _, _) in self.graphs(tmp_path).items():
            for prefix in ("adj_", "feature_"):
                for part in ("data", "indices", "indptr"):
                    assert not getattr(g, prefix + part).flags.writeable, (how, part)

    def test_views_equal_the_oracles(self, tmp_path):
        for how, (g, edges, feats) in self.graphs(tmp_path).items():
            assert_same_csr(scipy_csr(g), oracle_csr_from_edges(edges, g.n_nodes))
            assert_same_csr(scipy_csr(g, "feature"), sp.csr_matrix(feats))
            assert g.n_features == feats.shape[1], how

    def test_json_columns_may_fall_across_a_row_boundary(self, tmp_path):
        """A row's first column may be at or below the last column of the
        stored row before it, with empty rows between them."""
        feats = np.zeros((6, 6))
        feats[0, [3, 5]] = 1.0
        feats[3, [0, 5]] = 2.0  # rows 1 and 2 are empty; 5 -> 0 across the boundary
        feats[4, 5] = 3.0  # 5 -> 5 across the boundary
        feats[5, 1] = 4.0
        save_graph_json(build_graph(6, np.array([[0, 1]]), features=feats), tmp_path / "g.json")
        back = load_graph_json(tmp_path / "g.json")
        assert_same_csr(scipy_csr(back, "feature"), sp.csr_matrix(feats))


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
            scipy_csr(g, "feature").toarray(), [[1.0, 2.0], [0.5, -1.5], [0.0, 3.25]]
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
        np.testing.assert_array_equal(scipy_csr(g, "feature").toarray()[:, 0], [1, 2, 3, 0])

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
            scipy_csr(g_full, "feature").toarray(), scipy_csr(g_pruned, "feature").toarray()
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
        # shuffled COO entries plus explicit zeros, one of them repeated,
        # made a canonical CSR that stores the zeros
        zeros = np.nonzero((dense == 0) & ~np.signbit(dense))
        extra_r, extra_c = zeros[0][[0, 0, 1]], zeros[1][[0, 0, 1]]
        order = rng.permutation(rows.size + 3)
        messy_rows = np.concatenate([rows, extra_r])[order]
        messy_cols = np.concatenate([cols, extra_c])[order]
        messy = sp.coo_matrix(
            (np.concatenate([vals, np.zeros(3)])[order], (messy_rows, messy_cols)),
            shape=dense.shape,
        ).tocsr()
        assert messy.has_canonical_format and messy.nnz == rows.size + 2
        edges = random_edges(rng, n, 0.2)
        graphs = [
            build_graph(n, edges, features=x)
            for x in (dense, sp.csr_matrix((vals, (rows, cols)), shape=dense.shape), messy)
        ]
        first = graphs[0]
        assert first.feature_data.size == rows.size
        assert first.feature_indices[0] == 0 and np.signbit(first.feature_data[0])  # -0.0 is stored
        for g in graphs[1:]:
            assert g.n_features == first.n_features
            for name in ("adj", "feature"):
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(first, f"{name}_{part}"), getattr(g, f"{name}_{part}")
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
        assert g.n_features == width
        assert g.feature_data.size == stored.sum()


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
        np.testing.assert_array_equal(g.adj_indptr, g2.adj_indptr)
        np.testing.assert_array_equal(g.adj_indices, g2.adj_indices)
        np.testing.assert_array_equal(
            scipy_csr(g, "feature").toarray(), scipy_csr(g2, "feature").toarray()
        )
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


def scipy_edge_lookup(g):
    """The oracle of ``graph._EdgeLookup``: scipy's ``adj[lo, hi]``, read
    for the keys ``lo * n + hi``."""
    n, adj = g.n_nodes, scipy_csr(g)

    def is_edge(keys: np.ndarray) -> np.ndarray:
        lo, hi = np.divmod(keys.ravel(), n)
        return (np.asarray(adj[lo, hi]) != 0).reshape(keys.shape)

    return is_edge


class TestEdgeLookup:
    """The non-edge lookup of the samplers gives scipy's membership, also with
    a table of 8 slots that every edge fills, so that every candidate is
    looked up in the CSR."""

    def graphs(self, rng):
        yield build_graph(1, np.empty((0, 2), dtype=int))
        yield build_graph(6, np.empty((0, 2), dtype=int))
        for _ in range(12):
            n = int(rng.integers(2, 70))
            yield build_graph(n + 3, random_edges(rng, n, float(rng.uniform(0.02, 0.7))))

    @pytest.mark.parametrize("slots", [0, graph_module._SLOTS_PER_EDGE], ids=["tiny", "default"])
    def test_membership_of_every_pair_equals_scipy(self, slots, monkeypatch):
        monkeypatch.setattr(graph_module, "_SLOTS_PER_EDGE", slots)
        monkeypatch.setattr(graph_module, "_FILL_BLOCK", 7)  # many fill blocks
        rng = np.random.default_rng(716)
        full = 0
        for g in self.graphs(rng):
            n = g.n_nodes
            lookup = graph_module._EdgeLookup(g)
            if slots == 0 and g.n_edges >= 64:
                assert lookup.table.tolist() == [255]
                full += 1
            lo, hi = np.triu_indices(n)  # every pair, self-pairs too
            keys = (lo * n + hi).reshape(-1, 1)
            got = lookup(keys)
            assert got.shape == keys.shape
            assert got.tolist() == scipy_edge_lookup(g)(keys).tolist()
            assert int(got.sum()) == g.n_edges
        assert slots or full >= 8  # every candidate hit an edge's slot

    @pytest.mark.parametrize("slots", [0, graph_module._SLOTS_PER_EDGE], ids=["tiny", "default"])
    def test_pools_split_and_training_negatives_keep_their_bytes(self, slots, monkeypatch):
        """Per-edge pools for many seeds, the split's shared pools and the
        training negatives are those of the scipy lookup, byte for byte."""
        rng = np.random.default_rng(717)
        for trial in range(8):
            n = int(rng.integers(12, 90))
            g = build_graph(n, random_edges(rng, n, float(rng.uniform(0.05, 0.5))))
            if g.n_edges < 10:
                continue
            capacity = n * (n - 1) // 2 - g.n_edges
            count = int(rng.integers(1, max(2, min(capacity, 40))))

            def draws():
                split = split_edges(g, (0.7, 0.1, 0.2), seed=trial, negatives=30)
                g_train = split.train_graph(g)
                return [
                    sample_negative_pools(g, count, 40, (trial, 7)),
                    split.valid_negatives,
                    split.test_negatives,
                    *(
                        sample_negatives(
                            g_train, len(split.train_edges), (trial, STREAM_TRAIN_NEG, epoch)
                        )
                        for epoch in range(3)
                    ),
                ]

            monkeypatch.setattr(graph_module, "_SLOTS_PER_EDGE", slots)
            got = draws()
            with monkeypatch.context() as patch:
                patch.setattr(graph_module, "_EdgeLookup", scipy_edge_lookup)
                want = draws()
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestSampleNegativePools:
    def test_pools_equal_per_seed_oracle(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_POOL_CHUNK", 5)  # several pool chunks
        rng = np.random.default_rng(709)
        for trial in range(16):
            n = int(rng.integers(5, 60))
            g = build_graph(n, random_edges(rng, n, float(rng.uniform(0.05, 0.6))))
            capacity = n * (n - 1) // 2 - g.n_edges
            count = int(rng.integers(1, max(2, min(capacity, 60))))
            for seed in [(trial, 7), trial, 10_000 + trial]:
                pools = sample_negative_pools(g, count, 23, seed)
                assert pools.shape == (23, count, 2)
                expect = oracle_sample_pools(g, count, 23, seed, chunk=5)
                np.testing.assert_array_equal(pools, expect)

    def test_every_count_up_to_capacity_on_a_tiny_graph(self):
        rng = np.random.default_rng(710)
        g = build_graph(30, random_edges(rng, 30, 0.1))
        capacity = 30 * 29 // 2 - g.n_edges
        most_batches = 0
        for count in range(1, capacity + 1):
            stats: dict = {}
            expect = oracle_sample_negatives(g, count, (count, 1), stats)
            np.testing.assert_array_equal(sample_negatives(g, count, (count, 1)), expect)
            most_batches = max(most_batches, stats["batches"])
            s = split_edges(g, (0.6, 0.2, 0.2), seed=count, negatives=count)
            for pool, stream in [
                (s.valid_negatives, STREAM_VALID_NEG), (s.test_negatives, STREAM_TEST_NEG)
            ]:
                np.testing.assert_array_equal(
                    pool, oracle_sample_negatives(g, count, (count, stream))
                )
            np.testing.assert_array_equal(
                sample_negative_pools(g, count, 3, (count, 2)),
                oracle_sample_pools(g, count, 3, (count, 2)),
            )
        assert most_batches > 1  # the largest pools need several batches
        with pytest.raises(CapacityError):
            sample_negative_pools(g, capacity + 1, 2, 0)

    def test_large_pools_draw_twice_the_missing_count(self):
        rng = np.random.default_rng(714)
        g = build_graph(70, random_edges(rng, 70, 0.05))
        capacity = 70 * 69 // 2 - g.n_edges
        for count in (513, 1500, capacity):  # batches of 2 * missing > 1024
            np.testing.assert_array_equal(
                sample_negatives(g, count, (count, 1)),
                oracle_sample_negatives(g, count, (count, 1)),
            )
            np.testing.assert_array_equal(
                sample_negative_pools(g, count, 2, (count, 2)),
                oracle_sample_pools(g, count, 2, (count, 2)),
            )
        s = split_edges(g, (0.6, 0.2, 0.2), seed=8, negatives=900)
        for pool, stream in [
            (s.valid_negatives, STREAM_VALID_NEG), (s.test_negatives, STREAM_TEST_NEG)
        ]:
            np.testing.assert_array_equal(pool, oracle_sample_negatives(g, 900, (8, stream)))

    def test_sample_negatives_is_one_pool(self):
        rng = np.random.default_rng(711)
        g = build_graph(25, random_edges(rng, 25, 0.2))
        for seed in (3, (3, 7, 0), (4, 7, 12)):
            one = sample_negatives(g, 40, seed)
            np.testing.assert_array_equal(one, sample_negative_pools(g, 40, 1, seed)[0])
            np.testing.assert_array_equal(one, oracle_sample_negatives(g, 40, seed))

    def test_one_pool_equals_the_oracle_over_many_seeds(self):
        """A one-pool call, and so the training negatives and the split's
        pools, reads the stream as it did when every pool had its own."""
        rng = np.random.default_rng(718)
        for trial in range(4):
            n = int(rng.integers(20, 120))
            g = build_graph(n, random_edges(rng, n, float(rng.uniform(0.05, 0.4))))
            if g.n_edges < 10:
                continue
            capacity = n * (n - 1) // 2 - g.n_edges
            for seed in range(40):
                count = int(rng.integers(1, min(capacity, 80) + 1))
                key = (seed, STREAM_TRAIN_NEG, trial)
                np.testing.assert_array_equal(
                    sample_negatives(g, count, key), oracle_sample_negatives(g, count, key)
                )
                s = split_edges(g, (0.7, 0.1, 0.2), seed=seed, negatives=count)
                for pool, stream in [
                    (s.valid_negatives, STREAM_VALID_NEG), (s.test_negatives, STREAM_TEST_NEG)
                ]:
                    np.testing.assert_array_equal(
                        pool, oracle_sample_negatives(g, count, (seed, stream))
                    )

    def test_every_pool_holds_distinct_canonical_non_edges(self):
        rng = np.random.default_rng(719)
        for _ in range(6):
            n = int(rng.integers(10, 200))
            edges = random_edges(rng, n, float(rng.uniform(0.02, 0.5)))
            g = build_graph(n, edges)
            adj = brute_adjacency(edges, n)
            capacity = n * (n - 1) // 2 - g.n_edges
            count = int(rng.integers(1, min(capacity, 50) + 1))
            pools = sample_negative_pools(g, count, 300, int(rng.integers(0, 2**40)))
            assert pools.shape == (300, count, 2)
            u, v = pools[..., 0], pools[..., 1]
            assert (u < v).all() and (v < n).all()
            keys = np.sort(u * n + v, axis=1)
            assert (keys[:, 1:] != keys[:, :-1]).all()
            assert not any(b in adj[a] for a, b in pools.reshape(-1, 2).tolist())

    # The chi-square statistic of the test below (49 degrees of freedom) ran
    # from 30.8 to 74.3 over seeds 0..39, which the test does not use; a
    # uniform sampler passes 100 with probability 1 - 2e-5.
    CHI2_BOUND = 100.0

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_candidates_are_uniform_over_non_edges(self, seed):
        """The pair a one-pair pool keeps is its first fresh candidate, so
        over many pools every non-edge is as likely as any other."""
        g, n_pools = self._uniform_graph(), 20_000
        counts = self._first_pair_counts(g, n_pools, seed)
        assert counts.size == 50 and counts.min() > 0
        expect = n_pools / counts.size
        assert ((counts - expect) ** 2 / expect).sum() < self.CHI2_BOUND

    @staticmethod
    def _uniform_graph():
        """12 nodes and 16 edges: 50 non-edges."""
        ring = [(i, (i + 1) % 12) for i in range(12)]
        return build_graph(12, ring + [(0, 6), (1, 7), (2, 8), (3, 9)])

    @staticmethod
    def _first_pair_counts(g, n_pools, seed):
        pools = sample_negative_pools(g, 1, n_pools, seed)
        _, counts = np.unique(pools[:, 0, 0] * g.n_nodes + pools[:, 0, 1], return_counts=True)
        return counts

    def test_a_root_seed_beyond_64_bits_gives_other_pools(self):
        g = build_graph(200, random_edges(np.random.default_rng(720), 200, 0.05))
        pools = [sample_negative_pools(g, 20, 10, (seed, 7)) for seed in (5, 2**64 + 5)]
        assert not np.array_equal(*pools)
        assert (pools[0] == pools[1]).all(axis=-1).mean() < 0.05

    def test_the_chunk_sets_the_peak(self):
        """Doubling the pools of a call grows its traced peak by the pools
        it returns and no more: the working arrays are the chunk's."""
        rng = np.random.default_rng(721)
        g = build_graph(20_000, rng.integers(0, 20_000, size=(60_000, 2)))

        def working(n_pools: int) -> int:
            tracemalloc.start()
            try:
                pools = sample_negative_pools(g, 30, n_pools, 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - pools.nbytes

        small, large = working(2048), working(4096)
        assert large - small < 64 * 1024, (small, large)

    def test_empty_shapes(self, path3):
        assert sample_negative_pools(path3, 0, 3, 1).shape == (3, 0, 2)
        assert sample_negative_pools(path3, 1, 0, 1).shape == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            sample_negative_pools(path3, -1, 1, 1)

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

    @pytest.mark.parametrize("n", [2, 3, 3600, 50_000, 2**31 + 1, 3_000_000_000, 2**40 + 3])
    def test_one_draw_of_both_endpoints_reads_the_stream_as_two(self, n):
        """A one-pool round's ``u`` and ``v`` come from one ``integers`` call
        of shape ``(2, 1, size)``: numpy's bounded draw reads the stream in
        order, also when it rejects half its words (``2**31 + 1``), so the
        joined draw equals the two draws it replaces, and the stream goes on
        from the same place."""
        for size in (1, 7, 1025):
            split, joined = make_rng(11, n), make_rng(11, n)
            u = split.integers(0, n, size=size)
            v = split.integers(0, n, size=size)
            both = joined.integers(0, n, size=(2, 1, size))
            np.testing.assert_array_equal(both.ravel(), np.concatenate([u, v]))
            np.testing.assert_array_equal(
                split.integers(0, n, size=5), joined.integers(0, n, size=5)
            )
