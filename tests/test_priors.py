"""Class-prior counting, normalization, lookup, and artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from classlink.errors import ConfigurationError, MissingLabelError
from classlink.graph import build_graph, split_edges
from classlink.priors import (
    count_class_links,
    export_heatmap,
    load_prior_json,
    lookup_prior_batch,
    save_prior_json,
)

from conftest import random_edges


def brute_force_prior(edges, labels, n_classes):
    """Oracle: per-node neighbor tallies, then row normalization."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for u, v in np.asarray(edges).tolist():
        counts[labels[u]][labels[v]] += 1
        counts[labels[v]][labels[u]] += 1
    probs = []
    for row in counts:
        total = sum(row)
        probs.append([c / total if total else 0.0 for c in row])
    return np.array(counts), np.array(probs)


class TestCounting:
    def test_worked_example(self):
        """Triangle-ish graph: labels [0,0,1,0]; edges (0,1),(1,2),(0,3)."""
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        labels = np.array([0, 0, 1, 0])
        cpm = count_class_links(edges, labels, 2)
        # 0-0 edges: (0,1),(0,3) -> 2 each direction = 4; 0-1 edge: (1,2)
        np.testing.assert_array_equal(cpm.joint_counts, [[4, 1], [1, 0]])
        np.testing.assert_array_equal(cpm.row_totals, [5, 1])
        np.testing.assert_allclose(cpm.probs, [[0.8, 0.2], [1.0, 0.0]])

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(801)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            n_classes = int(rng.integers(1, 8))
            edges = random_edges(rng, n, 0.2)
            if len(edges) == 0:
                continue
            labels = rng.integers(0, n_classes, size=n)
            cpm = count_class_links(edges, labels, n_classes)
            counts, probs = brute_force_prior(edges, labels, n_classes)
            np.testing.assert_array_equal(cpm.joint_counts, counts)
            np.testing.assert_allclose(cpm.probs, probs, atol=1e-12)

    def test_counts_symmetric_and_rows_sum_to_one(self):
        rng = np.random.default_rng(802)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            edges = random_edges(rng, n, 0.3)
            if len(edges) == 0:
                continue
            labels = rng.integers(0, 4, size=n)
            p = count_class_links(edges, labels, 4)
            np.testing.assert_array_equal(p.joint_counts, p.joint_counts.T)
            sums = p.probs.sum(axis=1)
            nonzero = p.row_totals > 0
            np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-9)
            np.testing.assert_array_equal(sums[~nonzero], 0.0)

    def test_same_class_edge_hits_diagonal_twice(self):
        cpm = count_class_links(np.array([[0, 1]]), np.array([2, 2]), 3)
        assert cpm.joint_counts[2, 2] == 2
        assert cpm.joint_counts.sum() == 2

    def test_duplicated_edges_leave_probs_unchanged(self):
        """Scale invariance: k copies of every edge give identical probs."""
        rng = np.random.default_rng(803)
        edges = random_edges(rng, 20, 0.3)
        labels = rng.integers(0, 3, size=20)
        p1 = count_class_links(edges, labels, 3)
        p3 = count_class_links(np.repeat(edges, 3, axis=0), labels, 3)
        np.testing.assert_allclose(p1.probs, p3.probs)

    def test_permutation_equivariance(self):
        """Relabeling classes by pi permutes rows and columns by pi."""
        rng = np.random.default_rng(804)
        edges = random_edges(rng, 25, 0.3)
        labels = rng.integers(0, 5, size=25)
        pi = rng.permutation(5)
        p1 = count_class_links(edges, labels, 5)
        p2 = count_class_links(edges, pi[labels], 5)
        for i in range(5):
            for j in range(5):
                assert p2.probs[pi[i], pi[j]] == pytest.approx(p1.probs[i, j])

    def test_unlabeled_endpoint_rejected_with_node_id(self):
        labels = np.array([0, -1, 1])
        with pytest.raises(MissingLabelError, match="node 1"):
            count_class_links(np.array([[0, 1]]), labels, 2)

    def test_empty_edge_list_gives_zero_matrix(self):
        p = count_class_links(np.empty((0, 2), dtype=int), np.array([0, 1]), 2)
        np.testing.assert_array_equal(p.probs, np.zeros((2, 2)))

    def test_bad_class_count_rejected(self):
        with pytest.raises(ConfigurationError):
            count_class_links(np.array([[0, 1]]), np.array([0, 0]), 0)


class TestLookup:
    def test_directional_lookup(self):
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        labels = np.array([0, 0, 1, 0])
        p = count_class_links(edges, labels, 2)
        (fwd, rev), swapped = lookup_prior_batch(p, labels, np.array([[1, 2], [2, 1]]))
        assert fwd == pytest.approx(0.2)  # P(c=1 | c=0)
        assert rev == pytest.approx(1.0)  # P(c=0 | c=1)
        # swapped arguments swap the row
        assert tuple(swapped) == (rev, fwd)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(805)
        edges = random_edges(rng, 30, 0.3)
        labels = rng.integers(0, 4, size=30)
        p = count_class_links(edges, labels, 4)
        pairs = rng.integers(0, 30, size=(40, 2))
        batch = lookup_prior_batch(p, labels, pairs)
        for i, (x, y) in enumerate(pairs.tolist()):
            expect = (p.probs[labels[x], labels[y]], p.probs[labels[y], labels[x]])
            assert tuple(batch[i]) == expect

    def test_missing_label_in_lookup(self):
        p = count_class_links(np.array([[0, 1]]), np.array([0, 1, -1]), 2)
        with pytest.raises(MissingLabelError, match="node 2"):
            lookup_prior_batch(p, np.array([0, 1, -1]), np.array([[0, 1], [0, 2]]))


class TestLeakage:
    def test_priors_use_training_edges_only(self):
        """Physically deleting held-out edges must not change the counts."""
        rng = np.random.default_rng(806)
        edges = random_edges(rng, 40, 0.25)
        labels = rng.integers(0, 3, size=40)
        g_full = build_graph(40, edges, labels=labels)
        split = split_edges(g_full, (0.6, 0.2, 0.2), seed=17, negatives=10)

        p_full = count_class_links(split.train_edges, labels, 3)
        # rebuild the graph with valid/test edges physically removed
        g_train_only = build_graph(40, split.train_edges, labels=labels)
        p_pruned = count_class_links(g_train_only.undirected_edges(), labels, 3)
        np.testing.assert_array_equal(p_full.joint_counts, p_pruned.joint_counts)
        assert p_full.probs.tobytes() == p_pruned.probs.tobytes()


class TestArtifacts:
    def test_prior_roundtrip(self, tmp_path):
        rng = np.random.default_rng(807)
        edges = random_edges(rng, 20, 0.3)
        labels = rng.integers(0, 3, size=20)
        p = count_class_links(edges, labels, 3)
        save_prior_json(p, tmp_path / "prior.json", seed=7, label_source="true")
        p2 = load_prior_json(tmp_path / "prior.json")
        np.testing.assert_array_equal(p.joint_counts, p2.joint_counts)
        np.testing.assert_allclose(p.probs, p2.probs)

    def test_heatmap_roundtrip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(808)
        edges = random_edges(rng, 25, 0.3)
        labels = rng.integers(0, 4, size=25)
        p = count_class_links(edges, labels, 4)
        csv_path = tmp_path / "heatmap.csv"
        sidecar = export_heatmap(p, csv_path, class_ids=("a", "b", "c", "d"))
        assert sidecar.exists()
        loaded = np.array(
            [
                [float(c) for c in line.split(",")]
                for line in csv_path.read_text().splitlines()
            ]
        )
        np.testing.assert_allclose(loaded, p.probs, atol=1e-12)
