"""Propagation oracle, hand-derived gradients vs finite differences,
embedding semantics, training behavior, and checkpoints."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import classlink
from classlink import backbone
from classlink.backbone import (
    MODES,
    BatchBuilder,
    TrainConfig,
    TrainedModel,
    _node_sums,
    _sigmoid,
    init_params,
    load_checkpoint,
    loss_and_grads,
    make_scorer,
    normalized_operator,
    propagate,
    save_checkpoint,
    save_training_log,
    train,
)
from classlink.csr import ROW_BLOCK, Csr, row_product
from classlink.errors import ConfigurationError, DimensionError
from classlink.evaluation import evaluate_split, mrr
from classlink.graph import build_graph, pair_chunks, split_edges
from classlink.priors import count_class_links, lookup_prior_batch

from backbone_oracles import (
    cnc_probability,
    common_neighbor_set,
    concat_batches,
    csr,
    dense_pass,
    fuse_and_predict,
    gradient_check,
    mpnn_forward,
    ncn_embed,
    ncnc_embed,
    predict,
    scipy_incidence,
    scipy_node_sums,
    scipy_operator,
    stacked_step,
)
from conftest import planted_two_class, random_edges, read_envelope, scipy_csr
from test_cli import write_dataset
from test_graph import brute_adjacency


def dense_operator(edges, n):
    """Oracle: dense D^{-1/2} (A + I) D^{-1/2}."""
    adj = brute_adjacency(edges, n)
    a_hat = np.eye(n)
    for u in range(n):
        for v in adj[u]:
            a_hat[u, v] = 1.0
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
    return d_inv_sqrt @ a_hat @ d_inv_sqrt


def with_features(g, feats):
    """``g`` with ``feats`` as its node features."""
    return build_graph(g.n_nodes, g.undirected_edges(), features=feats, labels=g.labels)


def train_prior(g, split):
    """The class prior of ``g``'s labels on the training edges, as the
    ``prior`` stage counts it."""
    return count_class_links(split.train_edges, g.labels, g.n_classes)


def small_instance(seed, use_priors=True, edge_prob=0.35, n=12, n_feats=5):
    """A tiny labeled graph plus a mixed positive/negative pair batch."""
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, edge_prob)
    feats = rng.standard_normal((n, n_feats))
    labels = rng.integers(0, 3, size=n)
    g = build_graph(n, edges, features=feats, labels=labels)
    prior = count_class_links(edges, labels, 3) if use_priors else None
    builder = BatchBuilder.create(g, "ncn", prior, labels if use_priors else None)
    raw = rng.integers(0, n, size=(8, 2))
    pairs = raw[raw[:, 0] != raw[:, 1]]
    targets = rng.integers(0, 2, size=len(pairs)).astype(float)
    config = TrainConfig(dim=4, hidden=3, seed=int(seed))
    params = init_params(n_feats, config, use_priors)
    # Nudge every parameter off its init value so no ReLU pre-activation sits
    # exactly on the kink (zero-feature pairs land there when biases are zero,
    # and the loss is not differentiable at that point).
    for arr in params.arrays().values():
        arr += 0.05 * rng.standard_normal(arr.shape)
    params.bo = float(params.bo + 0.05 * rng.standard_normal())
    return g, params, builder.build(pairs, targets)


@pytest.fixture
def awkward_features():
    """A labeled graph whose CSR features hold an empty row (node 4), an
    all-zero column (6) and a stored ``-0.0`` (node 2, column 3)."""
    rng = np.random.default_rng(1213)
    n, width = 14, 9
    feats = np.where(rng.random((n, width)) < 0.4, rng.standard_normal((n, width)), 0.0)
    feats[4] = 0.0
    feats[:, 6] = 0.0
    feats[2, 3] = -0.0
    g = build_graph(
        n, random_edges(rng, n, 0.3), features=feats, labels=rng.integers(0, 3, size=n)
    )
    assert g.feature_indptr[4] == g.feature_indptr[5] and 6 not in g.feature_indices
    zeros = g.feature_data[g.feature_data == 0.0]
    assert zeros.size == 1 and np.signbit(zeros[0])
    return g


@pytest.fixture
def ragged_chunks(monkeypatch):
    """Shrinks the head chunk for a batch of ``m`` pairs so that the batch
    spans several chunks and ends in a shorter one: the smallest size from 2
    up whose rest holds at least two pairs (a one-pair rest would join the
    chunk before it)."""

    def apply(m):
        size = next(c for c in range(2, m) if m % c >= 2)
        monkeypatch.setattr(backbone, "HEAD_CHUNK", size)

    return apply


def peak_rise(fn):
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPropagation:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1201)
        for trial in range(10):
            n = int(rng.integers(4, 25))
            edges = random_edges(rng, n, 0.3)
            feats = rng.standard_normal((n, 6))
            g = build_graph(n, edges, features=feats)
            params = init_params(6, TrainConfig(dim=5, hidden=4, seed=trial), False)
            s = dense_operator(edges, n)
            expect = s @ np.maximum(s @ feats @ params.w1, 0.0) @ params.w2
            builder = BatchBuilder.create(g, "backbone_only", None, None)
            np.testing.assert_allclose(
                propagate(params, builder.sym, builder.x)["h"], expect, atol=1e-10
            )
            np.testing.assert_allclose(
                mpnn_forward(g, feats, params), expect, atol=1e-10
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_first_layer_matches_dense_s_x_order(
        self, awkward_features, ragged_chunks, mode
    ):
        """``S (X W1)`` and ``Xᵀ (S dZ1)`` on the CSR features agree with
        ``(S X) W1`` and ``(S X)ᵀ dZ1`` on a dense ``S X``, with the head run
        in several chunks."""
        g = awkward_features
        use_priors = mode != "backbone_only"
        prior = count_class_links(g.undirected_edges(), g.labels, 3) if use_priors else None
        labels = g.labels if use_priors else None
        completion = None
        if mode == "ncnc":
            frozen = init_params(9, TrainConfig(dim=4, hidden=3, seed=99), True)
            frozen_builder = BatchBuilder.create(g, "ncn", prior, labels)

            def completion(pairs):
                return predict(frozen, frozen_builder.build(pairs))

        builder = BatchBuilder.create(g, mode, prior, labels, completion)
        assert builder.x.data is g.feature_data and builder.x.indices is g.feature_indices
        rng = np.random.default_rng(1214)
        raw = rng.integers(0, g.n_nodes, size=(20, 2))
        pairs = raw[raw[:, 0] != raw[:, 1]]
        ragged_chunks(len(pairs))
        batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))
        params = init_params(9, TrainConfig(dim=4, hidden=3, seed=7), use_priors)

        expect = dense_pass(params, batch)
        fwd = propagate(params, batch.sym, batch.x)
        got = dict(z1=fwd["z1"], h=fwd["h"], w1=loss_and_grads(params, batch)[1]["w1"])
        for name, want in expect.items():
            np.testing.assert_allclose(
                got[name], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name
            )
        assert not got["w1"][6].any()

    def test_operator_row_behavior(self, path3):
        s = csr(normalized_operator(path3)).toarray()
        np.testing.assert_allclose(s, s.T, atol=1e-15)
        # eigenvalues of the normalized operator lie in [-1, 1]
        eig = np.linalg.eigvalsh(s)
        assert eig.max() <= 1.0 + 1e-12 and eig.min() >= -1.0 - 1e-12

    def test_feature_width_mismatch(self, path3):
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=0), False)
        builder = BatchBuilder.create(
            with_features(path3, np.ones((3, 7))), "backbone_only", None, None
        )
        with pytest.raises(DimensionError):
            propagate(params, builder.sym, builder.x)
        with pytest.raises(DimensionError):
            with_features(path3, np.ones((4, 3)))


class TestNumpyForward:
    """The numpy builds and products of the forward and the backward against
    scipy's, bit for bit."""

    def test_operator_arrays_equal_scipys(self):
        """On graphs with isolated nodes, and on one with no edge at all."""
        graphs = [incidence_instance(seed, n=30, n_isolated=5)[0] for seed in range(6)]
        graphs.append(build_graph(5, np.zeros((0, 2), dtype=np.int64), features=np.ones((5, 2))))
        for g in graphs:
            got, want = normalized_operator(g), scipy_operator(g)
            assert got.shape == want.shape
            for name in ("indptr", "indices"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert got.data.tobytes() == want.data.tobytes()

    @staticmethod
    def random_rows(rng, sizes, width):
        """CSR arrays with the given row sizes: unsorted columns, repeats
        allowed, weights with ``-0.0`` and ``0.0`` among them, and rows of
        ``-0.0`` terms only."""
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        indices = rng.integers(0, width, size=indptr[-1])
        data = rng.standard_normal(indices.size)
        data[rng.random(indices.size) < 0.05] = -0.0
        data[rng.random(indices.size) < 0.05] = 0.0
        return indptr, indices.astype(np.int32), data

    @pytest.mark.parametrize("d", [1, 5])
    def test_row_product_equals_scipys(self, d):
        """Empty rows, more rows than a block, a row with more entries than
        a block has rows, weights other than 1 and ``-0.0`` terms: the
        product of every block keeps the bits of scipy's ``csr @ dense``,
        into a fresh array and into a strided view; no rows give none."""
        rng = np.random.default_rng(1231)
        block = ROW_BLOCK
        sizes = rng.integers(0, 6, size=2 * block + 300)
        sizes[[0, 7, block]] = 0
        sizes[block + 5] = block + 300
        width = 400
        indptr, indices, data = self.random_rows(rng, sizes, width)
        data[indptr[9] : indptr[10]] = -0.0  # a row of -0.0 terms only
        dense = rng.standard_normal((width, d))
        dense[rng.random(width) < 0.1] = -0.0
        for values in (data, np.ones(data.size)):
            want = sp.csr_matrix((values, indices, indptr), shape=(sizes.size, width)) @ dense
            a = Csr(indptr, indices, values, (sizes.size, width))
            assert row_product(a, dense).tobytes() == want.tobytes()
            wide = np.full((sizes.size, 3 * d), np.nan)
            row_product(a, dense, out=wide[:, d : 2 * d])
            assert np.ascontiguousarray(wide[:, d : 2 * d]).tobytes() == want.tobytes()
            assert np.isnan(wide[:, :d]).all() and np.isnan(wide[:, 2 * d :]).all()
        none = Csr(np.zeros(1, dtype=np.int64), indices[:0], data[:0], (0, width))
        assert row_product(none, dense).shape == (0, d)


    @pytest.mark.parametrize("d", [1, 5])
    def test_transposed_feature_product_equals_scipys(self, d):
        """``Xᵀ D`` on the builder's ``Xᵀ``, made once, keeps the bits of
        scipy's ``X.T @ D``: with a feature that no node has, a feature held
        by more nodes than a block has rows, feature values other than 1 and
        ``-0.0`` terms."""
        rng = np.random.default_rng(1232)
        n, f = 1500, 9
        feats = np.where(rng.random((n, f)) < 0.3, rng.standard_normal((n, f)), 0.0)
        feats[:, 2] = 0.0  # no node has feature 2
        feats[:, 5] = rng.uniform(0.5, 2.0, size=n)  # every node has feature 5
        assert n > ROW_BLOCK
        g = build_graph(n, random_edges(rng, n, 0.002), features=feats)
        builder = BatchBuilder.create(g, "backbone_only", None, None)
        dense = rng.standard_normal((n, d))
        dense[rng.random(n) < 0.1] = -0.0
        want = csr(builder.x).T @ dense
        got = row_product(builder.xt(), dense)
        assert got.tobytes() == want.tobytes()
        assert builder.xt() is builder.xt()
        assert not got[2].any()

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_chunk_scatter_equals_the_scipy_scatter(self, weighted):
        """A head chunk's ``dH`` scatter gives the nodes and the bits of
        scipy's ``scatter.T @ vals``: with nodes that no stacked row touches,
        a node touched from all three stacked parts by more terms than a
        block has rows, ``-0.0`` terms, a node whose only term is ``-0.0``,
        and unit or completion weights."""
        rng = np.random.default_rng(1233)
        n, c, d = 3000, 700, 4
        xs, ys = rng.integers(0, 2000, size=c), rng.integers(0, 2000, size=c)
        xs[::2] = ys[1::2] = 5  # node 5 in Px and Py, 700 terms
        rows = [np.unique(rng.integers(0, 2000, size=rng.integers(0, 12))) for _ in range(c)]
        for i in range(0, c, 2):
            rows[i] = np.union1d(rows[i], [5])  # and in M, 350 more
        rows[1] = np.array([2500])  # node 2500 has this one term only
        indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])])
        indices = np.concatenate(rows).astype(np.int32)
        data = np.ones(indices.size)
        if weighted:
            data = rng.uniform(0.0, 1.0, size=indices.size)
            data[rng.random(indices.size) < 0.05] = -0.0
        vals = rng.standard_normal((3 * c, d))
        vals[rng.random(3 * c) < 0.05] = -0.0
        vals[2 * c + 1] = -0.0  # pair 1's M row
        incidence = Csr(indptr, indices, data, (c, n))

        nodes, sums = _node_sums(xs, ys, incidence, vals)
        touched, want = scipy_node_sums(xs, ys, incidence, vals)
        assert np.count_nonzero(np.concatenate([xs, ys, indices]) == 5) > ROW_BLOCK
        assert touched[-1] == 2500 and touched.size < n
        order = np.argsort(nodes)
        np.testing.assert_array_equal(nodes[order], touched)
        assert sums[order].tobytes() == want.tobytes()
        assert np.signbit(sums[nodes == 2500]).sum() == 0


class TestGradients:
    """Finite-difference checks, each batch run through the head in several
    chunks."""

    def test_hand_gradients_match_finite_differences(self, ragged_chunks):
        worst = 0.0
        for seed in range(6):
            _, params, batch = small_instance(seed)
            ragged_chunks(len(batch.pairs))
            worst = max(worst, gradient_check(params, batch))
        assert worst <= 1e-4, worst

    def test_gradients_without_priors(self, ragged_chunks):
        for seed in (20, 21):
            _, params, batch = small_instance(seed, use_priors=False)
            ragged_chunks(len(batch.pairs))
            assert gradient_check(params, batch) <= 1e-4

    def test_gradients_on_sparse_graph_empty_aggregations(self, ragged_chunks):
        # few edges -> most pairs have no common neighbor (dead branch)
        _, params, batch = small_instance(33, edge_prob=0.08)
        ragged_chunks(len(batch.pairs))
        assert gradient_check(params, batch) <= 1e-4

    def test_gradients_in_completion_mode(self, ragged_chunks):
        rng = np.random.default_rng(1234)
        n = 12
        edges = random_edges(rng, n, 0.35)
        feats = rng.standard_normal((n, 5))
        labels = rng.integers(0, 3, size=n)
        g = build_graph(n, edges, features=feats, labels=labels)
        prior = count_class_links(edges, labels, 3)
        frozen = init_params(5, TrainConfig(dim=4, hidden=3, seed=99), True)
        frozen_builder = BatchBuilder.create(g, "ncn", prior, labels)

        def frozen_scorer(pairs):
            return predict(frozen, frozen_builder.build(pairs))

        builder = BatchBuilder.create(
            g, "ncnc", prior, labels, completion_scorer=frozen_scorer
        )
        raw = rng.integers(0, n, size=(6, 2))
        pairs = raw[raw[:, 0] != raw[:, 1]]
        ragged_chunks(len(pairs))
        batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))
        params = init_params(5, TrainConfig(dim=4, hidden=3, seed=7), True)
        assert gradient_check(params, batch) <= 1e-4

    def test_one_head_pass_per_chunk(self, monkeypatch, ragged_chunks):
        """A training step runs the head once per chunk: the backward half
        comes from the same forward, not from a recompute."""
        _, params, batch = small_instance(5)
        m = len(batch.pairs)
        ragged_chunks(m)
        head, calls = backbone._head, []

        def counting(params, batch, rows, h):
            calls.append(rows)
            return head(params, batch, rows, h)

        monkeypatch.setattr(backbone, "_head", counting)
        loss_and_grads(params, batch)
        assert len(calls) > 1
        assert calls == list(pair_chunks(m, backbone.HEAD_CHUNK))

    def test_epsilon_validated(self):
        _, params, batch = small_instance(0)
        with pytest.raises(ConfigurationError):
            gradient_check(params, batch, epsilon=0.0)


class TestEmbeddings:
    def test_ncn_embed_hand_value(self, triangle):
        h = np.arange(8, dtype=float).reshape(4, 2)
        # pair (0,1): common neighbor {2}
        expect = np.concatenate([h[0] * h[1], h[2]])
        np.testing.assert_allclose(ncn_embed(triangle, h, 0, 1), expect)
        # pair (0,3): no common neighbor -> zero aggregation block
        expect = np.concatenate([h[0] * h[3], np.zeros(2)])
        np.testing.assert_allclose(ncn_embed(triangle, h, 0, 3), expect)

    def test_cnc_probability_branches(self):
        # 0-1, 1-2, 2-3: for pair (0,2): 1 is common... build explicit cases
        g = build_graph(5, np.array([[0, 1], [1, 2], [2, 3]]))

        def half_scorer(pairs):
            return np.full(len(pairs), 0.25)

        # u=1 neighbors both 0 and 2 -> weight 1
        assert cnc_probability(g, half_scorer, 0, 2, 1) == 1.0
        # u=3 neighbors y=2 only -> predicted (x=0, u=3) link
        assert cnc_probability(g, half_scorer, 0, 2, 3) == 0.25
        # u=3 neighbors x=2 only (swapped roles) -> predicted (y=0, u=3)
        assert cnc_probability(g, half_scorer, 2, 0, 3) == 0.25
        # u=4 neighbors neither -> 0
        assert cnc_probability(g, half_scorer, 0, 2, 4) == 0.0

    def test_ncnc_equals_ncn_when_fully_observed(self):
        """All union members common -> completion weights are all 1."""
        # K4: for pair (0,1), N(0)\{1} == N(1)\{0} == {2,3}
        g = build_graph(4, np.array([[i, j] for i in range(4) for j in range(i + 1, 4)]))
        h = np.random.default_rng(1).standard_normal((4, 3))

        def never_called(pairs):  # pragma: no cover - must not be needed
            raise AssertionError("no missing links to complete")

        np.testing.assert_allclose(
            ncnc_embed(g, h, 0, 1, never_called), ncn_embed(g, h, 0, 1)
        )

    def test_ncnc_with_zero_scorer_reduces_to_ncn(self):
        rng = np.random.default_rng(1202)
        g = build_graph(10, random_edges(rng, 10, 0.4))
        h = rng.standard_normal((10, 4))

        def zero_scorer(pairs):
            return np.zeros(len(pairs))

        for x, y in ((0, 1), (2, 7), (3, 9)):
            np.testing.assert_allclose(
                ncnc_embed(g, h, x, y, zero_scorer),
                ncn_embed(g, h, x, y),
                atol=1e-15,
            )

    def test_ncnc_interpolates_missing_links(self):
        """A one-sided neighbor contributes scorer-weighted embedding mass."""
        g = build_graph(4, np.array([[0, 1], [1, 2], [2, 3]]))
        h = np.eye(4)

        def const_scorer(pairs):
            return np.full(len(pairs), 0.5)

        e = ncnc_embed(g, h, 0, 2, const_scorer)
        # union of N(0)={1}, N(2)={1,3}: node1 common (w=1), node3 one-sided (w=0.5)
        np.testing.assert_allclose(e[4:], [0.0, 1.0, 0.0, 0.5])


def incidence_instance(seed, n=14, n_isolated=3, edge_prob=0.3, n_pairs=40):
    """A random graph whose last nodes are isolated, and a pair batch that
    mixes x > y, duplicate pairs, pairs that are edges and isolated nodes."""
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n - n_isolated, edge_prob)
    feats = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    g = build_graph(n, edges, features=feats, labels=labels)
    raw = rng.integers(0, n, size=(n_pairs, 2))
    raw = raw[raw[:, 0] != raw[:, 1]]
    picked = edges[rng.integers(0, len(edges), size=6)]
    pairs = np.concatenate(
        [raw, picked, picked[:, ::-1], raw[:4], [[n - 1, 0], [1, n - 2]]]
    ).astype(np.int64)
    return g, feats, labels, pairs


def fixed_scorer(pairs):
    """Deterministic, never-zero link probabilities for completion tests."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return ((7 * pairs[:, 0] + 3 * pairs[:, 1]) % 11 + 1) / 13.0


class TestLinkIncidence:
    def test_ncn_incidence_equals_common_neighbors(self):
        for seed in range(8):
            g, _, _, pairs = incidence_instance(seed)
            inc = BatchBuilder.create(g, "ncn", None, None).build(pairs).incidence
            assert inc.shape == (len(pairs), g.n_nodes)
            for i, (x, y) in enumerate(pairs.tolist()):
                row = slice(inc.indptr[i], inc.indptr[i + 1])
                assert inc.indices[row].tolist() == common_neighbor_set(g, x, y)
                assert inc.data[row].tolist() == [1.0] * (row.stop - row.start)

    def test_ncnc_incidence_matches_cnc_probability(self):
        for seed in range(8):
            g, _, _, pairs = incidence_instance(seed)
            builder = BatchBuilder.create(
                g, "ncnc", None, None, completion_scorer=fixed_scorer
            )
            inc = csr(builder.build(pairs).incidence)
            assert inc.has_sorted_indices
            expect = np.zeros((len(pairs), g.n_nodes))
            for i, (x, y) in enumerate(pairs.tolist()):
                for u in range(g.n_nodes):
                    if u not in (x, y):
                        expect[i, u] = cnc_probability(g, fixed_scorer, x, y, u)
            np.testing.assert_array_equal(inc.toarray() != 0, expect != 0)
            np.testing.assert_array_equal(inc.toarray(), expect)

    @pytest.mark.parametrize("build_chunk", [None, 7])
    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_incidence_arrays_equal_the_scipy_products(self, monkeypatch, mode, build_chunk):
        """The numpy incidence has the arrays of ``A[xs] ⊙ A[ys]`` (ncn) and
        of the weighted union from ``A[xs] + 2 A[ys]`` (ncnc), built with
        scipy, also for a self pair and when the batch is built in blocks of
        7 pairs.  The last
        instance has 600,000 nodes, so its keys ``i · n + u`` pass 2**31 and
        are int64 in blocks of the default size."""
        if build_chunk is not None:
            monkeypatch.setattr(backbone, "_BUILD_CHUNK", build_chunk)
        instances = [
            (g, np.concatenate([pairs, [[2, 2]]]))  # a self pair: both sides are one row
            for g, pairs in (incidence_instance(seed)[::3] for seed in range(8))
        ]
        rng = np.random.default_rng(1232)
        n = 600_000
        hubs = rng.integers(0, n, size=60)
        big = build_graph(n, hubs[rng.integers(0, 60, size=(900, 2))], features=np.ones((n, 1)))
        pairs = np.concatenate(
            [hubs[rng.integers(0, 60, size=(300, 2))], rng.integers(0, n, size=(4000, 2))]
        )
        instances.append((big, pairs))
        for g, pairs in instances:
            builder = BatchBuilder.create(g, mode, None, None, completion_scorer=fixed_scorer)
            got = builder.build(pairs).incidence
            want = scipy_incidence(g, pairs, mode, fixed_scorer)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()

    def test_ncnc_requests_missing_links_in_pair_then_node_order(self, monkeypatch):
        """One scorer call per build block, with the missing links of the
        block's pairs alone, so no call holds a whole batch's links."""
        monkeypatch.setattr(backbone, "_BUILD_CHUNK", 5)
        g, _, _, pairs = incidence_instance(3)
        calls = []

        def recording(missing):
            calls.append(np.asarray(missing).tolist())
            return fixed_scorer(missing)

        BatchBuilder.create(g, "ncnc", None, None, completion_scorer=recording).build(pairs)
        expect = []
        for rows in pair_chunks(len(pairs), 5):
            block = []
            for x, y in pairs[rows].tolist():
                nx, ny = set(g.neighbors(x).tolist()), set(g.neighbors(y).tolist())
                for u in sorted((nx | ny) - {x, y}):
                    if u in nx and u not in ny:
                        block.append([y, u])
                    elif u in ny and u not in nx:
                        block.append([x, u])
            if block:
                expect.append(block)
        assert len(expect) > 1
        assert calls == expect

    def test_fully_observed_union_never_calls_the_scorer(self):
        g = build_graph(
            4,
            np.array([[i, j] for i in range(4) for j in range(i + 1, 4)]),
            features=np.ones((4, 2)),
        )

        def never_called(pairs):  # pragma: no cover - must not be needed
            raise AssertionError("no missing links to complete")

        builder = BatchBuilder.create(
            g, "ncnc", None, None, completion_scorer=never_called
        )
        inc = csr(builder.build(np.array([[0, 1], [3, 2]])).incidence)
        np.testing.assert_array_equal(inc.toarray(), [[0, 0, 1, 1], [1, 1, 0, 0]])

    def test_out_of_range_pairs_rejected(self, path3):
        builder = BatchBuilder.create(
            with_features(path3, np.ones((3, 2))), "ncn", None, None
        )
        for bad in ([[0, 3]], [[-1, 2]]):
            with pytest.raises(ConfigurationError, match="out of range"):
                builder.build(np.array(bad))

    def test_cached_scorer_matches_batch_and_pair_oracles(self):
        for seed, mode in ((0, "ncn"), (1, "ncnc"), (2, "backbone_only")):
            g, feats, labels, pairs = incidence_instance(seed)
            rng = np.random.default_rng(100 + seed)
            use_priors = mode != "backbone_only"
            prior = count_class_links(g.undirected_edges(), labels, 3)
            config = TrainConfig(dim=4, hidden=3, seed=seed)
            params = init_params(5, config, use_priors)
            params.bh += 0.1 * rng.standard_normal(params.bh.shape)
            completion = init_params(5, replace(config, seed=seed + 50), True)
            model = TrainedModel(
                params=params,
                mode=mode,
                completion=completion if mode == "ncnc" else None,
            )
            scores = make_scorer(model, g, prior, labels)(pairs)

            stage1 = None
            if mode == "ncnc":
                stage1 = make_scorer(
                    TrainedModel(params=completion, mode="ncn"), g, prior, labels
                )
            builder = BatchBuilder.create(
                g,
                mode,
                prior if use_priors else None,
                labels if use_priors else None,
                completion_scorer=stage1,
            )
            np.testing.assert_allclose(
                scores, predict(params, builder.build(pairs)), rtol=0, atol=1e-12
            )

            h = mpnn_forward(g, feats, params)
            prior_feats = lookup_prior_batch(prior, labels, pairs)
            for i, (x, y) in enumerate(pairs.tolist()):
                if mode == "ncnc":
                    e = ncnc_embed(g, h, x, y, stage1)
                else:
                    e = ncn_embed(g, h, x, y)
                expect = fuse_and_predict(
                    e, tuple(prior_feats[i]) if use_priors else None, params
                )
                assert scores[i] == pytest.approx(expect, rel=0, abs=1e-10)


class TestChunkedHead:
    @pytest.mark.parametrize("mode", MODES)
    def test_predictions_are_bit_identical_in_one_chunk_and_several(
        self, monkeypatch, mode
    ):
        """Chunk sizes are powers of two, as ``HEAD_CHUNK`` is.  The batches
        end in a ragged chunk and in a one-pair rest."""
        g, _, labels, pairs = incidence_instance(40 + MODES.index(mode), n_pairs=300)
        use_priors = mode != "backbone_only"
        prior = count_class_links(g.undirected_edges(), labels, 3)
        frozen = init_params(5, TrainConfig(dim=4, hidden=3, seed=99), True)
        frozen_builder = BatchBuilder.create(g, "ncn", prior, labels)

        def completion(missing):
            return predict(frozen, frozen_builder.build(missing))

        builder = BatchBuilder.create(
            g,
            mode,
            prior if use_priors else None,
            labels if use_priors else None,
            completion if mode == "ncnc" else None,
        )
        params = init_params(5, TrainConfig(dim=8, hidden=16, seed=3), use_priors)
        params.bh += 0.1 * np.random.default_rng(1220).standard_normal(params.bh.shape)
        assert len(pairs) % 64 > 1
        for m in (len(pairs), 257):
            batch = builder.build(pairs[:m])
            monkeypatch.setattr(backbone, "HEAD_CHUNK", m)
            one = predict(params, batch)
            for size in (64, 128):
                monkeypatch.setattr(backbone, "HEAD_CHUNK", size)
                assert predict(params, batch).tobytes() == one.tobytes(), (m, size)

    def test_head_memory_does_not_grow_with_the_pair_count(self):
        """From 4 to 8 chunks of pairs, the peak memory that
        ``loss_and_grads`` and ``predict_batch`` add grows by no
        more than three float64 vectors of the added pairs (the logits,
        ``dlogits`` and a temporary) and 4 KiB for the chunk loop's Python
        objects, not by their head intermediates."""
        rng = np.random.default_rng(1219)
        n = 300
        g = build_graph(
            n,
            rng.integers(0, n, size=(2400, 2)),
            features=rng.standard_normal((n, 20)),
            labels=rng.integers(0, 4, size=n),
        )
        prior = count_class_links(g.undirected_edges(), g.labels, 4)
        builder = BatchBuilder.create(g, "ncn", prior, g.labels)
        params = init_params(20, TrainConfig(dim=16, hidden=16, seed=0), True)

        def rises(n_chunks):
            pairs = rng.integers(0, n, size=(n_chunks * backbone.HEAD_CHUNK, 2))
            batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))

            return (
                peak_rise(lambda: loss_and_grads(params, batch)),
                peak_rise(lambda: predict(params, batch)),
            )

        (fit4, predict4), (fit8, predict8) = rises(4), rises(8)
        allowance = 3 * 8 * 4 * backbone.HEAD_CHUNK + 4096
        assert fit8 - fit4 <= allowance, (fit4, fit8)
        assert predict8 - predict4 <= allowance, (predict4, predict8)

    def test_each_chunk_is_freed_before_the_next_head(self):
        """Over four chunks of the same pairs, the peak that ``_head_grads``
        adds is that of one chunk plus three float64 vectors of the added
        pairs (the logits, ``dlogits`` and the targets) and 16 KiB of slack:
        a chunk's ``z``/``dz``, scatter values, touched nodes and their sums
        are gone before the next chunk's head allocates, where keeping them
        alive would add their 400 KiB or so."""
        rng = np.random.default_rng(1228)
        n = 300
        g = build_graph(
            n,
            rng.integers(0, n, size=(2400, 2)),
            features=rng.standard_normal((n, 20)),
            labels=rng.integers(0, 4, size=n),
        )
        prior = count_class_links(g.undirected_edges(), g.labels, 4)
        builder = BatchBuilder.create(g, "ncn", prior, g.labels)
        params = init_params(20, TrainConfig(dim=16, hidden=16, seed=0), True)
        c = backbone.HEAD_CHUNK
        pairs = rng.integers(0, n, size=(c, 2))
        targets = rng.integers(0, 2, size=c).astype(float)
        h = propagate(params, builder.sym, builder.x)["h"]

        def rise(k):
            batch = builder.build(np.tile(pairs, (k, 1)), np.tile(targets, k))
            return peak_rise(lambda: backbone._head_grads(params, batch, h))

        one, four = rise(1), rise(4)
        assert four - one <= 3 * 8 * 3 * c + 16384, (one, four)

    def test_ncnc_build_memory_grows_with_its_incidence_alone(self, monkeypatch):
        """From 4 to 8 build blocks of 256 pairs, the peak of an ncnc build
        grows by no more than twice its returned incidence (the blocks'
        node ids and weights, then their joined copy), its prior features
        and targets, and 64 KiB: each block makes its own completion-scorer
        call, so no batch-sized list of missing links, copy of it or score
        vector exists.  The completion scorer is a model's, in slices of
        16 head chunks of 64 pairs."""
        monkeypatch.setattr(backbone, "_BUILD_CHUNK", 256)
        monkeypatch.setattr(backbone, "HEAD_CHUNK", 64)
        rng = np.random.default_rng(1227)
        n = 300
        g = build_graph(
            n,
            rng.integers(0, n, size=(2400, 2)),
            features=rng.standard_normal((n, 20)),
            labels=rng.integers(0, 4, size=n),
        )
        prior = count_class_links(g.undirected_edges(), g.labels, 4)
        stage1 = init_params(20, TrainConfig(dim=16, hidden=16, seed=1), True)
        completion = make_scorer(TrainedModel(stage1, "ncn"), g, prior, g.labels)
        builder = BatchBuilder.create(g, "ncnc", prior, g.labels, completion)
        pairs = rng.integers(0, n, size=(4 * 256, 2))
        twice = np.concatenate([pairs, pairs])

        def built(p):
            batch = builder.build(p)
            inc = batch.incidence
            rest = batch.priors.nbytes + batch.targets.nbytes
            return inc.indptr.nbytes + inc.indices.nbytes + inc.data.nbytes, rest

        (inc4, rest4), (inc8, rest8) = built(pairs), built(twice)
        four = peak_rise(lambda: builder.build(pairs))
        eight = peak_rise(lambda: builder.build(twice))
        assert eight - four <= 2 * (inc8 - inc4) + (rest8 - rest4) + 65536, (four, eight)


    @pytest.mark.parametrize("mode", MODES)
    def test_step_is_bit_identical_to_the_stacked_scatter(
        self, monkeypatch, ragged_chunks, mode
    ):
        """The in-place head and the touched-row ``dH`` scatter give the loss,
        ``dH`` and every gradient of a step whose head allocates afresh and
        scatters each chunk over all n nodes, bit for bit: on graphs with
        isolated nodes, with duplicate and x > y pairs, in ragged chunks and
        in chunks of 64."""
        use_priors = mode != "backbone_only"
        for seed in range(4):
            g, _, labels, pairs = incidence_instance(60 + seed, n_pairs=150)
            prior = count_class_links(g.undirected_edges(), labels, 3)
            builder = BatchBuilder.create(
                g,
                mode,
                prior if use_priors else None,
                labels if use_priors else None,
                fixed_scorer if mode == "ncnc" else None,
            )
            rng = np.random.default_rng(1224 + seed)
            batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))
            params = init_params(5, TrainConfig(dim=8, hidden=16, seed=seed), use_priors)
            params.bh += 0.1 * rng.standard_normal(params.bh.shape)
            h = propagate(params, batch.sym, batch.x)["h"]
            assert len(pairs) > 64 and len(pairs) % 64 > 1
            for chunk in ("ragged", 64):
                if chunk == "ragged":
                    ragged_chunks(len(pairs))
                else:
                    monkeypatch.setattr(backbone, "HEAD_CHUNK", chunk)
                want_loss, want_grads, want_dh = stacked_step(params, batch)
                loss, grads = loss_and_grads(params, batch)
                assert loss == want_loss, (seed, chunk)
                np.testing.assert_array_equal(
                    backbone._head_grads(params, batch, h)[2], want_dh
                )
                assert grads.keys() == want_grads.keys()
                for name, want in want_grads.items():
                    np.testing.assert_array_equal(
                        grads[name], want, err_msg=f"{name}, seed {seed}, chunk {chunk}"
                    )

    @pytest.mark.parametrize("mode", MODES)
    def test_a_step_on_two_parts_is_the_step_on_their_concatenation(
        self, monkeypatch, ragged_chunks, mode
    ):
        """A step that reads a positive and a negative batch as one row
        range gives the loss, ``dH`` and every gradient of the step on the
        two batches concatenated, bit for bit: with the boundary inside a
        chunk and on a chunk edge, in ragged chunks and in chunks of 64."""
        use_priors = mode != "backbone_only"
        g, _, labels, pairs = incidence_instance(80 + MODES.index(mode), n_pairs=150)
        prior = count_class_links(g.undirected_edges(), labels, 3)
        builder = BatchBuilder.create(
            g,
            mode,
            prior if use_priors else None,
            labels if use_priors else None,
            fixed_scorer if mode == "ncnc" else None,
        )
        rng = np.random.default_rng(1229)
        targets = rng.integers(0, 2, size=len(pairs)).astype(float)
        params = init_params(5, TrainConfig(dim=8, hidden=16, seed=2), use_priors)
        params.bh += 0.1 * rng.standard_normal(params.bh.shape)
        h = propagate(params, builder.sym, builder.x)["h"]
        assert len(pairs) > 128
        for chunk in ("ragged", 64):
            if chunk == "ragged":
                ragged_chunks(len(pairs))
            else:
                monkeypatch.setattr(backbone, "HEAD_CHUNK", chunk)
            size = backbone.HEAD_CHUNK
            for cut in (size + size // 2, 2 * size):  # inside a chunk, on its edge
                parts = (
                    builder.build(pairs[:cut], targets[:cut]),
                    builder.build(pairs[cut:], targets[cut:]),
                )
                whole = concat_batches(*parts)
                loss, grads = loss_and_grads(params, parts)
                want_loss, want_grads = loss_and_grads(params, whole)
                assert loss == want_loss, (chunk, cut)
                assert grads.keys() == want_grads.keys()
                for name, want in want_grads.items():
                    got = np.asarray(grads[name]).tobytes()
                    assert got == np.asarray(want).tobytes(), (name, chunk, cut)
                dh = backbone._head_grads(params, parts, h)[2]
                assert dh.tobytes() == backbone._head_grads(params, whole, h)[2].tobytes()

    def test_step_allocates_nothing_node_sized_per_chunk(self):
        """With the pairs fixed and n doubled by isolated nodes, the peak
        memory of the head's chunk loop above its n × d input and output does
        not grow: each chunk scatters ``dH`` over the nodes it touches, not
        over all n.  The slack covers Python objects, against the 384 KiB
        that an n × d array per chunk adds."""
        rng = np.random.default_rng(1225)
        core, d = 300, 16
        edges = rng.integers(0, core, size=(2400, 2))
        feats = rng.standard_normal((core, 20))
        labels = rng.integers(0, 4, size=core)
        pairs = rng.integers(0, core, size=(4 * backbone.HEAD_CHUNK, 2))
        targets = rng.integers(0, 2, size=len(pairs)).astype(float)
        params = init_params(20, TrainConfig(dim=d, hidden=16, seed=0), True)

        def rise(n):
            pad = n - core
            g = build_graph(
                n,
                edges,
                features=np.vstack([feats, np.ones((pad, 20))]),
                labels=np.concatenate([labels, np.zeros(pad, dtype=np.int64)]),
            )
            prior = count_class_links(g.undirected_edges(), g.labels, 4)
            batch = BatchBuilder.create(g, "ncn", prior, g.labels).build(pairs, targets)
            h = propagate(params, batch.sym, batch.x)["h"]
            return peak_rise(lambda: backbone._head_grads(params, batch, h)) - h.nbytes

        small, large = rise(3000), rise(6000)
        assert large - small <= 16384, (small, large)

    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_scorer_memory_does_not_grow_with_the_pair_count(self, monkeypatch, mode):
        """From 4 to 8 slices of pairs, the peak memory that a model's scorer
        adds grows by no more than its output vector of the added pairs and
        64 KiB: the incidence (and, in ncnc, the completion pairs) of one
        slice of ``SCORER_CHUNKS`` head chunks is built at a time.  Head
        chunks of 64 pairs make a slice 1024 pairs.  The eight slices are the
        four twice, so that the largest slice is the same in both runs; the
        slack covers the peak's drift between runs of the same slices (up to
        about 50 KiB in ncnc), against the megabytes that a whole-batch
        incidence adds."""
        monkeypatch.setattr(backbone, "HEAD_CHUNK", 64)
        size = backbone.SCORER_CHUNKS * backbone.HEAD_CHUNK
        rng = np.random.default_rng(1222)
        n = 300
        g = build_graph(
            n,
            rng.integers(0, n, size=(2400, 2)),
            features=rng.standard_normal((n, 20)),
            labels=rng.integers(0, 4, size=n),
        )
        prior = count_class_links(g.undirected_edges(), g.labels, 4)
        config = TrainConfig(dim=16, hidden=16, seed=0)
        stage1 = init_params(20, replace(config, seed=1), True)
        model = TrainedModel(
            init_params(20, config, True), mode, stage1 if mode == "ncnc" else None
        )
        score = make_scorer(model, g, prior, g.labels)

        pairs = rng.integers(0, n, size=(4 * size, 2))
        twice = np.concatenate([pairs, pairs])
        four, eight = peak_rise(lambda: score(pairs)), peak_rise(lambda: score(twice))
        assert eight - four <= 8 * 4 * size + 65536, (four, eight)

    @pytest.mark.parametrize("mode", MODES)
    def test_scorer_bits_do_not_depend_on_the_slice(self, monkeypatch, mode):
        """A model's scorer gives the same bits in its default slices as with
        the head chunk shrunk to 64 and 16 pairs, which cuts the batch (and,
        in ncnc, the completion pairs) into more, shorter slices: every pair
        keeps its incidence row, its completion weights and its logit.  The
        batch ends in a one-pair rest at each size."""
        g, _, labels, _ = incidence_instance(70 + MODES.index(mode), n_pairs=10)
        use_priors = mode != "backbone_only"
        prior = count_class_links(g.undirected_edges(), labels, 3) if use_priors else None
        config = TrainConfig(dim=8, hidden=16, seed=5)
        model = TrainedModel(
            init_params(5, config, use_priors),
            mode,
            init_params(5, replace(config, seed=6), True) if mode == "ncnc" else None,
        )
        model.params.bh += 0.1
        pairs = np.random.default_rng(1226).integers(0, g.n_nodes, size=(3 * 1024 + 1, 2))

        def scores():
            return make_scorer(model, g, prior, labels if use_priors else None)(pairs)

        want = scores()
        assert len(pairs) <= backbone.SCORER_CHUNKS * backbone.HEAD_CHUNK
        for head in (64, 16):
            monkeypatch.setattr(backbone, "HEAD_CHUNK", head)
            assert scores().tobytes() == want.tobytes(), head


class TestFusion:
    def test_zero_params_give_half(self):
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=0), False)
        params.wh[:] = 0.0
        params.bh[:] = 0.0
        params.wo[:] = 0.0
        params.bo = 0.0
        assert fuse_and_predict(np.ones(4), None, params) == 0.5

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1203)
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=1), True)
        # inflate weights to force saturated logits
        params.wh *= 200.0
        params.wo *= 200.0
        for _ in range(50):
            p = fuse_and_predict(
                rng.standard_normal(4) * 10, (1.0, 0.0), params
            )
            assert 0.0 < p < 1.0

    def test_prior_contract(self):
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=0), True)
        with pytest.raises(ConfigurationError):
            fuse_and_predict(np.ones(4), None, params)
        with pytest.raises(DimensionError):
            fuse_and_predict(np.ones(3), (0.5, 0.5), params)

    def test_non_finite_embedding_rejected(self):
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=0), False)
        with pytest.raises(Exception):
            fuse_and_predict(np.array([np.nan, 1, 1, 1]), None, params)


def quick_config(seed=0, epochs=40):
    return TrainConfig(
        dim=8, hidden=8, lr=0.2, momentum=0.9, epochs=epochs, patience=10, seed=seed
    )


class TestTraining:
    def setup_planted(self, seed=5):
        rng = np.random.default_rng(seed)
        g = planted_two_class(rng)
        split = split_edges(g, (0.7, 0.15, 0.15), seed=seed, negatives=100)
        return g, split

    def test_loss_decreases(self):
        g, split = self.setup_planted()
        _, log = train(g, split, train_prior(g, split), g.labels, "ncn", quick_config())
        first = np.mean([row["loss"] for row in log[:3]])
        last = np.mean([row["loss"] for row in log[-3:]])
        assert last < first

    @pytest.mark.parametrize("epochs, patience", [(6, 6), (40, 2)])
    def test_a_stage_propagates_once_per_epoch_and_once_more(
        self, monkeypatch, epochs, patience
    ):
        """Each epoch's validation forward is the next epoch's training
        forward, so a stage propagates once before its first epoch and once
        per epoch, also when early stopping ends it."""
        g, split = self.setup_planted()
        calls = []
        propagate_once = backbone.propagate
        monkeypatch.setattr(
            backbone, "propagate", lambda *args: calls.append(1) or propagate_once(*args)
        )
        config = replace(quick_config(epochs=epochs), patience=patience)
        _, log = train(g, split, train_prior(g, split), g.labels, "ncn", config)
        assert len(calls) == len(log) + 1
        if patience < epochs:
            assert len(log) < epochs

    def test_ncnc_propagates_for_both_stages_and_the_completion_scorer(self, monkeypatch):
        g, split = self.setup_planted()
        calls = []
        propagate_once = backbone.propagate
        monkeypatch.setattr(
            backbone, "propagate", lambda *args: calls.append(1) or propagate_once(*args)
        )
        config = replace(quick_config(epochs=4), patience=4)
        train(g, split, train_prior(g, split), g.labels, "ncnc", config)
        assert len(calls) == 2 * (4 + 1) + 1

    @pytest.mark.parametrize("mode", MODES)
    def test_the_shared_forward_keeps_every_bit(self, monkeypatch, tmp_path, mode):
        """Training that hands each validation forward on to the next step
        writes the checkpoint and training log bytes of training that
        propagates afresh for every step."""
        g, split = self.setup_planted()
        prior = train_prior(g, split) if mode != "backbone_only" else None
        labels = g.labels if mode != "backbone_only" else None

        def written(name):
            model, log = train(g, split, prior, labels, mode, quick_config(epochs=6))
            save_checkpoint(model, tmp_path / f"{name}.json")
            save_training_log(log, tmp_path / f"{name}.csv")
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "csv")]

        shared = written("shared")
        step = backbone.loss_and_grads
        monkeypatch.setattr(
            backbone, "loss_and_grads", lambda params, batch, fwd=None: step(params, batch)
        )
        assert written("afresh") == shared

    def test_deterministic(self):
        g, split = self.setup_planted()
        prior = train_prior(g, split)
        m1, log1 = train(g, split, prior, g.labels, "ncn", quick_config(epochs=10))
        m2, log2 = train(g, split, prior, g.labels, "ncn", quick_config(epochs=10))
        for name, arr in m1.params.arrays().items():
            assert arr.tobytes() == m2.params.arrays()[name].tobytes()
        assert [r["loss"] for r in log1] == [r["loss"] for r in log2]

    def test_early_stopping_bounds_epochs(self):
        g, split = self.setup_planted()
        config = TrainConfig(
            dim=4, hidden=4, lr=1e-6, momentum=0.0, epochs=200, patience=3, seed=0
        )
        _, log = train(g, split, None, None, "backbone_only", config)
        # learning rate too small to improve validation -> stop after patience
        assert len(log) < 200

    def test_fused_beats_backbone_on_informative_priors(self):
        """Planted two-class graph, inter-class edges dominate: the class
        prior is the dominant signal, so the fused model must score at least
        as well as the structure-only one on validation MRR."""
        g, split = self.setup_planted()
        prior = train_prior(g, split)
        fused, _ = train(g, split, prior, g.labels, "ncn", quick_config())
        plain, _ = train(g, split, None, None, "backbone_only", quick_config())
        g_train = split.train_graph(g)
        fused_scorer = make_scorer(fused, g_train, prior, g.labels)
        score_fused = evaluate_split(fused_scorer, split, "mrr", seed=1, which="valid")
        score_plain = evaluate_split(
            make_scorer(plain, g_train), split, "mrr", seed=1, which="valid"
        )
        assert score_fused.value >= score_plain.value

    def test_mono_labels_give_unit_priors_everywhere(self):
        from classlink.clustering import mono_label
        from classlink.priors import lookup_prior_batch

        g, split = self.setup_planted()
        labels = mono_label(g.n_nodes).labels
        prior = count_class_links(split.train_edges, labels, 1)
        pairs = np.concatenate([split.test_edges, split.test_negatives])
        feats = lookup_prior_batch(prior, labels, pairs)
        assert np.all(feats == 1.0)

    def test_ncnc_trains_and_carries_completion(self):
        g, split = self.setup_planted()
        prior = train_prior(g, split)
        model, log = train(g, split, prior, g.labels, "ncnc", quick_config(epochs=8))
        assert model.completion is not None
        assert model.mode == "ncnc"
        scorer = make_scorer(model, split.train_graph(g), prior, g.labels)
        probs = scorer(split.test_edges[:5])
        assert np.all((probs > 0) & (probs < 1))

    def test_unknown_mode_rejected(self):
        g, split = self.setup_planted()
        with pytest.raises(ConfigurationError, match="mode"):
            train(g, split, train_prior(g, split), g.labels, "gat", quick_config())

    def test_priors_require_labels(self):
        g, split = self.setup_planted()
        with pytest.raises(ConfigurationError, match="label source"):
            train(g, split, None, None, "ncn", quick_config())

    def test_featureless_graph_rejected(self):
        rng = np.random.default_rng(1204)
        g = build_graph(30, random_edges(rng, 30, 0.3), labels=np.zeros(30, int))
        split = split_edges(g, (0.7, 0.15, 0.15), seed=0, negatives=20)
        with pytest.raises(ConfigurationError, match="features"):
            train(g, split, train_prior(g, split), g.labels, "ncn", quick_config())

    def test_training_holds_no_dense_feature_matrix(self):
        """1000 nodes, 10 000 features, about 10 stored entries per row: a
        dense ``S X`` alone would take 80 MB.  ``hidden`` is small too, so the
        per-pair fusion arrays stay far below the bound."""
        rng = np.random.default_rng(1216)
        n, width = 1000, 10_000
        rows = np.repeat(np.arange(n), 10)
        feats = sp.csr_matrix(
            (np.ones(rows.size), (rows, rng.integers(0, width, size=rows.size))),
            shape=(n, width),
        )
        g = build_graph(
            n,
            rng.integers(0, n, size=(4000, 2)),
            features=feats,
            labels=rng.integers(0, 4, size=n),
        )
        split = split_edges(g, (0.8, 0.1, 0.1), seed=0, negatives=200)
        prior = train_prior(g, split)
        tracemalloc.start()
        try:
            config = TrainConfig(dim=8, hidden=8, epochs=2, seed=0)
            train(g, split, prior, g.labels, "ncn", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    def test_epoch_intermediates_do_not_outlive_their_epoch(self):
        """Peak memory of ncnc training does not grow with the epoch count:
        one epoch's batch and gradients are gone before the next epoch
        builds its negative batch, and of its forward pass only the one
        that the next step reuses is kept."""
        rng = np.random.default_rng(1218)
        n = 200
        g = build_graph(
            n,
            rng.integers(0, n, size=(1600, 2)),
            features=rng.standard_normal((n, 20)),
            labels=rng.integers(0, 4, size=n),
        )
        split = split_edges(g, (0.8, 0.1, 0.1), seed=0, negatives=100)
        prior = train_prior(g, split)

        def peak(epochs):
            tracemalloc.start()
            try:
                config = TrainConfig(epochs=epochs, patience=epochs, seed=0)
                _, log = train(g, split, prior, g.labels, "ncnc", config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(log) == epochs
            return peak

        one, three = peak(1), peak(3)
        assert three <= 1.05 * one, (one, three)

    def test_config_validation(self):
        for lr in (0.0, float("nan"), float("inf")):  # NaN passes `lr <= 0`
            with pytest.raises(ConfigurationError, match="learning rate"):
                TrainConfig(lr=lr)
        with pytest.raises(ConfigurationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(dim=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            TrainConfig(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert TrainConfig(seed=np.int64(3)).seed == 3


class TestSigmoid:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(1217)
        scaled = [scale * rng.standard_normal(20_000) for scale in (1.0, 30.0, 1e3)]
        return np.concatenate(scaled + [np.array([np.inf, -np.inf, 0.0, -0.0])])

    def test_matches_scipy_expit(self):
        from scipy.special import expit

        x = self.inputs()
        assert np.abs(_sigmoid(x) - expit(x)).max() <= np.finfo(np.float64).eps
        np.testing.assert_array_equal(_sigmoid(np.array([np.inf, -np.inf])), [1.0, 0.0])

    def test_raises_no_floating_point_error(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            probs = _sigmoid(self.inputs())
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_cli_import_leaves_scipy_special_out(self):
        src = str(Path(classlink.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, classlink.cli; sys.exit('scipy.special' in sys.modules)",
            ],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr or "classlink.cli imported scipy.special"


class TestArtifacts:
    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1205)
        g = planted_two_class(rng, n_per_class=30)
        split = split_edges(g, (0.7, 0.15, 0.15), seed=2, negatives=50)
        model, _ = train(
            g, split, train_prior(g, split), g.labels, "ncn", quick_config(epochs=5)
        )
        save_checkpoint(model, tmp_path / "ckpt.json", config_digest="abc123")
        loaded, digest = load_checkpoint(tmp_path / "ckpt.json")
        assert digest == "abc123"
        for name, arr in model.params.arrays().items():
            assert arr.tobytes() == loaded.params.arrays()[name].tobytes()
        # the run's prior and labels are passed as `classlink evaluate` does
        prior = count_class_links(split.train_edges, g.labels, 2)
        g_train = split.train_graph(g)
        s1 = make_scorer(model, g_train, prior, g.labels)(split.test_edges)
        s2 = make_scorer(loaded, g_train, prior, g.labels)(split.test_edges)
        assert s1.tobytes() == s2.tobytes()

    def test_checkpoint_holds_weights_only(self, tmp_path):
        rng = np.random.default_rng(1205)
        g = planted_two_class(rng, n_per_class=30)
        split = split_edges(g, (0.7, 0.15, 0.15), seed=2, negatives=50)
        model, _ = train(
            g, split, train_prior(g, split), g.labels, "ncnc", quick_config(epochs=3)
        )
        save_checkpoint(model, tmp_path / "ckpt.json")
        payload = read_envelope(tmp_path / "ckpt.json")
        assert "prior_counts" not in payload and "labels" not in payload
        loaded, _ = load_checkpoint(tmp_path / "ckpt.json")
        assert not hasattr(loaded, "prior") and not hasattr(loaded, "labels")
        with pytest.raises(ConfigurationError, match="class prior"):
            make_scorer(loaded, split.train_graph(g))

    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_heldout_edges_do_not_shape_the_checkpoint(self, tmp_path, mode):
        """Training on a graph stripped of its valid/test edges writes the
        same bytes: no held-out edge reaches training, negatives included."""
        g = planted_two_class(np.random.default_rng(1010))
        split = split_edges(g, (0.85, 0.05, 0.10), seed=5)
        stripped = build_graph(
            g.n_nodes, split.train_edges, features=scipy_csr(g, "feature"), labels=g.labels
        )
        for name, graph in (("full", g), ("stripped", stripped)):
            prior = train_prior(graph, split)
            model, _ = train(graph, split, prior, graph.labels, mode, quick_config(epochs=6))
            save_checkpoint(model, tmp_path / f"{name}.json")
        full = (tmp_path / "full.json").read_bytes()
        assert full == (tmp_path / "stripped.json").read_bytes()

    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_dense_and_csr_features_write_the_same_checkpoint(self, tmp_path, mode):
        g = planted_two_class(np.random.default_rng(1011))
        dense = scipy_csr(g, "feature").toarray()
        dense[np.abs(dense) < 0.3] = 0.0
        split = split_edges(g, (0.85, 0.05, 0.10), seed=5)
        prior = train_prior(g, split)
        graphs = {}
        for name, feats in (("dense", dense), ("csr", sp.csr_matrix(dense))):
            graphs[name] = graph = with_features(g, feats)
            model, _ = train(graph, split, prior, graph.labels, mode, quick_config(epochs=6))
            save_checkpoint(model, tmp_path / f"{name}.json")
        for name in ("adj", "feature"):
            for part in ("indptr", "indices", "data"):
                field = f"{name}_{part}"
                a, b = getattr(graphs["dense"], field), getattr(graphs["csr"], field)
                assert a.tobytes() == b.tobytes()
        dense_bytes = (tmp_path / "dense.json").read_bytes()
        assert dense_bytes == (tmp_path / "csr.json").read_bytes()

    def test_training_log_csv(self, tmp_path):
        log = [
            {"epoch": 0, "loss": 0.75, "val_mrr": 0.5, "seconds": 0.01},
            {"epoch": 1, "loss": 0.5, "val_mrr": 0.625, "seconds": 0.01},
        ]
        save_training_log(log, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,val_mrr"
        assert lines[1] == "0,0.75,0.5"


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """README's "Library use" block runs as written on a small written graph."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    write_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    metric, value = capsys.readouterr().out.splitlines()[0].split()
    assert metric == "hr@100" and 0.0 <= float(value) <= 1.0
