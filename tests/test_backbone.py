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
    _sigmoid,
    backward,
    forward_loss,
    init_params,
    load_checkpoint,
    make_scorer,
    normalized_operator,
    predict_batch,
    propagate,
    save_checkpoint,
    save_training_log,
    train,
)
from classlink.errors import ConfigurationError, DimensionError
from classlink.evaluation import evaluate_split, mrr
from classlink.graph import build_graph, split_edges
from classlink.priors import count_class_links, lookup_prior_batch

from backbone_oracles import (
    cnc_probability,
    common_neighbor_set,
    dense_pass,
    fuse_and_predict,
    gradient_check,
    mpnn_forward,
    ncn_embed,
    ncnc_embed,
)
from conftest import planted_two_class, random_edges
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
    x = g.features
    assert x.indptr[4] == x.indptr[5] and 6 not in x.indices
    zeros = x.data[x.data == 0.0]
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
                return predict_batch(frozen, frozen_builder.build(pairs))

        builder = BatchBuilder.create(g, mode, prior, labels, completion)
        assert builder.x is g.features
        rng = np.random.default_rng(1214)
        raw = rng.integers(0, g.n_nodes, size=(20, 2))
        pairs = raw[raw[:, 0] != raw[:, 1]]
        ragged_chunks(len(pairs))
        batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))
        params = init_params(9, TrainConfig(dim=4, hidden=3, seed=7), use_priors)

        expect = dense_pass(params, batch)
        _, cache = forward_loss(params, batch)  # z1 and h come from propagate
        got = dict(z1=cache["z1"], h=cache["h"], w1=backward(params, batch, cache)["w1"])
        for name, want in expect.items():
            np.testing.assert_allclose(
                got[name], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name
            )
        assert not got["w1"][6].any()

    def test_operator_row_behavior(self, path3):
        s = normalized_operator(path3).toarray()
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
            return predict_batch(frozen, frozen_builder.build(pairs))

        builder = BatchBuilder.create(
            g, "ncnc", prior, labels, completion_scorer=frozen_scorer
        )
        raw = rng.integers(0, n, size=(6, 2))
        pairs = raw[raw[:, 0] != raw[:, 1]]
        ragged_chunks(len(pairs))
        batch = builder.build(pairs, rng.integers(0, 2, size=len(pairs)).astype(float))
        params = init_params(5, TrainConfig(dim=4, hidden=3, seed=7), True)
        assert gradient_check(params, batch) <= 1e-4

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
            inc = builder.build(pairs).incidence
            assert inc.has_sorted_indices
            expect = np.zeros((len(pairs), g.n_nodes))
            for i, (x, y) in enumerate(pairs.tolist()):
                for u in range(g.n_nodes):
                    if u not in (x, y):
                        expect[i, u] = cnc_probability(g, fixed_scorer, x, y, u)
            np.testing.assert_array_equal(inc.toarray() != 0, expect != 0)
            np.testing.assert_array_equal(inc.toarray(), expect)

    def test_ncnc_requests_missing_links_in_pair_then_node_order(self):
        g, _, _, pairs = incidence_instance(3)
        calls = []

        def recording(missing):
            calls.append(np.asarray(missing).tolist())
            return fixed_scorer(missing)

        BatchBuilder.create(g, "ncnc", None, None, completion_scorer=recording).build(pairs)
        expect = []
        for x, y in pairs.tolist():
            nx, ny = set(g.neighbors(x).tolist()), set(g.neighbors(y).tolist())
            for u in sorted((nx | ny) - {x, y}):
                if u in nx and u not in ny:
                    expect.append([y, u])
                elif u in ny and u not in nx:
                    expect.append([x, u])
        assert calls == [expect]

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
        inc = builder.build(np.array([[0, 1], [3, 2]])).incidence
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
                prior=prior,
                labels=labels,
                completion=completion if mode == "ncnc" else None,
            )
            scores = make_scorer(model, g)(pairs)

            stage1 = None
            if mode == "ncnc":
                stage1 = make_scorer(
                    TrainedModel(params=completion, mode="ncn", prior=prior, labels=labels),
                    g,
                )
            builder = BatchBuilder.create(
                g,
                mode,
                prior if use_priors else None,
                labels if use_priors else None,
                completion_scorer=stage1,
            )
            np.testing.assert_allclose(
                scores, predict_batch(params, builder.build(pairs)), rtol=0, atol=1e-12
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
            return predict_batch(frozen, frozen_builder.build(missing))

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
            one = predict_batch(params, batch)
            for size in (64, 128):
                monkeypatch.setattr(backbone, "HEAD_CHUNK", size)
                assert predict_batch(params, batch).tobytes() == one.tobytes(), (m, size)

    def test_head_memory_does_not_grow_with_the_pair_count(self):
        """From 4 to 8 chunks of pairs, the peak memory that
        ``forward_loss`` + ``backward`` and ``predict_batch`` add grows by no
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

            def fit():
                backward(params, batch, forward_loss(params, batch)[1])

            return peak_rise(fit), peak_rise(lambda: predict_batch(params, batch))

        (fit4, predict4), (fit8, predict8) = rises(4), rises(8)
        allowance = 3 * 8 * 4 * backbone.HEAD_CHUNK + 4096
        assert fit8 - fit4 <= allowance, (fit4, fit8)
        assert predict8 - predict4 <= allowance, (predict4, predict8)


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
        fused, _ = train(g, split, train_prior(g, split), g.labels, "ncn", quick_config())
        plain, _ = train(g, split, None, None, "backbone_only", quick_config())
        g_train = split.train_graph(g)
        score_fused = evaluate_split(
            make_scorer(fused, g_train), split, "mrr", seed=1, which="valid"
        )
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
        model, log = train(
            g, split, train_prior(g, split), g.labels, "ncnc", quick_config(epochs=8)
        )
        assert model.completion is not None
        assert model.mode == "ncnc"
        scorer = make_scorer(model, split.train_graph(g))
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
        one epoch's forward cache and gradients are gone before the next
        epoch builds its negative batch."""
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
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0)
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
        # the run's prior and labels are attached as `classlink evaluate` does
        loaded.prior = count_class_links(split.train_edges, g.labels, 2)
        loaded.labels = g.labels
        g_train = split.train_graph(g)
        s1 = make_scorer(model, g_train)(split.test_edges)
        s2 = make_scorer(loaded, g_train)(split.test_edges)
        assert s1.tobytes() == s2.tobytes()

    def test_checkpoint_holds_weights_only(self, tmp_path):
        rng = np.random.default_rng(1205)
        g = planted_two_class(rng, n_per_class=30)
        split = split_edges(g, (0.7, 0.15, 0.15), seed=2, negatives=50)
        model, _ = train(
            g, split, train_prior(g, split), g.labels, "ncnc", quick_config(epochs=3)
        )
        save_checkpoint(model, tmp_path / "ckpt.json")
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert "prior_counts" not in payload and "labels" not in payload
        loaded, _ = load_checkpoint(tmp_path / "ckpt.json")
        assert loaded.prior is None and loaded.labels is None
        scorer = make_scorer(loaded, split.train_graph(g))
        with pytest.raises(ConfigurationError, match="lacks prior features"):
            scorer(split.test_edges)

    @pytest.mark.parametrize("mode", ["ncn", "ncnc"])
    def test_heldout_edges_do_not_shape_the_checkpoint(self, tmp_path, mode):
        """Training on a graph stripped of its valid/test edges writes the
        same bytes: no held-out edge reaches training, negatives included."""
        g = planted_two_class(np.random.default_rng(1010))
        split = split_edges(g, (0.85, 0.05, 0.10), seed=5)
        stripped = build_graph(
            g.n_nodes, split.train_edges, features=g.features, labels=g.labels
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
        dense = g.features.toarray()
        dense[np.abs(dense) < 0.3] = 0.0
        split = split_edges(g, (0.85, 0.05, 0.10), seed=5)
        prior = train_prior(g, split)
        graphs = {}
        for name, feats in (("dense", dense), ("csr", sp.csr_matrix(dense))):
            graphs[name] = graph = with_features(g, feats)
            model, _ = train(graph, split, prior, graph.labels, mode, quick_config(epochs=6))
            save_checkpoint(model, tmp_path / f"{name}.json")
        for name in ("adj", "features"):
            a, b = getattr(graphs["dense"], name), getattr(graphs["csr"], name)
            for part in ("indptr", "indices", "data"):
                assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
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
