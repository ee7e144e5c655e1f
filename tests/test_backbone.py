"""Propagation oracle, hand-derived gradients vs finite differences,
embedding semantics, training behavior, and checkpoints."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from classlink.backbone import (
    BatchBuilder,
    TrainConfig,
    TrainedModel,
    gradient_check,
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
from classlink.priors import build_prior_matrix, count_class_links, lookup_prior_batch

from backbone_oracles import (
    cnc_probability,
    common_neighbor_set,
    fuse_and_predict,
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


def small_instance(seed, use_priors=True, edge_prob=0.35, n=12, n_feats=5):
    """A tiny labeled graph plus a mixed positive/negative pair batch."""
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, edge_prob)
    feats = rng.standard_normal((n, n_feats))
    labels = rng.integers(0, 3, size=n)
    g = build_graph(n, edges, features=feats, labels=labels)
    prior = build_prior_matrix(count_class_links(edges, labels, 3)) if use_priors else None
    builder = BatchBuilder.create(
        g, feats, "ncn", prior, labels if use_priors else None
    )
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
            builder = BatchBuilder.create(g, feats, "backbone_only", None, None)
            np.testing.assert_allclose(
                propagate(params, builder.sym, builder.sx)["h"], expect, atol=1e-10
            )
            np.testing.assert_allclose(
                mpnn_forward(g, feats, params), expect, atol=1e-10
            )

    def test_operator_row_behavior(self, path3):
        s = normalized_operator(path3).toarray()
        np.testing.assert_allclose(s, s.T, atol=1e-15)
        # eigenvalues of the normalized operator lie in [-1, 1]
        eig = np.linalg.eigvalsh(s)
        assert eig.max() <= 1.0 + 1e-12 and eig.min() >= -1.0 - 1e-12

    def test_feature_width_mismatch(self, path3):
        params = init_params(3, TrainConfig(dim=2, hidden=2, seed=0), False)
        builder = BatchBuilder.create(path3, np.ones((3, 7)), "backbone_only", None, None)
        with pytest.raises(DimensionError):
            propagate(params, builder.sym, builder.sx)
        with pytest.raises(DimensionError):
            BatchBuilder.create(path3, np.ones((4, 3)), "backbone_only", None, None)


class TestGradients:
    def test_hand_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(6):
            _, params, batch = small_instance(seed)
            worst = max(worst, gradient_check(params, batch))
        assert worst <= 1e-4, worst

    def test_gradients_without_priors(self):
        for seed in (20, 21):
            _, params, batch = small_instance(seed, use_priors=False)
            assert gradient_check(params, batch) <= 1e-4

    def test_gradients_on_sparse_graph_empty_aggregations(self):
        # few edges -> most pairs have no common neighbor (dead branch)
        _, params, batch = small_instance(33, edge_prob=0.08)
        assert gradient_check(params, batch) <= 1e-4

    def test_gradients_in_completion_mode(self):
        rng = np.random.default_rng(1234)
        n = 12
        edges = random_edges(rng, n, 0.35)
        feats = rng.standard_normal((n, 5))
        labels = rng.integers(0, 3, size=n)
        g = build_graph(n, edges, features=feats, labels=labels)
        prior = build_prior_matrix(count_class_links(edges, labels, 3))
        frozen = init_params(5, TrainConfig(dim=4, hidden=3, seed=99), True)
        frozen_builder = BatchBuilder.create(g, feats, "ncn", prior, labels)

        def frozen_scorer(pairs):
            return predict_batch(frozen, frozen_builder.build(pairs))

        builder = BatchBuilder.create(
            g, feats, "ncnc", prior, labels, completion_scorer=frozen_scorer
        )
        raw = rng.integers(0, n, size=(6, 2))
        pairs = raw[raw[:, 0] != raw[:, 1]]
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
            g, feats, _, pairs = incidence_instance(seed)
            inc = BatchBuilder.create(g, feats, "ncn", None, None).build(pairs).incidence
            assert inc.shape == (len(pairs), g.n_nodes)
            for i, (x, y) in enumerate(pairs.tolist()):
                row = slice(inc.indptr[i], inc.indptr[i + 1])
                assert inc.indices[row].tolist() == common_neighbor_set(g, x, y)
                assert inc.data[row].tolist() == [1.0] * (row.stop - row.start)

    def test_ncnc_incidence_matches_cnc_probability(self):
        for seed in range(8):
            g, feats, _, pairs = incidence_instance(seed)
            builder = BatchBuilder.create(
                g, feats, "ncnc", None, None, completion_scorer=fixed_scorer
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
        g, feats, _, pairs = incidence_instance(3)
        calls = []

        def recording(missing):
            calls.append(np.asarray(missing).tolist())
            return fixed_scorer(missing)

        BatchBuilder.create(
            g, feats, "ncnc", None, None, completion_scorer=recording
        ).build(pairs)
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
        g = build_graph(4, np.array([[i, j] for i in range(4) for j in range(i + 1, 4)]))

        def never_called(pairs):  # pragma: no cover - must not be needed
            raise AssertionError("no missing links to complete")

        builder = BatchBuilder.create(
            g, np.ones((4, 2)), "ncnc", None, None, completion_scorer=never_called
        )
        inc = builder.build(np.array([[0, 1], [3, 2]])).incidence
        np.testing.assert_array_equal(inc.toarray(), [[0, 0, 1, 1], [1, 1, 0, 0]])

    def test_out_of_range_pairs_rejected(self, path3):
        builder = BatchBuilder.create(path3, np.ones((3, 2)), "ncn", None, None)
        for bad in ([[0, 3]], [[-1, 2]]):
            with pytest.raises(ConfigurationError, match="out of range"):
                builder.build(np.array(bad))

    def test_cached_scorer_matches_batch_and_pair_oracles(self):
        for seed, mode in ((0, "ncn"), (1, "ncnc"), (2, "backbone_only")):
            g, feats, labels, pairs = incidence_instance(seed)
            rng = np.random.default_rng(100 + seed)
            use_priors = mode != "backbone_only"
            prior = build_prior_matrix(count_class_links(g.undirected_edges(), labels, 3))
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
            scores = make_scorer(model, g, feats)(pairs)

            stage1 = None
            if mode == "ncnc":
                stage1 = make_scorer(
                    TrainedModel(params=completion, mode="ncn", prior=prior, labels=labels),
                    g,
                    feats,
                )
            builder = BatchBuilder.create(
                g,
                feats,
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
        _, log = train(g, split, g.labels, "ncn", quick_config())
        first = np.mean([row["loss"] for row in log[:3]])
        last = np.mean([row["loss"] for row in log[-3:]])
        assert last < first

    def test_deterministic(self):
        g, split = self.setup_planted()
        m1, log1 = train(g, split, g.labels, "ncn", quick_config(epochs=10))
        m2, log2 = train(g, split, g.labels, "ncn", quick_config(epochs=10))
        for name, arr in m1.params.arrays().items():
            assert arr.tobytes() == m2.params.arrays()[name].tobytes()
        assert [r["loss"] for r in log1] == [r["loss"] for r in log2]

    def test_early_stopping_bounds_epochs(self):
        g, split = self.setup_planted()
        config = TrainConfig(
            dim=4, hidden=4, lr=1e-6, momentum=0.0, epochs=200, patience=3, seed=0
        )
        _, log = train(g, split, g.labels, "backbone_only", config)
        # learning rate too small to improve validation -> stop after patience
        assert len(log) < 200

    def test_fused_beats_backbone_on_informative_priors(self):
        """Planted two-class graph, inter-class edges dominate: the class
        prior is the dominant signal, so the fused model must score at least
        as well as the structure-only one on validation MRR."""
        g, split = self.setup_planted()
        fused, _ = train(g, split, g.labels, "ncn", quick_config())
        plain, _ = train(g, split, g.labels, "backbone_only", quick_config())
        g_train = split.train_graph(g)
        score_fused = evaluate_split(
            make_scorer(fused, g_train, g.features), split, "mrr", seed=1, which="valid"
        )
        score_plain = evaluate_split(
            make_scorer(plain, g_train, g.features), split, "mrr", seed=1, which="valid"
        )
        assert score_fused.value >= score_plain.value

    def test_mono_labels_give_unit_priors_everywhere(self):
        from classlink.clustering import mono_label
        from classlink.priors import lookup_prior_batch

        g, split = self.setup_planted()
        labels = mono_label(g.n_nodes).labels
        prior = build_prior_matrix(count_class_links(split.train_edges, labels, 1))
        pairs = np.concatenate([split.test_edges, split.test_negatives])
        feats = lookup_prior_batch(prior, labels, pairs)
        assert np.all(feats == 1.0)

    def test_ncnc_trains_and_carries_completion(self):
        g, split = self.setup_planted()
        model, log = train(g, split, g.labels, "ncnc", quick_config(epochs=8))
        assert model.completion is not None
        assert model.mode == "ncnc"
        scorer = make_scorer(model, split.train_graph(g), g.features)
        probs = scorer(split.test_edges[:5])
        assert np.all((probs > 0) & (probs < 1))

    def test_unknown_mode_rejected(self):
        g, split = self.setup_planted()
        with pytest.raises(ConfigurationError, match="mode"):
            train(g, split, g.labels, "gat", quick_config())

    def test_priors_require_labels(self):
        g, split = self.setup_planted()
        with pytest.raises(ConfigurationError, match="label source"):
            train(g, split, None, "ncn", quick_config())

    def test_featureless_graph_rejected(self):
        rng = np.random.default_rng(1204)
        g = build_graph(30, random_edges(rng, 30, 0.3), labels=np.zeros(30, int))
        split = split_edges(g, (0.7, 0.15, 0.15), seed=0, negatives=20)
        with pytest.raises(ConfigurationError, match="features"):
            train(g, split, g.labels, "ncn", quick_config())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(dim=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)


class TestArtifacts:
    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1205)
        g = planted_two_class(rng, n_per_class=30)
        split = split_edges(g, (0.7, 0.15, 0.15), seed=2, negatives=50)
        model, _ = train(g, split, g.labels, "ncn", quick_config(epochs=5))
        save_checkpoint(model, tmp_path / "ckpt.json", config_digest="abc123")
        loaded, digest = load_checkpoint(tmp_path / "ckpt.json")
        assert digest == "abc123"
        for name, arr in model.params.arrays().items():
            assert arr.tobytes() == loaded.params.arrays()[name].tobytes()
        g_train = split.train_graph(g)
        s1 = make_scorer(model, g_train, g.features)(split.test_edges)
        s2 = make_scorer(loaded, g_train, g.features)(split.test_edges)
        assert s1.tobytes() == s2.tobytes()

    def test_training_log_csv(self, tmp_path):
        log = [
            {"epoch": 0, "loss": 0.75, "val_mrr": 0.5, "seconds": 0.01},
            {"epoch": 1, "loss": 0.5, "val_mrr": 0.625, "seconds": 0.01},
        ]
        save_training_log(log, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,val_mrr"
        assert lines[1] == "0,0.75,0.5"
