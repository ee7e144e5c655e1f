"""The pair path every scorer shares: one id check, one chunk rule and one
chunked scorer (``classlink.graph``), and the scorers built on them."""

from __future__ import annotations

import numpy as np
import pytest

from classlink import backbone, heuristics
from classlink.backbone import BatchBuilder, TrainConfig, TrainedModel, init_params
from classlink.errors import ConfigurationError
from classlink.graph import build_graph, check_pairs, pair_chunks
from classlink.heuristics import ClassHeuristicParams, make_heuristic_scorer
from classlink.priors import count_class_links, lookup_prior_batch

from conftest import random_edges

SCORERS = ("cn", "aa", "ra", "katz", "hc", "ncn", "ncnc", "backbone_only")


class TestPairChunks:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_chunks_cover_every_pair_in_order(self, size):
        """The chunks tile ``[0, m)`` in order; only ``m = 1`` gives a one-row
        chunk, ``m = 0`` gives one empty chunk, and no chunk exceeds
        ``size`` except the one that takes a one-pair rest."""
        for m in range(3 * size + 3):
            chunks = list(pair_chunks(m, size))
            assert chunks[0].start == 0 and chunks[-1].stop == m, m
            for before, after in zip(chunks, chunks[1:]):
                assert before.stop == after.start, m
            lengths = [c.stop - c.start for c in chunks]
            assert (1 in lengths) == (m == 1), (m, lengths)
            assert lengths == [0] if m == 0 else all(lengths), (m, lengths)
            assert all(n <= size for n in lengths[:-1]), (m, lengths)
            assert lengths[-1] <= size + 1, (m, lengths)
            assert all(c.step is None for c in chunks)


class TestCheckPairs:
    def test_int_pairs_pass_as_int64_without_a_copy(self):
        pairs = np.array([[0, 3], [2, 1]], dtype=np.int64)
        checked = check_pairs(pairs, 4)
        assert checked.dtype == np.int64 and np.shares_memory(checked, pairs)

    def test_integral_floats_and_empty_batches_pass(self):
        checked = check_pairs(np.array([[2.0, 0.0], [1.0, 3.0]]), 4)
        assert checked.dtype == np.int64 and checked.tolist() == [[2, 0], [1, 3]]
        assert check_pairs(np.empty((0, 2)), 4).shape == (0, 2)
        assert check_pairs(np.empty((0, 2)), 0).shape == (0, 2)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[0, 1], [0.5, 1]], "node id 0.5 is not an integer"),
            ([[1, 2], [3, -1.5]], "node id -1.5 is not an integer"),
            ([[1, 2.25], [7, 1]], "node id 2.25 is not an integer"),
            ([[np.nan, 1]], "node id nan is not an integer"),
            ([[0, np.inf]], "node id inf is not an integer"),
            ([[0, 1], [2, 4], [-1, 0]], r"node id 4 out of range \[0, 4\)"),
            ([[5, -1]], "node id 5 out of range"),
            ([[2.0, -1.0]], r"node id -1.0 out of range"),
        ],
    )
    def test_first_bad_id_in_pair_order_is_named(self, pairs, message):
        with pytest.raises(ConfigurationError, match=message):
            check_pairs(np.array(pairs), 4)

    def test_ids_beyond_int64_are_out_of_range(self):
        pairs = np.array([[0, 2**64 - 1]], dtype=np.uint64)
        with pytest.raises(ConfigurationError, match=f"node id {2**64 - 1} out of range"):
            check_pairs(pairs, 4)


class TestLookupPriorBatch:
    def test_out_of_range_ids_are_config_errors(self):
        labels = np.array([0, 1, 0, 1])
        prior = count_class_links(np.array([[0, 1], [1, 2], [2, 3]]), labels, 2)
        with pytest.raises(ConfigurationError, match="node id -1 out of range"):
            lookup_prior_batch(prior, labels, np.array([[-1, 2]]))
        with pytest.raises(ConfigurationError, match="node id 7 out of range"):
            lookup_prior_batch(prior, labels, np.array([[0, 7]]))
        with pytest.raises(ConfigurationError, match="node id 0.5 is not an integer"):
            lookup_prior_batch(prior, labels, np.array([[0.5, 1]]))


class TestCountClassLinks:
    def test_out_of_range_ids_are_config_errors(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ConfigurationError, match=r"node id -1 out of range \[0, 4\)"):
            count_class_links(np.array([[-1, 2]]), labels, 2)
        with pytest.raises(ConfigurationError, match=r"node id 7 out of range \[0, 4\)"):
            count_class_links(np.array([[0, 1], [0, 7]]), labels, 2)
        with pytest.raises(ConfigurationError, match="node id 0.5 is not an integer"):
            count_class_links(np.array([[0.5, 1]]), labels, 2)


def eight_scorers(n=12):
    """Every scorer kind over one labeled graph with features: the four
    structural heuristics, ``hc`` with local normalization, and a model of
    each backbone mode (untrained weights)."""
    rng = np.random.default_rng(1301)
    labels = rng.integers(0, 3, size=n)
    g = build_graph(
        n, random_edges(rng, n, 0.5), features=rng.standard_normal((n, 4)), labels=labels
    )
    prior = count_class_links(g.undirected_edges(), labels, 3)
    params = ClassHeuristicParams(normalize_locally=True)
    scorers = {name: make_heuristic_scorer(name, g) for name in SCORERS[:4]}
    scorers["hc"] = make_heuristic_scorer(
        "hc", g, prior=prior, labels=labels, params=params, base="ra"
    )
    config = TrainConfig(dim=4, hidden=3, seed=5)
    for mode in backbone.MODES:
        use_priors = mode != "backbone_only"
        weights = init_params(4, config, use_priors)
        completion = init_params(4, config, True) if mode == "ncnc" else None
        model = TrainedModel(weights, mode, completion)
        scorers[mode] = backbone.make_scorer(model, g, prior, labels)
    return g, scorers


class TestOnePairPath:
    @pytest.mark.parametrize("name", SCORERS)
    def test_first_bad_id_is_named_before_any_chunk_is_scored(self, monkeypatch, name):
        """Chunks of 3 pairs: the first bad id, in pair order, is named even
        when it sits in a later chunk, and a model scorer raises before it
        builds any batch."""
        g, scorers = eight_scorers()
        n = g.n_nodes
        monkeypatch.setattr(heuristics, "_CHUNK", 3)
        monkeypatch.setattr(backbone, "HEAD_CHUNK", 3)
        scorer = scorers[name]
        valid = np.array([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [1, 0]])
        assert np.isfinite(scorer(valid)).all()
        builds = []
        build = BatchBuilder.build

        def counting(self, pairs, targets=None):
            builds.append(len(pairs))
            return build(self, pairs, targets)

        monkeypatch.setattr(BatchBuilder, "build", counting)
        cases = [
            (np.concatenate([valid, [[1, n + 2], [-1, n + 9]]]), f"node id {n + 2} "),
            (np.concatenate([valid, [[n + 4, -2]]]), f"node id {n + 4} "),
            (np.concatenate([valid, [[-3, 0]], valid]), "node id -3 "),
            (np.concatenate([valid, [[1, 2.5]], [[n, 0]]]), "node id 2.5 is not"),
        ]
        for pairs, message in cases:
            with pytest.raises(ConfigurationError, match=message):
                scorer(pairs)
        assert builds == []
