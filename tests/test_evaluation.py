"""Ranking metrics against sort-based oracles; report artifacts; bench."""

from __future__ import annotations

import json

import numpy as np
import pytest

from classlink.errors import ConfigurationError, NumericError
from classlink.evaluation import (
    EvalReport,
    compute_metric,
    draw_per_edge_pools,
    evaluate_split,
    hr_at_k,
    mrr,
    parse_metric,
    rank_positive,
    save_report,
)
from classlink.graph import build_graph, split_edges
from classlink.heuristics import make_heuristic_scorer
from classlink.rand import STREAM_EVAL

from conftest import random_edges
from prior_bench import bench_prior_runtime
from test_graph import oracle_sample_pools


def oracle_rank(pos: float, negs) -> int:
    """Sort-based midpoint rank: average of best and worst tie positions."""
    negs = list(negs)
    ordered = sorted(negs + [pos], reverse=True)
    first = ordered.index(pos) + 1  # best position the positive could take
    last = len(ordered) - ordered[::-1].index(pos)  # worst position
    # positions occupied by the tie group, midpoint rounded down
    return (first + last) // 2


class TestRankPositive:
    def test_all_ties_midpoint(self):
        assert rank_positive(0.5, np.array([0.5, 0.5])) == 2

    def test_constant_scorer_pool_99(self):
        ranks = np.array([rank_positive(1.0, np.ones(99))])
        assert ranks[0] == 50
        assert hr_at_k(ranks, 100) == 1.0
        assert hr_at_k(ranks, 10) == 0.0

    def test_strict_orderings(self):
        assert rank_positive(10.0, np.array([1.0, 2.0, 3.0])) == 1
        assert rank_positive(0.0, np.array([1.0, 2.0, 3.0])) == 4

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(1101)
        for _ in range(300):
            # coarse grid forces plenty of exact ties
            pool = rng.integers(0, 5, size=int(rng.integers(1, 40))) / 4.0
            pos = float(rng.integers(0, 5)) / 4.0
            assert rank_positive(pos, pool) == oracle_rank(pos, pool.tolist())

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            rank_positive(float("nan"), np.array([1.0]))
        with pytest.raises(NumericError):
            rank_positive(1.0, np.array([np.inf]))
        with pytest.raises(NumericError):
            rank_positive(np.array([1.0, np.nan]), np.array([[1.0], [2.0]]))

    def test_vectorised_forms_match_sort_oracle_with_ties(self):
        rng = np.random.default_rng(1102)
        for _ in range(100):
            n_pos, n_neg = int(rng.integers(1, 30)), int(rng.integers(1, 40))
            pos = rng.integers(0, 5, size=n_pos) / 4.0
            shared = rng.integers(0, 5, size=n_neg) / 4.0
            per_edge = rng.integers(0, 5, size=(n_pos, n_neg)) / 4.0
            assert rank_positive(pos, shared).tolist() == [
                oracle_rank(float(p), shared.tolist()) for p in pos
            ]
            assert rank_positive(pos, per_edge).tolist() == [
                oracle_rank(float(p), row.tolist()) for p, row in zip(pos, per_edge)
            ]


class TestMetrics:
    def test_mrr_frozen(self):
        assert mrr(np.array([1, 2, 4])) == pytest.approx(7.0 / 12.0)

    def test_mrr_perfect(self):
        assert mrr(np.ones(5)) == 1.0

    def test_hr_frozen(self):
        assert hr_at_k(np.array([1, 5, 20]), 10) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mrr(np.array([]))
        with pytest.raises(ConfigurationError):
            hr_at_k(np.array([]), 10)
        with pytest.raises(ConfigurationError):
            hr_at_k(np.array([1]), 0)

    def test_parse_metric(self):
        assert parse_metric("mrr") == ("mrr", None)
        assert parse_metric("hr@100") == ("hr", 100)
        assert parse_metric("HR@10") == ("hr", 10)
        with pytest.raises(ConfigurationError):
            parse_metric("auc")
        with pytest.raises(ConfigurationError):
            parse_metric("hr@zero")

    def test_compute_metric(self):
        ranks = np.array([1, 2, 4])
        assert compute_metric("mrr", ranks) == pytest.approx(7.0 / 12.0)
        assert compute_metric("hr@2", ranks) == pytest.approx(2.0 / 3.0)


def make_split(seed=2, n=40, p=0.25, negatives=30):
    rng = np.random.default_rng(seed)
    g = build_graph(n, random_edges(rng, n, p))
    split = split_edges(g, (0.6, 0.2, 0.2), seed=seed, negatives=negatives)
    return g, split


class TestEvaluateSplit:
    def test_matches_manual_oracle(self):
        g, split = make_split()
        scorer = make_heuristic_scorer("ra", split.train_graph(g))
        report = evaluate_split(scorer, split, "mrr", seed=5)
        pos_scores = scorer(split.test_edges)
        neg_scores = scorer(split.test_negatives)
        expect = [oracle_rank(float(s), neg_scores.tolist()) for s in pos_scores]
        np.testing.assert_array_equal(report.ranks, expect)
        assert report.value == pytest.approx(
            float(np.mean([1.0 / r for r in expect]))
        )
        assert report.n_negatives == len(split.test_negatives)
        assert report.positive_scores.tolist() == pos_scores.tolist()
        assert report.negative_scores.tolist() == neg_scores.tolist()

    def test_valid_part(self):
        g, split = make_split()
        scorer = make_heuristic_scorer("cn", split.train_graph(g))
        report = evaluate_split(scorer, split, "hr@10", seed=5, which="valid")
        assert report.ranks.size == len(split.valid_edges)
        with pytest.raises(ConfigurationError):
            evaluate_split(scorer, split, "hr@10", seed=5, which="train")

    def test_deterministic(self):
        g, split = make_split()
        scorer = make_heuristic_scorer("aa", split.train_graph(g))
        a = evaluate_split(scorer, split, "mrr", seed=7)
        b = evaluate_split(scorer, split, "mrr", seed=7)
        np.testing.assert_array_equal(a.ranks, b.ranks)
        assert a.value == b.value

    def test_per_edge_negatives(self):
        g, split = make_split(negatives=10)
        scorer = make_heuristic_scorer("cn", split.train_graph(g))
        pools = draw_per_edge_pools(g, len(split.test_edges), 15, 3)
        a = evaluate_split(scorer, split, "mrr", seed=3, pools=pools)
        b = evaluate_split(
            scorer, split, "mrr", seed=3,
            pools=draw_per_edge_pools(g, len(split.test_edges), 15, 3),
        )
        assert a.n_negatives == 15
        np.testing.assert_array_equal(a.ranks, b.ranks)
        pos_scores = scorer(split.test_edges)
        oracle_pools = oracle_sample_pools(g, 15, len(pos_scores), (3, STREAM_EVAL))
        expect = [
            oracle_rank(float(s), scorer(pool).tolist())
            for s, pool in zip(pos_scores, oracle_pools)
        ]
        assert a.ranks.tolist() == expect
        assert a.positive_scores.tolist() == pos_scores.tolist()
        assert a.negative_scores is None
        # one pool per positive, or the pools belong to another part
        with pytest.raises(ConfigurationError, match="per-edge pools"):
            evaluate_split(scorer, split, "mrr", seed=3, pools=pools[:-1])

    def test_per_edge_pools_equal_per_positive_oracle_pools(self):
        """Positive ``i`` is ranked against pool ``i`` of the oracle's draw of
        every pool from the one stream ``(seed, STREAM_EVAL)``."""
        g, split = make_split(negatives=10)
        calls = []

        def recording(pairs):
            calls.append(np.asarray(pairs).copy())
            return np.zeros(len(pairs))

        drawn = draw_per_edge_pools(g, len(split.test_edges), 15, 3)
        evaluate_split(recording, split, "mrr", seed=3, pools=drawn)
        positives, pools = calls
        np.testing.assert_array_equal(positives, split.test_edges)
        expect = oracle_sample_pools(g, 15, len(split.test_edges), (3, STREAM_EVAL))
        np.testing.assert_array_equal(pools, expect.reshape(-1, 2))

    @pytest.mark.parametrize("seed", [2**63, 2**64 + 5])
    def test_per_edge_pools_of_a_root_seed_beyond_int64(self, seed):
        g, split = make_split(negatives=10)
        calls = []

        def recording(pairs):
            calls.append(np.asarray(pairs).copy())
            return np.zeros(len(pairs))

        pools = draw_per_edge_pools(g, len(split.test_edges), 15, seed)
        report = evaluate_split(recording, split, "mrr", seed=seed, pools=pools)
        assert report.seed == seed
        expect = oracle_sample_pools(g, 15, len(split.test_edges), (seed, STREAM_EVAL))
        np.testing.assert_array_equal(calls[1], expect.reshape(-1, 2))

    def test_shared_pool_samples_nothing(self):
        g, split = make_split()
        report = evaluate_split(make_heuristic_scorer("cn", g), split, "mrr", seed=1)
        assert report.timings["sampling_s"] == 0.0
        assert set(report.timings) == {"sampling_s", "scoring_s", "ranking_s"}

    def test_scorer_failure_wrapped_with_context(self):
        g, split = make_split()

        def broken(pairs):
            raise RuntimeError("boom")

        with pytest.raises(NumericError, match="boom"):
            evaluate_split(broken, split, "mrr", seed=1)

    def test_non_finite_scores_rejected(self):
        g, split = make_split()

        def nan_scorer(pairs):
            return np.full(len(pairs), np.nan)

        with pytest.raises(NumericError, match="non-finite"):
            evaluate_split(nan_scorer, split, "mrr", seed=1)

    def test_wrong_shape_rejected(self):
        g, split = make_split()

        def bad_shape(pairs):
            return np.zeros((len(pairs), 2))

        with pytest.raises(NumericError, match="shape"):
            evaluate_split(bad_shape, split, "mrr", seed=1)


class TestReportArtifacts:
    def test_report_files_byte_identical_across_runs(self, tmp_path):
        g, split = make_split()
        scorer = make_heuristic_scorer("cn", split.train_graph(g))
        blobs = {}
        for run in ("a", "b"):
            report = evaluate_split(scorer, split, "hr@10", seed=9)
            paths = save_report(
                report,
                tmp_path / run,
                config_digest="cafebabe",
                positives=split.test_edges,
            )
            blobs[run] = (
                paths["report"].read_bytes(),
                paths["ranks"].read_bytes(),
            )
        assert blobs["a"] == blobs["b"]

    def test_report_content(self, tmp_path):
        report = EvalReport(
            metric="hr@10",
            value=0.5,
            ranks=np.array([1, 20]),
            n_negatives=30,
            seed=4,
            timings={"scoring_s": 0.1, "ranking_s": 0.2},
        )
        paths = save_report(
            report,
            tmp_path,
            config_digest="d1gest",
            positives=np.array([[0, 1], [2, 3]]),
            scores={"pos": (np.array([[0, 1]]), np.array([2.5]))},
        )
        payload = json.loads(paths["report"].read_text())
        assert payload["metric"] == "hr@10"
        assert payload["value"] == 0.5
        assert payload["seed"] == 4
        assert payload["config_digest"] == "d1gest"
        assert paths["ranks"].read_text() == "0,1,1\n2,3,20\n"
        assert paths["scores"].read_text() == "0,1,pos,2.5\n"
        timings = json.loads(paths["timings"].read_text())
        assert timings["scoring_s"] == 0.1

    def test_csv_rows_match_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(12)
        pairs = rng.integers(0, 10**6, size=(40, 2))
        values = np.concatenate(
            [[0.1, 1 / 3, -0.0, 1e-300, 2.5e20, 7.0, 1e16], rng.standard_normal(33)]
        )
        ranks = rng.integers(1, 10**5, size=40)
        report = EvalReport("mrr", 0.1, ranks, 5, 0, {})
        paths = save_report(
            report,
            tmp_path,
            config_digest="d",
            positives=pairs,
            scores={"positive": (pairs, values), "negative": (pairs[:3], values[:3])},
        )
        ranks_csv = "".join(f"{u},{v},{r}\n" for (u, v), r in zip(pairs.tolist(), ranks.tolist()))
        assert paths["ranks"].read_text() == ranks_csv
        scores_csv = "".join(
            f"{u},{v},{label},{format(float(x), '.17g')}\n"
            for label, n in (("positive", 40), ("negative", 3))
            for (u, v), x in zip(pairs[:n].tolist(), values[:n].tolist())
        )
        assert paths["scores"].read_text() == scores_csv
        bare = save_report(report, tmp_path / "bare", config_digest="d")
        assert bare["ranks"].read_text() == "".join(f"{r}\n" for r in ranks.tolist())


class TestBench:
    def test_linear_fit_fields(self):
        result = bench_prior_runtime([1000, 2000, 4000], seed=0, repeats=1)
        assert [r[0] for r in result["rows"]] == [1000, 2000, 4000]
        assert all(sec >= 0 for _, sec in result["rows"])
        assert -1.0 <= result["r_squared"] <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bench_prior_runtime([1000], seed=0)
        with pytest.raises(ConfigurationError):
            bench_prior_runtime([0, 10], seed=0)
