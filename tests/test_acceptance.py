"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Criteria 7-9 need the real citation benchmark under ``data/cora/``; when the
files are absent those tests fail with a diagnostic naming exactly what to
provision (see scripts/prepare_cora.py).  Everything else runs on synthetic
data with independent oracles implemented in this file.
"""

import bisect
import math
import time

import numpy as np
import pytest

from classlink.backbone import TrainConfig, init_params, make_scorer, train
from classlink.backbone import BatchBuilder
from classlink.clustering import aggregate_features, elbow_kmeans, kmeans, louvain
from classlink.evaluation import bench_prior_runtime, evaluate_split
from classlink.graph import build_graph, load_graph, split_edges
from classlink.heuristics import GammaDecayConfig, make_heuristic_scorer
from classlink.priors import (
    count_class_links,
    lookup_prior_batch,
    save_prior_json,
)

from backbone_oracles import gradient_check
from conftest import CITATION_DIR, citation_files, planted_two_class, random_edges

RATIOS = (0.85, 0.05, 0.10)
EVAL_SEEDS = (0, 1, 2, 3, 4)


def require_citation_dataset() -> dict:
    files = citation_files()
    if files is None:
        pytest.fail(
            "citation benchmark not provisioned: this criterion requires the "
            f"real dataset files {CITATION_DIR}/edges.txt, "
            f"{CITATION_DIR}/features.csv, {CITATION_DIR}/labels.csv "
            "(2708 nodes / 5278 undirected edges / 1433 features / 7 classes). "
            "Convert the standard .content/.cites distribution with "
            "`python3 scripts/prepare_cora.py <content> <cites> data/cora` and "
            "re-run. The criterion is intentionally failing red rather than "
            "being skipped or weakened.",
            pytrace=False,
        )
    return files


# ---------------------------------------------------------------------------
# 1. Prior correctness vs brute-force counts
# ---------------------------------------------------------------------------


def brute_force_counts(edges: np.ndarray, labels: np.ndarray, n_classes: int):
    counts = [[0] * n_classes for _ in range(n_classes)]
    for u, v in edges.tolist():
        counts[labels[u]][labels[v]] += 1
        counts[labels[v]][labels[u]] += 1
    return counts


def test_criterion_01_prior_matches_brute_force_on_1000_graphs():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_row_error = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        n_classes = int(rng.integers(1, 11))
        m = int(rng.integers(0, 2 * n))
        raw = rng.integers(0, n, size=(m, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        edges = np.unique(np.sort(raw, axis=1), axis=0) if len(raw) else raw.reshape(0, 2)
        labels = rng.integers(0, n_classes, size=n)

        prior = count_class_links(edges, labels, n_classes)
        assert prior.joint_counts.tolist() == brute_force_counts(edges, labels, n_classes)
        sums = prior.probs.sum(axis=1)
        nonzero = prior.row_totals > 0
        if nonzero.any():
            worst_row_error = max(worst_row_error, float(np.abs(sums[nonzero] - 1.0).max()))
        assert np.abs(sums[nonzero] - 1.0).max(initial=0.0) <= 1e-9
        assert np.all(sums[~nonzero] == 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 exceeded 1 min ({elapsed:.1f}s)"
    print(f"criterion 1 PASS: 1000 graphs exact, worst row-sum error "
          f"{worst_row_error:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. O(E) runtime of prior construction
# ---------------------------------------------------------------------------


def test_criterion_02_prior_construction_scales_linearly():
    result = bench_prior_runtime([10_000, 100_000, 1_000_000], seed=202)
    seconds = dict(result["rows"])
    assert result["r_squared"] >= 0.98, (
        f"linear fit R^2 {result['r_squared']:.4f} < 0.98 over rows {result['rows']}"
    )
    assert seconds[1_000_000] < 5.0, (
        f"1e6-edge prior build took {seconds[1_000_000]:.2f}s (budget 5s)"
    )
    print(
        f"criterion 2 PASS: R^2={result['r_squared']:.4f}, "
        f"1e6 edges in {seconds[1_000_000]*1e3:.1f}ms"
    )


# ---------------------------------------------------------------------------
# 3. Heuristics vs brute force (Katz by exhaustive walk enumeration)
# ---------------------------------------------------------------------------


def oracle_cn_aa_ra(g, u, v):
    nu = set(g.neighbors(u).tolist())
    nv = set(g.neighbors(v).tolist())
    common = nu & nv
    cn = float(len(common))
    aa = sum(1.0 / math.log(g.degree(w)) for w in common)
    ra = sum(1.0 / g.degree(w) for w in common)
    return cn, aa, ra


def oracle_walk_count(g, u, v, length):
    """Number of walks u -> v of exactly `length` steps, by enumeration."""
    if length == 0:
        return 1 if u == v else 0
    return sum(oracle_walk_count(g, w, v, length - 1) for w in g.neighbors(u).tolist())


def test_criterion_03_heuristics_match_enumeration_oracles():
    rng = np.random.default_rng(303)
    cfg = GammaDecayConfig(gamma=0.05, max_length=4)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(10):
        n = int(rng.integers(8, 15))
        g = build_graph(n, random_edges(rng, n, 0.35))
        score = {
            name: make_heuristic_scorer(name, g, katz=cfg)
            for name in ("cn", "aa", "ra", "katz")
        }
        for _ in range(10):
            u, v = rng.choice(n, size=2, replace=False)
            u, v = int(u), int(v)
            pair = np.array([[u, v]])
            cn, aa, ra = oracle_cn_aa_ra(g, u, v)
            assert abs(score["cn"](pair)[0] - cn) <= 1e-10
            assert abs(score["aa"](pair)[0] - aa) <= 1e-10
            assert abs(score["ra"](pair)[0] - ra) <= 1e-10
            katz_oracle = sum(
                cfg.gamma**length * oracle_walk_count(g, u, v, length)
                for length in range(1, cfg.max_length + 1)
            )
            assert abs(score["katz"](pair)[0] - katz_oracle) <= 1e-10
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 exceeded 1 min ({elapsed:.1f}s)"
    print(f"criterion 3 PASS: {checked} pairs within 1e-10, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Gradient correctness on the full pipeline
# ---------------------------------------------------------------------------


def gradient_instance(seed: int, edge_prob: float):
    rng = np.random.default_rng(seed)
    n, n_feats = 12, 5
    edges = random_edges(rng, n, edge_prob)
    feats = rng.standard_normal((n, n_feats))
    labels = rng.integers(0, 3, size=n)
    g = build_graph(n, edges, features=feats, labels=labels)
    prior = count_class_links(edges, labels, 3)
    builder = BatchBuilder.create(g, "ncn", prior, labels)
    raw = rng.integers(0, n, size=(8, 2))
    pairs = raw[raw[:, 0] != raw[:, 1]]
    targets = rng.integers(0, 2, size=len(pairs)).astype(float)
    params = init_params(n_feats, TrainConfig(dim=4, hidden=3, seed=seed), True)
    # Evaluate at a generic point: zero-initialized biases can leave ReLU
    # pre-activations exactly on the kink, where the loss is not
    # differentiable and finite differences are meaningless.
    for arr in params.arrays().values():
        arr += 0.05 * rng.standard_normal(arr.shape)
    params.bo = float(params.bo + 0.05 * rng.standard_normal())
    return params, builder.build(pairs, targets)


def test_criterion_04_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        edge_prob = (0.35, 0.20, 0.08)[seed % 3]
        params, batch = gradient_instance(1000 + seed, edge_prob)
        err = gradient_check(params, batch)
        worst = max(worst, err)
        assert err <= 1e-4, f"seed {seed}: max relative gradient error {err:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 4 exceeded 2 min ({elapsed:.1f}s)"
    print(f"criterion 4 PASS: 10 seeds, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Metric oracle (sort-based, exact, with ties)
# ---------------------------------------------------------------------------


def hash_scorer(pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return ((3 * pairs[:, 0] + 7 * pairs[:, 1]) % 5) / 4.0


def oracle_rank(pos: float, negatives: list[float]) -> int:
    ordered = sorted(negatives)
    lo = bisect.bisect_left(ordered, pos)
    hi = bisect.bisect_right(ordered, pos)
    greater = len(ordered) - hi
    ties = hi - lo
    return 1 + greater + ties // 2


def test_criterion_05_metrics_equal_sort_based_oracle_exactly():
    rng = np.random.default_rng(505)
    trials = 0
    while trials < 100:
        n = int(rng.integers(10, 18))
        edges = random_edges(rng, n, 0.35)
        if len(edges) < 10:
            continue
        g = build_graph(n, edges)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=int(rng.integers(0, 10_000)),
                            negatives=int(rng.integers(5, 30)))
        k = int(rng.integers(1, 8))
        metric = "mrr" if trials % 2 == 0 else f"hr@{k}"
        report = evaluate_split(hash_scorer, split, metric, seed=trials)

        pos = hash_scorer(split.test_edges)
        neg = hash_scorer(split.test_negatives).tolist()
        ranks = np.array([oracle_rank(float(s), neg) for s in pos], dtype=np.float64)
        expected = float(np.mean(1.0 / ranks)) if metric == "mrr" else float(
            np.mean(ranks <= k)
        )
        assert report.value == expected, (
            f"trial {trials} metric {metric}: {report.value!r} != oracle {expected!r}"
        )
        assert report.ranks.tolist() == ranks.astype(int).tolist()
        trials += 1
    print("criterion 5 PASS: 100 trials exact (ties included)")


# ---------------------------------------------------------------------------
# 6. Elbow recovery on three Gaussian blobs
# ---------------------------------------------------------------------------


def test_criterion_06_elbow_recovers_three_blobs():
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0 * np.sqrt(3.0)]])
    hits = 0
    chosen = []
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        points = np.concatenate(
            [c + 0.1 * rng.standard_normal((100, 2)) for c in centers]
        )
        best_k = elbow_kmeans(points, [1, 2, 3, 5, 8, 10], seed).k
        chosen.append(best_k)
        hits += best_k == 3
    assert hits >= 9, f"elbow chose k=3 in only {hits}/10 seeds (choices {chosen})"
    print(f"criterion 6 PASS: k=3 recovered in {hits}/10 seeds")


# ---------------------------------------------------------------------------
# 7-9. Real citation benchmark (fails red when not provisioned)
# ---------------------------------------------------------------------------


def load_citation_graph():
    files = require_citation_dataset()
    g = load_graph(files["edges"], files["features"], files["labels"])
    return g


def hr100_of(model, g, split, seed):
    scorer = make_scorer(model, split.train_graph(g))
    return 100.0 * evaluate_split(scorer, split, "hr@100", seed).value


def test_criterion_07_class_priors_lift_ncn_by_three_points():
    g = load_citation_graph()
    t0 = time.perf_counter()
    with_prior, without_prior = [], []
    for seed in EVAL_SEEDS:
        split = split_edges(g, RATIOS, seed)
        cfg = TrainConfig(seed=seed)
        prior = count_class_links(split.train_edges, g.labels, g.n_classes)
        fused, _ = train(g, split, prior, g.labels, "ncn", cfg)
        backbone, _ = train(g, split, None, None, "backbone_only", cfg)
        with_prior.append(hr100_of(fused, g, split, seed))
        without_prior.append(hr100_of(backbone, g, split, seed))
    gap = float(np.mean(with_prior) - np.mean(without_prior))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1800.0, f"criterion 7 exceeded 30 min ({elapsed:.0f}s)"
    assert gap >= 3.0, (
        f"mean HR@100 with priors {np.mean(with_prior):.2f} vs backbone "
        f"{np.mean(without_prior):.2f}: gap {gap:.2f} < 3 points"
    )
    print(f"criterion 7 PASS: prior gap {gap:.2f} points in {elapsed:.0f}s")


def test_criterion_08_common_neighbors_baseline_matches_published_value():
    from classlink.heuristics import make_heuristic_scorer

    g = load_citation_graph()
    values = []
    for seed in EVAL_SEEDS:
        split = split_edges(g, RATIOS, seed)
        scorer = make_heuristic_scorer("cn", split.train_graph(g))
        values.append(100.0 * evaluate_split(scorer, split, "hr@100", seed).value)
    mean = float(np.mean(values))
    assert abs(mean - 33.92) <= 4.0, (
        f"CN HR@100 mean {mean:.2f} over seeds {EVAL_SEEDS} outside 33.92 +/- 4 "
        f"(per-seed {['%.2f' % v for v in values]})"
    )
    print(f"criterion 8 PASS: CN HR@100 mean {mean:.2f} (target 33.92 +/- 4)")


def test_criterion_09_mono_labels_collapse_to_backbone():
    g = load_citation_graph()
    mono = np.zeros(g.n_nodes, dtype=np.int64)
    diffs = []
    for seed in EVAL_SEEDS:
        split = split_edges(g, RATIOS, seed)
        prior = count_class_links(split.train_edges, mono, 1)
        prior_features = lookup_prior_batch(prior, mono, split.test_edges)
        assert np.all(prior_features == 1.0), (
            "mono prior features must equal 1.0 exactly for every pair"
        )
        cfg = TrainConfig(seed=seed)
        fused, _ = train(g, split, prior, mono, "ncn", cfg)
        backbone, _ = train(g, split, None, None, "backbone_only", cfg)
        diffs.append(hr100_of(fused, g, split, seed) - hr100_of(backbone, g, split, seed))
    mean_diff = float(np.mean(diffs))
    assert abs(mean_diff) <= 1.5, (
        f"mono-label run drifted {mean_diff:.2f} points from backbone (limit 1.5)"
    )
    print(f"criterion 9 PASS: mono drift {mean_diff:.2f} points (prior features exact 1.0)")


# ---------------------------------------------------------------------------
# 10. Leakage guard
# ---------------------------------------------------------------------------


def test_criterion_10_removing_heldout_edges_changes_nothing(tmp_path):
    rng = np.random.default_rng(1010)
    g = planted_two_class(rng)
    split = split_edges(g, RATIOS, seed=5)
    stripped = build_graph(
        g.n_nodes, split.train_edges, features=g.features, labels=g.labels
    )

    # priors: byte-identical artifacts
    standard = count_class_links(split.train_edges, g.labels, 2)
    removed = count_class_links(stripped.undirected_edges(), stripped.labels, 2)
    a, b = tmp_path / "std.json", tmp_path / "rm.json"
    save_prior_json(standard, a, seed=5)
    save_prior_json(removed, b, seed=5)
    assert a.read_bytes() == b.read_bytes()

    # pseudo-labels: identical under both clustering label sources
    g_train = split.train_graph(g)
    km_std = kmeans(aggregate_features(g_train), 2, seed=5)
    km_rm = kmeans(aggregate_features(stripped), 2, seed=5)
    assert np.array_equal(km_std.labels, km_rm.labels)
    lv_std = louvain(g_train, seed=5)
    lv_rm = louvain(stripped, seed=5)
    assert np.array_equal(lv_std.labels, lv_rm.labels)
    assert lv_std.k == lv_rm.k
    print("criterion 10 PASS: priors and pseudo-labels bit-identical without held-out edges")
