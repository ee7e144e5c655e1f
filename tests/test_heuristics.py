"""Structural heuristics vs brute-force oracles; class-integrated rescoring."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from classlink.errors import (
    ConfigurationError,
    DegenerateNormalizerError,
    MissingLabelError,
)
from classlink import heuristics
from classlink.graph import build_graph
from classlink.heuristics import (
    ClassHeuristicParams,
    GammaDecayConfig,
    make_heuristic_scorer,
)
from classlink.priors import count_class_links, lookup_prior_batch

from conftest import random_edges
from test_graph import brute_adjacency


def peak_rise(fn):
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the package implementation)
# ---------------------------------------------------------------------------


def oracle_cn(adj, x, y):
    return len(adj[x] & adj[y])


def oracle_aa(adj, x, y):
    return sum(1.0 / math.log(len(adj[z])) for z in adj[x] & adj[y])


def oracle_ra(adj, x, y):
    return sum(1.0 / len(adj[z]) for z in adj[x] & adj[y])


def oracle_walk_counts(adj, x, y, max_len):
    """Exhaustive enumeration of walks from x to y, per length."""
    counts = [0] * (max_len + 1)
    frontier = {x: 1}
    for length in range(1, max_len + 1):
        nxt: dict[int, int] = {}
        for node, ways in frontier.items():
            for nb in adj[node]:
                nxt[nb] = nxt.get(nb, 0) + ways
        counts[length] = nxt.get(y, 0)
        frontier = nxt
    return counts


def oracle_katz(adj, x, y, gamma, max_len, eta=1.0):
    walks = oracle_walk_counts(adj, x, y, max_len)
    return eta * sum(gamma**l * walks[l] for l in range(1, max_len + 1))


def decayed_walk_sum(walks, gamma, eta=1.0):
    """Katz from walk counts, accumulated in the library's order (bit-exact)."""
    total, decay = 0.0, 1.0
    for count in walks[1:]:
        decay *= gamma
        total += decay * count
    return eta * total


def oracle_z(adj, labels, probs, x, y, omega):
    """Brute-force local normalizer over N(x) ∪ N(y)."""
    w1x, w2x, w1y, w2y = omega
    cx, cy = labels[x], labels[y]
    z = 0.0
    for v in adj[x] | adj[y]:
        cv = labels[v]
        z += w1x * probs[cv, cx] + w2x * probs[cx, cv]
        z += w1y * probs[cv, cy] + w2y * probs[cy, cv]
    return z


def score_one(name, g, x, y, **kwargs):
    """One pair through the batch scorer ``make_heuristic_scorer(name, g, ...)``."""
    return float(make_heuristic_scorer(name, g, **kwargs)(np.array([[x, y]]))[0])


def awkward_pairs(rng, edges, n, m):
    """Random pairs plus duplicates, reversed (x > y) pairs and edges."""
    pairs = rng.integers(0, n, size=(m, 2))
    extra = [pairs[: m // 4], pairs[: m // 4, ::-1]]
    if len(edges):
        extra += [edges[: m // 4], edges[: m // 4, ::-1]]
    return np.concatenate([pairs, *extra])


class TestFrozenValues:
    def test_path_aa_ra(self, path3):
        # single common neighbor of degree 2
        assert score_one("cn", path3, 0, 2) == 1.0
        assert score_one("aa", path3, 0, 2) == pytest.approx(1.0 / math.log(2.0))
        assert score_one("ra", path3, 0, 2) == pytest.approx(0.5)

    def test_katz_single_edge(self):
        g = build_graph(2, np.array([[0, 1]]))
        cfg = GammaDecayConfig(gamma=0.5, max_length=1)
        assert score_one("katz", g, 0, 1, katz=cfg) == pytest.approx(0.5)

    def test_katz_two_step_path(self, path3):
        cfg = GammaDecayConfig(gamma=0.5, max_length=2)
        # only walk of length 2 from 0 to 2
        assert score_one("katz", path3, 0, 2, katz=cfg) == pytest.approx(0.25)

    def test_isolated_pair_scores_zero(self):
        g = build_graph(4, np.array([[0, 1]]))
        for name in ("cn", "aa", "ra", "katz"):
            assert score_one(name, g, 2, 3) == 0.0


class TestAgainstOracles:
    def test_cn_aa_ra_match_brute_force(self):
        rng = np.random.default_rng(901)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            edges = random_edges(rng, n, 0.3)
            g = build_graph(n, edges)
            adj = brute_adjacency(edges, n)
            for _ in range(15):
                x, y = (int(v) for v in rng.integers(0, n, size=2))
                assert score_one("cn", g, x, y) == oracle_cn(adj, x, y)
                assert score_one("aa", g, x, y) == pytest.approx(
                    oracle_aa(adj, x, y), abs=1e-10
                )
                assert score_one("ra", g, x, y) == pytest.approx(
                    oracle_ra(adj, x, y), abs=1e-10
                )

    def test_katz_matches_walk_enumeration(self):
        rng = np.random.default_rng(902)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            edges = random_edges(rng, n, 0.4)
            g = build_graph(n, edges)
            adj = brute_adjacency(edges, n)
            cfg = GammaDecayConfig(gamma=0.05, max_length=4)
            for _ in range(10):
                x, y = (int(v) for v in rng.integers(0, n, size=2))
                expect = oracle_katz(adj, x, y, cfg.gamma, cfg.max_length)
                assert score_one("katz", g, x, y, katz=cfg) == pytest.approx(
                    expect, abs=1e-10
                )

    def test_katz_eta_scales_linearly(self, path3):
        base = score_one(
            "katz", path3, 0, 2, katz=GammaDecayConfig(gamma=0.3, max_length=3)
        )
        scaled = score_one(
            "katz", path3, 0, 2, katz=GammaDecayConfig(gamma=0.3, eta=2.5, max_length=3)
        )
        assert scaled == pytest.approx(2.5 * base)


class TestConfigValidation:
    def test_gamma_domain(self):
        with pytest.raises(ConfigurationError):
            GammaDecayConfig(gamma=0.0)
        with pytest.raises(ConfigurationError):
            GammaDecayConfig(gamma=1.0)
        with pytest.raises(ConfigurationError):
            GammaDecayConfig(max_length=0)
        for eta in (-1.0, float("nan"), float("inf")):  # NaN passes `eta <= 0`
            with pytest.raises(ConfigurationError, match="eta"):
                GammaDecayConfig(eta=eta)

    def test_heuristic_params_domain(self):
        with pytest.raises(ConfigurationError):
            ClassHeuristicParams(beta=0.0)
        with pytest.raises(ConfigurationError):
            ClassHeuristicParams(alpha1=-0.5)
        with pytest.raises(ConfigurationError):
            ClassHeuristicParams(omega=(1.0, 1.0, -1.0, 1.0))


def two_class_prior():
    """Edges (0,1),(1,2) with labels [0,0,1]: probs [[2/3,1/3],[1,0]]."""
    edges = np.array([[0, 1], [1, 2]])
    labels = np.array([0, 0, 1])
    prior = count_class_links(edges, labels, 2)
    g = build_graph(3, edges, labels=labels)
    return g, prior, labels


def hc_one(g, prior, labels, x, y, params=None, base="cn"):
    """One pair through the ``hc`` batch scorer."""
    return score_one("hc", g, x, y, prior=prior, labels=labels, params=params, base=base)


class TestClassIntegration:
    def test_worked_example(self):
        g, prior, labels = two_class_prior()
        adj = brute_adjacency(g.undirected_edges(), 3)
        # pair (1, 2): classes (0, 1) -> priors (1/3, 1); unnormalized
        for base, oracle in (("cn", oracle_cn), ("ra", oracle_ra)):
            score = hc_one(g, prior, labels, 1, 2, base=base)
            assert score == pytest.approx(oracle(adj, 1, 2) + (1.0 / 3.0 + 1.0))
        # pair (0, 2): one common neighbour, classes (0, 1)
        assert hc_one(g, prior, labels, 0, 2) == pytest.approx(1.0 + (1.0 / 3.0 + 1.0))

    def test_zero_beta_rejected_positive_beta_scales(self):
        g, prior, labels = two_class_prior()
        s1 = hc_one(g, prior, labels, 1, 2, ClassHeuristicParams(beta=2.0))
        assert s1 == pytest.approx(2.0 * (1.0 / 3.0 + 1.0))

    def test_alpha_weights_select_directions(self):
        g, prior, labels = two_class_prior()
        fwd_only = hc_one(g, prior, labels, 1, 2, ClassHeuristicParams(alpha2=0.0))
        rev_only = hc_one(g, prior, labels, 1, 2, ClassHeuristicParams(alpha1=0.0))
        assert fwd_only == pytest.approx(1.0 / 3.0)
        assert rev_only == pytest.approx(1.0)

    def test_z_is_one_when_normalization_off(self):
        g, prior, labels = two_class_prior()
        # pair (0, 2): CN 1, classes (0, 1), the bonus undivided
        score = hc_one(g, prior, labels, 0, 2, ClassHeuristicParams())
        assert score == 1.0 + (1.0 / 3.0 + 1.0)

    def test_z_mono_label_star(self):
        """Single class, unit omegas: Z = 4 * |N(x) ∪ N(y)|."""
        star = build_graph(
            5, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]), labels=np.zeros(5, int)
        )
        prior = count_class_links(star.undirected_edges(), star.labels, 1)
        params = ClassHeuristicParams(normalize_locally=True)
        # every prior is 1, so the bonus is (1 + 1) / Z on top of CN
        # N(1) ∪ N(2) = {0} -> Z = 4; CN(1, 2) = 1
        assert hc_one(star, prior, star.labels, 1, 2, params) == pytest.approx(
            1.0 + 2.0 / 4.0
        )
        # N(0) = {1,2,3,4}, N(1) = {0} -> union of 5 nodes, Z = 20; CN(0, 1) = 0
        assert hc_one(star, prior, star.labels, 0, 1, params) == pytest.approx(
            2.0 / 20.0
        )

    def test_z_matches_direct_sum_on_random_graphs(self):
        rng = np.random.default_rng(903)
        for _ in range(10):
            n = int(rng.integers(6, 30))
            edges = random_edges(rng, n, 0.3)
            if len(edges) == 0:
                continue
            labels = rng.integers(0, 3, size=n)
            g = build_graph(n, edges, labels=labels)
            prior = count_class_links(edges, labels, 3)
            omega = tuple(float(w) for w in rng.uniform(0.1, 2.0, size=4))
            params = ClassHeuristicParams(omega=omega, normalize_locally=True)
            x, y = (int(v) for v in rng.integers(0, n, size=2))
            union = sorted(set(g.neighbors(x).tolist()) | set(g.neighbors(y).tolist()))
            if not union:
                continue
            w1x, w2x, w1y, w2y = omega
            expect = 0.0
            for v in union:
                cv = labels[v]
                expect += w1x * prior.probs[cv, labels[x]]
                expect += w2x * prior.probs[labels[x], cv]
                expect += w1y * prior.probs[cv, labels[y]]
                expect += w2y * prior.probs[labels[y], cv]
            adj = brute_adjacency(edges, n)
            fwd, rev = prior.probs[labels[x], labels[y]], prior.probs[labels[y], labels[x]]
            got = hc_one(g, prior, labels, x, y, params)
            assert got == pytest.approx(oracle_cn(adj, x, y) + (fwd + rev) / expect, abs=1e-12)

    def test_isolated_pair_degenerate_normalizer(self):
        g = build_graph(4, np.array([[0, 1]]), labels=np.zeros(4, int))
        prior = count_class_links(g.undirected_edges(), g.labels, 1)
        params = ClassHeuristicParams(normalize_locally=True)
        with pytest.raises(DegenerateNormalizerError):
            hc_one(g, prior, g.labels, 2, 3, params)

    def test_missing_label_raises(self):
        g = build_graph(3, np.array([[0, 1], [1, 2]]), labels=np.array([0, 0, -1]))
        prior = count_class_links(np.array([[0, 1]]), g.labels, 1)
        with pytest.raises(MissingLabelError):
            hc_one(g, prior, g.labels, 1, 2)


class TestBatchScorers:
    def test_batch_matches_scalar(self):
        """Batch scorers against this file's brute-force oracles."""
        rng = np.random.default_rng(904)
        edges = random_edges(rng, 25, 0.3)
        labels = rng.integers(0, 3, size=25)
        g = build_graph(25, edges, labels=labels)
        adj = brute_adjacency(edges, 25)
        prior = count_class_links(edges, labels, 3)
        pairs = rng.integers(0, 25, size=(30, 2))
        for name, oracle in (("cn", oracle_cn), ("aa", oracle_aa), ("ra", oracle_ra)):
            scorer = make_heuristic_scorer(name, g)
            got = scorer(pairs)
            expect = [oracle(adj, u, v) for u, v in pairs.tolist()]
            np.testing.assert_allclose(got, expect)
        cfg = GammaDecayConfig()
        katz = make_heuristic_scorer("katz", g, katz=cfg)
        np.testing.assert_allclose(
            katz(pairs),
            [oracle_katz(adj, u, v, cfg.gamma, cfg.max_length) for u, v in pairs.tolist()],
        )
        hc = make_heuristic_scorer("hc", g, prior=prior, labels=labels, base="cn")
        np.testing.assert_allclose(
            hc(pairs),
            [
                oracle_cn(adj, u, v)
                + (prior.probs[labels[u], labels[v]] + prior.probs[labels[v], labels[u]])
                for u, v in pairs.tolist()
            ],
        )

    def test_unknown_scorer_rejected(self, path3):
        with pytest.raises(ConfigurationError, match="unknown heuristic"):
            make_heuristic_scorer("pagerank", path3)

    def test_hc_requires_prior(self, path3):
        with pytest.raises(ConfigurationError):
            make_heuristic_scorer("hc", path3)


class TestBatchKernels:
    """CN/AA/RA/Katz kernels on awkward batches: isolated nodes, duplicate
    pairs, pairs with x > y, pairs that are edges, self-pairs."""

    def graphs(self, seed, count=8):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(6, 16))
            edges = random_edges(rng, n, float(rng.uniform(0.15, 0.5)))
            n_total = n + 3  # three isolated nodes
            yield rng, build_graph(n_total, edges), brute_adjacency(edges, n_total), edges

    def test_cn_aa_ra_match_oracles(self):
        for rng, g, adj, edges in self.graphs(905):
            pairs = awkward_pairs(rng, edges, g.n_nodes, 24)
            cn = make_heuristic_scorer("cn", g)(pairs)
            assert cn.tolist() == [oracle_cn(adj, u, v) for u, v in pairs.tolist()]
            ra = make_heuristic_scorer("ra", g)(pairs)
            expect = [oracle_ra(adj, u, v) for u, v in pairs.tolist()]
            np.testing.assert_allclose(ra, expect, rtol=0, atol=1e-12)
            # a self-pair's own degree-1 neighbours make AA infinite; skip them
            distinct = pairs[pairs[:, 0] != pairs[:, 1]]
            aa = make_heuristic_scorer("aa", g)(distinct)
            expect = [oracle_aa(adj, u, v) for u, v in distinct.tolist()]
            np.testing.assert_allclose(aa, expect, rtol=0, atol=1e-12)

    def test_katz_walk_counts_match_enumeration(self):
        for rng, g, adj, edges in self.graphs(906):
            pairs = awkward_pairs(rng, edges, g.n_nodes, 16)
            for max_length in range(1, 6):
                cfg = GammaDecayConfig(gamma=0.3, eta=1.5, max_length=max_length)
                got = make_heuristic_scorer("katz", g, katz=cfg)(pairs)
                expect = [
                    decayed_walk_sum(
                        oracle_walk_counts(adj, u, v, max_length), cfg.gamma, cfg.eta
                    )
                    for u, v in pairs.tolist()
                ]
                assert got.tolist() == expect

    def test_chunks_do_not_change_scores(self, monkeypatch):
        rng, g, adj, edges = next(self.graphs(907, count=1))
        pairs = awkward_pairs(rng, edges, g.n_nodes, 200)
        labels = rng.integers(0, 2, size=g.n_nodes)
        prior = count_class_links(edges, labels, 2)
        params = ClassHeuristicParams(normalize_locally=True)
        pairs = pairs[np.isin(pairs, np.flatnonzero(g.degrees())).all(axis=1)]
        scorers = {name: make_heuristic_scorer(name, g) for name in ("cn", "ra", "katz")}
        scorers["hc"] = make_heuristic_scorer(
            "hc", g, prior=prior, labels=labels, params=params, base="ra"
        )
        whole = {name: scorer(pairs) for name, scorer in scorers.items()}
        monkeypatch.setattr(heuristics, "_CHUNK", 7)
        for name, scorer in scorers.items():
            assert scorer(pairs).tolist() == whole[name].tolist(), name

    def test_empty_batch(self, path3):
        for name in ("cn", "aa", "ra", "katz"):
            assert make_heuristic_scorer(name, path3)(np.empty((0, 2))).shape == (0,)

    def test_out_of_range_ids_rejected(self, path3):
        labels = np.array([0, 0, 1])
        prior = count_class_links(path3.undirected_edges(), labels, 2)
        scorers = [make_heuristic_scorer(name, path3) for name in ("cn", "aa", "ra", "katz")]
        scorers.append(make_heuristic_scorer("hc", path3, prior=prior, labels=labels))
        for scorer in scorers:
            for bad in ([[0, 3]], [[-1, 1]], [[0, 1], [5, 0]]):
                with pytest.raises(ConfigurationError, match="out of range"):
                    scorer(np.array(bad))


def scipy_common_neighbor_sum(g, name, pairs):
    """CN/AA/RA as the pair × node matrix of common neighbours times the
    node weights, ``A[xs].multiply(A[ys]) @ w`` in scipy: the oracle of the
    numpy kernel's bits."""
    degrees = np.diff(g.adj.indptr).astype(np.float64)
    with np.errstate(divide="ignore"):
        weights = {"cn": np.ones(g.n_nodes), "aa": 1.0 / np.log(degrees), "ra": 1.0 / degrees}
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return g.adj[pairs[:, 0]].multiply(g.adj[pairs[:, 1]]) @ weights[name]


class TestCommonNeighborBits:
    """CN/AA/RA give the bits of the scipy product, pair for pair."""

    def assert_same_bits(self, g, pairs):
        for name in ("cn", "aa", "ra"):
            got = make_heuristic_scorer(name, g)(pairs)
            want = scipy_common_neighbor_sum(g, name, pairs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_random_graphs_with_isolated_nodes_and_self_pairs(self):
        rng = np.random.default_rng(911)
        for _ in range(12):
            n = int(rng.integers(6, 40))
            edges = random_edges(rng, n, float(rng.uniform(0.1, 0.6)))
            g = build_graph(n + 4, edges)  # four isolated nodes
            pairs = awkward_pairs(rng, edges, g.n_nodes, 60)
            nodes = rng.integers(0, g.n_nodes, size=10)
            self.assert_same_bits(g, np.concatenate([pairs, np.column_stack([nodes, nodes])]))

    def test_dense_neighbourhoods(self):
        """Many common neighbours per pair, so the float sums round."""
        rng = np.random.default_rng(912)
        g = build_graph(300, random_edges(rng, 300, 0.2))
        self.assert_same_bits(g, rng.integers(0, 300, size=(3000, 2)))

    def test_empty_batch(self, path3):
        self.assert_same_bits(path3, np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks(self, monkeypatch, chunk):
        rng = np.random.default_rng(913)
        edges = random_edges(rng, 30, 0.3)
        g = build_graph(33, edges)
        pairs = awkward_pairs(rng, edges, g.n_nodes, 40)
        monkeypatch.setattr(heuristics, "_CHUNK", chunk)
        self.assert_same_bits(g, pairs)

    def test_keys_past_int32(self):
        """At 600,000 nodes a 4096-pair chunk's keys ``i · n + v`` pass
        2**31, so they are int64."""
        rng = np.random.default_rng(914)
        n = 600_000
        hubs = rng.integers(0, n, size=60)
        edges = hubs[rng.integers(0, 60, size=(900, 2))]
        g = build_graph(n, edges)
        assert heuristics._CHUNK * n > np.iinfo(np.int32).max
        self.assert_same_bits(g, hubs[rng.integers(0, 60, size=(5000, 2))])


def scipy_katz_sum(g, cfg, pairs):
    """Truncated Katz from scipy row blocks ``A^k[xs]`` and ``A^k[ys]``
    (indicator rows times ``A``), met by ``multiply`` and summed per row:
    the oracle of the numpy kernel's bits."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    xs, ys = pairs[:, 0], pairs[:, 1]

    def indicator_rows(nodes):
        return sp.csr_matrix(
            (np.ones(nodes.size), nodes, np.arange(nodes.size + 1)),
            shape=(nodes.size, g.n_nodes),
        )

    from_x, from_y = [indicator_rows(xs)], [indicator_rows(ys)]
    for _ in range((cfg.max_length + 1) // 2):
        from_x.append(from_x[-1] @ g.adj)
    for _ in range(cfg.max_length // 2):
        from_y.append(from_y[-1] @ g.adj)
    total = np.zeros(xs.size)
    decay = 1.0
    for length in range(1, cfg.max_length + 1):
        meet = from_x[(length + 1) // 2].multiply(from_y[length // 2])
        decay *= cfg.gamma
        total += decay * np.asarray(meet.sum(axis=1)).ravel()
    return cfg.eta * total


def clique_graph(size, count):
    """``count`` disjoint cliques of ``size`` nodes: a pair's 2-hop rows list
    about ``size²`` entries that merge into ``size``."""
    upper = np.triu_indices(size, 1)
    edges = np.concatenate(
        [np.column_stack(upper) + k * size for k in range(count)]
    )
    return build_graph(size * count, edges)


class TestKatzBits:
    """Katz gives the bits of the scipy row-block products, pair for pair."""

    def assert_same_bits(self, g, pairs, lengths=range(1, 7)):
        for max_length in lengths:
            cfg = GammaDecayConfig(gamma=0.3, eta=1.7, max_length=max_length)
            got = make_heuristic_scorer("katz", g, katz=cfg)(pairs)
            want = scipy_katz_sum(g, cfg, pairs)
            assert got.dtype == want.dtype, max_length
            assert got.tobytes() == want.tobytes(), max_length

    def awkward_graphs(self, seed, count):
        """Random graphs with three isolated nodes, and batches with
        duplicate, reversed, edge and self-pairs."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(4, 40))
            edges = random_edges(rng, n, float(rng.uniform(0.05, 0.6)))
            g = build_graph(n + 3, edges)
            pairs = awkward_pairs(rng, edges, g.n_nodes, 40)
            nodes = rng.integers(0, g.n_nodes, size=8)
            yield g, np.concatenate([pairs, np.column_stack([nodes, nodes])])

    def test_random_graphs_with_isolated_nodes_and_self_pairs(self):
        for g, pairs in self.awkward_graphs(921, 12):
            self.assert_same_bits(g, pairs)

    def test_empty_batch(self, path3):
        self.assert_same_bits(path3, np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(heuristics, "_CHUNK", chunk)
        for g, pairs in self.awkward_graphs(922, 4):
            self.assert_same_bits(g, pairs)

    @pytest.mark.parametrize("budget", [1, 40, 300])
    def test_small_runs(self, monkeypatch, budget):
        """Runs of one pair, and pairs that list more than the budget alone."""
        monkeypatch.setattr(heuristics, "_EXPANSION", budget)
        for g, pairs in self.awkward_graphs(923, 4):
            self.assert_same_bits(g, pairs)

    def test_keys_past_int32(self, monkeypatch):
        """At 600,000 nodes, a run of more than 3,579 pairs has keys
        ``i · n + v`` past 2**31, so they are int64.  Pairs of isolated
        nodes list nothing, so their runs are that long."""
        rng = np.random.default_rng(924)
        n = 600_000
        hubs = rng.integers(0, n, size=60)
        g = build_graph(n, hubs[rng.integers(0, 60, size=(900, 2))])
        pairs = np.concatenate(
            [hubs[rng.integers(0, 60, size=(300, 2))], rng.integers(0, n, size=(5000, 2))]
        )
        dtypes = set()
        bases = heuristics._pair_bases
        monkeypatch.setattr(
            heuristics, "_pair_bases", lambda c, n: dtypes.add(bases(c, n).dtype) or bases(c, n)
        )
        self.assert_same_bits(g, pairs, lengths=(1, 2, 4, 5))
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}

    def test_long_horizon_counts_round_and_never_wrap(self):
        """In a 200-clique at ``max_length`` 16 the half-walk counts pass
        2**53 and their products pass 2**63.  The scores stay within float
        rounding of the exact Katz sum and of the scipy oracle."""
        size = 200
        g = clique_graph(size, 1)
        pairs = np.array([[0, 1], [5, 5], [199, 3], [7, 150]])
        cfg = GammaDecayConfig(gamma=0.3, eta=1.7, max_length=16)
        got = make_heuristic_scorer("katz", g, katz=cfg)(pairs)

        def walks(length, same):
            """Walks of ``length`` between two nodes of a ``size``-clique."""
            other = (size - 1) ** length - (-1) ** length
            return (other + size * (-1) ** length) // size if same else other // size

        gamma = Fraction(cfg.gamma)
        exact = [
            Fraction(cfg.eta)
            * sum(gamma**l * walks(l, x == y) for l in range(1, cfg.max_length + 1))
            for x, y in pairs
        ]
        assert (got > 0).all()
        np.testing.assert_allclose(got, [float(k) for k in exact], rtol=1e-12)
        np.testing.assert_allclose(got, scipy_katz_sum(g, cfg, pairs), rtol=1e-12)

    def test_memory_stays_below_the_scipy_products_on_cliques(self):
        """On 30 cliques of 48 nodes, each pair's 2-hop rows list about 2,200
        entries that merge into 48: 1,024 pairs list about 4.5M entries, or
        39 MB of arrays when a chunk is listed at once.  Listing runs of at
        most ``_EXPANSION`` entries keeps the kernel's traced peak below
        the scipy oracle's (1.1 against 3.6 MB when measured)."""
        g = clique_graph(48, 30)
        pairs = np.random.default_rng(925).integers(0, g.n_nodes, size=(1024, 2))
        cfg = GammaDecayConfig()
        scorer = make_heuristic_scorer("katz", g, katz=cfg)
        kernel = peak_rise(lambda: scorer(pairs))
        oracle = peak_rise(lambda: scipy_katz_sum(g, cfg, pairs))
        assert kernel <= oracle, (kernel, oracle)


def scipy_local_normalizer(g, prior, labels, omega, pairs):
    """``Z`` from the classes of ``N(x) ∪ N(y)`` counted as
    ``sign(A[xs] + A[ys]) @ onehot(labels)`` in scipy, with the first pair
    that has an unusable label or ``Z = 0`` raising: the oracle of the
    kernel's bits and of its two errors."""
    labels = np.asarray(labels, dtype=np.int64)
    usable = (labels >= 0) & (labels < prior.n_classes)
    nodes = np.flatnonzero(usable)
    onehot = sp.csr_matrix(
        (np.ones(nodes.size), (nodes, labels[nodes])), shape=(g.n_nodes, prior.n_classes)
    )
    xs, ys = pairs[:, 0], pairs[:, 1]
    union = (g.adj[xs] + g.adj[ys]).sign()
    counts = (union @ onehot).toarray()
    cx = np.where(usable[xs], labels[xs], 0)
    cy = np.where(usable[ys], labels[ys], 0)
    probs = prior.probs
    w1x, w2x, w1y, w2y = omega
    z = (
        w1x * (counts * probs.T[cx]).sum(axis=1)
        + w2x * (counts * probs[cx]).sum(axis=1)
        + w1y * (counts * probs.T[cy]).sum(axis=1)
        + w2y * (counts * probs[cy]).sum(axis=1)
    )
    unlabeled = ~usable[xs] | ~usable[ys] | (union @ (~usable).astype(np.float64) > 0)
    first = np.flatnonzero(unlabeled | (z == 0.0))[:1]
    if first.size:
        i = int(first[0])
        if unlabeled[i]:
            involved = np.concatenate([[xs[i], ys[i]], np.sort(union[i].indices)])
            bad = int(involved[np.argmin(usable[involved])])
            raise MissingLabelError(f"node {bad} lacks a usable class label")
        raise DegenerateNormalizerError(
            f"local normalizer for pair ({xs[i]}, {ys[i]}) is zero; "
            "cannot apply class-prior rescoring"
        )
    return z


class TestNormalizerBits:
    """``hc`` with local normalization gives the bits of the scipy ``Z``,
    and raises its errors with its messages."""

    def outcome(self, fn):
        """``fn()``'s scores as bytes, or its error type and message."""
        try:
            return fn().tobytes()
        except (MissingLabelError, DegenerateNormalizerError) as exc:
            return type(exc), str(exc)

    def check(self, g, prior, labels, params, pairs, base="ra"):
        hc = make_heuristic_scorer(
            "hc", g, prior=prior, labels=labels, params=params, base=base
        )

        def want():
            z = scipy_local_normalizer(g, prior, labels, params.omega, pairs)
            fwd, rev = lookup_prior_batch(prior, labels, pairs).T
            bonus = params.beta * (params.alpha1 * fwd + params.alpha2 * rev) / z
            return make_heuristic_scorer(base, g)(pairs) + bonus

        got = self.outcome(lambda: hc(pairs))
        assert got == self.outcome(want)
        return got

    def cases(self, seed, count, unusable):
        """Random labelled graphs with two isolated nodes; with
        ``unusable``, some labels are -1 or past the class count."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(6, 40))
            edges = random_edges(rng, n, float(rng.uniform(0.05, 0.5)))
            labels = rng.integers(0, 3, size=n + 2)
            if unusable:
                labels[rng.random(n + 2) < 0.05] = -1
                labels[rng.random(n + 2) < 0.03] = 3
            g = build_graph(n + 2, edges, labels=labels)
            prior = count_class_links(edges, np.clip(labels, 0, 2), 3)
            params = ClassHeuristicParams(
                alpha1=float(rng.uniform(0, 2)),
                beta=float(rng.uniform(0.5, 2)),
                omega=tuple(float(w) for w in rng.uniform(0.0, 2.0, size=4)),
                normalize_locally=True,
            )
            yield rng, g, prior, labels, params, awkward_pairs(rng, edges, n + 2, 30)

    def test_scores_have_the_scipy_bits(self):
        scored = 0
        for rng, g, prior, labels, params, pairs in self.cases(931, 12, False):
            has_neighbours = (g.degrees()[pairs] > 0).any(axis=1)
            got = self.check(g, prior, labels, params, pairs[has_neighbours])
            scored += isinstance(got, bytes)
        assert scored >= 10

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_errors_name_the_same_node_or_pair(self, monkeypatch, chunk):
        monkeypatch.setattr(heuristics, "_CHUNK", chunk)
        seen = set()
        for rng, g, prior, labels, params, pairs in self.cases(932, 16, True):
            for batch in (pairs, pairs[::-1], pairs[rng.permutation(len(pairs))[:5]]):
                got = self.check(g, prior, labels, params, batch)
                seen.add(got[0] if isinstance(got, tuple) else bytes)
        assert seen == {MissingLabelError, DegenerateNormalizerError, bytes}


class TestBatchClassScorer:
    """The ``hc`` batch scorer with local normalization."""

    def test_normalized_matches_oracle(self):
        rng = np.random.default_rng(908)
        for _ in range(8):
            n = int(rng.integers(8, 30))
            edges = random_edges(rng, n, 0.25)
            labels = rng.integers(0, 3, size=n + 2)
            g = build_graph(n + 2, edges, labels=labels)  # two isolated nodes
            adj = brute_adjacency(edges, n + 2)
            prior = count_class_links(edges, labels, 3)
            omega = tuple(float(w) for w in rng.uniform(0.1, 2.0, size=4))
            params = ClassHeuristicParams(
                alpha1=float(rng.uniform(0, 2)),
                alpha2=float(rng.uniform(0, 2)),
                beta=float(rng.uniform(0.5, 2)),
                omega=omega,
                normalize_locally=True,
            )
            pairs = awkward_pairs(rng, edges, n + 2, 30)
            pairs = pairs[[bool(adj[x] | adj[y]) for x, y in pairs.tolist()]]
            for base, oracle in (("cn", oracle_cn), ("ra", oracle_ra)):
                hc = make_heuristic_scorer(
                    "hc", g, prior=prior, labels=labels, params=params, base=base
                )
                expect = []
                for x, y in pairs.tolist():
                    fwd = prior.probs[labels[x], labels[y]]
                    rev = prior.probs[labels[y], labels[x]]
                    z = oracle_z(adj, labels, prior.probs, x, y, omega)
                    bonus = params.beta * (params.alpha1 * fwd + params.alpha2 * rev) / z
                    expect.append(oracle(adj, x, y) + bonus)
                np.testing.assert_allclose(hc(pairs), expect, rtol=0, atol=1e-12)

    def labelled_path(self):
        """Path 0-1-2-3-4, node 3 unlabeled, isolated labeled nodes 5 and 6."""
        labels = np.array([0, 1, 0, -1, 1, 0, 1])
        g = build_graph(7, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), labels=labels)
        prior = count_class_links(np.array([[0, 1], [1, 2]]), labels, 2)
        return g, prior, labels

    def test_degenerate_normalizer_names_first_pair(self):
        g, prior, labels = self.labelled_path()
        params = ClassHeuristicParams(normalize_locally=True)
        hc = make_heuristic_scorer("hc", g, prior=prior, labels=labels, params=params)
        assert np.isfinite(hc(np.array([[0, 1], [0, 5]]))).all()
        with pytest.raises(DegenerateNormalizerError, match=r"pair \(5, 6\)"):
            hc(np.array([[0, 1], [5, 6], [0, 2]]))

    def test_missing_label_names_first_node(self):
        g, prior, labels = self.labelled_path()
        params = ClassHeuristicParams(normalize_locally=True)
        hc = make_heuristic_scorer("hc", g, prior=prior, labels=labels, params=params)
        # pair (2, 4): both labeled, but their neighbour 3 is not
        with pytest.raises(MissingLabelError, match="node 3 "):
            hc(np.array([[0, 1], [2, 4], [6, 3]]))
        with pytest.raises(MissingLabelError, match="node 3 "):
            hc(np.array([[0, 1], [3, 0]]))
        # per pair, the first failure in pair order wins
        with pytest.raises(DegenerateNormalizerError):
            hc(np.array([[5, 6], [2, 4]]))
        with pytest.raises(MissingLabelError):
            hc(np.array([[2, 4], [5, 6]]))
        plain = make_heuristic_scorer("hc", g, prior=prior, labels=labels)
        assert np.isfinite(plain(np.array([[2, 4], [5, 6]]))).all()
        with pytest.raises(MissingLabelError, match="node 3 "):
            plain(np.array([[0, 1], [1, 3]]))

    @pytest.mark.parametrize("normalize_locally", [False, True])
    def test_memory_does_not_grow_with_the_chunk_count(
        self, monkeypatch, normalize_locally
    ):
        """From 4 to 16 chunks of pairs, the peak memory an ``hc`` call adds
        grows by no more than its output vector of the added pairs and
        64 KiB: the structural score, ``Z``, the prior lookup and the bonus
        are computed one chunk at a time.  The 16 chunks are the 4 four
        times, so that the largest chunk is the same in both calls.  The
        graph is sparse (mean degree 4), so that a chunk's row blocks take
        less than the whole-batch arrays of a batch of 16 chunks."""
        rng = np.random.default_rng(909)
        n = 400
        labels = rng.integers(0, 4, size=n)
        g = build_graph(n, rng.integers(0, n, size=(800, 2)), labels=labels)
        prior = count_class_links(g.undirected_edges(), labels, 4)
        params = ClassHeuristicParams(normalize_locally=normalize_locally)
        hc = make_heuristic_scorer(
            "hc", g, prior=prior, labels=labels, params=params, base="ra"
        )
        monkeypatch.setattr(heuristics, "_CHUNK", 512)
        nodes = np.flatnonzero(g.degrees())
        pairs = nodes[rng.integers(0, nodes.size, size=(4 * 512, 2))]
        many = np.tile(pairs, (4, 1))
        four, sixteen = peak_rise(lambda: hc(pairs)), peak_rise(lambda: hc(many))
        assert sixteen - four <= 8 * (len(many) - len(pairs)) + 65536, (four, sixteen)
