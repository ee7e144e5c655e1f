"""Structural heuristics vs brute-force oracles; class-integrated rescoring."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

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
from classlink.priors import count_class_links

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
