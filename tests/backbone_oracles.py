"""Single-pair reference implementations of the backbone, used as oracles.

Each function works on one pair (or, for propagation, on dense matrices) by
brute force, independently of the sparse link-incidence code in
``classlink.backbone``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from classlink.backbone import BackboneParams
from classlink.errors import ConfigurationError, DimensionError, NumericError
from classlink.graph import Graph
from classlink.heuristics import Scorer


def mpnn_forward(g: Graph, features: np.ndarray, params: BackboneParams) -> np.ndarray:
    """Node embeddings ``H = S · relu(S X W1) · W2`` with a dense operator."""
    a_hat = np.eye(g.n_nodes)
    for u in range(g.n_nodes):
        a_hat[u, g.neighbors(u)] = 1.0
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
    sym = d_inv_sqrt @ a_hat @ d_inv_sqrt
    return sym @ np.maximum(sym @ features @ params.w1, 0.0) @ params.w2


def cnc_probability(g: Graph, scorer: Scorer, x: int, y: int, u: int) -> float:
    """Completion weight of node ``u`` for the candidate pair ``(x, y)``.

    1 for a common neighbor; the predicted link probability for the one
    missing side when ``u`` neighbors exactly one endpoint; 0 otherwise.
    """
    near_x = g.has_edge(u, x)
    near_y = g.has_edge(u, y)
    if near_x and near_y:
        return 1.0
    if near_y:  # u ∈ N(y) \ N(x): weight is the predicted (x, u) link
        return float(scorer(np.array([[x, u]]))[0])
    if near_x:  # u ∈ N(x) \ N(y): weight is the predicted (y, u) link
        return float(scorer(np.array([[y, u]]))[0])
    return 0.0


def common_neighbor_set(g: Graph, x: int, y: int) -> list[int]:
    """Sorted common neighbors from Python sets."""
    return sorted(set(g.neighbors(x).tolist()) & set(g.neighbors(y).tolist()))


def ncn_embed(g: Graph, h: np.ndarray, x: int, y: int) -> np.ndarray:
    """``concat(H[x] ⊙ H[y], Σ_{u ∈ N(x) ∩ N(y)} H[u])`` for one pair."""
    agg = np.zeros(h.shape[1])
    for u in common_neighbor_set(g, x, y):
        agg = agg + h[u]
    return np.concatenate([h[x] * h[y], agg])


def ncnc_embed(
    g: Graph, h: np.ndarray, x: int, y: int, scorer: Scorer
) -> np.ndarray:
    """Union-aggregated embedding: every other node weighted by
    :func:`cnc_probability` (endpoints never complete themselves)."""
    agg = np.zeros(h.shape[1])
    for u in range(g.n_nodes):
        if u in (x, y):
            continue
        agg = agg + cnc_probability(g, scorer, x, y, u) * h[u]
    return np.concatenate([h[x] * h[y], agg])


def fuse_and_predict(
    e: np.ndarray, priors: tuple[float, float] | None, params: BackboneParams
) -> float:
    """MLP head on one edge embedding; probability strictly in (0, 1)."""
    e = np.asarray(e, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(e)):
        raise NumericError("edge embedding contains non-finite values")
    if params.use_priors:
        if priors is None:
            raise ConfigurationError("params expect prior features, none given")
        z = np.concatenate([e, np.asarray(priors, dtype=np.float64)])
    else:
        z = e
    if z.size != params.wh.shape[0]:
        raise DimensionError(
            f"fusion input width {z.size} does not match Wh fan-in {params.wh.shape[0]}"
        )
    act = np.maximum(z @ params.wh + params.bh, 0.0)
    logit = float(act @ params.wo + params.bo)
    return float(np.clip(expit(logit), 1e-12, 1.0 - 1e-12))
