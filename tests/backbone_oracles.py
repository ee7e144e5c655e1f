"""Single-pair reference implementations of the backbone, used as oracles.

Each function works on one pair (or, for propagation, on dense matrices) by
brute force, independently of the sparse link-incidence code in
``classlink.backbone``; :func:`dense_pass` redoes one forward/backward pass
with dense matrices and the first layer in its ``(S X) W1`` order;
:func:`gradient_check` compares the hand-derived gradients with central
finite differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import expit

from classlink.backbone import BackboneParams, LinkBatch, backward, forward_loss
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


def dense_pass(params: BackboneParams, batch: LinkBatch) -> dict[str, np.ndarray]:
    """``z1``, ``h`` and the ``W1`` gradient of the batch's mean BCE, with
    every matrix dense and ``S X`` formed first: ``z1 = (S X) W1`` and
    ``dW1 = (S X)ᵀ dZ1``."""
    s = batch.sym.toarray()
    sx = s @ batch.x.toarray()
    z1 = sx @ params.w1
    h = s @ np.maximum(z1, 0.0) @ params.w2

    xs, ys = batch.pairs[:, 0], batch.pairs[:, 1]
    incidence = batch.incidence.toarray()
    z = np.concatenate([h[xs] * h[ys], incidence @ h], axis=1)
    if params.use_priors:
        z = np.concatenate([z, batch.priors], axis=1)
    pre_h = z @ params.wh + params.bh
    logits = np.maximum(pre_h, 0.0) @ params.wo + params.bo

    dlogits = (expit(logits) - batch.targets) / len(logits)
    dz = (np.outer(dlogits, params.wo) * (pre_h > 0.0)) @ params.wh.T
    d = params.dim
    de1, de2 = dz[:, :d], dz[:, d : 2 * d]
    eye = np.eye(h.shape[0])
    dh = eye[xs].T @ (de1 * h[ys]) + eye[ys].T @ (de1 * h[xs]) + incidence.T @ de2
    dz1 = (s.T @ dh @ params.w2.T) * (z1 > 0.0)
    return {"z1": z1, "h": h, "w1": sx.T @ dz1}


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


def gradient_check(
    params: BackboneParams, batch: LinkBatch, epsilon: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error uses ``|a - n| / max(1e-6, |a| + |n|)`` so that entries
    where both gradients vanish (dead ReLU units) compare at absolute scale.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    _, cache = forward_loss(params, batch)
    grads = backward(params, batch, cache)

    worst = 0.0

    def fd(get: Callable[[], float], put: Callable[[float], None]) -> float:
        orig = get()
        put(orig + epsilon)
        up, _ = forward_loss(params, batch)
        put(orig - epsilon)
        down, _ = forward_loss(params, batch)
        put(orig)
        return (up - down) / (2.0 * epsilon)

    for name, arr in params.arrays().items():
        ga = np.asarray(grads[name])
        flat = arr.reshape(-1)
        for i in range(flat.size):
            numeric = fd(
                lambda: float(flat[i]),
                lambda v: flat.__setitem__(i, v),
            )
            analytic = float(ga.reshape(-1)[i])
            denom = max(1e-6, abs(analytic) + abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)

    numeric = fd(
        lambda: float(params.bo),
        lambda v: setattr(params, "bo", v),
    )
    denom = max(1e-6, abs(float(grads["bo"])) + abs(numeric))
    worst = max(worst, abs(float(grads["bo"]) - numeric) / denom)
    return worst
