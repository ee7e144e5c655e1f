"""Single-pair reference implementations of the backbone, used as oracles.

Each function works on one pair (or, for propagation, on dense matrices) by
brute force, independently of the sparse link-incidence code in
``classlink.backbone``; :func:`scipy_operator` and :func:`scipy_incidence`
build the operator and the link incidence from scipy's sparse products,
whose arrays the backbone's numpy builds must equal, and
:func:`scipy_node_sums` is a head chunk's ``dH`` scatter as scipy's
transposed product, whose bits the backbone's must equal; :func:`dense_pass`
redoes one forward/backward pass with dense matrices and the first layer in
its ``(S X) W1`` order; :func:`stacked_step` redoes a training step with a
freshly allocated head and an n-wide ``dH`` scatter per chunk;
:func:`concat_batches` is the one batch of two batches' rows, which a
training step reads as one row range without forming it;
:func:`gradient_check` compares the hand-derived gradients with central
finite differences of a forward-only loss.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from classlink import backbone
from classlink.backbone import (
    BackboneParams,
    LinkBatch,
    _head,
    _sigmoid,
    loss_and_grads,
    predict_batch,
    propagate,
)
from classlink.csr import Csr
from classlink.errors import ConfigurationError, DimensionError, NumericError
from classlink.graph import Graph, pair_chunks
from classlink.heuristics import Scorer

from conftest import scipy_csr


def csr(a) -> sp.csr_matrix:
    """The scipy CSR matrix over the arrays of one of the backbone's
    ``(indptr, indices, data, shape)`` tuples."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def scipy_operator(g: Graph) -> sp.csr_matrix:
    """``D̂^-1/2 (A + I) D̂^-1/2`` from scipy's sparse products."""
    scale = sp.diags(1.0 / np.sqrt(g.degrees().astype(np.float64) + 1.0))
    return (scale @ (scipy_csr(g) + sp.identity(g.n_nodes, format="csr")) @ scale).tocsr()


def scipy_incidence(
    g: Graph, pairs: np.ndarray, mode: str, completion: Scorer | None = None
) -> sp.csr_matrix:
    """The link incidence from scipy's products: ``A[xs] ⊙ A[ys]``, or in
    ncnc the coded union ``A[xs] + 2 A[ys]`` without the pair's endpoints,
    one-sided members weighted by ``completion`` in row-major order."""
    xs, ys, adj = pairs[:, 0], pairs[:, 1], scipy_csr(g)
    if mode != "ncnc":
        return adj[xs].multiply(adj[ys]).tocsr()
    code = (adj[xs] + 2.0 * adj[ys]).tocsr()
    rows = np.repeat(np.arange(len(xs)), np.diff(code.indptr))
    keep = (code.indices != xs[rows]) & (code.indices != ys[rows])
    rows, nodes, codes = rows[keep], code.indices[keep], code.data[keep]
    weights = np.ones(nodes.size)
    one_sided = codes != 3.0
    if one_sided.any():
        r = rows[one_sided]
        anchor = np.where(codes[one_sided] == 1.0, ys[r], xs[r])
        weights[one_sided] = completion(np.column_stack([anchor, nodes[one_sided]]))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(xs)))])
    return sp.csr_matrix((weights, nodes, indptr), shape=code.shape)


def scipy_node_sums(
    xs: np.ndarray, ys: np.ndarray, incidence, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes that the stacked rows ``[Px; Py; M]`` touch, ascending
    (``np.unique``), and ``scatter.T @ vals`` with ``scatter`` the stacked
    rows over those columns (``searchsorted``), from scipy's constructor."""
    c = len(xs)
    nodes = np.concatenate([xs, ys, incidence.indices])
    touched = np.unique(nodes)
    scatter = sp.csr_matrix(
        (
            np.concatenate([np.ones(2 * c), incidence.data]),
            np.searchsorted(touched, nodes),
            np.concatenate([np.arange(2 * c), 2 * c + incidence.indptr]),
        ),
        shape=(3 * c, touched.size),
    )
    return touched, scatter.T @ vals


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
    s = csr(batch.sym).toarray()
    sx = s @ csr(batch.x).toarray()
    z1 = sx @ params.w1
    h = s @ np.maximum(z1, 0.0) @ params.w2

    xs, ys = batch.pairs[:, 0], batch.pairs[:, 1]
    incidence = csr(batch.incidence).toarray()
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


def _indicator_rows(nodes: np.ndarray, n: int) -> sp.csr_matrix:
    """One row ``e_v`` per node ``v``."""
    return sp.csr_matrix(
        (np.ones(nodes.size), nodes, np.arange(nodes.size + 1)), shape=(nodes.size, n)
    )


def stacked_step(
    params: BackboneParams, batch: LinkBatch
) -> tuple[float, dict[str, np.ndarray | float], np.ndarray]:
    """Loss, gradients and ``dH`` of the batch's mean BCE, with the head run
    chunk by chunk as ``loss_and_grads`` splits it but every array of the
    head allocated afresh: ``z`` by concatenation, and each chunk's ``dH``
    terms as one product ``scatter.T @ vals`` over all n columns of the
    stacked rows ``[Px; Py; M]``."""
    fwd = propagate(params, batch.sym, batch.x)
    h = fwd["h"]
    n, d = h.shape
    sym, x, incidence = csr(batch.sym), csr(batch.x), csr(batch.incidence)
    m = len(batch.pairs)
    logits, dlogits = np.empty(m), np.empty(m)
    dwh, dbh = np.zeros_like(params.wh), np.zeros_like(params.bh)
    dwo, dh = np.zeros_like(params.wo), np.zeros_like(h)
    for rows in pair_chunks(m, backbone.HEAD_CHUNK):
        xs, ys = batch.pairs[rows, 0], batch.pairs[rows, 1]
        z = np.concatenate([h[xs] * h[ys], incidence[rows] @ h], axis=1)
        if params.use_priors:
            z = np.concatenate([z, batch.priors[rows]], axis=1)
        pre_h = z @ params.wh + params.bh
        act = np.maximum(pre_h, 0.0)
        logits[rows] = act @ params.wo + params.bo

        dlogits[rows] = (_sigmoid(logits[rows]) - batch.targets[rows]) / m
        dwo += act.T @ dlogits[rows]
        dpre_h = np.outer(dlogits[rows], params.wo) * (pre_h > 0.0)
        dwh += z.T @ dpre_h
        dbh += dpre_h.sum(axis=0)
        dz = dpre_h @ params.wh.T
        de1, de2 = dz[:, :d], dz[:, d : 2 * d]
        scatter = sp.vstack(
            [_indicator_rows(xs, n), _indicator_rows(ys, n), incidence[rows]],
            format="csr",
        )
        dh += scatter.T @ np.concatenate([de1 * h[ys], de1 * h[xs], de2])
    loss = float(np.mean(np.logaddexp(0.0, logits) - batch.targets * logits))

    dz1 = (sym @ (dh @ params.w2.T)) * (fwd["z1"] > 0.0)
    grads = {
        "w1": x.T @ (sym @ dz1),
        "w2": fwd["q"].T @ dh,
        "wh": dwh,
        "bh": dbh,
        "wo": dwo,
        "bo": float(dlogits.sum()),
    }
    return loss, grads, dh


def concat_batches(a: LinkBatch, b: LinkBatch) -> LinkBatch:
    """The batch of ``a``'s rows, then ``b``'s, as concatenated arrays."""
    priors = None
    if a.priors is not None and b.priors is not None:
        priors = np.concatenate([a.priors, b.priors])
    ia, ib = a.incidence, b.incidence
    return LinkBatch(
        sym=a.sym,
        x=a.x,
        xt=a.xt,
        pairs=np.concatenate([a.pairs, b.pairs]),
        targets=np.concatenate([a.targets, b.targets]),
        incidence=Csr(
            np.concatenate([ia.indptr, ia.indptr[-1] + ib.indptr[1:]]),
            np.concatenate([ia.indices, ib.indices]),
            np.concatenate([ia.data, ib.data]),
            (ia.shape[0] + ib.shape[0], ia.shape[1]),
        ),
        priors=priors,
    )


def predict(params: BackboneParams, batch: LinkBatch) -> np.ndarray:
    """:func:`predict_batch` on the node embeddings ``params`` propagate to."""
    return predict_batch(params, batch, propagate(params, batch.sym, batch.x)["h"])


def forward_loss(params: BackboneParams, batch: LinkBatch) -> float:
    """Mean BCE of the batch from a forward-only pass: propagation, then the
    head's logits chunk by chunk, with no gradient computed."""
    h = propagate(params, batch.sym, batch.x)["h"]
    chunks = pair_chunks(len(batch.pairs), backbone.HEAD_CHUNK)
    logits = np.concatenate([_head(params, batch, rows, h)[2] for rows in chunks])
    return float(np.mean(np.logaddexp(0.0, logits) - batch.targets * logits))


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
    _, grads = loss_and_grads(params, batch)

    worst = 0.0

    def fd(get: Callable[[], float], put: Callable[[float], None]) -> float:
        orig = get()
        put(orig + epsilon)
        up = forward_loss(params, batch)
        put(orig - epsilon)
        down = forward_loss(params, batch)
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
