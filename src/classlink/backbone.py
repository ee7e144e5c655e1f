"""Link-prediction backbone: 2-layer message passing over the training
adjacency, neighborhood-aware edge embeddings, and a small fusion MLP that
can consume class-prior features.

Which nodes feed which candidate pair is one sparse matrix.  A batch of
``m`` pairs ``(xs, ys)`` carries a CSR *link-incidence* matrix ``M`` of shape
``(m, n)``: ``M[i, u]`` is the weight of node ``u`` in pair ``i``'s
neighborhood aggregation.  With ``A`` the 0/1 adjacency of the training graph:

* ncn: ``M = A[xs] ⊙ A[ys]``, the common neighbors with weight 1;
* ncnc: ``A[xs] + 2·A[ys]`` codes each member of the neighborhood union as 1
  (``N(x)`` only), 2 (``N(y)`` only) or 3 (both).  The pair's own endpoints
  are dropped, code 3 weighs 1, and a one-sided member ``u`` weighs the
  predicted probability of its missing link, ``(y, u)`` for code 1 and
  ``(x, u)`` for code 2, from one completion-scorer call per batch.

All gradients are derived and implemented by hand (no autodiff):

* propagation  ``H = S · relu(S X W1) · W2`` with the symmetric operator
  ``S = D̂^{-1/2} (A + I) D̂^{-1/2}`` built from training edges only;
* edge embedding ``E = concat(H[xs] ⊙ H[ys], M H)``;
* fusion ``p = σ(relu(z Wh + bh) · wo + bo)`` on ``z = concat(E, priors)``
  (priors omitted when ``use_priors`` is off);
* loss: mean binary cross-entropy in its numerically stable softplus form,
  over training positives plus an equal number of freshly resampled
  negatives per epoch;
* backward: with ``Px``/``Py`` the one-hot endpoint selectors,
  ``dH = Pxᵀ (dE1 ⊙ H[ys]) + Pyᵀ (dE1 ⊙ H[xs]) + Mᵀ dE2``, so the same matrix
  drives the forward aggregation and the gradient scatter.

The first layer runs on the training graph's own CSR features ``X`` in the
usual GCN order, ``S (X W1)`` forward and ``W1``'s gradient
``Xᵀ (S dZ1)``, so no layer holds a dense ``n × F`` array and each product
costs the stored entries of ``X`` or ``S`` times ``d``.  Propagation is
separate from the edge head, so a frozen model propagates once:
:func:`make_scorer` caches its ``H``, and training propagates once per epoch
for both validation batches.

The edge head runs over :func:`~classlink.graph.pair_chunks` of
``HEAD_CHUNK`` pairs.  A training step (:func:`loss_and_grads`) runs the
head once per chunk and takes that chunk's share of the head gradients and
``dH`` from the same forward, so nothing of the head is kept or recomputed
between chunks.  A chunk allocates its working set once: one ``z`` that is
overwritten by ``dz``, one hidden array that holds the pre-activations, the
activations and then ``dpre_h`` and is freed once ``dz`` is formed, and the
``3·chunk × d`` values of the ``dH`` scatter.  The scatter runs over the
nodes the chunk touches, so no chunk allocates anything n-sized: beyond the
node-sized arrays and a few pair-length vectors, the head's memory is
O(chunk × (2d + hidden)) and a step takes time linear in pairs plus nodes.
Each pair's row of the head is independent, so chunking leaves every
prediction bit-identical; it only reorders the gradient sums, which move in
their last bits.  Computing in place changes no bits at all, nor does the
touched-row scatter: each node's terms are summed in the same order as over
all n columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .config import MODES, TrainConfig, check_mode
from .errors import ConfigurationError, DimensionError, ParseError, TrainingError
from .evaluation import mrr, rank_positive
from .graph import (
    EdgeSplit, Graph, Scorer, check_pairs, chunked_scorer, pair_chunks, sample_negatives
)
from .priors import ClassPriorMatrix, lookup_prior_batch
from .rand import STREAM_INIT, STREAM_TRAIN_NEG, derive_seed, make_rng

N_PRIOR_FEATURES = 2  # (P(c_y|c_x), P(c_x|c_y)) appended to the embedding

# Pairs per head chunk: the fusion head's pair-sized arrays never hold more
# rows than this, whatever the batch size.  A power of two, so that chunk
# boundaries never split the small row blocks that BLAS kernels work in, and
# every logit keeps the bits of an unchunked pass.
HEAD_CHUNK = 1024
# Head chunks per slice of a model scorer's pairs.  Each slice builds one
# incidence (and, in ncnc, makes one completion-scorer call), so longer
# slices mean fewer builds, while the head still runs per HEAD_CHUNK pairs.
SCORER_CHUNKS = 16


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class BackboneParams:
    """All trainable arrays plus the hyperparameters that shaped them."""

    w1: np.ndarray  # (F, d)
    w2: np.ndarray  # (d, d)
    wh: np.ndarray  # (2d [+2], h)
    bh: np.ndarray  # (h,)
    wo: np.ndarray  # (h,)
    bo: float
    use_priors: bool
    dim: int
    hidden: int
    seed: int

    def copy(self) -> "BackboneParams":
        return replace(self, **{name: arr.copy() for name, arr in self.arrays().items()})

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "w2": self.w2, "wh": self.wh, "bh": self.bh, "wo": self.wo}


@dataclass
class TrainedModel:
    """A trained backbone's weights and mode; :func:`make_scorer` takes the
    class prior and labels that a prior-using model scores with."""

    params: BackboneParams
    mode: str
    completion: BackboneParams | None = None  # frozen stage-1 scorer (ncnc)


def init_params(
    n_features: int, config: TrainConfig, use_priors: bool
) -> BackboneParams:
    """Glorot-normal weights, zero biases, on the init stream of ``seed``."""
    if n_features < 1:
        raise ConfigurationError("backbone needs at least one node feature")
    rng = make_rng(config.seed, STREAM_INIT)
    d, h = config.dim, config.hidden
    z_dim = 2 * d + (N_PRIOR_FEATURES if use_priors else 0)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        return scale * rng.standard_normal((fan_in, fan_out))

    return BackboneParams(
        w1=glorot(n_features, d),
        w2=glorot(d, d),
        wh=glorot(z_dim, h),
        bh=np.zeros(h),
        wo=glorot(h, 1)[:, 0],
        bo=0.0,
        use_priors=use_priors,
        dim=d,
        hidden=h,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def normalized_operator(g: Graph) -> sp.csr_matrix:
    """Symmetric normalized adjacency with self-loops over a graph."""
    deg_hat = g.degrees().astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg_hat)
    hat = g.adj + sp.identity(g.n_nodes, format="csr")
    scale = sp.diags(inv_sqrt)
    return (scale @ hat @ scale).tocsr()


def propagate(
    params: BackboneParams, sym: sp.csr_matrix, x: sp.csr_matrix
) -> dict[str, np.ndarray]:
    """Node embeddings ``h = S · relu(S X W1) · W2`` plus the intermediates
    the backward pass reuses (``z1``, ``h1``, ``q = S h1``)."""
    if x.shape[1] != params.w1.shape[0]:
        raise DimensionError(
            f"feature width {x.shape[1]} does not match W1 fan-in {params.w1.shape[0]}"
        )
    z1 = sym @ (x @ params.w1)
    h1 = np.maximum(z1, 0.0)
    q = sym @ h1
    return {"z1": z1, "h1": h1, "q": q, "h": q @ params.w2}


# ---------------------------------------------------------------------------
# Batches, forward, backward
# ---------------------------------------------------------------------------


@dataclass
class LinkBatch:
    """Everything one forward/backward pass needs, with a fixed incidence."""

    sym: sp.csr_matrix  # (n, n) normalized operator over training edges
    x: sp.csr_matrix  # (n, F) the training graph's CSR features, not a copy
    pairs: np.ndarray  # (m, 2)
    targets: np.ndarray  # (m,) in {0, 1}
    incidence: sp.csr_matrix  # (m, n): weight of node u in pair i's aggregation
    priors: np.ndarray | None  # (m, 2) prior features or None

    @property
    def u_idx(self) -> np.ndarray:
        """Node of every neighborhood entry: a read-only view of
        ``incidence.indices``, from which the benchmark's per-layer trace
        counts entries."""
        view = self.incidence.indices.view()
        view.flags.writeable = False
        return view


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that cannot overflow: ``exp`` only sees ``-|x|``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _head(
    params: BackboneParams, batch: LinkBatch, rows: slice, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fusion input ``z``, hidden activations and logits of the pairs in
    ``rows``, on precomputed node embeddings.

    ``z`` is filled in place, block by block, and bias and ReLU are applied
    in place, so the chunk allocates each of its arrays once.
    """
    xs, ys = batch.pairs[rows, 0], batch.pairs[rows, 1]
    d = h.shape[1]
    z = np.empty((len(xs), 2 * d + (N_PRIOR_FEATURES if params.use_priors else 0)))
    np.multiply(h[xs], h[ys], out=z[:, :d])
    z[:, d : 2 * d] = batch.incidence[rows] @ h
    if params.use_priors:
        if batch.priors is None:
            raise ConfigurationError("batch lacks prior features but use_priors is on")
        z[:, 2 * d :] = batch.priors[rows]
    act = z @ params.wh
    act += params.bh
    np.maximum(act, 0.0, out=act)
    return z, act, act @ params.wo + params.bo


def predict_batch(params: BackboneParams, batch: LinkBatch, h: np.ndarray) -> np.ndarray:
    """Link probabilities for a batch, strictly inside (0, 1), on the node
    embeddings ``h`` that ``params`` propagate to."""
    logits = np.empty(len(batch.pairs))
    for rows in pair_chunks(len(logits), HEAD_CHUNK):
        logits[rows] = _head(params, batch, rows, h)[2]
    return np.clip(_sigmoid(logits), 1e-12, 1.0 - 1e-12)


def _head_grads(
    params: BackboneParams, batch: LinkBatch, h: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray | float], np.ndarray]:
    """Logits of the batch, the gradients of its mean BCE w.r.t. the head's
    parameters (``wh``, ``bh``, ``wo``, ``bo``), and ``dH``, its gradient
    w.r.t. the node embeddings.

    Each chunk's head runs once, and its share of the gradients comes from
    that same forward: ``dpre_h`` is written over the activations once
    ``dwo`` and the ReLU mask are taken, and ``dz`` over ``z`` once ``dwh``
    is formed.  The chunk's ``dH`` terms,
    ``Pxᵀ (dE1 ⊙ H[ys]) + Pyᵀ (dE1 ⊙ H[xs]) + Mᵀ dE2``, are one product over
    the stacked rows ``[Px; Py; M]`` restricted to the nodes the chunk
    touches, so no chunk allocates anything n-sized.  ``H[xs]`` and
    ``H[ys]`` are gathered again for it rather than kept from the forward:
    one gather at a time takes half the memory of the pair that the
    forward would have to keep alive.
    """
    d = h.shape[1]
    m = len(batch.pairs)
    logits, dlogits = np.empty(m), np.empty(m)
    dwh, dbh = np.zeros_like(params.wh), np.zeros_like(params.bh)
    dwo, dh = np.zeros_like(params.wo), np.zeros_like(h)
    for rows in pair_chunks(m, HEAD_CHUNK):
        z, act, logits[rows] = _head(params, batch, rows, h)
        dl = dlogits[rows]
        dl[:] = (_sigmoid(logits[rows]) - batch.targets[rows]) / m
        dwo += act.T @ dl
        alive = act > 0.0
        dpre_h = np.multiply(dl[:, None], params.wo, out=act)
        dpre_h *= alive
        dwh += z.T @ dpre_h
        dbh += dpre_h.sum(axis=0)
        dz = np.matmul(dpre_h, params.wh.T, out=z)
        del act, alive, dpre_h  # the scatter values take their place
        de1 = dz[:, :d]
        de2 = dz[:, d : 2 * d]  # prior columns are inputs; their grads stop here

        # Columns of the stacked rows are renumbered to the touched nodes in
        # node order, so each node's terms are summed in the same order as
        # over all n columns.
        xs, ys = batch.pairs[rows, 0], batch.pairs[rows, 1]
        c = len(xs)
        inc = batch.incidence[rows]
        nodes = np.concatenate([xs, ys, inc.indices])
        touched = np.unique(nodes)
        scatter = sp.csr_matrix(
            (
                np.concatenate([np.ones(2 * c), inc.data]),
                np.searchsorted(touched, nodes),
                np.concatenate([np.arange(2 * c), 2 * c + inc.indptr]),
            ),
            shape=(3 * c, touched.size),
        )
        del nodes, inc
        vals = np.empty((3 * c, d))
        np.multiply(de1, h[ys], out=vals[:c])
        np.multiply(de1, h[xs], out=vals[c : 2 * c])
        vals[2 * c :] = de2
        dh[touched] += scatter.T @ vals
    return logits, {"wh": dwh, "bh": dbh, "wo": dwo, "bo": float(dlogits.sum())}, dh


def loss_and_grads(
    params: BackboneParams, batch: LinkBatch
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Mean BCE over the batch and its hand-derived gradient w.r.t. every
    parameter: the head's chunk loop (:func:`_head_grads`), then one
    backpropagation of ``dH`` through propagation."""
    fwd = propagate(params, batch.sym, batch.x)
    logits, head_grads, dh = _head_grads(params, batch, fwd["h"])
    # BCE in softplus form: softplus(logit) - target * logit
    loss = float(np.mean(np.logaddexp(0.0, logits) - batch.targets * logits))

    dw2 = fwd["q"].T @ dh
    dq = dh @ params.w2.T
    dh1 = batch.sym @ dq  # sym is symmetric, so S^T = S
    dz1 = dh1 * (fwd["z1"] > 0.0)
    dw1 = batch.x.T @ (batch.sym @ dz1)
    return loss, {"w1": dw1, "w2": dw2, **head_grads}


# ---------------------------------------------------------------------------
# Batch builder
# ---------------------------------------------------------------------------


@dataclass
class BatchBuilder:
    """Assembles :class:`LinkBatch` objects for a fixed training graph."""

    adj: sp.csr_matrix  # (n, n) 0/1 adjacency over training edges
    sym: sp.csr_matrix
    x: sp.csr_matrix  # (n, F) the training graph's CSR features, not a copy
    mode: str
    prior: ClassPriorMatrix | None
    labels: np.ndarray | None
    completion_scorer: Scorer | None = None

    @classmethod
    def create(
        cls,
        g_train: Graph,
        mode: str,
        prior: ClassPriorMatrix | None,
        labels: np.ndarray | None,
        completion_scorer: Scorer | None = None,
    ) -> "BatchBuilder":
        check_mode(mode)
        if mode == "ncnc" and completion_scorer is None:
            raise ConfigurationError("ncnc batches need a completion scorer")
        if g_train.n_features == 0:
            raise ConfigurationError("backbone needs node features")
        return cls(
            adj=g_train.adj,
            sym=normalized_operator(g_train),
            x=g_train.features,
            mode=mode,
            prior=prior,
            labels=labels,
            completion_scorer=completion_scorer,
        )

    def build(self, pairs: np.ndarray, targets: np.ndarray | None = None) -> LinkBatch:
        pairs = check_pairs(pairs, self.adj.shape[0])
        if targets is None:
            targets = np.zeros(len(pairs))
        xs, ys = pairs[:, 0], pairs[:, 1]
        if self.mode == "ncnc":
            incidence = self._completion_incidence(xs, ys)
        else:  # common neighbors, weight 1
            incidence = self.adj[xs].multiply(self.adj[ys]).tocsr()
        priors = None
        if self.prior is not None and self.labels is not None:
            priors = lookup_prior_batch(self.prior, self.labels, pairs)
        return LinkBatch(
            sym=self.sym,
            x=self.x,
            pairs=pairs,
            targets=np.asarray(targets, dtype=np.float64),
            incidence=incidence,
            priors=priors,
        )

    def _completion_incidence(self, xs: np.ndarray, ys: np.ndarray) -> sp.csr_matrix:
        """Neighborhood unions with completion weights.

        ``A[xs] + 2 A[ys]`` codes each union member 1 (``N(x)`` only), 2
        (``N(y)`` only) or 3 (both).  Common neighbors weigh 1; a one-sided
        member weighs the predicted probability of its missing link, fetched
        from the completion scorer in one call, in row-major entry order.
        """
        code = (self.adj[xs] + 2.0 * self.adj[ys]).tocsr()
        rows = np.repeat(np.arange(xs.size), np.diff(code.indptr))
        nodes = code.indices
        keep = (nodes != xs[rows]) & (nodes != ys[rows])  # endpoints never complete themselves
        rows, nodes, code_of = rows[keep], nodes[keep], code.data[keep]
        weights = np.ones(nodes.size)
        one_sided = code_of != 3.0
        if one_sided.any():
            # u only near x (code 1) misses (y, u); u only near y (code 2) misses (x, u)
            r = rows[one_sided]
            anchor = np.where(code_of[one_sided] == 1.0, ys[r], xs[r])
            missing = np.column_stack([anchor, nodes[one_sided]])
            weights[one_sided] = np.asarray(self.completion_scorer(missing))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=xs.size))])
        return sp.csr_matrix((weights, nodes, indptr), shape=code.shape)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(
    g: Graph,
    split: EdgeSplit,
    prior: ClassPriorMatrix | None,
    labels: np.ndarray | None,
    mode: str,
    config: TrainConfig = TrainConfig(),
) -> tuple[TrainedModel, list[dict]]:
    """Full-batch gradient descent with momentum and early stopping.

    Uses training edges for propagation and link supervision; ``prior`` is
    the class prior counted on the training edges, looked up through
    ``labels`` (both unused in ``backbone_only``).  Validation MRR (shared
    negative pool) drives early stopping with the best parameters kept.
    ``mode='ncnc'`` first trains and freezes an ``ncn`` completion scorer on
    a derived seed, then trains the final model on completion-weighted
    neighborhoods.  Deterministic given ``config.seed``.
    """
    check_mode(mode)
    use_priors = mode != "backbone_only"
    if use_priors and (prior is None or labels is None):
        raise ConfigurationError(
            f"mode '{mode}' needs a class prior and the labels of its label source"
        )
    if g.n_features == 0:
        raise ConfigurationError("backbone needs node features")
    if len(split.valid_edges) == 0 or len(split.valid_negatives) == 0:
        raise ConfigurationError(
            "early stopping needs a non-empty validation split and negative pool"
        )

    g_train = split.train_graph(g)
    if use_priors:
        labels = np.asarray(labels, dtype=np.int64)
    else:
        prior = labels = None

    completion_params: BackboneParams | None = None
    completion_scorer: Scorer | None = None
    if mode == "ncnc":
        stage1_cfg = replace(config, seed=derive_seed(config.seed, STREAM_INIT))
        stage1_model, _ = train(g, split, prior, labels, "ncn", stage1_cfg)
        completion_params = stage1_model.params
        completion_scorer = make_scorer(stage1_model, g_train, prior, labels)

    builder = BatchBuilder.create(g_train, mode, prior, labels, completion_scorer)
    params = init_params(g.n_features, config, use_priors)

    positives = split.train_edges
    pos_batch = builder.build(positives, np.ones(len(positives)))
    valid_batch = builder.build(split.valid_edges)
    valid_pool_batch = builder.build(split.valid_negatives)

    velocity = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    velocity_bo = 0.0
    best_params = params.copy()
    best_val = -np.inf
    patience_left = config.patience
    log: list[dict] = []

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        negatives = sample_negatives(
            g_train, len(positives), (config.seed, STREAM_TRAIN_NEG, epoch)
        )
        neg_batch = builder.build(negatives, np.zeros(len(negatives)))
        batch = _concat_batches(pos_batch, neg_batch)

        loss, grads = loss_and_grads(params, batch)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at epoch {epoch}; try a smaller learning rate"
            )
        # v <- momentum * v - lr * grad and the step, in place; the
        # gradients are this step's own arrays, so they take the lr factor
        for name, arr in params.arrays().items():
            step, grad = velocity[name], grads[name]
            step *= config.momentum
            grad *= config.lr
            step -= grad
            arr += step
        velocity_bo = config.momentum * velocity_bo - config.lr * float(grads["bo"])
        params.bo = float(params.bo) + velocity_bo

        h = propagate(params, builder.sym, builder.x)["h"]
        val_pos = predict_batch(params, valid_batch, h)
        val_neg = predict_batch(params, valid_pool_batch, h)
        val_mrr = mrr(rank_positive(val_pos, val_neg))
        # Nothing of this epoch's step or validation lives through the next
        # epoch's batch build.
        del grads, negatives, neg_batch, batch, h, val_pos, val_neg

        log.append(
            {
                "epoch": epoch,
                "loss": loss,
                "val_mrr": val_mrr,
                "seconds": time.perf_counter() - t0,
            }
        )
        if val_mrr > best_val:
            best_val = val_mrr
            for best, arr in zip(best_params.arrays().values(), params.arrays().values()):
                best[...] = arr
            best_params.bo = params.bo
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left == 0:
                break

    return TrainedModel(best_params, mode, completion_params), log


def _concat_batches(a: LinkBatch, b: LinkBatch) -> LinkBatch:
    priors = None
    if a.priors is not None and b.priors is not None:
        priors = np.concatenate([a.priors, b.priors])
    return LinkBatch(
        sym=a.sym,
        x=a.x,
        pairs=np.concatenate([a.pairs, b.pairs]),
        targets=np.concatenate([a.targets, b.targets]),
        incidence=sp.vstack([a.incidence, b.incidence], format="csr"),
        priors=priors,
    )


def make_scorer(
    model: TrainedModel,
    g_train: Graph,
    prior: ClassPriorMatrix | None = None,
    labels: np.ndarray | None = None,
) -> Scorer:
    """Batch scorer closing over a trained model and its training graph.

    A model outside ``backbone_only`` scores with the class prior it was
    trained with and the labels it was counted from.  The model's node
    embeddings are computed once, here, so the parameters are taken as they
    are at this call.  The scorer checks the batch's ids before it builds
    anything, then the incidence of one slice of ``SCORER_CHUNKS`` head
    chunks of pairs at a time (read at each call), so its memory is set by
    the slice, not by the number of pairs, and every probability keeps the
    bits of a one-batch pass.
    """
    if not model.params.use_priors:
        prior = labels = None
    elif prior is None or labels is None:
        raise ConfigurationError(
            f"a model in mode '{model.mode}' scores with the class prior it was "
            "trained with and the labels it was counted from"
        )
    completion_scorer = None
    if model.mode == "ncnc":
        if model.completion is None:
            raise ConfigurationError("ncnc model is missing its completion scorer")
        stage1 = TrainedModel(model.completion, "ncn")
        completion_scorer = make_scorer(stage1, g_train, prior, labels)
    builder = BatchBuilder.create(g_train, model.mode, prior, labels, completion_scorer)
    h = propagate(model.params, builder.sym, builder.x)["h"]
    return chunked_scorer(
        lambda chunk: predict_batch(model.params, builder.build(chunk), h),
        g_train.n_nodes,
        lambda: SCORER_CHUNKS * HEAD_CHUNK,
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


_PARAM_FIELDS = {"bo": float, "use_priors": bool, "dim": int, "hidden": int, "seed": int}
_PARAM_ARRAYS = {
    "w1": (artifacts.FLOAT, (None, None)),
    "w2": (artifacts.FLOAT, (None, None)),
    "wh": (artifacts.FLOAT, (None, None)),
    "bh": (artifacts.FLOAT, (None,)),
    "wo": (artifacts.FLOAT, (None,)),
}


def _params_payload(params: BackboneParams | None) -> dict | None:
    if params is None:
        return None
    return {**{name: getattr(params, name) for name in _PARAM_FIELDS}, **params.arrays()}


def _params_from_payload(path: str | Path, payload: dict | None) -> BackboneParams | None:
    if payload is None:
        return None
    params = BackboneParams(**artifacts.decode(path, payload, _PARAM_FIELDS, _PARAM_ARRAYS))
    d, h = params.dim, params.hidden
    z_dim = 2 * d + (N_PRIOR_FEATURES if params.use_priors else 0)
    shapes = {
        "w1": (len(params.w1), d), "w2": (d, d), "wh": (z_dim, h), "bh": (h,), "wo": (h,)
    }
    bad = [name for name, shape in shapes.items() if getattr(params, name).shape != shape]
    if bad:
        raise ParseError(f"{path}: {', '.join(bad)} do not fit dim={d}, hidden={h}")
    return params


def save_checkpoint(
    model: TrainedModel, path: str | Path, *, config_digest: str = ""
) -> None:
    """Checkpoint with float64 little-endian base64 weight blobs.

    Only the weights are stored; the prior and labels stay in the run's
    ``prior.json`` and label source.
    """
    artifacts.write(
        path,
        "checkpoint",
        {
            "config_digest": config_digest,
            "mode": model.mode,
            "params": _params_payload(model.params),
            "completion": _params_payload(model.completion),
        },
    )


def load_checkpoint(path: str | Path) -> tuple[TrainedModel, str]:
    """Returns the model and the config digest it was trained under.

    A model that uses priors scores with the run's prior and labels, which
    :func:`make_scorer` takes.
    """
    p = artifacts.read(
        path,
        "checkpoint",
        fields={"config_digest": str, "mode": str, "params": dict, "completion": dict},
        optional=("completion",),
    )
    if p["mode"] not in MODES:
        raise ParseError(f"{path}: unknown mode {p['mode']!r} (expected {MODES})")
    if (p["completion"] is None) == (p["mode"] == "ncnc"):
        raise ParseError(
            f"{path}: completion weights belong to ncnc checkpoints and to no other"
        )
    model = TrainedModel(
        params=_params_from_payload(path, p["params"]),
        mode=p["mode"],
        completion=_params_from_payload(path, p["completion"]),
    )
    # completion weights exist only in ncnc checkpoints, so they use priors too
    weights = (model.params, model.completion or model.params)
    if any(w.use_priors != (model.mode != "backbone_only") for w in weights):
        raise ParseError(
            f"{path}: use_priors must be on exactly when the mode is not "
            f"backbone_only (mode {model.mode!r})"
        )
    return model, p["config_digest"]


def save_training_log(log: list[dict], path: str | Path) -> None:
    """CSV of per-epoch loss and validation MRR."""
    lines = ["epoch,loss,val_mrr"]
    for row in log:
        lines.append(
            f"{row['epoch']},{format(row['loss'], '.17g')},"
            f"{format(row['val_mrr'], '.17g')}"
        )
    artifacts.write_text(path, "\n".join(lines) + "\n")
