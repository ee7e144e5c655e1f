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

``S X`` is computed once per training graph and reused by the forward pass
and the ``W1`` gradient.  Propagation is separate from the edge head, so a
frozen model propagates once: :func:`make_scorer` caches its ``H``, and
training propagates once per epoch for both validation batches.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import (
    ConfigurationError,
    DimensionError,
    ParseError,
    TrainingError,
)
from .evaluation import mrr, rank_positive
from .graph import EdgeSplit, Graph, sample_negatives
from .heuristics import Scorer, adjacency_matrix
from .priors import (
    ClassPriorMatrix,
    build_prior_matrix,
    count_class_links,
    lookup_prior_batch,
)
from .rand import STREAM_INIT, STREAM_TRAIN_NEG, derive_seed, make_rng

ARTIFACT_VERSION = 1

N_PRIOR_FEATURES = 2  # (P(c_y|c_x), P(c_x|c_y)) appended to the embedding

MODES = ("ncn", "ncnc", "backbone_only")


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
        return BackboneParams(
            w1=self.w1.copy(),
            w2=self.w2.copy(),
            wh=self.wh.copy(),
            bh=self.bh.copy(),
            wo=self.wo.copy(),
            bo=float(self.bo),
            use_priors=self.use_priors,
            dim=self.dim,
            hidden=self.hidden,
            seed=self.seed,
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "w2": self.w2, "wh": self.wh, "bh": self.bh, "wo": self.wo}


@dataclass(frozen=True)
class TrainConfig:
    """Backbone hyperparameters; ``seed`` drives init and negative sampling."""

    dim: int = 64
    hidden: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.hidden < 1:
            raise ConfigurationError("dim and hidden must be >= 1")
        if self.lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainedModel:
    """A trained backbone plus everything a scorer needs to reproduce it."""

    params: BackboneParams
    mode: str
    prior: ClassPriorMatrix | None
    labels: np.ndarray | None
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
    hat = adjacency_matrix(g) + sp.identity(g.n_nodes, format="csr")
    scale = sp.diags(inv_sqrt)
    return (scale @ hat @ scale).tocsr()


def propagate(
    params: BackboneParams, sym: sp.csr_matrix, sx: np.ndarray
) -> dict[str, np.ndarray]:
    """Node embeddings ``h = S · relu(S X W1) · W2`` plus the intermediates
    the backward pass reuses (``z1``, ``h1``, ``q = S h1``)."""
    if sx.shape[1] != params.w1.shape[0]:
        raise DimensionError(
            f"feature width {sx.shape[1]} does not match W1 fan-in {params.w1.shape[0]}"
        )
    z1 = sx @ params.w1
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
    sx: np.ndarray  # (n, F) = sym @ X, shared by forward and the W1 gradient
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


def _head(params: BackboneParams, batch: LinkBatch, h: np.ndarray) -> dict:
    """Edge embeddings and fusion MLP on precomputed node embeddings."""
    xs, ys = batch.pairs[:, 0], batch.pairs[:, 1]
    z = np.concatenate([h[xs] * h[ys], batch.incidence @ h], axis=1)
    if params.use_priors:
        if batch.priors is None:
            raise ConfigurationError("batch lacks prior features but use_priors is on")
        z = np.concatenate([z, batch.priors], axis=1)
    pre_h = z @ params.wh + params.bh
    act = np.maximum(pre_h, 0.0)
    logits = act @ params.wo + params.bo
    return {"z": z, "pre_h": pre_h, "act": act, "logits": logits}


def forward_loss(params: BackboneParams, batch: LinkBatch) -> tuple[float, dict]:
    """Mean BCE over the batch; returns the cache the backward pass reuses."""
    cache = propagate(params, batch.sym, batch.sx)
    cache.update(_head(params, batch, cache["h"]))
    logits = cache["logits"]
    # BCE in softplus form: softplus(logit) - target * logit
    loss = float(np.mean(np.logaddexp(0.0, logits) - batch.targets * logits))
    return loss, cache


def predict_batch(
    params: BackboneParams, batch: LinkBatch, h: np.ndarray | None = None
) -> np.ndarray:
    """Link probabilities for a batch, strictly inside (0, 1).

    ``h`` is the node embedding matrix of ``params`` when the caller has
    already propagated; otherwise it is computed here.
    """
    if h is None:
        h = propagate(params, batch.sym, batch.sx)["h"]
    probs = expit(_head(params, batch, h)["logits"])
    return np.clip(probs, 1e-12, 1.0 - 1e-12)


def _selector(nodes: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """One-hot rows: row ``i`` picks node ``nodes[i]``."""
    m = nodes.size
    return sp.csr_matrix(
        (np.ones(m), nodes, np.arange(m + 1)), shape=(m, n_nodes)
    )


def backward(
    params: BackboneParams, batch: LinkBatch, cache: dict
) -> dict[str, np.ndarray | float]:
    """Hand-derived gradients of the mean BCE w.r.t. every parameter."""
    m = batch.pairs.shape[0]
    xs, ys = batch.pairs[:, 0], batch.pairs[:, 1]
    h = cache["h"]

    dlogits = (expit(cache["logits"]) - batch.targets) / m
    dwo = cache["act"].T @ dlogits
    dbo = float(dlogits.sum())
    dact = np.outer(dlogits, params.wo)
    dpre_h = dact * (cache["pre_h"] > 0.0)
    dwh = cache["z"].T @ dpre_h
    dbh = dpre_h.sum(axis=0)
    dz = dpre_h @ params.wh.T

    d = params.dim
    de1 = dz[:, :d]
    de2 = dz[:, d : 2 * d]  # prior columns are inputs; their grads stop here

    # dH = Px^T (de1 ⊙ H[ys]) + Py^T (de1 ⊙ H[xs]) + M^T de2, as one product
    # over the stacked rows so each node sums its terms in batch order.
    n = h.shape[0]
    scatter = sp.vstack(
        [_selector(xs, n), _selector(ys, n), batch.incidence], format="csr"
    )
    dh = scatter.T @ np.concatenate([de1 * h[ys], de1 * h[xs], de2])

    dw2 = cache["q"].T @ dh
    dq = dh @ params.w2.T
    dh1 = batch.sym @ dq  # sym is symmetric, so S^T = S
    dz1 = dh1 * (cache["z1"] > 0.0)
    dw1 = batch.sx.T @ dz1

    return {"w1": dw1, "w2": dw2, "wh": dwh, "bh": dbh, "wo": dwo, "bo": dbo}


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


# ---------------------------------------------------------------------------
# Batch builder
# ---------------------------------------------------------------------------


@dataclass
class BatchBuilder:
    """Assembles :class:`LinkBatch` objects for a fixed training graph."""

    adj: sp.csr_matrix  # (n, n) 0/1 adjacency over training edges
    sym: sp.csr_matrix
    sx: np.ndarray
    mode: str
    prior: ClassPriorMatrix | None
    labels: np.ndarray | None
    completion_scorer: Scorer | None = None

    @classmethod
    def create(
        cls,
        g_train: Graph,
        features: np.ndarray,
        mode: str,
        prior: ClassPriorMatrix | None,
        labels: np.ndarray | None,
        completion_scorer: Scorer | None = None,
    ) -> "BatchBuilder":
        if mode not in MODES:
            raise ConfigurationError(f"unknown mode '{mode}' (expected {MODES})")
        if mode == "ncnc" and completion_scorer is None:
            raise ConfigurationError("ncnc batches need a completion scorer")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != g_train.n_nodes:
            raise DimensionError(
                f"feature matrix shape {x.shape} does not match {g_train.n_nodes} nodes"
            )
        if x.shape[1] == 0:
            raise ConfigurationError("backbone needs node features")
        sym = normalized_operator(g_train)
        return cls(
            adj=adjacency_matrix(g_train),
            sym=sym,
            sx=sym @ x,
            mode=mode,
            prior=prior,
            labels=labels,
            completion_scorer=completion_scorer,
        )

    def build(self, pairs: np.ndarray, targets: np.ndarray | None = None) -> LinkBatch:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.adj.shape[0]
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ConfigurationError(f"pair node id out of range [0, {n})")
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
            sx=self.sx,
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
    labels: np.ndarray | None,
    mode: str,
    config: TrainConfig = TrainConfig(),
) -> tuple[TrainedModel, list[dict]]:
    """Full-batch gradient descent with momentum and early stopping.

    Uses training edges for propagation, link supervision, and the class
    prior; validation MRR (shared negative pool) drives early stopping with
    the best parameters kept.  ``mode='ncnc'`` first trains and freezes an
    ``ncn`` completion scorer on a derived seed, then trains the final model
    on completion-weighted neighborhoods.  Deterministic given ``config.seed``.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode '{mode}' (expected {MODES})")
    use_priors = mode != "backbone_only"
    if use_priors and labels is None:
        raise ConfigurationError(f"mode '{mode}' needs a label source for priors")
    if g.features.shape[1] == 0:
        raise ConfigurationError("backbone needs node features")
    if len(split.valid_edges) == 0 or len(split.valid_negatives) == 0:
        raise ConfigurationError(
            "early stopping needs a non-empty validation split and negative pool"
        )

    g_train = split.train_graph(g)
    prior = None
    label_arr = None
    if use_priors:
        label_arr = np.asarray(labels, dtype=np.int64)
        n_classes = int(label_arr.max()) + 1
        prior = build_prior_matrix(
            count_class_links(split.train_edges, label_arr, n_classes)
        )

    completion_params: BackboneParams | None = None
    completion_scorer: Scorer | None = None
    if mode == "ncnc":
        stage1_cfg = replace(config, seed=derive_seed(config.seed, STREAM_INIT))
        stage1_model, _ = train(g, split, labels, "ncn", stage1_cfg)
        completion_params = stage1_model.params
        completion_scorer = make_scorer(stage1_model, g_train, g.features)

    builder = BatchBuilder.create(
        g_train, g.features, mode, prior, label_arr, completion_scorer
    )
    params = init_params(g.features.shape[1], config, use_priors)

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
            g, len(positives), (config.seed, STREAM_TRAIN_NEG, epoch)
        )
        neg_batch = builder.build(negatives, np.zeros(len(negatives)))
        batch = _concat_batches(pos_batch, neg_batch)

        loss, cache = forward_loss(params, batch)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at epoch {epoch}; try a smaller learning rate"
            )
        grads = backward(params, batch, cache)
        for name, arr in params.arrays().items():
            velocity[name] = config.momentum * velocity[name] - config.lr * np.asarray(
                grads[name]
            )
            arr += velocity[name]
        velocity_bo = config.momentum * velocity_bo - config.lr * float(grads["bo"])
        params.bo = float(params.bo) + velocity_bo

        h = propagate(params, builder.sym, builder.sx)["h"]
        val_pos = predict_batch(params, valid_batch, h)
        val_neg = predict_batch(params, valid_pool_batch, h)
        val_mrr = mrr(rank_positive(val_pos, val_neg))

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
            best_params = params.copy()
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left == 0:
                break

    model = TrainedModel(
        params=best_params,
        mode=mode,
        prior=prior,
        labels=label_arr,
        completion=completion_params,
    )
    return model, log


def _concat_batches(a: LinkBatch, b: LinkBatch) -> LinkBatch:
    priors = None
    if a.priors is not None and b.priors is not None:
        priors = np.concatenate([a.priors, b.priors])
    return LinkBatch(
        sym=a.sym,
        sx=a.sx,
        pairs=np.concatenate([a.pairs, b.pairs]),
        targets=np.concatenate([a.targets, b.targets]),
        incidence=sp.vstack([a.incidence, b.incidence], format="csr"),
        priors=priors,
    )


def make_scorer(
    model: TrainedModel, g_train: Graph, features: np.ndarray
) -> Scorer:
    """Batch scorer closing over a trained model and its training graph.

    The model's node embeddings are computed once, here, so the parameters
    are taken as they are at this call.
    """
    completion_scorer = None
    if model.mode == "ncnc":
        if model.completion is None:
            raise ConfigurationError("ncnc model is missing its completion scorer")
        stage1 = TrainedModel(
            params=model.completion,
            mode="ncn",
            prior=model.prior,
            labels=model.labels,
        )
        completion_scorer = make_scorer(stage1, g_train, features)
    builder = BatchBuilder.create(
        g_train,
        features,
        model.mode,
        model.prior if model.params.use_priors else None,
        model.labels if model.params.use_priors else None,
        completion_scorer,
    )
    h = propagate(model.params, builder.sym, builder.sx)["h"]

    def score(pairs: np.ndarray) -> np.ndarray:
        return predict_batch(model.params, builder.build(pairs), h)

    return score


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(payload["shape"]).copy()


def _params_payload(params: BackboneParams) -> dict:
    return {
        "arrays": {name: _encode(arr) for name, arr in params.arrays().items()},
        "bo": params.bo,
        "use_priors": params.use_priors,
        "dim": params.dim,
        "hidden": params.hidden,
        "seed": params.seed,
    }


def _params_from_payload(payload: dict) -> BackboneParams:
    arrays = {name: _decode(blob) for name, blob in payload["arrays"].items()}
    return BackboneParams(
        w1=arrays["w1"],
        w2=arrays["w2"],
        wh=arrays["wh"],
        bh=arrays["bh"],
        wo=arrays["wo"],
        bo=float(payload["bo"]),
        use_priors=bool(payload["use_priors"]),
        dim=int(payload["dim"]),
        hidden=int(payload["hidden"]),
        seed=int(payload["seed"]),
    )


def save_checkpoint(
    model: TrainedModel, path: str | Path, *, config_digest: str = ""
) -> None:
    """Checkpoint with float64 little-endian base64 weight blobs."""
    payload = {
        "version": ARTIFACT_VERSION,
        "kind": "checkpoint",
        "seed": model.params.seed,
        "config_digest": config_digest,
        "mode": model.mode,
        "params": _params_payload(model.params),
        "completion": _params_payload(model.completion)
        if model.completion is not None
        else None,
        "prior_counts": model.prior.joint_counts.tolist()
        if model.prior is not None
        else None,
        "labels": model.labels.tolist() if model.labels is not None else None,
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[TrainedModel, str]:
    """Returns the model and the config digest it was trained under."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if payload.get("kind") != "checkpoint":
        raise ParseError(f"{path}: not a checkpoint artifact")
    prior = None
    if payload.get("prior_counts") is not None:
        counts = np.array(payload["prior_counts"], dtype=np.int64)
        prior = build_prior_matrix(
            ClassPriorMatrix(
                n_classes=counts.shape[0],
                joint_counts=counts,
                row_totals=counts.sum(axis=1),
            )
        )
    model = TrainedModel(
        params=_params_from_payload(payload["params"]),
        mode=str(payload["mode"]),
        prior=prior,
        labels=np.array(payload["labels"], dtype=np.int64)
        if payload.get("labels") is not None
        else None,
        completion=_params_from_payload(payload["completion"])
        if payload.get("completion") is not None
        else None,
    )
    return model, str(payload.get("config_digest", ""))


def save_training_log(log: list[dict], path: str | Path) -> None:
    """CSV of per-epoch loss and validation MRR."""
    lines = ["epoch,loss,val_mrr"]
    for row in log:
        lines.append(
            f"{row['epoch']},{format(row['loss'], '.17g')},"
            f"{format(row['val_mrr'], '.17g')}"
        )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
