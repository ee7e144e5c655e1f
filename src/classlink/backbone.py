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
  ``(x, u)`` for code 2, from one completion-scorer call per build block.

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
:func:`make_scorer` caches its ``H``.  Training propagates once per epoch:
the validation forward after a step has the parameters of the next step,
which reuses it, so a stage propagates ``epochs + 1`` times.

Forward and backward run on numpy.  ``S``, ``X`` and each incidence ``M``
are :class:`~classlink.csr.Csr` tuples of CSR arrays under scipy's field
names, built from the graph's arrays: ``S`` from ``A + I`` with its
diagonal put in place; ``M`` from the members of each pair's neighbourhood
(:func:`~classlink.csr.pair_members`: ``N(x) ∩ N(y)`` in ncn, the coded
union in ncnc).  Every sparse product goes through one row kernel
(:mod:`classlink.csr`, with a plan per row block made inside each call)
that adds each row's terms in stored order to a zeroed row, the float
sequence of scipy's CSR product, so every bit is scipy's: propagation's
``X W1`` and ``S ·``, each ``M h``, and the backward's ``S dq``, ``S dZ1``
(``S`` is symmetric) and ``Xᵀ (S dZ1)``.
The rows of a transpose come from one sort of the entries by column that
keeps each column's rows ascending (:func:`_transpose`), the order in which
scipy's product with a transpose adds them: ``Xᵀ`` once per
:class:`BatchBuilder` that trains (a scorer's never makes it), and each
head chunk's ``dH`` scatter from its stacked node ids.  So ``backbone``
imports scipy nowhere, and neither training nor a scorer loads it.

The edge head runs over :func:`~classlink.graph.pair_chunks` of
``HEAD_CHUNK`` pairs.  A training step (:func:`loss_and_grads`) runs the
head once per chunk and takes that chunk's share of the head gradients and
``dH`` from the same forward, so nothing of the head is kept or recomputed
between chunks.  A chunk allocates its working set once: one ``z`` that is
overwritten by ``dz``, one hidden array that holds the pre-activations, the
activations and then ``dpre_h`` and is freed once ``dz`` is formed, and the
``3·chunk × d`` values of the ``dH`` scatter.  The scatter runs over the
nodes the chunk touches, so no chunk allocates anything n-sized, and every
array of a chunk is freed before the next chunk allocates: beyond the
node-sized arrays and a few pair-length vectors, the head's memory is one
chunk's O(chunk × (2d + hidden)) and a step takes time linear in pairs plus
nodes.  Each pair's row of the head is independent, so chunking leaves every
prediction bit-identical; it only reorders the gradient sums, which move in
their last bits.  Computing in place changes no bits at all, nor does the
touched-row scatter: each node's terms are summed in the same order as over
all n columns.

Training holds one copy of its step batch.  The positive batch is built
once and each epoch's negatives beside it, and the step reads the two as
one row range (:func:`_chunk`): a head chunk that spans their boundary
stacks its two pieces, so chunk composition and every gradient sum are
those of the concatenated batch, which is never formed.  An incidence is
built in blocks of ``_BUILD_CHUNK`` pairs, and in ncnc each block makes
its own completion-scorer call, so the missing links of one block, not of
the batch, are alive at a time; the blocks' node ids and weights are
joined once at the end.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import artifacts
from .config import MODES, TrainConfig, check_mode
from .csr import Csr, pair_members, plus_identity, row_plan, row_product, row_slice
from .errors import ConfigurationError, DimensionError, ParseError, TrainingError
from .evaluation import mrr, rank_positive
from .graph import (
    EdgeSplit,
    Graph,
    Scorer,
    check_pairs,
    chunked_scorer,
    pair_chunks,
    sample_negatives,
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
# Pairs per block of an incidence build: keys ``i · n + u`` stay int32 up to
# 131,072 nodes, and the build's transient arrays stay small.
_BUILD_CHUNK = 1 << 14


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


def _transpose(a: Csr) -> tuple[np.ndarray, Csr]:
    """``(cols, t)``: the columns in which ``a`` stores entries, ascending,
    and the rows of ``aᵀ`` at those columns.

    One sort of the distinct keys ``j · nnz + e`` of the entries orders
    them by column and, within a column, as stored, so each row of ``t``
    lists its terms in ascending row of ``a``: the order in which scipy's
    product with ``aᵀ`` adds them.
    """
    nnz = a.indices.size
    keys = a.indices.astype(np.int64) * nnz
    keys += np.arange(nnz)
    keys.sort()
    cols, entries = np.divmod(keys, max(nnz, 1))
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    t = Csr(np.append(starts, nnz), rows[entries], a.data[entries], (starts.size, a.shape[0]))
    return cols[starts], t


def _feature_transpose(x: Csr) -> Csr:
    """``Xᵀ`` with a row for every feature: one that no node has is empty."""
    features, t = _transpose(x)
    indptr = t.indptr[np.searchsorted(features, np.arange(x.shape[1] + 1))]
    return Csr(indptr, t.indices, t.data, (x.shape[1], x.shape[0]))


def normalized_operator(g: Graph) -> Csr:
    """Symmetric normalized adjacency with self-loops over a graph,
    ``S = D̂^-1/2 (A + I) D̂^-1/2``, as the arrays scipy's product gives.

    ``A + I`` comes from :func:`~classlink.csr.plus_identity`, so each
    row's columns ascend, and ``S[i, j]`` is ``inv[i] · inv[j]`` with
    ``inv = 1 / sqrt(d + 1)``.
    """
    n = g.n_nodes
    degrees = g.degrees()
    inv_sqrt = 1.0 / np.sqrt(degrees.astype(np.float64) + 1.0)
    hat = plus_identity(Csr(g.adj_indptr, g.adj_indices, g.adj_data, (n, n)))
    rows = np.repeat(np.arange(n), degrees + 1)
    return hat._replace(data=inv_sqrt[rows] * inv_sqrt[hat.indices])


def propagate(params: BackboneParams, sym: Csr, x: Csr) -> dict[str, np.ndarray]:
    """Node embeddings ``h = S · relu(S X W1) · W2`` plus the intermediates
    the backward pass reuses (``z1`` and ``q = S relu(z1)``)."""
    if x.shape[1] != params.w1.shape[0]:
        raise DimensionError(
            f"feature width {x.shape[1]} does not match W1 fan-in {params.w1.shape[0]}"
        )
    z1 = row_product(sym, row_product(x, params.w1))
    q = row_product(sym, np.maximum(z1, 0.0))
    return {"z1": z1, "q": q, "h": q @ params.w2}


# ---------------------------------------------------------------------------
# Batches, forward, backward
# ---------------------------------------------------------------------------


@dataclass
class LinkBatch:
    """Everything one forward/backward pass needs, with a fixed incidence."""

    sym: Csr  # (n, n) normalized operator over training edges
    x: Csr  # (n, F) the training graph's CSR feature arrays, not a copy
    xt: Callable[[], Csr]  # the builder's Xᵀ, for W1's gradient
    pairs: np.ndarray  # (m, 2)
    targets: np.ndarray  # (m,) in {0, 1}
    incidence: Csr  # (m, n): weight of node u in pair i's aggregation
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
    params: BackboneParams,
    batch: LinkBatch,
    rows: slice,
    h: np.ndarray,
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
    row_product(row_slice(batch.incidence, rows), h, z[:, d : 2 * d])
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


def _node_sums(
    xs: np.ndarray, ys: np.ndarray, incidence: Csr, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(nodes, sums)``: the nodes that a chunk's stacked rows
    ``[Px; Py; M]`` touch, for its pairs ``(xs, ys)`` and incidence ``M``,
    and their rows of ``[Px; Py; M]ᵀ vals``, with the bits of scipy's
    product.

    One sort of the stacked node ids (:func:`_transpose`) gives the touched
    nodes and each one's terms in ascending stacked row, which
    a plan of them (:func:`~classlink.csr.row_plan`) adds in that order.
    Nothing n-sized is allocated.
    """
    c = len(xs)
    nodes, by_node = _transpose(
        Csr(
            np.concatenate([np.arange(2 * c), 2 * c + incidence.indptr]),
            np.concatenate([xs, ys, incidence.indices]),
            np.concatenate([np.ones(2 * c), incidence.data]),
            (3 * c, incidence.shape[1]),
        )
    )
    plan = row_plan(by_node)
    return nodes[plan.order], plan.sums(vals)


def _parts(batch: LinkBatch | Sequence[LinkBatch]) -> tuple[LinkBatch, ...]:
    """A batch, or the parts of one, as a tuple of parts."""
    return (batch,) if isinstance(batch, LinkBatch) else tuple(batch)


def _chunk(parts: Sequence[LinkBatch], rows: slice) -> tuple[LinkBatch, slice]:
    """Rows ``rows`` of ``parts`` read as one batch, in order, as a batch
    and its rows that hold them: the one part that holds them all, with its
    own rows, or else a batch stacked from the parts' pieces, whose arrays
    are those of the same rows of the concatenated parts."""
    pieces, start = [], 0
    for part in parts:
        lo, hi = max(rows.start - start, 0), min(rows.stop - start, len(part.pairs))
        if lo < hi:
            pieces.append((part, slice(lo, hi)))
        start += len(part.pairs)
    if len(pieces) <= 1:
        return pieces[0] if pieces else (parts[0], rows)
    first, c = pieces[0][0], rows.stop - rows.start
    incidences = [row_slice(part.incidence, r) for part, r in pieces]
    starts = np.cumsum([0] + [inc.indptr[-1] for inc in incidences])
    incidence = Csr(
        np.concatenate([[0], *(inc.indptr[1:] + at for inc, at in zip(incidences, starts))]),
        np.concatenate([inc.indices for inc in incidences]),
        np.concatenate([inc.data for inc in incidences]),
        (c, first.incidence.shape[1]),
    )
    priors = None
    if first.priors is not None:
        priors = np.concatenate([part.priors[r] for part, r in pieces])
    stacked = replace(
        first,
        pairs=np.concatenate([part.pairs[r] for part, r in pieces]),
        targets=np.concatenate([part.targets[r] for part, r in pieces]),
        incidence=incidence,
        priors=priors,
    )
    return stacked, slice(0, c)


def _head_grads(
    params: BackboneParams, batch: LinkBatch | Sequence[LinkBatch], h: np.ndarray
) -> tuple[float, dict[str, np.ndarray | float], np.ndarray]:
    """Mean BCE of the batch (or of its parts read as one batch), the
    gradients of it w.r.t. the head's parameters (``wh``, ``bh``, ``wo``,
    ``bo``), and ``dH``, its gradient w.r.t. the node embeddings.

    Each chunk's head runs once, and its share of the gradients comes from
    that same forward: ``dpre_h`` is written over the activations once
    ``dwo`` and the ReLU mask are taken, and ``dz`` over ``z`` once ``dwh``
    is formed.  The chunk's ``dH`` terms,
    ``Pxᵀ (dE1 ⊙ H[ys]) + Pyᵀ (dE1 ⊙ H[xs]) + Mᵀ dE2``, are one product over
    the stacked rows ``[Px; Py; M]`` restricted to the nodes the chunk
    touches, so no chunk allocates anything n-sized.  ``H[xs]`` and
    ``H[ys]`` are gathered again for it rather than kept from the forward:
    one gather at a time takes half the memory of the pair that the
    forward would have to keep alive.  Every array of a chunk is freed
    before the next chunk's head allocates.
    """
    parts = _parts(batch)
    d = h.shape[1]
    m = sum(len(part.pairs) for part in parts)
    logits, dlogits, targets = np.empty(m), np.empty(m), np.empty(m)
    dwh, dbh = np.zeros_like(params.wh), np.zeros_like(params.bh)
    dwo, dh = np.zeros_like(params.wo), np.zeros_like(h)
    for rows in pair_chunks(m, HEAD_CHUNK):
        chunk, local = _chunk(parts, rows)
        z, act, logits[rows] = _head(params, chunk, local, h)
        targets[rows] = chunk.targets[local]
        dl = dlogits[rows]
        dl[:] = (_sigmoid(logits[rows]) - targets[rows]) / m
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

        xs, ys = chunk.pairs[local, 0], chunk.pairs[local, 1]
        c = len(xs)
        vals = np.empty((3 * c, d))
        np.multiply(de1, h[ys], out=vals[:c])
        np.multiply(de1, h[xs], out=vals[c : 2 * c])
        vals[2 * c :] = de2
        nodes, sums = _node_sums(xs, ys, row_slice(chunk.incidence, local), vals)
        dh[nodes] += sums
        del chunk, z, dz, de1, de2, xs, ys, vals, nodes, sums  # before the next head
    # BCE in softplus form: softplus(logit) - target * logit
    loss = float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
    return loss, {"wh": dwh, "bh": dbh, "wo": dwo, "bo": float(dlogits.sum())}, dh


def loss_and_grads(
    params: BackboneParams,
    batch: LinkBatch | Sequence[LinkBatch],
    fwd: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Mean BCE over the batch and its hand-derived gradient w.r.t. every
    parameter: the head's chunk loop (:func:`_head_grads`), then one
    backpropagation of ``dH`` through propagation, on the row kernel.
    ``batch`` may be a sequence of batches of one builder, read as the one
    batch of their rows in order, bit for bit, without being concatenated.
    ``fwd`` is :func:`propagate`'s output for ``params``, when the caller
    has it already."""
    first = _parts(batch)[0]
    if fwd is None:
        fwd = propagate(params, first.sym, first.x)
    loss, head_grads, dh = _head_grads(params, batch, fwd["h"])

    dw2 = fwd["q"].T @ dh
    dz1 = row_product(first.sym, dh @ params.w2.T)  # S is symmetric, so Sᵀ = S
    dz1 *= fwd["z1"] > 0.0
    dw1 = row_product(first.xt(), row_product(first.sym, dz1))
    return loss, {"w1": dw1, "w2": dw2, **head_grads}


# ---------------------------------------------------------------------------
# Batch builder
# ---------------------------------------------------------------------------


@dataclass
class BatchBuilder:
    """Assembles :class:`LinkBatch` objects for a fixed training graph."""

    adj: Csr  # (n, n) 0/1 adjacency over training edges
    sym: Csr
    x: Csr  # (n, F) the training graph's CSR feature arrays, not a copy
    xt: Callable[[], Csr]  # (F, n) Xᵀ, made on the first call and kept
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
        g, n = g_train, g_train.n_nodes
        x = Csr(g.feature_indptr, g.feature_indices, g.feature_data, (n, g.n_features))
        return cls(
            adj=Csr(g.adj_indptr, g.adj_indices, g.adj_data, (n, n)),
            sym=normalized_operator(g),
            x=x,
            xt=functools.cache(functools.partial(_feature_transpose, x)),
            mode=mode,
            prior=prior,
            labels=labels,
            completion_scorer=completion_scorer,
        )

    def build(self, pairs: np.ndarray, targets: np.ndarray | None = None) -> LinkBatch:
        pairs = check_pairs(pairs, self.adj.shape[0])
        if targets is None:
            targets = np.zeros(len(pairs))
        incidence = self._incidence(pairs)
        priors = None
        if self.prior is not None and self.labels is not None:
            priors = lookup_prior_batch(self.prior, self.labels, pairs)
        return LinkBatch(
            sym=self.sym,
            x=self.x,
            xt=self.xt,
            pairs=pairs,
            targets=np.asarray(targets, dtype=np.float64),
            incidence=incidence,
            priors=priors,
        )

    def _incidence(self, pairs: np.ndarray) -> Csr:
        """The batch's link incidence, built in blocks of ``_BUILD_CHUNK``
        pairs (:meth:`_block`) whose node ids and weights are joined at the
        end.

        In ncnc, common neighbors weigh 1 and a one-sided member weighs the
        predicted probability of its missing link, fetched from the
        completion scorer in one call per block, in row-major entry order:
        no list of a whole batch's missing links is made.
        """
        m = len(pairs)
        sizes, nodes, weights = [], [], []
        for rows in pair_chunks(m, _BUILD_CHUNK):
            size, node, weight = self._block(pairs[rows])
            sizes.append(size)
            nodes.append(node)
            weights.append(weight)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.concatenate(sizes), out=indptr[1:])
        indices = np.concatenate(nodes)
        del nodes  # the blocks' node ids go before their weights are joined
        return Csr(indptr, indices, np.concatenate(weights), (m, self.adj.shape[0]))

    def _block(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per pair of a block, the size of its incidence row; the rows'
        nodes, ascending per row, and their weights.

        ncn keeps ``N(x) ∩ N(y)``, ``A[xs] ⊙ A[ys]``, with weight 1.  ncnc
        keeps the coded union of :func:`~classlink.csr.pair_members` without
        the pair's own endpoints; its one-sided members are weighted by one
        completion-scorer call on their missing links.
        """
        pair, node, code = pair_members(
            self.adj.indptr, self.adj.indices, pairs, union=self.mode == "ncnc"
        )
        weight = np.ones(node.size)
        if code is not None:
            xs, ys = pairs[pair, 0], pairs[pair, 1]
            keep = (node != xs) & (node != ys)  # endpoints never complete themselves
            pair, node, code, xs, ys = pair[keep], node[keep], code[keep], xs[keep], ys[keep]
            weight = weight[keep]
            one = code != 3
            if one.any():
                # u only near x (code 1) misses (y, u); u only near y (code 2) misses (x, u)
                anchor = np.where(code[one] == 1, ys[one], xs[one])
                missing = np.column_stack([anchor, node[one]])
                weight[one] = np.asarray(self.completion_scorer(missing))
        size = np.bincount(pair, minlength=len(pairs))
        return size, node.astype(self.adj.indices.dtype, copy=False), weight


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

    The positive batch is built once.  Each epoch builds its negative batch
    beside it, and the step reads the two as one batch of the positive
    rows, then the negative ones, without concatenating them, so the
    batches are held once; the negative batch goes before validation.
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
    # Xᵀ lives as long as the builder, so it is made before the batches and
    # the steps' transient arrays rather than among them on the heap.
    builder.xt()
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

    # Each epoch's validation forward is the next epoch's training forward:
    # both see the parameters after the step, so one propagation serves both.
    fwd = propagate(params, builder.sym, builder.x)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        negatives = sample_negatives(
            g_train, len(positives), (config.seed, STREAM_TRAIN_NEG, epoch)
        )
        neg_batch = builder.build(negatives, np.zeros(len(negatives)))
        loss, grads = loss_and_grads(params, (pos_batch, neg_batch), fwd)
        del negatives, neg_batch, fwd
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

        del grads
        fwd = propagate(params, builder.sym, builder.x)
        val_pos = predict_batch(params, valid_batch, fwd["h"])
        val_neg = predict_batch(params, valid_pool_batch, fwd["h"])
        val_mrr = mrr(rank_positive(val_pos, val_neg))
        del val_pos, val_neg

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
    """Checkpoint with float64 little-endian weight blobs.

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
