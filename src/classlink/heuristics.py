"""Structural link-prediction heuristics and class-integrated rescoring.

Classical scores over a training adjacency ``A``:

* common neighbors      ``CN(x, y) = |N(x) ∩ N(y)|``
* Adamic-Adar           ``AA(x, y) = Σ_{z ∈ CN} 1 / ln d(z)``
* resource allocation   ``RA(x, y) = Σ_{z ∈ CN} 1 / d(z)``
* truncated Katz        ``K(x, y) = η · Σ_{l=1..L} γ^l · walks_l(x, y)``

and the class-integrated variant that adds a prior bonus on top of any
structural score:

``H_C(x, y) = H(x, y) + β · (α1 · P(c_y|c_x) + α2 · P(c_x|c_y)) / Z(x, y)``

where ``Z`` is 1, or (when local normalization is on) the neighborhood sum
``Σ_{v ∈ N(x) ∪ N(y)} Σ_{i ∈ {x,y}} ω_1i · P(c_i|c_v) + ω_2i · P(c_v|c_i)``.

Every score is computed for a whole ``(m, 2)`` pair batch at once, on the
graph's CSR arrays ``g.adj_indptr`` and ``g.adj_indices`` alone: no kernel
loads scipy.  Chunk pair ``i``'s rows become the keys ``i · n + v`` of their
nodes ``v`` (int32 while ``c · n`` fits), which sort pair by pair, nodes
ascending.  :func:`make_heuristic_scorer` builds the per-node weights once
per scorer.

* CN/AA/RA sum ``w = 1``, ``1 / ln d`` or ``1 / d`` over each pair's common
  neighbours in node order.  After one sort of the keys of both endpoint
  rows, the two copies of each common neighbour sit side by side, and
  ``np.bincount`` adds their weights in that order from 0.0.  That is the
  float sequence of scipy's ``A[xs].multiply(A[ys]) @ w``, so the bits are
  its bits.
* Katz meets in the middle: ``walks_l(x, y) = ⟨e_x A^⌈l/2⌉, e_y A^⌊l/2⌋⟩``,
  so horizon ``L`` needs the row blocks ``A^k[xs]`` for ``k ≤ ⌈L/2⌉`` and
  ``A^k[ys]`` for ``k ≤ ⌊L/2⌋`` instead of ``L`` mat-vecs over the whole graph
  per pair.  A block is its sorted unique keys with their walk counts:
  ``A^1`` is the endpoint's CSR row, and ``A^(k+1)`` repeats every key over
  its node's neighbours, sorts and run-length counts.  A chunk is cut into
  runs of pairs whose steps list at most ``_EXPANSION`` entries, bounded
  per node from walk counts before anything is listed, so that clique-heavy
  neighbourhoods do not blow up.  The meet is one stable sort of the two
  key runs, and ``np.bincount`` sums ``cx · cy`` over adjacent equal keys.
  Walk counts are float64, as in scipy's products: exact integers below
  2^53, where every summation order gives scipy's float, and rounded, never
  wrapped, above.  The decayed sum is accumulated as
  ``decay *= γ; total += decay · walks_l``.
* ``Z`` counts the classes in each pair's neighbourhood union (the unique
  keys of both endpoint rows, ``np.bincount(pair · C + label)``), and
  weighs the counts with the prior rows and columns of the two endpoint
  classes.

Batches are scored in chunks of ``_CHUNK`` pairs so the row blocks stay
small; ``hc`` finishes each chunk (score, ``Z``, prior lookup, bonus) before
the next.  Node ids are checked once per batch.
:func:`make_heuristic_scorer` is the only way to score; one pair is a
``(1, 2)`` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import STRUCTURAL, GammaDecayConfig, check_hc_base
from .errors import ConfigurationError, DegenerateNormalizerError, MissingLabelError
from .graph import Graph, Scorer, chunked_scorer
from .priors import ClassPriorMatrix, lookup_prior_batch


@dataclass(frozen=True)
class ClassHeuristicParams:
    """Weights for the class-prior bonus.

    ``omega`` orders its four weights as (ω_1x, ω_2x, ω_1y, ω_2y); they only
    matter when ``normalize_locally`` is on.
    """

    alpha1: float = 1.0
    alpha2: float = 1.0
    beta: float = 1.0
    omega: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    normalize_locally: bool = False

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ConfigurationError("alpha weights must be nonnegative")
        if len(self.omega) != 4 or any(w < 0.0 for w in self.omega):
            raise ConfigurationError(
                "omega must be four nonnegative reals (w_1x, w_2x, w_1y, w_2y)"
            )


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------

_CHUNK = 4096
"""Pairs per block of sparse rows; bounds the memory one batch takes."""

_EXPANSION = 1 << 17
"""Entries the Katz steps ``A^k → A^(k+1)`` of one run of pairs list before
equal keys merge.  It bounds the memory of clique-heavy neighbourhoods, and
runs this small sort in cache."""


def _pair_bases(c: int, n: int) -> np.ndarray:
    """``i · n`` for chunk pairs ``i < c``: int32 while ``c · n`` fits."""
    key = np.int32 if c * n <= np.iinfo(np.int32).max else np.int64
    return np.arange(0, c * n, n, dtype=key)


def _neighbor_keys(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``bases[j] + u`` of the neighbours ``u`` of ``nodes[j]``, row
    after row, in the dtype of ``bases``, and the row sizes.  Each row's keys
    ascend, as its CSR row does."""
    starts = indptr[nodes]
    sizes = indptr[nodes + 1] - starts
    ends = np.cumsum(sizes)
    at = np.repeat(starts - (ends - sizes), sizes)  # entry of row j's t-th key, minus t
    at += np.arange(at.size, dtype=at.dtype)
    keys = indices[at].astype(bases.dtype, copy=False)
    keys += np.repeat(bases, sizes)
    return keys, sizes


def _common_neighbor_sum(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Per pair, the weights of its common neighbours summed in node order.

    Keys ``i · n + v`` of both endpoint rows of chunk pair ``i``, x rows
    first: each row's keys ascend, so equal keys, one per side, are the
    common neighbours, and sorting puts them next to each other.
    """
    n, c = indptr.size - 1, len(pairs)
    bases = _pair_bases(c, n)
    keys, _ = _neighbor_keys(indptr, indices, pairs.T.ravel(), np.tile(bases, 2))
    keys.sort()
    common = keys[1:][keys[1:] == keys[:-1]]
    pair = common // n
    return np.bincount(pair, weights=weights[common - pair * n], minlength=c)


# A row block ``A^k[rows]``: its sorted unique keys ``i · n + v`` and their
# walk counts in float64, ``None`` where every count is 1 (``k ≤ 1``).
_Block = tuple[np.ndarray, "np.ndarray | None"]


def _next_power(indptr: np.ndarray, indices: np.ndarray, n: int, block: _Block) -> _Block:
    """``A^(k+1)[rows]`` from ``A^k[rows]`` for ``k ≥ 1``: every key repeated
    over its node's neighbours, sorted and run-length counted."""
    keys, counts = block
    nodes = keys % n
    listed, sizes = _neighbor_keys(indptr, indices, nodes, keys - nodes)
    if counts is None:
        listed.sort()
    else:
        order = np.argsort(listed)
        listed, counts = listed[order], np.repeat(counts, sizes)[order]
    starts = np.ones(listed.size, dtype=bool)
    starts[1:] = listed[1:] != listed[:-1]
    first = np.flatnonzero(starts)
    if counts is None:
        return listed[first], np.diff(first, append=listed.size).astype(np.float64)
    return listed[first], np.add.reduceat(counts, first)


def _walks(x: _Block, y: _Block, n: int, c: int) -> np.ndarray:
    """Per pair ``i``, ``⟨x[i], y[i]⟩``.  ``np.intersect1d`` of two unique
    key arrays is one stable sort of their concatenation, a linear merge of
    two sorted runs, after which each match sits next to its partner."""
    common, at_x, at_y = np.intersect1d(x[0], y[0], assume_unique=True, return_indices=True)
    weights = None
    for counts, at in ((x[1], at_x), (y[1], at_y)):
        if counts is not None:
            weights = counts[at] if weights is None else weights * counts[at]
    return np.bincount(common // n, weights=weights, minlength=c)


def _listed_sizes(indptr: np.ndarray, indices: np.ndarray, top: int) -> np.ndarray:
    """Per node ``v``, ``Σ_{k=2..top} walks_k(v)``: a bound on the entries the
    steps up to ``A^top[v]`` list, exact for ``top ≤ 2``.  The step
    ``A^k → A^(k+1)`` lists ``Σ_{u ∈ supp A^k[v]} d(u) ≤ (A^(k+1) 1)[v]``."""
    walks = np.diff(indptr).astype(np.float64)
    total = np.zeros(walks.size)
    for _ in range(top - 1):
        below = np.concatenate([[0.0], np.cumsum(walks[indices])])
        walks = below[indptr[1:]] - below[indptr[:-1]]
        total += walks
    return total


def _katz_run(
    indptr: np.ndarray, indices: np.ndarray, cfg: GammaDecayConfig, pairs: np.ndarray
) -> np.ndarray:
    """``Σ_l γ^l walks_l`` of one run of pairs, from its row blocks."""
    n, c = indptr.size - 1, len(pairs)
    bases = _pair_bases(c, n)

    def powers(nodes: np.ndarray, top: int) -> list[_Block]:
        """``[A^0[nodes], ..., A^top[nodes]]``"""
        blocks: list[_Block] = [(bases + nodes.astype(bases.dtype), None)]
        if top >= 1:
            blocks.append((_neighbor_keys(indptr, indices, nodes, bases)[0], None))
        while len(blocks) <= top:
            blocks.append(_next_power(indptr, indices, n, blocks[-1]))
        return blocks

    from_x = powers(pairs[:, 0], (cfg.max_length + 1) // 2)
    from_y = powers(pairs[:, 1], cfg.max_length // 2)
    total = np.zeros(c)
    decay = 1.0
    for length in range(1, cfg.max_length + 1):
        decay *= cfg.gamma
        total += decay * _walks(from_x[(length + 1) // 2], from_y[length // 2], n, c)
    return total


def _katz_sum(
    indptr: np.ndarray,
    indices: np.ndarray,
    listed: tuple[np.ndarray, np.ndarray],
    cfg: GammaDecayConfig,
    pairs: np.ndarray,
) -> np.ndarray:
    """Truncated Katz by meet-in-the-middle walk counts, over runs of pairs
    whose steps list at most ``_EXPANSION`` entries by the bounds ``listed``
    of the x and y sides (a larger pair is a run of its own)."""
    ends = np.cumsum(listed[0][pairs[:, 0]] + listed[1][pairs[:, 1]])
    total = np.empty(len(pairs))
    lo = 0
    while lo < len(pairs):
        done = ends[lo - 1] if lo else 0.0
        hi = max(int(np.searchsorted(ends, done + _EXPANSION, "right")), lo + 1)
        total[lo:hi] = _katz_run(indptr, indices, cfg, pairs[lo:hi])
        lo = hi
    return cfg.eta * total


def _structural_kernel(
    name: str, g: Graph, katz: GammaDecayConfig | None = None
) -> Scorer:
    """Kernel of one structural score over a checked ``(c, 2)`` pair chunk."""
    if name == "katz":
        cfg = katz or GammaDecayConfig()
        tops = ((cfg.max_length + 1) // 2, cfg.max_length // 2)
        listed = tuple(_listed_sizes(g.adj_indptr, g.adj_indices, top) for top in tops)
        return partial(_katz_sum, g.adj_indptr, g.adj_indices, listed, cfg)
    degrees = g.degrees().astype(np.float64)
    # nodes of degree 0 or 1 are common neighbours of no pair x != y
    with np.errstate(divide="ignore"):
        if name == "cn":
            weights = np.ones(g.n_nodes)
        elif name == "aa":
            weights = 1.0 / np.log(degrees)
        else:
            weights = 1.0 / degrees
    return partial(_common_neighbor_sum, g.adj_indptr, g.adj_indices, weights)


class _ClassKernel:
    """``hc`` over one checked ``(c, 2)`` pair chunk: the structural score
    plus the class-prior bonus ``β (α1 fwd + α2 rev) / Z``."""

    def __init__(
        self,
        structural: Scorer,
        g: Graph,
        prior: ClassPriorMatrix,
        labels: np.ndarray,
        params: ClassHeuristicParams,
    ) -> None:
        self.structural = structural
        self.prior = prior
        self.labels = np.asarray(labels, dtype=np.int64)
        self.params = params
        self.indptr, self.indices = g.adj_indptr, g.adj_indices
        self.usable = (self.labels >= 0) & (self.labels < prior.n_classes)

    def _local_normalizer(self, pairs: np.ndarray) -> np.ndarray:
        """``Z`` per pair; raises for the first pair with a missing label or Z = 0."""
        n, c, n_classes = self.indptr.size - 1, len(pairs), self.prior.n_classes
        xs, ys = pairs[:, 0], pairs[:, 1]
        bases = _pair_bases(c, n)
        keys, _ = _neighbor_keys(self.indptr, self.indices, pairs.T.ravel(), np.tile(bases, 2))
        keys.sort()  # the keys of N(x) ∪ N(y), pair by pair
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        pair = keys // n
        node = keys - pair * n
        usable = self.usable[node]
        counts = np.bincount(  # classes of N(x) ∪ N(y)
            pair[usable] * n_classes + self.labels[node[usable]], minlength=c * n_classes
        ).reshape(c, n_classes)
        cx = np.where(self.usable[xs], self.labels[xs], 0)
        cy = np.where(self.usable[ys], self.labels[ys], 0)
        probs = self.prior.probs
        w1x, w2x, w1y, w2y = self.params.omega
        z = (
            w1x * (counts * probs.T[cx]).sum(axis=1)
            + w2x * (counts * probs[cx]).sum(axis=1)
            + w1y * (counts * probs.T[cy]).sum(axis=1)
            + w2y * (counts * probs[cy]).sum(axis=1)
        )
        unlabeled = ~self.usable[xs] | ~self.usable[ys]
        unlabeled[pair[~usable]] = True
        first = np.flatnonzero(unlabeled | (z == 0.0))[:1]
        if first.size:
            i = int(first[0])
            if unlabeled[i]:
                involved = np.concatenate([[xs[i], ys[i]], node[pair == i]])
                bad = int(involved[np.argmin(self.usable[involved])])
                raise MissingLabelError(f"node {bad} lacks a usable class label")
            raise DegenerateNormalizerError(
                f"local normalizer for pair ({xs[i]}, {ys[i]}) is zero; "
                "cannot apply class-prior rescoring"
            )
        return z

    def __call__(self, pairs: np.ndarray) -> np.ndarray:
        structural = self.structural(pairs)
        p = self.params
        z = self._local_normalizer(pairs) if p.normalize_locally else 1.0
        fwd, rev = lookup_prior_batch(self.prior, self.labels, pairs).T
        return structural + p.beta * (p.alpha1 * fwd + p.alpha2 * rev) / z


# ---------------------------------------------------------------------------
# Batch scorers
# ---------------------------------------------------------------------------


def make_heuristic_scorer(
    name: str,
    g: Graph,
    *,
    katz: GammaDecayConfig | None = None,
    prior: ClassPriorMatrix | None = None,
    labels: np.ndarray | None = None,
    params: ClassHeuristicParams | None = None,
    base: str = "cn",
) -> Scorer:
    """Build a batch scorer for one of ``cn, aa, ra, katz, hc``.

    ``hc`` is the class-integrated variant layered on structural ``base``;
    it requires ``prior`` and ``labels``.
    """
    name = name.lower()
    if name in STRUCTURAL:
        kernel = _structural_kernel(name, g, katz)
    elif name == "hc":
        if prior is None or labels is None:
            raise ConfigurationError(
                "class-integrated scorer needs a prior matrix and labels"
            )
        check_hc_base(base)
        params = params or ClassHeuristicParams()
        kernel = _ClassKernel(_structural_kernel(base, g, katz), g, prior, labels, params)
    else:
        raise ConfigurationError(f"unknown heuristic '{name}'")
    return chunked_scorer(kernel, g.n_nodes, lambda: _CHUNK)
