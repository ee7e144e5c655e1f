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

Every score is computed for a whole ``(m, 2)`` pair batch at once, from the
graph's adjacency ``A``; :func:`make_heuristic_scorer` builds the per-node
weights once per scorer.

* CN/AA/RA sum ``w = 1``, ``1 / ln d`` or ``1 / d`` over each pair's common
  neighbours in node order, on the graph's CSR arrays alone.  Chunk pair
  ``i``'s endpoint rows become the keys ``i · n + v`` of their neighbours
  ``v``; after one sort of all keys, the two copies of each common neighbour
  sit side by side, pair by pair, neighbours ascending, and
  ``np.bincount`` adds their weights in that order from 0.0.  That is the
  float sequence of scipy's ``A[xs].multiply(A[ys]) @ w``, so the bits are
  its bits.
* Katz meets in the middle: ``walks_l(x, y) = ⟨e_x A^⌈l/2⌉, e_y A^⌊l/2⌋⟩``,
  so horizon ``L`` needs the row blocks ``A^k[xs]`` for ``k ≤ ⌈L/2⌉`` and
  ``A^k[ys]`` for ``k ≤ ⌊L/2⌋`` instead of ``L`` mat-vecs over the whole graph
  per pair.  Walk counts are exact integers, and the decayed sum is
  accumulated as ``decay *= γ; total += decay · walks_l``.
* ``Z`` counts the classes in each pair's neighbourhood union,
  ``(A[xs] + A[ys] > 0) @ onehot(labels)``, and weighs the counts with the
  prior rows and columns of the two endpoint classes.

Katz and ``Z`` multiply scipy matrices (``g.adj``) and import scipy where
they build them; CN/AA/RA, and ``hc`` over them without local
normalization, never load it.  Batches are scored in chunks of ``_CHUNK``
pairs so the row blocks stay small;
``hc`` finishes each chunk (score, ``Z``, prior lookup, bonus) before the next.
Node ids are checked once per batch.  :func:`make_heuristic_scorer` is the
only way to score; one pair is a ``(1, 2)`` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .config import STRUCTURAL, GammaDecayConfig, check_hc_base
from .errors import ConfigurationError, DegenerateNormalizerError, MissingLabelError
from .graph import Graph, Scorer, chunked_scorer
from .priors import ClassPriorMatrix, lookup_prior_batch

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def _common_neighbor_sum(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Per pair, the weights of its common neighbours summed in node order.

    Keys ``i · n + v`` of both endpoint rows of chunk pair ``i``, x rows
    first: each row's keys ascend, so equal keys, one per side, are the
    common neighbours, and sorting puts them next to each other.  The keys
    are int32 while ``c · n`` fits.
    """
    n, c = indptr.size - 1, len(pairs)
    key = np.int32 if c * n <= np.iinfo(np.int32).max else np.int64
    rows = pairs.T.ravel()
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    ends = np.cumsum(sizes)
    at = np.repeat(starts - (ends - sizes), sizes)  # entry of row k's j-th key, minus j
    at += np.arange(at.size, dtype=at.dtype)
    keys = indices[at].astype(key, copy=False)
    pair_base = np.arange(0, c * n, n, dtype=key)
    keys += np.repeat(np.concatenate([pair_base, pair_base]), sizes)
    keys.sort()
    common = keys[1:][keys[1:] == keys[:-1]]
    pair = common // n
    return np.bincount(pair, weights=weights[common - pair * n], minlength=c)


def _indicator_rows(nodes: np.ndarray, n: int) -> sp.csr_matrix:
    """One row ``e_v`` per node ``v``."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (np.ones(nodes.size), nodes, np.arange(nodes.size + 1)), shape=(nodes.size, n)
    )


def _katz_sum(
    adj: sp.csr_matrix, cfg: GammaDecayConfig, pairs: np.ndarray
) -> np.ndarray:
    """Truncated Katz by meet-in-the-middle walk counts."""
    n = adj.shape[0]
    xs, ys = pairs[:, 0], pairs[:, 1]
    from_x = [_indicator_rows(xs, n)]  # from_x[k] = A^k[xs]
    from_y = [_indicator_rows(ys, n)]
    for _ in range((cfg.max_length + 1) // 2):
        from_x.append(from_x[-1] @ adj)
    for _ in range(cfg.max_length // 2):
        from_y.append(from_y[-1] @ adj)
    total = np.zeros(xs.size)
    decay = 1.0
    for length in range(1, cfg.max_length + 1):
        meet = from_x[(length + 1) // 2].multiply(from_y[length // 2])
        decay *= cfg.gamma
        total += decay * np.asarray(meet.sum(axis=1)).ravel()
    return cfg.eta * total


def _structural_kernel(
    name: str, g: Graph, katz: GammaDecayConfig | None = None
) -> Scorer:
    """Kernel of one structural score over a checked ``(c, 2)`` pair chunk."""
    if name == "katz":
        return partial(_katz_sum, g.adj, katz or GammaDecayConfig())
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
        if params.normalize_locally:
            import scipy.sparse as sp

            self.usable = (self.labels >= 0) & (self.labels < prior.n_classes)
            nodes = np.flatnonzero(self.usable)
            self.adj = g.adj
            self.onehot = sp.csr_matrix(
                (np.ones(nodes.size), (nodes, self.labels[nodes])),
                shape=(g.n_nodes, prior.n_classes),
            )
            self.unusable = (~self.usable).astype(np.float64)

    def _local_normalizer(self, pairs: np.ndarray) -> np.ndarray:
        """``Z`` per pair; raises for the first pair with a missing label or Z = 0."""
        xs, ys = pairs[:, 0], pairs[:, 1]
        union = (self.adj[xs] + self.adj[ys]).sign()
        counts = (union @ self.onehot).toarray()  # classes of N(x) ∪ N(y)
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
        unlabeled = ~self.usable[xs] | ~self.usable[ys] | (union @ self.unusable > 0)
        first = np.flatnonzero(unlabeled | (z == 0.0))[:1]
        if first.size:
            i = int(first[0])
            if unlabeled[i]:
                involved = np.concatenate([[xs[i], ys[i]], np.sort(union[i].indices)])
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
