"""Pseudo-label generation: feature aggregation, k-means, elbow rule, Louvain.

When true class labels are unavailable, downstream priors can be computed
over *pseudo-labels* instead.  Three generators are provided:

* ``kmeans`` over one-hop aggregated features ``H1 = (A + I) X``, kept as a
  CSR matrix, with the number of clusters either fixed or chosen by the
  elbow rule (largest perpendicular distance to the chord of the
  min-max-normalized SSD curve).  Each centroid is kept as the sum of its
  members and their count, so distances come from one sparse product per
  iteration and no dense ``n × d`` array is built; on the integer points of
  ``H1`` every distance is an exact rational rounded once, and the labels do
  not depend on BLAS;
* ``louvain`` greedy modularity maximization (Blondel et al., 2008) over the
  training adjacency's CSR arrays, in numpy: degrees and modularity are
  array reductions and each level's supernode graph ``CᵀAC`` is one sort of
  the entries' community-pair keys and a sum per run.  Local moves run as
  colour-class batches (parallel Louvain with distance-1 colouring, Lu,
  Halappanavar & Kalyanaraman, 2015): each level's graph is coloured by
  Jones–Plassmann random-priority independent sets, and a whole class moves
  at once on its links to the adjacent communities, one sort of the keys
  ``row · n + comm[neighbour]`` over all of its rows.  The nodes of a class
  share no edge, so their links are exact, but they read the community
  totals from before the class moves; the labels are therefore not those of
  a sequential sweep, whose modularity the tests bound instead.  All
  weights are integers, so every sum is exact in any order and the labels
  depend on the seed alone;
* ``mono`` a single-label fallback that makes every prior lookup equal 1.

All routines are deterministic given their seed.  scipy is imported only
by k-means, inside the functions that build its matrices, so Louvain, mono
labels and reading or writing a labeling need none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import artifacts
from .config import check_k_grid, check_max_iters
from .errors import ConfigurationError, DimensionError, ParseError
from .graph import Graph
from .rand import STREAM_CLUSTER, make_rng

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class PseudoLabeling:
    """Cluster assignment used as a label source.

    ``labels`` are contiguous ids ``0 .. k-1`` (renumbered by first
    occurrence); ``ssd_curve`` is populated by elbow selection.
    """

    labels: np.ndarray
    k: int
    method: str
    ssd_curve: tuple[tuple[int, float], ...] | None
    seed: int


# ---------------------------------------------------------------------------
# Feature aggregation
# ---------------------------------------------------------------------------


def aggregate_features(g: Graph) -> sp.csr_matrix:
    """One-hop sum aggregation ``H1[v] = X[v] + Σ_{u ∈ N(v)} X[u]``.

    Computed as one sparse product ``(A + I) X`` of the graph's CSR
    adjacency and features, so the result is CSR and no dense ``n × d``
    array is built.
    """
    import scipy.sparse as sp

    if g.n_features == 0:
        raise ConfigurationError("cannot aggregate an empty feature matrix")
    hat = g.adj + sp.identity(g.n_nodes, format="csr")
    return (hat @ g.features).tocsr()


# ---------------------------------------------------------------------------
# k-means (Lloyd's algorithm with k-means++ seeding)
# ---------------------------------------------------------------------------
#
# The points are a CSR matrix, and centroid ``j`` is kept as the sum ``S_j``
# of its members and their count ``n_j``, never as a mean.  A squared distance
# is ``(n_j² ‖x‖² - 2 n_j x·S_j + ‖S_j‖²) / n_j²``, with every ``x·S_j`` from
# one sparse product ``X Sᵀ``, and a cluster's SSD is
# ``(n_j Σ_{i∈j} ‖x_i‖² - ‖S_j‖²) / n_j``.  On integer points, such as one-hop
# sums of 0/1 features, each numerator is an integer sum that is exact in any
# order, so every distance and every per-cluster SSD is the exact rational
# rounded once: exact ties stay ties and go to the lowest index, and the labels
# depend on the data alone, not on BLAS or its thread count.  Float points
# (``normalize_rows``) take the same path.


@dataclass(frozen=True)
class _Points:
    """CSR points with sorted indices and no explicit zeros, their squared
    row norms, and the row of each stored entry."""

    x: sp.csr_matrix
    sq_norms: np.ndarray
    entry_rows: np.ndarray

    def row(self, i: int) -> np.ndarray:
        out = np.zeros(self.x.shape[1])
        lo, hi = self.x.indptr[i], self.x.indptr[i + 1]
        out[self.x.indices[lo:hi]] = self.x.data[lo:hi]
        return out


@dataclass(frozen=True)
class _Centroids:
    """Centroid ``j`` is ``sums[j] / counts[j]``; ``sq_sums[j] = ‖sums[j]‖²``."""

    sums: np.ndarray
    sq_sums: np.ndarray
    counts: np.ndarray

    @staticmethod
    def at(points: _Points, idx: list[int]) -> _Centroids:
        """One centroid on each point of ``idx``."""
        return _Centroids(
            sums=points.x[idx].toarray(),
            sq_sums=points.sq_norms[idx],
            counts=np.ones(len(idx)),
        )

    def moved(self, points: _Points, onto: dict[int, int]) -> _Centroids:
        """A copy with centroid ``j`` placed on point ``onto[j]``."""
        js, at = list(onto), _Centroids.at(points, list(onto.values()))
        sums, sq_sums, counts = self.sums.copy(), self.sq_sums.copy(), self.counts.copy()
        sums[js], sq_sums[js], counts[js] = at.sums, at.sq_sums, at.counts
        return _Centroids(sums, sq_sums, counts)

    def then(self, other: _Centroids) -> _Centroids:
        return _Centroids(
            sums=np.concatenate([self.sums, other.sums]),
            sq_sums=np.concatenate([self.sq_sums, other.sq_sums]),
            counts=np.concatenate([self.counts, other.counts]),
        )


def _row_sq_norms(m: sp.csr_matrix) -> np.ndarray:
    """Squared row norms, summed in stored order as ``m @ v`` sums a row, so
    that a point's squared distance to itself is exactly 0, float or not."""
    import scipy.sparse as sp

    squares = sp.csr_matrix((m.data * m.data, m.indices, m.indptr), shape=m.shape)
    return squares @ np.ones(m.shape[1])


def _sq_dists_to(points: _Points, i: int) -> np.ndarray:
    """Squared distances of every point to point ``i``; exactly 0 at ``i``."""
    d2 = points.sq_norms + points.sq_norms[i] - 2.0 * (points.x @ points.row(i))
    return np.maximum(d2, 0.0, out=d2)


def _pairwise_sq_dists(points: _Points, cents: _Centroids) -> np.ndarray:
    """``(n, k)`` squared distances, each numerator divided once by ``n_j²``."""
    n_sq = cents.counts**2
    scaled = np.ascontiguousarray((cents.sums * (-2.0 * cents.counts)[:, None]).T)
    d2 = points.x @ scaled
    d2 += cents.sq_sums
    d2 += points.sq_norms[:, None] * n_sq
    d2 /= n_sq
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_init(points: _Points, k: int, rng: np.random.Generator) -> _Centroids:
    n = points.x.shape[0]
    idx = [int(rng.integers(n))]
    d2 = _sq_dists_to(points, idx[0])
    while len(idx) < k:
        total = d2.sum()
        if total <= 0.0:
            idx.append(int(rng.integers(n)))  # all points coincide with a centroid
        else:
            idx.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, _sq_dists_to(points, idx[-1]))
    return _Centroids.at(points, idx)


def _update(
    points: _Points, assign: np.ndarray, cents: _Centroids
) -> tuple[_Centroids, float]:
    """Member sums and counts of ``assign``, and its SSD.

    A cluster without members keeps its centroid.  The SSD sums the
    per-cluster terms with ``math.fsum``, so it depends on the partition
    alone, not on the order of the clusters.
    """
    k, d = cents.sums.shape
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    x = points.x
    sums = np.bincount(
        assign[points.entry_rows] * d + x.indices, weights=x.data, minlength=k * d
    ).reshape(k, d)
    # summed in column order like _row_sq_norms: a one-member SSD is exactly 0
    sq_sums = np.cumsum(sums * sums, axis=1)[:, -1] if d else np.zeros(k)
    inner = np.bincount(assign, weights=points.sq_norms, minlength=k)
    full = counts > 0
    per_cluster = (inner[full] * counts[full] - sq_sums[full]) / counts[full]
    ssd = math.fsum(np.maximum(per_cluster, 0.0).tolist())
    return (
        _Centroids(
            sums=np.where(full[:, None], sums, cents.sums),
            sq_sums=np.where(full, sq_sums, cents.sq_sums),
            counts=np.where(full, counts, cents.counts),
        ),
        ssd,
    )


def _lloyd(
    points: _Points, cents: _Centroids, max_iters: int
) -> tuple[np.ndarray, _Centroids, list[float]]:
    """Iterate assignment/update steps; returns (labels, centroids, SSD history).

    The history records the objective after each full iteration and is
    nonincreasing; assignment ties go to the lowest centroid index; an empty
    cluster is re-seeded from the point farthest from its assigned centroid.
    """
    check_max_iters(max_iters)
    n, k = points.x.shape[0], cents.counts.size
    prev_assign: np.ndarray | None = None
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _pairwise_sq_dists(points, cents)
        assign = d2.argmin(axis=1)
        sizes = np.bincount(assign, minlength=k)
        if not sizes.all():
            cost = d2[np.arange(n), assign]
            moved: dict[int, int] = {}
            for j in range(k):
                if sizes[j] == 0:
                    far = int(np.argmax(cost))
                    sizes[assign[far]] -= 1
                    sizes[j] += 1
                    assign[far] = j
                    cost[far] = 0.0
                    moved[j] = far
            # a re-seeded cluster emptied again keeps the point as its centroid
            cents = cents.moved(points, moved)
        cents, ssd = _update(points, assign, cents)
        history.append(ssd)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return assign.astype(np.int64), cents, history


def _prepare_points(features: np.ndarray | sp.spmatrix, normalize_rows: bool) -> _Points:
    """Canonical float CSR points (dense or sparse input give the same ones);
    a non-finite point is a ``ConfigurationError``."""
    import scipy.sparse as sp

    if sp.issparse(features):
        x = sp.csr_matrix(features, dtype=np.float64, copy=True)
    else:
        dense = np.asarray(features, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionError(
                f"expected a 2-D feature matrix, got shape {dense.shape}"
            )
        x = sp.csr_matrix(dense)
    x.sum_duplicates()
    x.eliminate_zeros()
    if not np.isfinite(x.data).all():
        raise ConfigurationError("k-means points must be finite, found nan or inf")
    entry_rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    sq_norms = _row_sq_norms(x)
    if normalize_rows:
        x.data /= np.sqrt(sq_norms)[entry_rows]
        sq_norms = _row_sq_norms(x)
    return _Points(x=x, sq_norms=sq_norms, entry_rows=entry_rows)


def _kmeans_full(
    features: np.ndarray | sp.spmatrix,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 100,
    normalize_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Labels, centroid means and SSD history of one seeded k-means run."""
    points = _prepare_points(features, normalize_rows)
    n = points.x.shape[0]
    if not 1 <= k <= n:
        raise ConfigurationError(f"k must lie in [1, {n}], got {k}")
    labels, cents, history = _lloyd(points, _kmeanspp_init(points, k, rng), max_iters)
    return labels, cents.sums / cents.counts[:, None], history


def kmeans(
    features: np.ndarray | sp.spmatrix,
    k: int,
    seed: int,
    *,
    max_iters: int = 100,
    normalize_rows: bool = False,
) -> PseudoLabeling:
    """Cluster rows of ``features``, dense or sparse, into ``k`` groups (squared
    Euclidean)."""
    labels, _, _ = _kmeans_full(
        features, k, make_rng(seed), max_iters, normalize_rows
    )
    return PseudoLabeling(
        labels=_renumber(labels),
        k=k,
        method="kmeans",
        ssd_curve=None,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Elbow selection
# ---------------------------------------------------------------------------


def knee_point(curve: list[tuple[int, float]]) -> int:
    """Pick the curve point farthest (perpendicular) from the chord.

    Both axes are min-max normalized first.  Ties — including perfectly flat
    or perfectly linear curves — resolve to the smallest ``k``.
    """
    ks = np.array([float(k) for k, _ in curve])
    ssds = np.array([float(s) for _, s in curve])
    if ks.size == 1 or ssds.max() == ssds.min():
        return int(ks[0])
    kn = (ks - ks.min()) / (ks.max() - ks.min())
    sn = (ssds - ssds.min()) / (ssds.max() - ssds.min())
    slope = sn[-1] - sn[0]
    dist = np.abs(slope * kn - sn + sn[0]) / np.sqrt(slope**2 + 1.0)
    return int(ks[int(np.argmax(dist))])


def _elbow_runs(
    features: np.ndarray | sp.spmatrix,
    k_candidates: list[int],
    seed: int,
    max_iters: int,
    normalize_rows: bool,
) -> tuple[list[tuple[int, float]], dict[int, np.ndarray]]:
    """Run k-means per candidate, warm-starting from the previous solution.

    Each k keeps the better of a fresh k-means++ run and a warm start that
    extends the previous centroids with greedily chosen farthest points, so
    the SSD curve is nonincreasing in k.
    """
    ks = check_k_grid(k_candidates)
    points = _prepare_points(features, normalize_rows)
    n = points.x.shape[0]
    if ks[-1] > n:
        raise ConfigurationError(f"k_grid values must lie in [1, {n}], got {ks}")

    curve: list[tuple[int, float]] = []
    labels_by_k: dict[int, np.ndarray] = {}
    prev_centroids: _Centroids | None = None
    for k in ks:
        rng = make_rng(seed, STREAM_CLUSTER, k)
        labels, cents, hist = _lloyd(
            points, _kmeanspp_init(points, k, rng), max_iters
        )
        best = (hist[-1], labels, cents)
        if prev_centroids is not None:
            warm = _extend_centroids(points, prev_centroids, k)
            w_labels, w_cents, w_hist = _lloyd(points, warm, max_iters)
            if w_hist[-1] < best[0]:
                best = (w_hist[-1], w_labels, w_cents)
        curve.append((k, best[0]))
        labels_by_k[k] = best[1]
        prev_centroids = best[2]
    return curve, labels_by_k


def _extend_centroids(points: _Points, cents: _Centroids, k: int) -> _Centroids:
    """Grow a centroid set to size ``k`` with farthest-point additions."""
    d2 = _pairwise_sq_dists(points, cents).min(axis=1)
    idx: list[int] = []
    while cents.counts.size + len(idx) < k:
        idx.append(int(np.argmax(d2)))
        d2 = np.minimum(d2, _sq_dists_to(points, idx[-1]))
    return cents.then(_Centroids.at(points, idx))


def elbow_kmeans(
    features: np.ndarray | sp.spmatrix,
    k_candidates: list[int],
    seed: int,
    *,
    max_iters: int = 100,
    normalize_rows: bool = False,
) -> PseudoLabeling:
    """Elbow-select k and return the winning clustering with its curve."""
    curve, labels_by_k = _elbow_runs(
        features, k_candidates, seed, max_iters, normalize_rows
    )
    best_k = knee_point(curve)
    return PseudoLabeling(
        labels=_renumber(labels_by_k[best_k]),
        k=best_k,
        method="kmeans",
        ssd_curve=tuple((int(k), float(s)) for k, s in curve),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Louvain community detection
# ---------------------------------------------------------------------------
#
# Every edge weight is an integer: the input graph is 0/1 and aggregation only
# sums weights.  Sums of integers are exact in float64 in any order, so the
# degrees, community links, ``sigma_tot`` and ``sigma_in`` below are exact
# however they are accumulated, and every modularity gain is the same float
# whichever way its terms were summed: the labels depend on the seed, not on
# the order in which a sort lists the entries.
#
# A level's graph is a symmetric canonical CSR (rows sorted, no duplicates, no
# stored zeros) whose diagonal holds each supernode's internal weight,
# counting every internal edge once; a node's degree is its row sum plus its
# diagonal.  It is kept as its numpy arrays in a ``_Level``, whose fields
# carry scipy's names, so a scipy CSR matrix passes for one.


class _Level(NamedTuple):
    """The CSR arrays of a level's graph."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


class _ColourClass(NamedTuple):
    """The rows of one colour class that have an off-diagonal entry, and
    what every sweep reads of them.

    ``nodes`` and ``deg`` are the rows' nodes and degrees; ``nbr``, ``weight``
    and ``local`` give each entry's neighbour, weight (``None`` where every
    weight is 1) and row within the class, in row order; ``base`` is each
    entry's ``local · n`` in the class's key dtype.
    """

    nodes: np.ndarray
    deg: np.ndarray
    nbr: np.ndarray
    weight: np.ndarray | None
    local: np.ndarray
    base: np.ndarray


def louvain(g: Graph, seed: int) -> PseudoLabeling:
    """Greedy modularity maximization with batched local moves.

    Each level colours its graph with priorities drawn from the cluster
    stream of ``seed`` and moves one colour class at a time until the
    modularity gain of a sweep drops below 1e-7; communities are then
    aggregated into supernodes, and levels repeat until a level's gain
    drops below 1e-7.
    """
    if g.n_edges == 0:
        raise ConfigurationError("modularity is undefined on an edgeless graph")
    rng = make_rng(seed, STREAM_CLUSTER)
    n = g.n_nodes
    adj = _Level(g.adj_indptr, g.adj_indices, g.adj_data, (n, n))
    membership = np.arange(n)
    q_prev = _modularity(adj, np.arange(n))
    while True:
        comm = _local_move(adj, rng)
        q_new = _modularity(adj, comm)
        comm = _renumber(comm)
        membership = comm[membership]
        if q_new - q_prev < 1e-7 or int(comm.max()) + 1 == adj.shape[0]:
            break
        adj = _aggregate(adj, comm)
        q_prev = q_new

    labels = _renumber(membership)
    return PseudoLabeling(
        labels=labels,
        k=int(labels.max()) + 1,
        method="louvain",
        ssd_curve=None,
        seed=int(seed),
    )


def _rows(adj: _Level) -> np.ndarray:
    """The row of every stored entry."""
    return np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))


def _diagonal(adj: _Level) -> np.ndarray:
    rows = _rows(adj)
    on = adj.indices == rows
    out = np.zeros(adj.shape[0])
    out[rows[on]] = adj.data[on]
    return out


def _degrees(adj: _Level) -> np.ndarray:
    return np.bincount(_rows(adj), weights=adj.data, minlength=adj.shape[0]) + _diagonal(adj)


def _off_diagonal(adj: _Level) -> _Level:
    """The level without its diagonal."""
    off = adj.indices != _rows(adj)
    indptr = np.concatenate([[0], np.cumsum(off)])[adj.indptr]
    return _Level(indptr, adj.indices[off], adj.data[off], adj.shape)


def _summed_runs(
    keys: np.ndarray, weight: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``keys`` sorted (in place where ``weight`` is None), where each run of
    equal keys starts in them, and each run's summed weight: its length where
    ``weight`` is None."""
    if weight is None:
        keys.sort()
    else:
        order = keys.argsort()
        keys, weight = keys[order], weight[order]
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    first = np.flatnonzero(head)
    if weight is None:
        return keys, first, np.diff(np.append(first, keys.size)).astype(np.float64)
    return keys, first, np.add.reduceat(weight, first)


def _local_move(adj: _Level, rng: np.random.Generator) -> np.ndarray:
    """One level of local moves; returns each node's community id.

    The off-diagonal graph is coloured once (:func:`_colour_classes`), and a
    sweep moves one colour class at a time (:func:`_class_moves` on the
    class's rows, :func:`_class_rows`).  Sweeps repeat until one moves nothing
    or raises modularity by less than 1e-7; a sweep that lowers modularity is
    undone, and the level ends there.

    Modularity is kept as ``(2m)² Q = 2m Σ_c in_c - Σ_c tot_c²``, where
    ``Σ_c in_c`` is the weight inside communities (each internal edge and
    self-loop twice).  On integer weights this is an exact integer while
    ``(2m)²`` stays below 2⁵³, so every comparison between sweeps is exact.
    """
    n = adj.shape[0]
    deg = _degrees(adj)
    m2 = float(deg.sum())
    loops = _diagonal(adj)
    off = _off_diagonal(adj)
    order, bounds = _colour_classes(off, rng)
    classes = [
        rows
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        if (rows := _class_rows(off, order[lo:hi], deg)) is not None
    ]
    comm = np.arange(n)
    sigma_tot = deg.copy()
    inside = 2.0 * float(loops.sum())
    score = inside * m2 - float(sigma_tot @ sigma_tot)
    while True:
        before, moved = comm.copy(), False
        for rows in classes:
            movers, targets, gained = _class_moves(rows, comm, sigma_tot, m2)
            if movers.size:
                np.subtract.at(sigma_tot, comm[movers], deg[movers])
                np.add.at(sigma_tot, targets, deg[movers])
                comm[movers] = targets
                inside += 2.0 * float(gained.sum())
                moved = True
        if not moved:
            return comm
        new_score = inside * m2 - float(sigma_tot @ sigma_tot)
        if new_score < score:
            return before
        if new_score - score < 1e-7 * m2 * m2:
            return comm
        score = new_score


def _class_rows(
    off: _Level, nodes: np.ndarray, deg: np.ndarray
) -> _ColourClass | None:
    """The rows of the colour class ``nodes`` (ascending) in the off-diagonal
    graph ``off``: its nodes with neighbours, or ``None`` if it has none.  A
    node without neighbours never moves, so it is left out."""
    n = off.shape[0]
    sizes = off.indptr[nodes + 1] - off.indptr[nodes]
    nodes, sizes = nodes[sizes > 0], sizes[sizes > 0]
    if not nodes.size:
        return None
    ends = np.cumsum(sizes)
    at = np.repeat(off.indptr[nodes] - (ends - sizes), sizes) + np.arange(ends[-1])
    weight = off.data[at]
    local = np.repeat(np.arange(nodes.size), sizes)
    key = np.int32 if nodes.size * n <= np.iinfo(np.int32).max else np.int64
    return _ColourClass(
        nodes=nodes,
        deg=deg[nodes],
        nbr=off.indices[at],
        weight=None if (weight == 1.0).all() else weight,
        local=local,
        base=(local * n).astype(key),
    )


def _class_moves(
    rows: _ColourClass, comm: np.ndarray, sigma_tot: np.ndarray, m2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moves of one colour class: its movers, their target communities,
    and for each the link weight gained, ``L[v, target] - L[v, own]``.

    The class's nodes share no edge, so the link weights ``L`` of each node
    to its adjacent communities are exact: one sort of the keys
    ``local · n + comm[nbr]`` groups each row's entries by community, and a
    run's summed weight is its link.  Sorting keeps every row's entries in
    its place, so a run's row is ``local`` at its start.  The gains
    ``L - k_v Σ_tot / 2m`` read ``sigma_tot`` as it is before the class
    moves.  A node takes the largest gain when it beats staying by more than
    1e-12, exact ties going to the lowest community id.
    """
    n = comm.size
    keys = comm[rows.nbr].astype(rows.base.dtype, copy=False)
    keys += rows.base
    keys, first, link = _summed_runs(keys, rows.weight)
    keys = keys[first]  # one per run: by row, then by community
    row = rows.local[first]
    cand = keys - rows.base[first]
    kv, cv = rows.deg, comm[rows.nodes]
    row_base = np.arange(kv.size, dtype=keys.dtype) * n
    own_key = row_base + cv.astype(keys.dtype)
    starts = np.searchsorted(keys, row_base)
    at = np.minimum(np.searchsorted(keys, own_key), keys.size - 1)
    own = keys[at] == own_key
    own_link = np.where(own, link[at], 0.0)
    stay = own_link - (sigma_tot[cv] - kv) * kv / m2
    gain = link - sigma_tot[cand] * kv[row] / m2
    gain[at[own]] = -np.inf
    top = np.maximum.reduceat(gain, starts)
    movers = np.flatnonzero(top > stay + 1e-12)
    if not movers.size:
        return rows.nodes[:0], movers, link[:0]
    # a row's first run of the top gain has its lowest community id
    best = np.flatnonzero(gain == top[row])
    best = best[np.diff(row[best], prepend=-1) != 0]
    taken = best[movers]
    return rows.nodes[movers], cand[taken], link[taken] - own_link[movers]


def _colour_classes(
    off: _Level, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Distance-1 colouring of the symmetric graph ``off`` (no diagonal) by
    Jones–Plassmann random-priority independent sets.

    Each round takes the uncoloured nodes whose priority beats that of every
    uncoloured neighbour; they share no edge, and each takes the smallest
    colour that none of its coloured neighbours has.  Returns the nodes
    sorted by (colour, id) and the bounds of each colour's block in them.
    """
    n = off.shape[0]
    prio = rng.permutation(n)
    colour = np.full(n, -1, dtype=np.int64)
    # the edges leaving uncoloured nodes, in row order
    src = np.repeat(np.arange(n), np.diff(off.indptr))
    dst = off.indices.astype(np.int64)
    waiting = np.arange(n)
    while waiting.size:
        open_dst = colour[dst] < 0
        top = np.full(n, -1, dtype=np.int64)
        np.maximum.at(top, src[open_dst], prio[dst[open_dst]])
        chosen = waiting[prio[waiting] > top[waiting]]
        is_chosen = np.zeros(n, dtype=bool)
        is_chosen[chosen] = True
        near = is_chosen[src] & ~open_dst  # edges from a chosen to a coloured node
        colour[chosen] = _smallest_free_colour(src[near], colour[dst[near]], n)[chosen]
        keep = colour[src] < 0
        src, dst = src[keep], dst[keep]
        waiting = waiting[colour[waiting] < 0]
    order = np.argsort(colour, kind="stable")
    bounds = np.searchsorted(colour[order], np.arange(int(colour.max()) + 2))
    return order, bounds


def _smallest_free_colour(node: np.ndarray, taken: np.ndarray, n: int) -> np.ndarray:
    """Per node of ``0..n-1``, the smallest colour ``>= 0`` absent from the
    ``taken`` colours listed against it in ``node``."""
    free = np.zeros(n, dtype=np.int64)
    keys = np.sort(node * n + taken)  # a colour is below n
    if not keys.size:
        return free
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    node, taken = np.divmod(keys, n)
    first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    size = np.diff(np.r_[first, keys.size])
    rank = np.arange(keys.size) - np.repeat(first, size)
    free[node[first]] = size  # a node holding colours 0..j-1 gets j
    gap = np.flatnonzero(taken != rank)
    if gap.size:
        gap = gap[np.r_[True, node[gap[1:]] != node[gap[:-1]]]]
        free[node[gap]] = rank[gap]
    return free


def _modularity(adj: _Level, comm: np.ndarray) -> float:
    deg = _degrees(adj)
    m2 = deg.sum()
    n_comm = int(comm.max()) + 1
    rows, cols = _rows(adj), adj.indices
    inside = comm[rows] == comm[cols]
    w = np.where(rows == cols, 2.0 * adj.data, adj.data)[inside]
    sigma_in = np.bincount(comm[rows[inside]], weights=w, minlength=n_comm)
    sigma_tot = np.bincount(comm, weights=deg, minlength=n_comm)
    return float(np.sum(sigma_in / m2 - (sigma_tot / m2) ** 2))


def _aggregate(adj: _Level, comm: np.ndarray) -> _Level:
    """Supernode graph ``CᵀAC`` for the one-hot membership ``C``.

    Entry ``(comm[i], comm[j])`` sums the weights of the entries ``(i, j)``:
    one sort of their keys ``comm[i] · k + comm[j]`` and a sum per run.  That
    diagonal counts a community's internal edges twice and its self-loops
    once; it is reset to ``(diag(CᵀAC) + Cᵀ diag(A)) / 2`` so that every
    internal edge and self-loop counts once.  No entry sums to 0, so the
    result stores no zeros.
    """
    k = int(comm.max()) + 1
    keys = comm[_rows(adj)] * k + comm[adj.indices]
    keys, first, data = _summed_runs(keys, adj.data)
    rows, cols = np.divmod(keys[first], k)
    on = rows == cols
    loops = np.bincount(comm, weights=_diagonal(adj), minlength=k)
    data[on] = (data[on] + loops[rows[on]]) / 2.0
    return _Level(np.searchsorted(rows, np.arange(k + 1)), cols, data, (k, k))


def _renumber(labels: np.ndarray) -> np.ndarray:
    """Relabel to contiguous 0..k-1 in order of first occurrence."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(labels.shape)]


# ---------------------------------------------------------------------------
# Mono-label fallback
# ---------------------------------------------------------------------------


def mono_label(n_nodes: int) -> PseudoLabeling:
    """Assign every node the single class 0 (priors degenerate to 1)."""
    if n_nodes < 1:
        raise ConfigurationError(f"need at least one node, got {n_nodes}")
    return PseudoLabeling(
        labels=np.zeros(n_nodes, dtype=np.int64),
        k=1,
        method="mono",
        ssd_curve=None,
        seed=0,
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def save_labels_csv(
    labeling: PseudoLabeling, node_ids: tuple[str, ...], path: str | Path
) -> None:
    """Write ``node_id,label`` rows in dense-id order."""
    if len(node_ids) != labeling.labels.size:
        raise DimensionError("node_ids length does not match label vector")
    lines = [
        f"{node_id},{int(lab)}"
        for node_id, lab in zip(node_ids, labeling.labels.tolist())
    ]
    artifacts.write_text(path, "\n".join(lines) + "\n")


def save_ssd_curve_csv(
    curve: tuple[tuple[int, float], ...] | list[tuple[int, float]],
    path: str | Path,
) -> None:
    """Write ``k,ssd`` rows (17 significant digits, exact round-trip)."""
    lines = [f"{int(k)},{format(float(s), '.17g')}" for k, s in curve]
    artifacts.write_text(path, "\n".join(lines) + "\n")


def save_labeling_json(labeling: PseudoLabeling, path: str | Path) -> None:
    """``ssd_curve`` is stored as a float ``(m, 2)`` array of ``(k, ssd)`` rows."""
    curve = labeling.ssd_curve
    artifacts.write(
        path,
        "labeling",
        {"seed": labeling.seed, "method": labeling.method, "k": labeling.k},
        {
            "labels": labeling.labels,
            "ssd_curve": None if curve is None else np.reshape(curve, (-1, 2)),
        },
    )


def load_labeling_json(path: str | Path) -> PseudoLabeling:
    """Read a labeling artifact; any malformed payload raises ``ParseError``.

    ``labels`` must be integers in ``[0, k)``, ``k`` a positive integer,
    ``seed`` an integer, ``method`` a string and ``ssd_curve`` null or a
    float ``(m, 2)`` array.
    """
    p = artifacts.read(
        path,
        "labeling",
        fields={"seed": int, "method": str, "k": int},
        arrays={
            "labels": (artifacts.INT, (None,)),
            "ssd_curve": (artifacts.FLOAT, (None, 2)),
        },
        optional=("ssd_curve",),
    )
    k, labels, curve = p["k"], p["labels"], p["ssd_curve"]
    if k < 1:
        raise ParseError(f"{path}: k must be a positive integer, found {k}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ParseError(f"{path}: labels must lie in [0, {k})")
    return PseudoLabeling(
        labels=labels,
        k=k,
        method=p["method"],
        ssd_curve=None if curve is None else tuple((int(c), s) for c, s in curve.tolist()),
        seed=p["seed"],
    )
