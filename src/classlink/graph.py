"""Graph container, file ingestion, edge splitting, negative sampling.

A :class:`Graph` holds two scipy CSR matrices that every layer reads
directly: ``adj``, the ``n × n`` 0/1 float adjacency over dense integer node
ids, and ``features``, the ``n × F`` node features.  ``adj`` is symmetric,
with sorted, strictly increasing neighbour lists and no self-loops or
parallel edges; construction canonicalizes arbitrary edge lists into this
form, so two input files describing the same edge set (in any order, with
duplicates either way around) produce bit-identical graphs.  Construction
works on 1-D pair keys: every non-loop edge ``(u, v)`` gives the keys
``u * n + v`` and ``v * n + u``, and one in-place sort and dedup of those
keys lists the stored entries row by row, so the CSR's row starts and column
ids are read straight off them.  The keys are int64, which bounds a graph to
``n * n - 1 < 2**63``, that is fewer than 3.03e9 nodes.  ``features``
stores every entry whose bit pattern is nonzero (so ``-0.0`` is kept and
``0.0`` is not), with sorted column indices; no dense ``n × F`` copy is ever
built, neither at ingestion nor when ``graph.json`` is read.

Node interning order is part of the reproducibility contract: original ids
are assigned dense ids in the order *feature-file rows, then label-file rows,
then edge-file endpoints (first seen)*.  Because auxiliary files are interned
first, deleting edges from the edge file never renumbers nodes that carry
features or labels, which downstream leakage checks rely on.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    ParseError,
)
from .rand import STREAM_SPLIT, STREAM_TEST_NEG, STREAM_VALID_NEG, make_rng, make_rngs


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional class labels.

    Attributes
    ----------
    adj : scipy.sparse.csr_matrix
        ``(n_nodes, n_nodes)`` 0/1 float adjacency; row ``u`` holds the
        sorted neighbour ids of ``u`` in ``adj.indices``.
    features : scipy.sparse.csr_matrix
        ``(n_nodes, F)`` float features, every entry with a nonzero bit
        pattern stored, column indices sorted; ``F == 0`` when no features
        were supplied.
    labels : np.ndarray | None
        ``(n_nodes,)`` int class ids, ``-1`` marking unlabeled nodes, or
        ``None`` when no label source was supplied.
    node_ids : tuple[str, ...]
        Dense id -> original id, persisted with the graph.
    class_ids : tuple[str, ...]
        Dense class id -> original label string (empty when unlabeled).
    """

    adj: sp.csr_matrix
    features: sp.csr_matrix
    labels: np.ndarray | None
    node_ids: tuple[str, ...]
    class_ids: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        """Number of nodes (dense ids ``0 .. n_nodes - 1``)."""
        return self.adj.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adj.nnz // 2

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.adj.indptr[u + 1] - self.adj.indptr[u])

    def degrees(self) -> np.ndarray:
        """All node degrees as an int64 array."""
        return np.diff(self.adj.indptr).astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (read-only view)."""
        self._check_node(u)
        return self.adj.indices[self.adj.indptr[u] : self.adj.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def undirected_edges(self) -> np.ndarray:
        """All edges as a canonical ``(m, 2)`` array with ``u < v``, lex-sorted."""
        src = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees())
        dst = self.adj.indices.astype(np.int64)
        mask = src < dst
        return np.column_stack([src[mask], dst[mask]])

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n_nodes:
            raise ConfigurationError(
                f"node id {u} out of range [0, {self.n_nodes})"
            )


@dataclass(frozen=True)
class EdgeSplit:
    """Train/validation/test partition of a graph's edges.

    Edge arrays are canonical ``(k, 2)`` int64 with ``u < v``.  The negative
    pools contain sampled non-edges of the *full* graph (shared across all
    positives of the corresponding split), never overlapping the edge set and
    free of duplicates.
    """

    n_nodes: int
    train_edges: np.ndarray
    valid_edges: np.ndarray
    test_edges: np.ndarray
    valid_negatives: np.ndarray
    test_negatives: np.ndarray
    seed: int

    def train_graph(self, g: Graph) -> Graph:
        """Graph restricted to training edges (features/labels carried over)."""
        return replace(g, adj=_csr_from_edges(self.train_edges, self.n_nodes))

    def part(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """Positive edges and shared negative pool of the ``test`` or ``valid`` part."""
        if which == "test":
            return self.test_edges, self.test_negatives
        if which == "valid":
            return self.valid_edges, self.valid_negatives
        raise ConfigurationError(f"unknown split part '{which}'")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (m.data, m.indices, m.indptr):
        _freeze(arr)
    return m


# Largest node count whose pair keys ``u * n + v`` fit in int64: n * n - 1 < 2**63.
_MAX_NODES = 3_037_000_499


def _csr_from_edges(edges: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """The symmetric 0/1 adjacency of an edge list, with sorted rows.

    Self-loops are dropped before the range check.  Every other edge gives
    the keys ``u * n + v`` and ``v * n + u``; one in-place sort and dedup of
    those keys lists the stored entries row by row, columns ascending.
    """
    if n_nodes > _MAX_NODES:
        raise ConfigurationError(
            f"{n_nodes} nodes exceed the {_MAX_NODES} whose pair keys fit in int64"
        )
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    loops = u == v
    if loops.any():
        u, v = u[~loops], v[~loops]
    bad_u = (u < 0) | (u >= n_nodes)
    bad = bad_u | (v < 0) | (v >= n_nodes)
    if bad.any():
        i = int(np.argmax(bad))
        node = int(u[i] if bad_u[i] else v[i])
        raise DimensionError(f"edge endpoint {node} out of range for {n_nodes} nodes")

    m = u.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n_nodes, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n_nodes, out=keys[m:])
    keys[m:] += u
    del u, v, edges
    keys.sort()
    distinct = np.empty(keys.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    del distinct

    index = np.int32 if max(n_nodes, keys.size) <= np.iinfo(np.int32).max else np.int64
    row_starts = np.arange(n_nodes + 1, dtype=np.int64) * n_nodes
    indptr = np.searchsorted(keys, row_starts).astype(index)
    keys %= n_nodes
    indices = keys.astype(index)
    del keys
    adj = sp.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n_nodes, n_nodes)
    )
    return _freeze_csr(adj)


def _feature_csr(features: np.ndarray | sp.spmatrix, n_nodes: int) -> sp.csr_matrix:
    """Dense or sparse features as CSR with sorted columns, duplicates summed,
    and every entry whose bit pattern is nonzero kept (``-0.0`` too).

    A canonical float64 CSR keeps its arrays (frozen, and shared with the
    input) with only its explicit ``+0.0`` entries dropped; anything else
    goes through COO.
    """
    shape = features.shape if sp.issparse(features) else np.shape(features)
    if len(shape) != 2 or shape[0] != n_nodes:
        raise DimensionError(
            f"feature matrix shape {shape} does not match {n_nodes} nodes"
        )
    if (
        sp.issparse(features)
        and features.format == "csr"
        and features.dtype == np.float64
        and features.has_canonical_format
    ):
        data, indices, indptr = features.data, features.indices, features.indptr
        stored = data.view(np.int64) != 0
        if not stored.all():
            indptr = np.concatenate([[0], np.cumsum(stored)])[indptr]
            data, indices = data[stored], indices[stored]
        return _freeze_csr(sp.csr_matrix((data, indices, indptr), shape=shape))
    if sp.issparse(features):
        coo = sp.coo_matrix(features, dtype=np.float64, copy=True)
        coo.sum_duplicates()
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        dense = np.ascontiguousarray(features, dtype=np.float64)
        rows, cols = np.nonzero(dense.view(np.int64))
        vals = dense[rows, cols]
    stored = vals.view(np.int64) != 0
    x = sp.csr_matrix((vals[stored], (rows[stored], cols[stored])), shape=shape)
    return _freeze_csr(x)


def build_graph(
    n_nodes: int,
    edges: np.ndarray,
    features: np.ndarray | sp.spmatrix | None = None,
    labels: np.ndarray | None = None,
    node_ids: tuple[str, ...] | None = None,
    class_ids: tuple[str, ...] | None = None,
) -> Graph:
    """Build a canonical :class:`Graph` from raw arrays.

    ``edges`` may be in any order, contain duplicates (either orientation) and
    self-loops; the result is canonical.  ``features`` may be a dense array
    or any scipy sparse matrix; both give the same CSR.  A canonical float64
    CSR is not copied: the graph shares its arrays and makes them read-only.
    ``labels`` uses ``-1`` for unlabeled nodes.
    """
    if n_nodes < 1:
        raise ConfigurationError(f"graph needs at least one node, got {n_nodes}")
    adj = _csr_from_edges(np.asarray(edges), n_nodes)
    if features is None:
        features = sp.csr_matrix((n_nodes, 0))

    labs: np.ndarray | None = None
    if labels is not None:
        labs = np.asarray(labels, dtype=np.int64)
        if labs.shape != (n_nodes,):
            raise DimensionError(
                f"label vector shape {labs.shape} does not match {n_nodes} nodes"
            )
        if class_ids is None:
            top = int(labs.max()) if labs.size else -1
            class_ids = tuple(str(c) for c in range(top + 1))
        labs = _freeze(labs.copy())

    if node_ids is None:
        node_ids = tuple(str(i) for i in range(n_nodes))
    if len(node_ids) != n_nodes:
        raise DimensionError("node_ids length does not match n_nodes")

    return Graph(
        adj=adj,
        features=_feature_csr(features, n_nodes),
        labels=labs,
        node_ids=tuple(node_ids),
        class_ids=tuple(class_ids or ()),
    )


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def load_graph(
    edge_path: str | Path,
    feature_path: str | Path | None = None,
    label_path: str | Path | None = None,
) -> Graph:
    """Load a graph from an edge list plus optional feature/label CSVs.

    Edge file: one ``u v`` pair per line, whitespace separated; ``#`` starts a
    comment; blank lines are ignored.  Feature CSV: ``node_id,f1,f2,...`` with
    a fixed number of finite real-valued columns.  Label CSV: ``node_id,label``.
    Labels are re-mapped to contiguous dense ids in first-seen order; nodes
    missing from the label file get ``-1``; nodes missing from the feature
    file get zero rows.
    """
    index: dict[str, int] = {}

    def intern(token: str) -> int:
        if token not in index:
            index[token] = len(index)
        return index[token]

    # Feature and label files are interned before edges; see module docstring.
    # Feature rows are kept as the columns and values of their stored entries.
    feature_cols: list[np.ndarray] = []
    feature_vals: list[np.ndarray] = []
    feature_lines: list[int] = []
    n_feature_cols: int | None = None
    if feature_path is not None:
        for lineno, raw in enumerate(_read_lines(feature_path), start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ParseError(
                    f"{feature_path}:{lineno}: expected node id plus at least "
                    f"one feature column, got {len(cells)} cell(s)"
                )
            if n_feature_cols is None:
                n_feature_cols = len(cells) - 1
            elif len(cells) - 1 != n_feature_cols:
                raise DimensionError(
                    f"{feature_path}:{lineno}: row has {len(cells) - 1} feature "
                    f"columns, expected {n_feature_cols}"
                )
            node = intern(cells[0].strip())
            if node < len(feature_cols):  # feature rows get ids 0, 1, ... in order
                raise ParseError(
                    f"{feature_path}:{lineno}: duplicate feature row for node "
                    f"'{cells[0].strip()}'"
                )
            values = cells[1:]
            # a "0" cell is +0.0, which is never stored, so only the rest is parsed
            cols = [j for j, c in enumerate(values) if c != "0"]
            try:
                vals = np.array([float(values[j]) for j in cols], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(
                    f"{feature_path}:{lineno}: non-numeric feature value ({exc})"
                ) from exc
            stored = vals.view(np.int64) != 0
            feature_cols.append(np.array(cols, dtype=np.int64)[stored])
            feature_vals.append(vals[stored])
            feature_lines.append(lineno)

    label_rows: dict[int, int] = {}
    class_index: dict[str, int] = {}
    if label_path is not None:
        for lineno, raw in enumerate(_read_lines(label_path), start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ParseError(
                    f"{label_path}:{lineno}: expected 'node_id,label', got "
                    f"{len(cells)} cell(s)"
                )
            node = intern(cells[0].strip())
            if node in label_rows:
                raise ParseError(
                    f"{label_path}:{lineno}: duplicate label row for node "
                    f"'{cells[0].strip()}'"
                )
            cls = cells[1].strip()
            if cls not in class_index:
                class_index[cls] = len(class_index)
            label_rows[node] = class_index[cls]

    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_read_lines(edge_path), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"{edge_path}:{lineno}: expected two node ids per line, got "
                f"{len(tokens)} token(s): {line!r}"
            )
        edges.append((intern(tokens[0]), intern(tokens[1])))

    n_nodes = len(index)
    if n_nodes == 0:
        raise ParseError(f"{edge_path}: no nodes found in any input file")

    features = None
    if feature_path is not None:
        # rows 0 .. len(feature_cols) - 1 in order, columns ascending: a
        # canonical CSR; nodes without a feature row get empty rows
        sizes = np.zeros(n_nodes, dtype=np.int64)
        sizes[: len(feature_cols)] = [c.size for c in feature_cols]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        values = np.concatenate([np.zeros(0), *feature_vals])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
            raise ParseError(
                f"{feature_path}:{feature_lines[row]}: non-finite feature "
                f"value {values[bad[0]]}"
            )
        features = sp.csr_matrix(
            (values, np.concatenate([np.zeros(0, dtype=np.int64), *feature_cols]), indptr),
            shape=(n_nodes, n_feature_cols or 0),
        )

    labels = None
    class_ids: tuple[str, ...] = ()
    if label_path is not None:
        labels = np.full(n_nodes, -1, dtype=np.int64)
        for node, cls in label_rows.items():
            labels[node] = cls
        class_ids = tuple(class_index)

    node_ids = tuple(index)
    return build_graph(
        n_nodes,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        features=features,
        labels=labels,
        node_ids=node_ids,
        class_ids=class_ids,
    )


def _read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a text file, read one at a time."""
    try:
        with open(path) as fh:
            yield from fh
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Graph artifacts
# ---------------------------------------------------------------------------


def save_graph_json(g: Graph, path: str | Path) -> None:
    """Serialize a graph losslessly: edges, labels and the feature CSR arrays."""
    x = g.features
    artifacts.write(
        path,
        "graph",
        {
            "n_nodes": g.n_nodes,
            "n_features": x.shape[1],
            "node_ids": list(g.node_ids),
            "class_ids": list(g.class_ids),
        },
        {
            "edges": g.undirected_edges(),
            "labels": g.labels,
            "features_indptr": x.indptr,
            "features_indices": x.indices,
            "features_data": x.data,
        },
    )


def load_graph_json(path: str | Path) -> Graph:
    p = artifacts.read(
        path,
        "graph",
        fields={"n_nodes": int, "n_features": int, "node_ids": list, "class_ids": list},
        arrays={
            "edges": (artifacts.INT, (None, 2)),
            "features_indptr": (artifacts.INT, (None,)),
            "features_indices": (artifacts.INT, (None,)),
            "features_data": (artifacts.FLOAT, (None,)),
            "labels": (artifacts.INT, (None,)),
        },
        optional=("labels",),
    )
    n, width = p["n_nodes"], p["n_features"]
    indptr, indices, data = p["features_indptr"], p["features_indices"], p["features_data"]
    if (
        n < 1
        or width < 0
        or indptr.size != n + 1
        or indptr[0] != 0
        or (np.diff(indptr) < 0).any()
        or indptr[-1] != indices.size
        or data.size != indices.size
        or (indices.size and (indices.min() < 0 or indices.max() >= width))
    ):
        raise ParseError(f"{path}: features are not a CSR matrix of {n} x {width}")
    features = sp.csr_matrix((data, indices, indptr), shape=(n, width))
    if not features.has_canonical_format:
        raise ParseError(f"{path}: feature columns do not strictly increase in a row")
    try:
        return build_graph(
            n,
            p["edges"],
            features=features,
            labels=p["labels"],
            node_ids=tuple(p["node_ids"]),
            class_ids=tuple(p["class_ids"]),
        )
    except DimensionError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Splitting and negative sampling
# ---------------------------------------------------------------------------


def split_edges(
    g: Graph,
    ratios: tuple[float, float, float],
    seed: int,
    *,
    negatives: int = 500,
) -> EdgeSplit:
    """Randomly partition edges into train/valid/test by ``ratios``.

    Sizes follow cumulative floor boundaries: with ``m`` edges and ratios
    ``(r1, r2, r3)``, train gets ``floor(m*r1)`` edges, train+valid
    ``floor(m*(r1+r2))``, and test the remainder, so the three buckets always
    exhaust the edge set.  A shared pool of up to ``negatives`` non-edges is
    sampled for each of valid and test (clamped to the number of available
    non-edges).  Deterministic given ``seed``.
    """
    r = tuple(float(x) for x in ratios)
    if len(r) != 3 or any(not x > 0 for x in r):  # NaN fails both checks
        raise ConfigurationError(f"ratios must be three positive reals, got {ratios}")
    if not abs(sum(r) - 1.0) <= 1e-9:
        raise ConfigurationError(f"ratios must sum to 1, got {sum(r)!r}")
    edges = g.undirected_edges()
    m = edges.shape[0]
    if m < 10:
        raise ConfigurationError(f"need at least 10 edges to split, graph has {m}")

    perm = make_rng(seed, STREAM_SPLIT).permutation(m)
    # +1e-9 absorbs float error in the cumulative sums (e.g. 0.7 + 0.15).
    b1 = int(np.floor(m * r[0] + 1e-9))
    b2 = int(np.floor(m * (r[0] + r[1]) + 1e-9))
    train = edges[np.sort(perm[:b1])]
    valid = edges[np.sort(perm[b1:b2])]
    test = edges[np.sort(perm[b2:])]

    capacity = g.n_nodes * (g.n_nodes - 1) // 2 - m
    pool = min(int(negatives), capacity)
    valid_neg, test_neg = sample_negative_pools(
        g, pool, [(seed, STREAM_VALID_NEG), (seed, STREAM_TEST_NEG)]
    )

    return EdgeSplit(
        n_nodes=g.n_nodes,
        train_edges=_freeze(train),
        valid_edges=_freeze(valid),
        test_edges=_freeze(test),
        valid_negatives=_freeze(valid_neg),
        test_negatives=_freeze(test_neg),
        seed=int(seed),
    )


def sample_negatives(
    g: Graph,
    count: int,
    seed: int | tuple[int, ...],
) -> np.ndarray:
    """Sample ``count`` distinct non-edges uniformly, without replacement.

    Pairs are canonical ``(u, v)`` with ``u < v``; whether a pair is an edge
    is read from ``g.adj``.  Raises :class:`CapacityError` when fewer than
    ``count`` non-edges exist.
    """
    return sample_negative_pools(g, count, [seed])[0]


# Candidates a generator draws per batch at least; part of the reproducibility
# contract, since it fixes how far each stream advances.
_MIN_BATCH = 1024
# Pools drawn together; bounds the candidate arrays to a few MiB.
_SEED_CHUNK = 128


def sample_negative_pools(
    g: Graph,
    count: int,
    seeds: Sequence[int | tuple[int, ...]] | np.ndarray,
) -> np.ndarray:
    """One pool of ``count`` distinct non-edges per seed, ``(len(seeds), count, 2)``.

    Each seed is an int or a tuple of ints (a row of a 2-D int or object
    array works too) and gets its own generator from
    :func:`~classlink.rand.make_rngs`, the one ``make_rng(*seed)`` builds.
    Pool ``i`` is what sampling on ``seeds[i]`` alone gives: the generator
    draws batches of ``max(1024, 2 * missing)`` candidates, all ``u`` then
    all ``v``; self-pairs and edges are rejected and new pairs are kept in
    order of first occurrence.  Whether a candidate is an edge is looked up in its own
    sorted row of ``g.adj``.  Each batch is first filtered on a prefix
    just long enough to fill a pool, falling back to the whole batch only for
    the pools that prefix leaves short.
    """
    if count < 0:
        raise ConfigurationError(f"negative sample count must be >= 0, got {count}")
    n = g.n_nodes
    capacity = n * (n - 1) // 2 - g.n_edges
    if count > capacity:
        raise CapacityError(
            f"requested {count} negatives but only {capacity} non-edges exist"
        )

    pools = np.zeros((len(seeds), count), dtype=np.int64)
    generators = make_rngs(seeds)
    for start in range(0, len(seeds), _SEED_CHUNK):
        rngs = list(itertools.islice(generators, _SEED_CHUNK))
        pools[start : start + len(rngs)] = _draw_pools(rngs, count, g.adj)
    return np.stack([pools // n, pools % n], axis=-1)


def _draw_pools(
    rngs: list[np.random.Generator], count: int, adj: sp.csr_matrix
) -> np.ndarray:
    """Pair keys ``u * n + v`` of one pool per generator, ``(len(rngs), count)``."""
    n = adj.shape[0]
    keys = np.zeros((len(rngs), count), dtype=np.int64)
    have = np.zeros(len(rngs), dtype=np.int64)
    pending = np.flatnonzero(have < count)
    while pending.size:
        missing = count - have[pending]
        sizes = np.maximum(_MIN_BATCH, 2 * missing)
        # padding stays (0, 0), a self-pair, so it is never kept
        u = np.zeros((pending.size, int(sizes.max())), dtype=np.int64)
        v = np.zeros_like(u)
        for row, (r, size) in enumerate(zip(pending.tolist(), sizes.tolist())):
            u[row, :size] = rngs[r].integers(0, n, size=size)
            v[row, :size] = rngs[r].integers(0, n, size=size)

        # on a sparse graph nearly every candidate is fresh, so a prefix of
        # twice the missing count almost always fills the pool, and only the
        # block examined is ordered into (lo, hi)
        rows = np.arange(pending.size)
        prefix = 2 * int(missing.max()) + 32
        for stop in ((prefix, u.shape[1]) if prefix < u.shape[1] else (u.shape[1],)):
            last = stop == u.shape[1]
            block_u, block_v = u[rows, :stop], v[rows, :stop]
            block_lo, block_hi = np.minimum(block_u, block_v), np.maximum(block_u, block_v)
            is_edge = np.asarray(adj[block_lo.ravel(), block_hi.ravel()]) != 0
            fresh = (block_lo != block_hi) & ~is_edge.reshape(block_lo.shape)
            sel = pending[rows]
            kept = np.arange(count) < have[sel, None]
            got, found = _first_distinct(
                np.concatenate([keys[sel], block_lo * n + block_hi], axis=1),
                np.concatenate([kept, fresh], axis=1),
                count,
            )
            done = np.ones(rows.size, dtype=bool) if last else found == count
            keys[sel[done]] = got[done]
            have[sel[done]] = found[done]
            rows = rows[~done]
            if not rows.size:
                break
        pending = np.flatnonzero(have < count)
    return keys


def _first_distinct(
    cand: np.ndarray, ok: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first ``count`` distinct ``cand`` entries where ``ok``.

    Returns the ``(rows, count)`` keys in column order (zero-padded) and how
    many each row found.  First occurrences come from a stable sort of each
    row, the way ``np.unique(..., return_index=True)`` finds them.
    """
    masked = np.where(ok, cand, -1)
    order = np.argsort(masked, axis=1, kind="stable")
    ordered = np.take_along_axis(masked, order, axis=1)
    first_sorted = np.ones(ordered.shape, dtype=bool)
    first_sorted[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.empty_like(first_sorted)
    np.put_along_axis(first, order, first_sorted, axis=1)
    keep = ok & first
    rank = np.cumsum(keep, axis=1)
    keep &= rank <= count
    rows, cols = np.nonzero(keep)
    got = np.zeros((cand.shape[0], count), dtype=np.int64)
    got[rows, rank[rows, cols] - 1] = cand[rows, cols]
    return got, np.minimum(rank[:, -1], count)


# ---------------------------------------------------------------------------
# Split artifacts
# ---------------------------------------------------------------------------

_SPLIT_ARRAYS = (
    "train_edges", "valid_edges", "test_edges", "valid_negatives", "test_negatives"
)


def save_split_json(split: EdgeSplit, path: str | Path) -> None:
    artifacts.write(
        path,
        "split",
        {"n_nodes": split.n_nodes, "seed": split.seed},
        {name: getattr(split, name) for name in _SPLIT_ARRAYS},
    )


def load_split_json(path: str | Path) -> EdgeSplit:
    p = artifacts.read(
        path,
        "split",
        fields={"n_nodes": int, "seed": int},
        arrays={name: (artifacts.INT, (None, 2)) for name in _SPLIT_ARRAYS},
    )
    n = p["n_nodes"]
    for name in _SPLIT_ARRAYS:
        if p[name].size and (p[name].min() < 0 or p[name].max() >= n):
            raise ParseError(f"{path}: {name} has a node id outside [0, {n})")
    return EdgeSplit(
        n_nodes=n,
        seed=p["seed"],
        **{name: _freeze(p[name]) for name in _SPLIT_ARRAYS},
    )
