"""Graph container, file ingestion, edge splitting, negative sampling.

A :class:`Graph` holds the numpy arrays of two CSR matrices: the ``n × n``
0/1 float adjacency over dense integer node ids (``adj_indptr``,
``adj_indices``, ``adj_data``) and the ``n × F`` node features
(``feature_indptr``, ``feature_indices``, ``feature_data``).  The adjacency
is symmetric, with sorted, strictly increasing neighbour lists and no
self-loops or parallel edges; construction canonicalizes arbitrary edge
lists into this form, so two input files describing the same edge set (in
any order, with duplicates either way around) produce bit-identical graphs.
Construction works on 1-D pair keys: every non-loop edge ``(u, v)`` gives
the keys ``u * n + v`` and ``v * n + u``, and one in-place sort and dedup of
those keys lists the stored entries row by row, so the CSR's row starts and
column ids are read straight off them.  The keys are int64, which bounds a
graph to ``n * n - 1 < 2**63``, that is fewer than 3.03e9 nodes.  The
features store every entry whose bit pattern is nonzero (so ``-0.0`` is
kept and ``0.0`` is not), with sorted column indices; no dense ``n × F``
copy is ever built, neither at ingestion nor when ``graph.json`` is read.

Layers that multiply matrices read ``g.adj`` and ``g.features``: scipy CSR
views of those arrays, made on first access and kept, which share the
arrays rather than copy them.  Everything else, building a graph from
arrays or files, :func:`load_graph_json`, :meth:`EdgeSplit.train_graph`,
the graph's own queries, the split and the negative samplers, is plain
numpy: :func:`_adjacency_arrays` sorts and dedups the pair keys,
:func:`_stored_entries` drops a feature CSR's explicit ``+0.0`` entries,
and :class:`_EdgeLookup` tells non-edges from edges on the CSR arrays.
scipy is imported only where a matrix is built from something other than
those arrays (dense or sparse features given to :func:`build_graph`) and by
the two views.

Node interning order is part of the reproducibility contract: original ids
are assigned dense ids in the order *feature-file rows, then label-file rows,
then edge-file endpoints (first seen)*.  Because auxiliary files are interned
first, deleting edges from the edge file never renumbers nodes that carry
features or labels, which downstream leakage checks rely on.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import artifacts
from .config import check_eval_split, check_ratios
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    ParseError,
)
from .rand import STREAM_SPLIT, STREAM_TEST_NEG, STREAM_VALID_NEG, make_rng

if TYPE_CHECKING:
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional class labels.

    Attributes
    ----------
    adj_indptr, adj_indices, adj_data : np.ndarray
        CSR arrays of the ``(n_nodes, n_nodes)`` 0/1 float adjacency: row
        ``u`` holds the sorted neighbour ids of ``u`` in
        ``adj_indices[adj_indptr[u]:adj_indptr[u + 1]]``, and ``adj_data``
        is all 1.0.
    feature_indptr, feature_indices, feature_data : np.ndarray
        CSR arrays of the ``(n_nodes, n_features)`` float features, every
        entry with a nonzero bit pattern stored, column indices sorted.
    n_features : int
        Feature width; 0 when no features were supplied.
    labels : np.ndarray | None
        ``(n_nodes,)`` int class ids, ``-1`` marking unlabeled nodes, or
        ``None`` when no label source was supplied.
    node_ids : tuple[str, ...]
        Dense id -> original id, persisted with the graph.
    class_ids : tuple[str, ...]
        Dense class id -> original label string (empty when unlabeled).

    Every array is read-only, and index arrays are int32 while the sizes
    fit.  :attr:`adj` and :attr:`features` are scipy CSR views of the
    arrays, for the layers that multiply matrices; the graph's queries,
    the split and the negative samplers read the arrays and need no scipy.
    """

    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    adj_data: np.ndarray
    feature_indptr: np.ndarray
    feature_indices: np.ndarray
    feature_data: np.ndarray
    n_features: int
    labels: np.ndarray | None
    node_ids: tuple[str, ...]
    class_ids: tuple[str, ...]

    @cached_property
    def adj(self) -> sp.csr_matrix:
        """The adjacency as a scipy CSR matrix over the graph's arrays."""
        import scipy.sparse as sp

        n = self.n_nodes
        return sp.csr_matrix((self.adj_data, self.adj_indices, self.adj_indptr), shape=(n, n))

    @cached_property
    def features(self) -> sp.csr_matrix:
        """The features as a scipy CSR matrix over the graph's arrays."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.feature_data, self.feature_indices, self.feature_indptr),
            shape=(self.n_nodes, self.n_features),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes (dense ids ``0 .. n_nodes - 1``)."""
        return self.adj_indptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adj_indices.size // 2

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.adj_indptr[u + 1] - self.adj_indptr[u])

    def degrees(self) -> np.ndarray:
        """All node degrees as an int64 array."""
        return np.diff(self.adj_indptr).astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (read-only view)."""
        self._check_node(u)
        return self.adj_indices[self.adj_indptr[u] : self.adj_indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def undirected_edges(self) -> np.ndarray:
        """All edges as a canonical ``(m, 2)`` array with ``u < v``, lex-sorted."""
        return _upper_pairs(self.adj_indptr, self.adj_indices)

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
        return replace(g, **_adjacency_fields(self.train_edges, self.n_nodes))

    def part(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """Positive edges and shared negative pool of the ``test`` or ``valid`` part."""
        check_eval_split(which)
        if which == "test":
            return self.test_edges, self.test_negatives
        return self.valid_edges, self.valid_negatives


Scorer = Callable[[np.ndarray], np.ndarray]
"""Batch scorer: maps an ``(m, 2)`` pair array to ``(m,)`` float scores."""


def check_pairs(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    """``pairs`` as an ``(m, 2)`` int64 array of node ids in ``[0, n_nodes)``.

    An id out of range or not an integer (``0.5``, NaN) raises
    :class:`ConfigurationError` naming the first such id in pair order; an
    integral float such as ``2.0`` passes as its integer.
    """
    ids = np.asarray(pairs).reshape(-1, 2)
    if ids.size and (ids.min() < 0 or ids.max() >= n_nodes or ids.dtype.kind == "f"):
        flat = ids.ravel()
        bad = ~((flat >= 0) & (flat < n_nodes) & (np.trunc(flat) == flat))
        if bad.any():
            node = flat[np.argmax(bad)].item()  # NaN and inf are not integers
            why = f"out of range [0, {n_nodes})" if node % 1 == 0 else "is not an integer"
            raise ConfigurationError(f"node id {node!r} {why}")
    return ids.astype(np.int64, copy=False)


def pair_chunks(m: int, size: int) -> Iterator[slice]:
    """Consecutive row slices that cut ``m`` pairs into chunks of ``size``.

    The last slice takes the rest, and a one-pair rest joins the slice before
    it: numpy multiplies a single row through gemv rather than gemm, which
    sums in another order, so a one-row chunk would not give the bits of an
    unchunked pass.  Only ``m = 1`` gives a one-row slice, and ``m = 0``
    gives one empty slice.
    """
    start = 0
    for stop in [*range(size, m - 1, size), m]:
        yield slice(start, stop)
        start = stop


def chunked_scorer(kernel: Scorer, n_nodes: int, chunk_size: Callable[[], int]) -> Scorer:
    """The scorer that checks a batch's ids once (:func:`check_pairs`), runs
    ``kernel`` on each ``(c, 2)`` chunk of ``chunk_size()`` pairs (read at
    every call) that :func:`pair_chunks` cuts, and fills one score vector.
    """

    def scorer(pairs: np.ndarray) -> np.ndarray:
        pairs = check_pairs(pairs, n_nodes)
        scores = np.empty(len(pairs))
        for rows in pair_chunks(len(pairs), chunk_size()):
            scores[rows] = kernel(pairs[rows])
        return scores

    return scorer


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# A feature matrix as its CSR arrays and width: ``(data, indices, indptr, width)``.
_FeatureArrays = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _index_dtype(*sizes: int) -> type[np.integer]:
    """int32 while every size fits in it, else int64: the index dtype scipy
    keeps for a CSR matrix of these sizes, so a view shares the arrays."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


# Largest node count whose pair keys ``u * n + v`` fit in int64: n * n - 1 < 2**63.
_MAX_NODES = 3_037_000_499


def _adjacency_arrays(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` of the symmetric adjacency of an edge list,
    rows sorted.

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

    index = _index_dtype(n_nodes, keys.size)
    row_starts = np.arange(n_nodes + 1, dtype=np.int64) * n_nodes
    indptr = np.searchsorted(keys, row_starts).astype(index)
    keys %= n_nodes
    return indptr, keys.astype(index)


def _adjacency_fields(edges: np.ndarray, n_nodes: int) -> dict[str, np.ndarray]:
    """The read-only adjacency fields of a :class:`Graph` over an edge list
    (:func:`_adjacency_arrays`)."""
    indptr, indices = _adjacency_arrays(edges, n_nodes)
    return {
        "adj_indptr": _freeze(indptr),
        "adj_indices": _freeze(indices),
        "adj_data": _freeze(np.ones(indices.size)),
    }


def _upper_pairs(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The ``(u, v)`` entries with ``u < v`` of a symmetric CSR with sorted
    rows, as a lex-sorted int64 ``(m, 2)`` array."""
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    dst = indices.astype(np.int64)
    mask = src < dst
    return np.column_stack([src[mask], dst[mask]])


def _stored_entries(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of a float64 CSR without its explicit ``+0.0`` entries: every
    entry whose bit pattern is nonzero stays (``-0.0`` too).  Arrays with
    nothing to drop are returned as given."""
    stored = data.view(np.int64) != 0
    if not stored.all():
        indptr = np.concatenate([[0], np.cumsum(stored)])[indptr]
        data, indices = data[stored], indices[stored]
    return data, indices, indptr


def _feature_fields(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, width: int
) -> dict[str, np.ndarray | int]:
    """The read-only feature fields of a :class:`Graph` over the arrays of a
    canonical float64 CSR: its stored entries (:func:`_stored_entries`), index
    arrays in :func:`_index_dtype`.  Arrays that need no change are kept,
    shared with the caller."""
    data, indices, indptr = _stored_entries(data, indices, indptr)
    index = _index_dtype(indptr.size - 1, width, indices.size)
    return {
        "feature_indptr": _freeze(indptr.astype(index, copy=False)),
        "feature_indices": _freeze(indices.astype(index, copy=False)),
        "feature_data": _freeze(data),
        "n_features": int(width),
    }


def _no_features(n_nodes: int) -> _FeatureArrays:
    """The CSR arrays of an ``n_nodes × 0`` feature matrix."""
    return np.zeros(0), np.zeros(0, np.int32), np.zeros(n_nodes + 1, np.int32), 0


def _feature_csr(features: np.ndarray | sp.spmatrix, n_nodes: int) -> sp.csr_matrix:
    """Dense or sparse features as CSR with sorted columns, duplicates summed,
    and every entry whose bit pattern is nonzero kept (``-0.0`` too).

    A canonical float64 CSR keeps its arrays (frozen, and shared with the
    input) with only its explicit ``+0.0`` entries dropped
    (:func:`_stored_entries`); anything else is first made one through COO.
    """
    import scipy.sparse as sp

    shape = features.shape if sp.issparse(features) else np.shape(features)
    if len(shape) != 2 or shape[0] != n_nodes:
        raise DimensionError(
            f"feature matrix shape {shape} does not match {n_nodes} nodes"
        )
    if not (
        sp.issparse(features)
        and features.format == "csr"
        and features.dtype == np.float64
        and features.has_canonical_format
    ):
        if sp.issparse(features):
            coo = sp.coo_matrix(features, dtype=np.float64, copy=True)
            coo.sum_duplicates()
            rows, cols, vals = coo.row, coo.col, coo.data
        else:
            dense = np.ascontiguousarray(features, dtype=np.float64)
            rows, cols = np.nonzero(dense.view(np.int64))
            vals = dense[rows, cols]
        features = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    arrays = _stored_entries(features.data, features.indices, features.indptr)
    return sp.csr_matrix(tuple(map(_freeze, arrays)), shape=shape)


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
    ``labels`` uses ``-1`` for unlabeled nodes; any other label indexes
    ``class_ids`` (by default ``0..max``), and one outside it is a
    :class:`DimensionError`.  Only features import scipy.
    """
    if n_nodes < 1:
        raise ConfigurationError(f"graph needs at least one node, got {n_nodes}")
    adjacency = _adjacency_fields(np.asarray(edges), n_nodes)

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
        bad = np.flatnonzero((labs < -1) | (labs >= len(class_ids)))[:1]
        if bad.size:
            raise DimensionError(
                f"node {bad[0]} has label {labs[bad[0]]}, outside "
                f"[-1, {len(class_ids)}) for {len(class_ids)} class ids"
            )
        labs = _freeze(labs.copy())

    if node_ids is None:
        node_ids = tuple(str(i) for i in range(n_nodes))
    if len(node_ids) != n_nodes:
        raise DimensionError("node_ids length does not match n_nodes")

    if features is None:
        features = _no_features(n_nodes)
    else:
        x = _feature_csr(features, n_nodes)
        features = (x.data, x.indices, x.indptr, x.shape[1])
    return Graph(
        **adjacency,
        **_feature_fields(*features),
        labels=labs,
        node_ids=tuple(node_ids),
        class_ids=tuple(class_ids or ()),
    )


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


# Characters of the feature file parsed at a time.  A block ends at a line end,
# so it runs at most one line past this.  Its transient arrays take about 12
# bytes per character (18 for text that is not ASCII), about 1 MiB a block
# whatever the file's size.
_FEATURE_BLOCK = 1 << 16


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

    Every file is decoded and newline-translated as ``open`` does; one that
    cannot be read or decoded is a :class:`ParseError` naming it, raised
    before any line of the text being decoded is checked.  The files are
    parsed in bulk, not line by line:

    * ``features.csv`` is read in blocks of whole lines of about
      ``_FEATURE_BLOCK`` characters.  Per line, Python only strips it, finds
      its first comma, counts its commas and interns its node id; numpy finds
      the value cells of the whole block in its encoded text.  A ``"0"``
      cell is +0.0 and never stored, a one-digit cell is its digit, and
      only the other cells go through ``float``.  Beyond the stored entries,
      memory stays within one block.
    * ``labels.csv`` and ``edges.txt`` are read whole.  Edge-file comments
      are cut with ``partition``, the cells or tokens of every line are
      counted at once, and node ids are interned in one first-seen pass.

    Errors are those of a line-by-line reading: the first offending line
    wins, and each line runs its checks in order (cell count, width,
    duplicate node, non-numeric cell).  Non-finite feature values are
    checked last, after the edge file.
    """
    n_nodes, edges, features, labels, node_ids, class_ids = _read_inputs(
        edge_path, feature_path, label_path
    )
    g = build_graph(n_nodes, edges, labels=labels, node_ids=node_ids, class_ids=class_ids)
    return g if features is None else replace(g, **_feature_fields(*features))


def ingest_graph_json(
    edge_path: str | Path,
    feature_path: str | Path | None,
    label_path: str | Path | None,
    path: str | Path,
) -> tuple[int, int]:
    """Read the input files as :func:`load_graph` does and write the
    ``graph.json`` that :func:`save_graph_json` writes for its graph, byte
    for byte, without building the graph.  Returns the node and edge counts.

    The adjacency comes from :func:`_adjacency_arrays` and the feature
    entries pass :func:`_stored_entries`, the steps :func:`build_graph`
    takes, in its order, so the errors are those of :func:`load_graph` too.
    """
    n_nodes, edges, features, labels, node_ids, class_ids = _read_inputs(
        edge_path, feature_path, label_path
    )
    indptr, indices = _adjacency_arrays(edges, n_nodes)
    del edges
    *csr, width = _no_features(n_nodes) if features is None else features
    _write_graph_json(
        path,
        n_nodes,
        node_ids,
        class_ids,
        _upper_pairs(indptr, indices),
        labels,
        (*_stored_entries(*csr), width),
    )
    return n_nodes, indices.size // 2


def _read_inputs(
    edge_path: str | Path,
    feature_path: str | Path | None,
    label_path: str | Path | None,
) -> tuple[
    int, np.ndarray, _FeatureArrays | None, np.ndarray | None, tuple[str, ...], tuple[str, ...]
]:
    """The parsed input files of :func:`load_graph`: the node count, the raw
    ``(m, 2)`` edges, the features as canonical CSR arrays ``(data, indices,
    indptr, width)`` or ``None``, the labels or ``None``, and the node and
    class ids."""
    index: dict[str, int] = {}

    # Feature and label files are interned before edges; see module docstring.
    feature_rows = None if feature_path is None else _read_features(feature_path, index)
    label_rows = None if label_path is None else _read_labels(label_path, index)
    edges = _read_edges(edge_path, index)

    n_nodes = len(index)
    if n_nodes == 0:
        raise ParseError(f"{edge_path}: no nodes found in any input file")

    features = None
    if feature_rows is not None:
        row_sizes, cols, values, row_lines, width = feature_rows
        # rows 0 .. row_sizes.size - 1 in order, columns ascending: a
        # canonical CSR; nodes without a feature row get empty rows
        sizes = np.zeros(n_nodes, dtype=np.int64)
        sizes[: row_sizes.size] = row_sizes
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
            raise ParseError(
                f"{feature_path}:{row_lines[row]}: non-finite feature "
                f"value {values[bad[0]]}"
            )
        features = (values, cols, indptr, width)

    labels = None
    class_ids: tuple[str, ...] = ()
    if label_rows is not None:
        nodes, classes, class_ids = label_rows
        labels = np.full(n_nodes, -1, dtype=np.int64)
        labels[nodes] = classes
    return n_nodes, edges, features, labels, tuple(index), class_ids


def _read_features(
    path: str | Path, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int]:
    """The stored entries of a feature CSV, its rows interned in order.

    Returns each row's entry count, the entries' columns and values in row
    order, each row's line number, and the width (0 for a file of blank lines).
    """
    width: int | None = None
    sizes: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    cols: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    values: list[np.ndarray] = [np.zeros(0)]
    row_lines: list[int] = []
    first = 1
    for block in _text_blocks(path, _FEATURE_BLOCK):
        lines = block.split("\n")  # a block that ends a line ends with an empty piece
        rows: list[str] = []
        block_lines: list[int] = []
        try:
            for lineno, raw in enumerate(lines, first):
                line = raw.strip()
                if not line:
                    continue
                comma = line.find(",")
                if comma < 0:
                    raise ParseError(
                        f"{path}:{lineno}: expected node id plus at least "
                        f"one feature column, got 1 cell(s)"
                    )
                n_cols = line.count(",")
                if width is None:
                    width = n_cols
                elif n_cols != width:
                    raise DimensionError(
                        f"{path}:{lineno}: row has {n_cols} feature "
                        f"columns, expected {width}"
                    )
                node = line[:comma].strip()
                if node in index:  # every id interned so far is a feature row's
                    raise ParseError(
                        f"{path}:{lineno}: duplicate feature row for node '{node}'"
                    )
                index[node] = len(index)
                rows.append(line[comma + 1 :])
                block_lines.append(lineno)
        except (ParseError, DimensionError):
            if rows:  # a bad cell on an earlier line of the block comes first
                _stored_cells(path, rows, block_lines, width)
            raise
        if rows:
            cells, vals = _stored_cells(path, rows, block_lines, width)
            sizes.append(np.bincount(cells // width, minlength=len(rows)))
            cols.append(cells % width)
            values.append(vals)
            row_lines += block_lines
        first += len(lines) - 1
    return (
        np.concatenate(sizes),
        np.concatenate(cols),
        np.concatenate(values),
        row_lines,
        width or 0,
    )


def _stored_cells(
    path: str | Path, rows: list[str], lines: list[int], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major cell numbers and values of the stored cells of ``rows``.

    ``rows`` are the value parts of feature lines ``lines``, each ``width``
    cells.  Joined by commas between two more, every cell lies between two
    commas of that text.  A cell that is exactly ``"0"`` is +0.0, which is
    never stored, and one that is a single digit ``1``-``9`` is that digit;
    only the other cells are cut out and passed to ``float``.  The first
    cell ``float`` rejects, in row-major order, raises :class:`ParseError`.
    """
    text = "," + ",".join(rows) + ","
    # one array element per character, so positions index ``text`` directly
    codes = (
        np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        if text.isascii()
        else np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    )
    comma = codes == ord(",")
    zero = np.zeros_like(comma)  # the character of a "0" cell
    zero[1:-1] = (codes[1:-1] == ord("0")) & comma[:-2] & comma[2:]
    opens = np.flatnonzero(comma[:-1] & ~zero[1:])  # the comma before each other cell
    closes = np.flatnonzero(comma[1:] & ~zero[:-1]) + 1  # and the comma after it
    if not opens.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    # a cell's number is the count of commas before the one that opens it
    between = np.add.reduceat(comma, opens, dtype=np.int64)
    numbers = np.cumsum(between) - between + np.count_nonzero(comma[: opens[0]])
    # a one-digit cell is its digit, which float would give too
    lead = codes[opens + 1]
    digit = (closes - opens == 2) & (lead >= ord("1")) & (lead <= ord("9"))
    values = np.empty(opens.size)
    values[digit] = lead[digit] - ord("0")
    rest = np.flatnonzero(~digit)
    cells = list(
        map(text.__getitem__, map(slice, (opens[rest] + 1).tolist(), closes[rest].tolist()))
    )
    try:
        values[rest] = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        for number, cell in zip(numbers[rest].tolist(), cells):
            try:
                float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lines[number // width]}: non-numeric feature value ({exc})"
                ) from exc
        raise
    stored = values.view(np.int64) != 0
    return numbers[stored], values[stored]


def _read_labels(
    path: str | Path, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The node ids and dense class ids of a label CSV's rows, and the class
    names in first-seen order; node ids are interned in row order."""
    lines = list(map(str.strip, _read_text(path).split("\n")))
    cells = np.fromiter(map(str.count, lines, itertools.repeat(",")), dtype=np.int64) + 1
    filled = np.fromiter(map(bool, lines), dtype=bool, count=len(lines))
    bad = np.flatnonzero(filled & (cells != 2))
    stop = int(bad[0]) if bad.size else len(lines)
    # the rows before the first bad line hold one comma each, so their
    # cells alternate node, class; a repeated node among them comes first
    rows = np.flatnonzero(filled[:stop])
    pairs = ",".join([lines[i] for i in rows.tolist()]).split(",") if rows.size else []
    names = list(map(str.strip, pairs[0::2]))
    nodes = _intern(index, names)
    repeated = np.ones(nodes.size, dtype=bool)
    repeated[np.unique(nodes, return_index=True)[1]] = False
    if repeated.any():
        i = int(np.argmax(repeated))
        raise ParseError(
            f"{path}:{rows[i] + 1}: duplicate label row for node '{names[i]}'"
        )
    if bad.size:
        raise ParseError(
            f"{path}:{stop + 1}: expected 'node_id,label', got {cells[stop]} cell(s)"
        )
    class_index: dict[str, int] = {}
    classes = _intern(class_index, list(map(str.strip, pairs[1::2])))
    return nodes, classes, tuple(class_index)


def _read_edges(path: str | Path, index: dict[str, int]) -> np.ndarray:
    """The ``(m, 2)`` dense ids of an edge file's lines, interned in order."""
    text = _read_text(path)
    if "#" in text:
        text = "\n".join([line.partition("#")[0] for line in text.split("\n")])
    counts = np.fromiter(map(len, map(str.split, text.split("\n"))), dtype=np.int64)
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    if bad.size:
        i = int(bad[0])
        line = text.split("\n")[i].strip()
        raise ParseError(
            f"{path}:{i + 1}: expected two node ids per line, got "
            f"{counts[i]} token(s): {line!r}"
        )
    return _intern(index, text.split()).reshape(-1, 2)


def _intern(index: dict[str, int], names: list[str]) -> np.ndarray:
    """The dense ids of ``names``; each name not yet in ``index`` gets the
    next id there, in order of first occurrence."""
    for name in dict.fromkeys(names):
        index.setdefault(name, len(index))
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _read_text(path: str | Path) -> str:
    """The whole of a text file; see :func:`_text_blocks`."""
    return "".join(_text_blocks(path, -1))


def _text_blocks(path: str | Path, size: int) -> Iterator[str]:
    """A text file in blocks of ``size`` characters, each extended to its
    line's end (one block when ``size`` is -1), decoded and newline-translated
    as ``open`` does."""
    try:
        with open(path) as fh:
            while block := fh.read(size):
                if not block.endswith("\n"):
                    block += fh.readline()
                yield block
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Graph artifacts
# ---------------------------------------------------------------------------


def save_graph_json(g: Graph, path: str | Path) -> None:
    """Serialize a graph losslessly: edges, labels and the feature CSR arrays."""
    _write_graph_json(
        path,
        g.n_nodes,
        g.node_ids,
        g.class_ids,
        g.undirected_edges(),
        g.labels,
        (g.feature_data, g.feature_indices, g.feature_indptr, g.n_features),
    )


def _write_graph_json(
    path: str | Path,
    n_nodes: int,
    node_ids: Sequence[str],
    class_ids: Sequence[str],
    edges: np.ndarray,
    labels: np.ndarray | None,
    features: _FeatureArrays,
) -> None:
    """The one ``graph.json`` writer: canonical ``u < v`` edges, labels, and
    the feature CSR as ``(data, indices, indptr, width)``."""
    data, indices, indptr, width = features
    artifacts.write(
        path,
        "graph",
        {
            "n_nodes": n_nodes,
            "n_features": width,
            "node_ids": list(node_ids),
            "class_ids": list(class_ids),
        },
        {
            "edges": edges,
            "labels": labels,
            "features_indptr": indptr,
            "features_indices": indices,
            "features_data": data,
        },
    )


def load_graph_json(path: str | Path) -> Graph:
    """The graph that :func:`save_graph_json` wrote, checked as it is read;
    a file that is not one is a :class:`ParseError` naming it."""
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
    # columns strictly increase between neighbouring entries, except across
    # the start of a row
    rising = np.diff(indices) > 0
    row_starts = indptr[1:-1]
    rising[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = True
    if not rising.all():
        raise ParseError(f"{path}: feature columns do not strictly increase in a row")
    try:
        g = build_graph(
            n,
            p["edges"],
            labels=p["labels"],
            node_ids=tuple(p["node_ids"]),
            class_ids=tuple(p["class_ids"]),
        )
    except DimensionError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return replace(g, **_feature_fields(data, indices, indptr, width))


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
    r = check_ratios(ratios)
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
    valid_neg = sample_negatives(g, pool, (seed, STREAM_VALID_NEG))
    test_neg = sample_negatives(g, pool, (seed, STREAM_TEST_NEG))

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
    is read off the graph's CSR arrays (:func:`sample_negative_pools`).
    Raises :class:`CapacityError` when fewer than ``count`` non-edges exist.
    """
    return sample_negative_pools(g, count, 1, seed)[0]


# Candidates a round draws at least, over all its pools; part of the
# reproducibility contract, since it fixes how far the stream advances.
_MIN_BATCH = 1024
# Pools drawn together, one chunk after another from the call's generator;
# part of the reproducibility contract too, and it bounds the candidate arrays
# to a few MiB.
_POOL_CHUNK = 128
# Slots of the non-edge lookup's bit table per edge, at least: about one
# random candidate in this many hits an edge's slot and is looked up in the
# CSR.  The table takes 1 to 2 bytes per edge.
_SLOTS_PER_EDGE = 8
# Odd 64-bit multiplier of the table's hash (2**64 over the golden ratio).
_HASH = np.uint64(0x9E3779B97F4A7C15)
# CSR entries hashed at a time while the table is built.
_FILL_BLOCK = 1 << 12


def sample_negative_pools(
    g: Graph,
    count: int,
    n_pools: int,
    seed: int | tuple[int, ...],
) -> np.ndarray:
    """``n_pools`` pools of ``count`` distinct non-edges each, ``(n_pools,
    count, 2)``, all drawn from the one generator ``make_rng(seed)``.

    Pools are drawn ``_POOL_CHUNK`` at a time.  Each round of a chunk draws
    one ``(2, pending, width)`` block of candidates for the pools still
    short, all ``u`` then all ``v``, with ``width = max(ceil(1024 / pending),
    2 * most missing)``; self-pairs and edges are rejected and each pool keeps
    the new pairs of its own row in order of first occurrence.  A single
    pool thus reads the stream in batches of ``max(1024, 2 * missing)``.
    Whether a candidate is an edge is read off the graph's CSR arrays by
    :class:`_EdgeLookup`.  Each block is first filtered on a prefix just long
    enough to fill a pool, falling back to the whole block only for the pools
    that prefix leaves short.
    """
    if count < 0:
        raise ConfigurationError(f"negative sample count must be >= 0, got {count}")
    n = g.n_nodes
    capacity = n * (n - 1) // 2 - g.n_edges
    if count > capacity:
        raise CapacityError(
            f"requested {count} negatives but only {capacity} non-edges exist"
        )

    rng = make_rng(seed)
    pools = np.empty((n_pools, count, 2), dtype=np.int64)
    is_edge = _EdgeLookup(g)
    for start in range(0, n_pools, _POOL_CHUNK):
        chunk = pools[start : start + _POOL_CHUNK]
        keys = _draw_pools(rng, len(chunk), count, n, is_edge)
        np.divmod(keys, n, out=(chunk[..., 0], chunk[..., 1]))
    return pools


class _EdgeLookup:
    """Exact membership of pair keys ``lo * n + hi`` (``lo <= hi``) in a
    graph's edge set, without scipy.

    A bit table of ``2**bits`` slots, at least ``_SLOTS_PER_EDGE`` per edge,
    marks the slot of every edge's key under a multiplicative hash.  A key
    whose slot is clear is no edge; the few whose slot is set are looked up
    by bisection in their sorted CSR row.  Beyond the table, building it
    holds ``_FILL_BLOCK`` entries at a time, so nothing else edge-sized is
    allocated.
    """

    def __init__(self, g: Graph):
        self.n = g.n_nodes
        self.indptr, self.indices = g.adj_indptr, g.adj_indices
        bits = max(3, (g.n_edges * _SLOTS_PER_EDGE).bit_length())
        self.shift = np.uint64(64 - bits)
        self.table = np.zeros(1 << (bits - 3), dtype=np.uint8)
        rows = np.searchsorted(self.indptr, np.arange(0, self.indices.size, _FILL_BLOCK))
        for lo, hi in zip(rows.tolist(), [*rows[1:].tolist(), self.n]):
            src = np.repeat(np.arange(lo, hi), np.diff(self.indptr[lo : hi + 1]))
            dst = self.indices[self.indptr[lo] : self.indptr[hi]]
            upper = src < dst
            slot = self._slots(src[upper] * self.n + dst[upper])
            np.bitwise_or.at(self.table, slot >> np.uint64(3), self._bits(slot))

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        slot = keys.astype(np.uint64)
        slot *= _HASH
        slot >>= self.shift
        return slot

    @staticmethod
    def _bits(slot: np.ndarray) -> np.ndarray:
        return np.left_shift(1, slot & np.uint64(7), dtype=np.uint8)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        slot = self._slots(keys)
        hits = np.flatnonzero(self.table[slot >> np.uint64(3)] & self._bits(slot))
        found = np.zeros(keys.shape, dtype=bool)
        if hits.size:
            rows, cols = np.divmod(keys.ravel()[hits], self.n)
            found.ravel()[hits] = self._stored(rows, cols)
        return found

    def _stored(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether ``cols[i]`` is in CSR row ``rows[i]``: a lower-bound
        bisection of every row at once."""
        lo = self.indptr[rows].astype(np.int64)
        end = self.indptr[rows + 1].astype(np.int64)
        hi, last = end.copy(), self.indices.size - 1
        while (open_ := lo < hi).any():
            mid = (lo + hi) >> 1
            right = self.indices[np.minimum(mid, last)] < cols
            lo = np.where(open_ & right, mid + 1, lo)
            hi = np.where(open_ & ~right, mid, hi)
        return (lo < end) & (self.indices[np.minimum(lo, last)] == cols)


def _draw_pools(
    rng: np.random.Generator,
    n_pools: int,
    count: int,
    n: int,
    is_edge: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Pair keys ``u * n + v`` of ``n_pools`` pools drawn from ``rng``,
    ``(n_pools, count)``; ``is_edge`` tells which candidate keys are edges."""
    keys = np.zeros((n_pools, count), dtype=np.int64)
    have = np.zeros(n_pools, dtype=np.int64)
    pending = np.flatnonzero(have < count)
    while pending.size:
        missing = count - have[pending]
        width = max(-(-_MIN_BATCH // pending.size), 2 * int(missing.max()))
        u, v = rng.integers(0, n, size=(2, pending.size, width))

        # on a sparse graph nearly every candidate is fresh, so a prefix of
        # twice the missing count almost always fills the pool, and only the
        # block examined is ordered into (lo, hi)
        rows = np.arange(pending.size)
        prefix = 2 * int(missing.max()) + 32
        for stop in ((prefix, width) if prefix < width else (width,)):
            last = stop == width
            block_u, block_v = u[rows, :stop], v[rows, :stop]
            block_lo, block_hi = np.minimum(block_u, block_v), np.maximum(block_u, block_v)
            cand = block_lo * n + block_hi
            fresh = (block_lo != block_hi) & ~is_edge(cand)
            sel = pending[rows]
            kept = np.arange(count) < have[sel, None]
            got, found = _first_distinct(
                np.concatenate([keys[sel], cand], axis=1),
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
