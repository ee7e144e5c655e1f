"""CSR matrices as numpy arrays: the row kernel that multiplies them, and
the row gathers and pair-key merges that every scorer builds on.

A :class:`Csr` is the four arrays of a CSR matrix under scipy's field
names, so a scipy CSR matrix passes for one.  :func:`feature_csr` is the
one entry of node features and k-means points: it checks CSR arrays and
converts a dense array.  :func:`row_product` gives
``a @ dense`` with the bits of scipy's CSR product: scipy adds each row's
terms ``a[i, j] · dense[j]`` in stored order into a zeroed row, and so does
the kernel, a step at a time.

The kernel's work is split in two.  A :class:`RowPlan` (:func:`row_plan`)
is what depends on ``a`` alone: its rows, longest first, and the column ids
and values of each step's terms.  Step ``k`` adds the ``k``-th term of every
row that has one, a prefix of the rows in that order, so a product makes a
few numpy calls per step, however many rows it sums.  A caller that
multiplies one matrix many times builds its plan once; :func:`row_product`
builds one per block of ``ROW_BLOCK`` rows inside the call, so a block's
sums and gathered terms stay in cache.

The other helpers list and merge CSR rows as flat arrays.
:func:`row_entries` gives the entry ids of a list of rows, row after row,
which is how a row gather reads ``indices`` and ``data``.  Which nodes feed
which candidate pair is a set of *pair keys*: chunk pair ``i``'s
neighbour ``u`` is the key ``i · n + u`` (:func:`pair_bases`; int32 while
``c · n`` fits, else int64).  :func:`neighbor_keys` lists them; each row's
keys ascend as its CSR row does, so one side's keys ascend throughout a
chunk.  :func:`pair_members` merges both sides' keys with one sort, after
which keys are ordered by pair, then by node, and a key met twice is a
common neighbour: CN/AA/RA and ncn keep those, the ``Z`` normaliser and
ncnc keep every key once with the side it came from.
:func:`summed_runs` sorts keys and sums a weight over each run of equal
keys, the step of a Katz power, of Louvain's community links and of its
supernode graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError

# Rows per block of row_product: a block's accumulator and gathered terms
# stay in cache.
ROW_BLOCK = 1024


class Csr(NamedTuple):
    """A CSR matrix as its numpy arrays, under scipy's field names."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def feature_csr(features: np.ndarray | Csr) -> Csr:
    """Features or k-means points as a float64 CSR matrix whose columns
    strictly increase in each row.

    CSR arrays are read by their field names, so a canonical scipy CSR
    matrix passes, and are kept as given once they are checked: ``indptr``
    rises from 0 to the entry count, ``data`` holds one value per column
    id, every column lies in ``[0, width)``, and the columns strictly
    increase in each row.  Anything else is read as a dense 2-D array, and
    every entry whose bit pattern is nonzero is kept (``-0.0`` too, ``0.0``
    not).  A matrix that breaks the rule, or is not 2-D, raises
    :class:`DimensionError`.
    """
    if not hasattr(features, "indptr"):
        dense = np.ascontiguousarray(features, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionError(f"expected a 2-D feature matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense.view(np.int64))
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return Csr(indptr, cols, dense[rows, cols], dense.shape)
    indptr, indices = np.asarray(features.indptr), np.asarray(features.indices)
    data = np.asarray(features.data, dtype=np.float64)
    n, width = features.shape
    if (
        min(n, width) < 0
        or indptr.shape != (n + 1,)
        or indptr[0] != 0
        or (np.diff(indptr) < 0).any()
        or indptr[-1] != indices.size
        or data.shape != indices.shape
        or (indices.size and (indices.min() < 0 or indices.max() >= width))
    ):
        raise DimensionError(f"features are not a CSR matrix of {n} x {width}")
    # columns strictly increase between neighbouring entries, except across
    # the start of a row
    rising = np.diff(indices) > 0
    row_starts = indptr[1:-1]
    rising[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = True
    if not rising.all():
        raise DimensionError("feature columns do not strictly increase in a row")
    return Csr(indptr, indices, data, (n, width))


def row_slice(a: Csr, rows: slice) -> Csr:
    """Rows ``rows`` of ``a``: views of its entries, row starts from 0."""
    indptr = a.indptr[rows.start : rows.stop + 1]
    lo, hi = indptr[0], indptr[-1]
    return Csr(indptr - lo, a.indices[lo:hi], a.data[lo:hi], (indptr.size - 1, a.shape[1]))


def plus_identity(a: Csr) -> Csr:
    """``a + I`` for a square ``a`` whose rows are sorted and hold no
    diagonal entry: each row's columns stay ascending, and the diagonal
    holds 1.0.  No sort: every entry moves right by its row, and by one
    more if its column is past the diagonal."""
    n = a.shape[0]
    sizes = np.diff(a.indptr)
    rows = np.repeat(np.arange(n), sizes)
    past = a.indices > rows
    index = np.int32 if a.indices.size + n <= np.iinfo(np.int32).max else np.int64
    indptr = (a.indptr + np.arange(n + 1)).astype(index)
    diag = indptr[:-1] + sizes - np.bincount(rows[past], minlength=n)
    at = np.arange(a.indices.size) + rows + past
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1])
    indices[at], data[at] = a.indices, a.data
    indices[diag], data[diag] = np.arange(n), 1.0
    return Csr(indptr, indices, data, a.shape)


class RowPlan(NamedTuple):
    """The steps of a product with a fixed CSR matrix.

    ``order`` lists its rows, longest first.  Step ``k`` adds a term to the
    first ``bounds[k + 1] - bounds[k]`` rows in that order: the dense rows
    ``columns[bounds[k]:bounds[k + 1]]``, times the same slice of
    ``weights``, which is ``None`` where every stored value is 1.
    """

    order: np.ndarray
    bounds: list[int]
    columns: np.ndarray
    weights: np.ndarray | None
    shape: tuple[int, int]

    def sums(self, dense: np.ndarray) -> np.ndarray:
        """The rows of ``a @ dense`` at the non-empty rows of ``a``, in
        ``order``, with the bits of scipy's CSR product.

        The first step adds its terms to 0.0 in place, which turns a
        ``-0.0`` term into ``0.0`` as scipy's zeroed row does; the multiply
        is skipped where every stored value is 1.
        """
        b, width = self.bounds, dense.shape[1]
        sums = np.empty((b[1] if len(b) > 1 else 0, width))
        terms = np.empty((b[2] - b[1] if len(b) > 2 else 0, width))
        for k, (lo, hi) in enumerate(zip(b[:-1], b[1:])):
            step = terms[: hi - lo] if k else sums
            np.take(dense, self.columns[lo:hi], axis=0, out=step, mode="clip")
            if self.weights is not None:
                step *= self.weights[lo:hi, None]
            if k:
                sums[: hi - lo] += step
            else:
                sums += 0.0
        return sums

    def product(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``a @ dense`` with the bits of scipy's CSR product, into ``out``;
        an empty row is 0.0."""
        if out is None:
            out = np.empty((self.shape[0], dense.shape[1]))
        sums = self.sums(dense)
        out[self.order[len(sums) :]] = 0.0
        out[self.order[: len(sums)]] = sums
        return out


def row_plan(a: Csr) -> RowPlan:
    """The plan of products with ``a``: one stable argsort of the row sizes
    orders the rows, and the entries are gathered once, step by step."""
    starts = a.indptr[:-1]
    sizes = a.indptr[1:] - starts
    order = np.argsort(-sizes, kind="stable")
    starts, shorter = starts[order], -sizes[order]  # ascending
    active = np.searchsorted(shorter, -np.arange(sizes.max(initial=0)), "left")
    bounds = np.zeros(active.size + 1, dtype=np.int64)
    np.cumsum(active, out=bounds[1:])
    step = np.repeat(np.arange(active.size), active)
    at = starts[np.arange(step.size) - bounds[step]] + step
    unit = bool((a.data == 1.0).all())
    return RowPlan(
        order=order,
        bounds=bounds.tolist(),
        columns=a.indices[at],
        weights=None if unit else a.data[at],
        shape=a.shape,
    )


def row_product(a: Csr, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ dense`` with the bits of scipy's CSR product, into ``out``: a
    plan per block of ``ROW_BLOCK`` rows, made and run inside the call."""
    rows = a.shape[0]
    if out is None:
        out = np.empty((rows, dense.shape[1]))
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        row_plan(row_slice(a, slice(lo, hi))).product(dense, out[lo:hi])
    return out


def row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry ids of CSR rows ``rows``, row after row, each row's in
    stored order, and the rows' sizes."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    ends = np.cumsum(sizes)
    at = np.repeat(starts - (ends - sizes), sizes)  # entry of row j's t-th id, minus t
    at += np.arange(at.size, dtype=at.dtype)
    return at, sizes


def pair_bases(c: int, n: int) -> np.ndarray:
    """``i · n`` for chunk pairs ``i < c``: int32 while ``c · n`` fits."""
    key = np.int32 if c * n <= np.iinfo(np.int32).max else np.int64
    return np.arange(0, c * n, n, dtype=key)


def neighbor_keys(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``bases[j] + u`` of the neighbours ``u`` of ``nodes[j]`` in the
    CSR adjacency ``(indptr, indices)``, row after row, in the dtype of
    ``bases``, and the row sizes."""
    at, sizes = row_entries(indptr, nodes)
    keys = indices[at].astype(bases.dtype, copy=False)
    keys += np.repeat(bases, sizes)
    return keys, sizes


def pair_members(
    indptr: np.ndarray, indices: np.ndarray, pairs: np.ndarray, union: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The members of each chunk pair's neighbourhood in the CSR adjacency,
    ordered by pair, then by node: their ``pair`` and ``node`` ids and, with
    ``union``, their ``code``.

    The keys of the pairs' ``x`` sides come first, then those of their
    ``y`` sides, and one sort merges them.  Without ``union`` the members
    are ``N(x) ∩ N(y)``, the keys met twice, and ``code`` is None.  With
    ``union`` they are ``N(x) ∪ N(y)``, each once, coded as
    ``A[xs] + 2 A[ys]`` codes it: 1 (``N(x)`` only), 2 (``N(y)`` only) or 3
    (both).
    """
    n, c = indptr.size - 1, len(pairs)
    keys, sizes = neighbor_keys(indptr, indices, pairs.T.ravel(), np.tile(pair_bases(c, n), 2))
    code = None
    if not union:
        keys.sort()
        keys = keys[1:][keys[1:] == keys[:-1]]
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[1:] = keys[1:] == keys[:-1]
        code = np.where(order < sizes[:c].sum(), np.int8(1), np.int8(2))
        code[:-1][repeat[1:]] = 3
        keys, code = keys[~repeat], code[~repeat]
    pair = keys // n
    return pair, keys - pair * n, code


def summed_runs(
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
