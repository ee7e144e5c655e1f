"""CSR matrices as numpy arrays, and the row kernel that multiplies them.

A :class:`Csr` is the four arrays of a CSR matrix under scipy's field
names, so a scipy CSR matrix passes for one.  :func:`row_product` gives
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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Rows per block of row_product: a block's accumulator and gathered terms
# stay in cache.
ROW_BLOCK = 1024


class Csr(NamedTuple):
    """A CSR matrix as its numpy arrays, under scipy's field names."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


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
