"""The row kernel's plans and ``A + I`` against scipy's CSR products."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from classlink.csr import ROW_BLOCK, Csr, plus_identity, row_plan, row_product
from classlink.graph import build_graph

from conftest import random_edges


def ragged(rng: np.random.Generator, width: int) -> tuple[Csr, sp.csr_matrix]:
    """A CSR with empty rows (the first and the last among them), one row
    longer than a block, non-unit weights with ``-0.0`` among them, and
    repeated columns in a row; and the same matrix in scipy."""
    sizes = rng.integers(0, 5, size=3 * ROW_BLOCK)
    sizes[[0, 17, sizes.size - 1]] = 0
    sizes[40] = ROW_BLOCK + 200
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = rng.integers(0, width, size=indptr[-1]).astype(np.int32)
    data = rng.uniform(-2.0, 2.0, size=indices.size)
    data[rng.random(indices.size) < 0.05] = -0.0
    shape = (sizes.size, width)
    return Csr(indptr, indices, data, shape), sp.csr_matrix((data, indices, indptr), shape=shape)


@pytest.mark.parametrize("width", [1, 3, 10])
def test_a_plan_made_once_keeps_scipys_bits_on_every_product(width):
    """One plan serves several products, each with the bits of scipy's
    ``csr @ dense``: empty rows are 0.0, a ``-0.0`` term becomes 0.0 as in
    scipy's zeroed row, and the long row sums past a block's rows."""
    rng = np.random.default_rng(1301)
    a, want = ragged(rng, 500)
    plan = row_plan(a)
    assert plan.weights is not None and plan.bounds[-1] == a.indices.size
    assert len(plan.bounds) - 1 == ROW_BLOCK + 200  # one step per term of the longest row
    for _ in range(3):
        dense = rng.standard_normal((500, width))
        dense[rng.random(500) < 0.1] = -0.0
        expected = want @ dense
        assert plan.product(dense).tobytes() == expected.tobytes()
        assert row_product(a, dense).tobytes() == expected.tobytes()
        assert not np.signbit(plan.product(dense)[[0, 17]]).any()


def test_a_unit_plan_skips_the_weights():
    rng = np.random.default_rng(1302)
    a, _ = ragged(rng, 300)
    a = a._replace(data=np.ones(a.data.size))
    plan = row_plan(a)
    assert plan.weights is None
    dense = rng.standard_normal((300, 4))
    expected = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape) @ dense
    assert plan.product(dense).tobytes() == expected.tobytes()


def test_a_matrix_without_entries():
    plan = row_plan(Csr(np.zeros(4, dtype=np.int64), np.zeros(0, np.int32), np.zeros(0), (3, 5)))
    assert plan.bounds == [0]
    assert plan.product(np.ones((5, 2))).tolist() == [[0.0, 0.0]] * 3
    empty = row_plan(Csr(np.zeros(1, dtype=np.int64), np.zeros(0, np.int32), np.zeros(0), (0, 5)))
    assert empty.product(np.ones((5, 2))).shape == (0, 2)


def test_plus_identity_equals_scipys_sum():
    """``A + I`` keeps every row's columns ascending, with the diagonal in
    place, on a graph with isolated nodes and nodes whose neighbours all lie
    below or all above them."""
    rng = np.random.default_rng(1303)
    n = 400
    edges = np.concatenate([random_edges(rng, n, 0.01), [[0, 1], [0, 2], [398, 399]]])
    g = build_graph(n, edges)
    got = plus_identity(Csr(g.adj_indptr, g.adj_indices, g.adj_data, (n, n)))
    want = g.adj + sp.identity(n, format="csr")
    assert want.has_sorted_indices
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.indices.dtype == np.int32 and got.indptr.dtype == np.int32
