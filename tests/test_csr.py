"""The row kernel's plans and ``A + I`` against scipy's CSR products, and
the row gather, pair-member merge and run sums against Python oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from classlink.csr import (
    ROW_BLOCK,
    Csr,
    pair_bases,
    pair_members,
    plus_identity,
    row_entries,
    row_plan,
    row_product,
    summed_runs,
)
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


def test_row_entries_list_each_rows_slice_in_turn():
    """Empty rows, repeated rows, rows out of order and no rows at all."""
    rng = np.random.default_rng(1304)
    a, _ = ragged(rng, 50)
    for rows in ([0, 5, 5, 17, 40, 2, 40, 3 * ROW_BLOCK - 1], [17, 0], [], [3]):
        rows = np.asarray(rows, dtype=np.int64)
        at, sizes = row_entries(a.indptr, rows)
        want = [np.arange(a.indptr[r], a.indptr[r + 1]) for r in rows]
        assert sizes.tolist() == [w.size for w in want]
        assert at.tolist() == np.concatenate([[], *want]).astype(np.int64).tolist()


def member_oracle(g, pairs):
    """Per pair, in pair then node order: ``N(x) ∩ N(y)`` as ``(pair, node)``
    rows, and ``N(x) ∪ N(y)`` as ``(pair, node, code)`` rows, from Python
    sets."""
    common, union = [], []
    for i, (x, y) in enumerate(pairs.tolist()):
        nx, ny = set(g.neighbors(x).tolist()), set(g.neighbors(y).tolist())
        common += [(i, u) for u in sorted(nx & ny)]
        union += [(i, u, (u in nx) + 2 * (u in ny)) for u in sorted(nx | ny)]
    return common, union


def assert_members(g, pairs):
    common, union = member_oracle(g, pairs)
    pair, node, code = pair_members(g.adj_indptr, g.adj_indices, pairs)
    assert code is None
    assert list(zip(pair.tolist(), node.tolist())) == common
    pair, node, code = pair_members(g.adj_indptr, g.adj_indices, pairs, union=True)
    assert list(zip(pair.tolist(), node.tolist(), code.tolist())) == union


def test_pair_members_equal_set_intersection_and_union():
    """Isolated nodes, ``x > y``, ``x == y``, repeated pairs and edges."""
    rng = np.random.default_rng(1305)
    n = 120
    g = build_graph(n, random_edges(rng, 100, 0.08))  # nodes 100..119 are isolated
    edge = g.undirected_edges()[:5]
    pairs = np.concatenate(
        [
            rng.integers(0, n, size=(200, 2)),
            [[7, 7], [110, 110], [110, 3], [90, 4], [4, 90], [90, 4]],
            edge,
            edge[:, ::-1],
        ]
    )
    assert_members(g, pairs)
    assert_members(g, pairs[:1])
    assert_members(g, pairs[:0])


def test_pair_members_with_int64_keys():
    """At 600,000 nodes, 4,000 pairs have keys past 2**31."""
    rng = np.random.default_rng(1306)
    n = 600_000
    hubs = rng.integers(0, n, size=40)
    g = build_graph(n, hubs[rng.integers(0, 40, size=(500, 2))])
    pairs = np.concatenate(
        [hubs[rng.integers(0, 40, size=(300, 2))], rng.integers(0, n, size=(3700, 2))]
    )
    assert pair_bases(len(pairs), n).dtype == np.int64
    assert_members(g, pairs)


@pytest.mark.parametrize("weighted", [False, True])
def test_summed_runs_equal_a_dict_sum(weighted):
    """Integer-valued weights, so every run's sum is exact in any order."""
    rng = np.random.default_rng(1307)
    keys = rng.integers(-50, 200, size=3000)
    weight = rng.integers(-3, 9, size=keys.size).astype(np.float64) if weighted else None
    want: dict[int, float] = {}
    for i, k in enumerate(keys.tolist()):
        want[k] = want.get(k, 0.0) + (1.0 if weight is None else float(weight[i]))
    given = keys.copy()
    got, first, sums = summed_runs(given, weight)
    assert (np.diff(got) >= 0).all() and sorted(keys.tolist()) == got.tolist()
    assert dict(zip(got[first].tolist(), sums.tolist())) == want
    assert got[first].tolist() == sorted(want)
    if not weighted:
        assert given.tolist() == got.tolist()  # sorted in place


def test_summed_runs_of_no_keys():
    for weight in (None, np.zeros(0)):
        keys, first, sums = summed_runs(np.zeros(0, dtype=np.int64), weight)
        assert keys.size == first.size == sums.size == 0
