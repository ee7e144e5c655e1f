"""Reference implementations of Louvain and Lloyd k-means, used as oracles.

Louvain here keeps the graph as a list of ``{neighbour: weight}`` dicts and
rebuilds every node's community links on every visit.  It comes twice: a
sequential sweep, one node at a time, which is the quality oracle of the
batched local moves in ``classlink.clustering`` and bounds their modularity;
and the same colour-class batched moves, whose labels and level count the
array code must reproduce bit for bit, as its modularity and aggregation.  k-means comes twice:
dense float Lloyd with centroid means, whose labels the library must
reproduce, and an exact Lloyd over ``fractions.Fraction`` for small integer
point sets, whose labels and ties the library must reproduce label for label.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from classlink.errors import ConfigurationError
from classlink.graph import Graph
from classlink.rand import STREAM_CLUSTER, make_rng


# ---------------------------------------------------------------------------
# Louvain over a dict of dicts
# ---------------------------------------------------------------------------


def dict_adjacency(g: Graph) -> list[dict[int, float]]:
    adj: list[dict[int, float]] = [dict() for _ in range(g.n_nodes)]
    for u in range(g.n_nodes):
        for v in g.neighbors(u).tolist():
            adj[u][v] = 1.0
    return adj


def louvain_levels(g: Graph, seed: int) -> tuple[np.ndarray, int]:
    """Louvain labels and the number of local-move levels that produced them."""
    if g.n_edges == 0:
        raise ConfigurationError("modularity is undefined on an edgeless graph")
    rng = make_rng(seed)
    adj = dict_adjacency(g)
    membership = np.arange(g.n_nodes)
    q_prev = modularity(adj, list(range(len(adj))))
    levels = 0
    while True:
        comm = local_move(adj, rng)
        levels += 1
        q_new = modularity(adj, comm)
        comm = renumber(np.asarray(comm))
        membership = comm[membership]
        if q_new - q_prev < 1e-7 or len(set(comm.tolist())) == len(adj):
            break
        adj = aggregate(adj, comm)
        q_prev = q_new
    return renumber(membership), levels


def batched_louvain_levels(g: Graph, seed: int) -> tuple[np.ndarray, int]:
    """Labels and level count of Louvain with colour-class batched moves."""
    if g.n_edges == 0:
        raise ConfigurationError("modularity is undefined on an edgeless graph")
    rng = make_rng(seed, STREAM_CLUSTER)
    adj = dict_adjacency(g)
    membership = np.arange(g.n_nodes)
    q_prev = modularity(adj, list(range(len(adj))))
    levels = 0
    while True:
        comm = batched_local_move(adj, rng)
        levels += 1
        q_new = modularity(adj, comm)
        comm = renumber(np.asarray(comm))
        membership = comm[membership]
        if q_new - q_prev < 1e-7 or len(set(comm.tolist())) == len(adj):
            break
        adj = aggregate(adj, comm)
        q_prev = q_new
    return renumber(membership), levels


def colour_classes(adj: list[dict[int, float]], rng: np.random.Generator) -> list[list[int]]:
    """Jones-Plassmann colouring, one round at a time: the uncoloured nodes
    whose priority beats every uncoloured neighbour's take the smallest colour
    free among their neighbours.  Returns each colour's nodes, ascending."""
    n = len(adj)
    prio = rng.permutation(n).tolist()
    nbrs = [[u for u in row if u != v] for v, row in enumerate(adj)]
    colour = [-1] * n
    while -1 in colour:
        chosen = [
            v
            for v in range(n)
            if colour[v] < 0
            and all(prio[v] > prio[u] for u in nbrs[v] if colour[u] < 0)
        ]
        for v in chosen:
            taken = {colour[u] for u in nbrs[v]}
            c = 0
            while c in taken:
                c += 1
            colour[v] = c
    return [
        [v for v in range(n) if colour[v] == c] for c in range(max(colour) + 1)
    ]


def batched_local_move(
    adj: list[dict[int, float]], rng: np.random.Generator
) -> list[int]:
    """One level of local moves, one colour class at a time: every node of a
    class reads ``sigma_tot`` as it was before the class moved.  A sweep that
    lowers ``(2m)² Q`` is undone; sweeps stop when one moves nothing or gains
    less than ``1e-7 (2m)²``."""
    n = len(adj)
    k = degrees(adj)
    m2 = float(k.sum())
    comm = list(range(n))
    sigma_tot = k.tolist()
    inside = 2.0 * sum(row.get(v, 0.0) for v, row in enumerate(adj))
    score = inside * m2 - sum(s * s for s in sigma_tot)
    classes = colour_classes(adj, rng)
    while True:
        before, moved = list(comm), False
        for nodes in classes:
            moves = []
            for v in nodes:
                links: dict[int, float] = {}
                for u, w in adj[v].items():
                    if u != v:
                        links[comm[u]] = links.get(comm[u], 0.0) + w
                cv = comm[v]
                own = links.get(cv, 0.0)
                stay = own - (sigma_tot[cv] - k[v]) * k[v] / m2
                gains = {c: links[c] - sigma_tot[c] * k[v] / m2 for c in links if c != cv}
                if gains and max(gains.values()) > stay + 1e-12:
                    best = max(gains.values())
                    target = min(c for c, gain in gains.items() if gain == best)
                    moves.append((v, target, links[target] - own))
            for v, target, gained in moves:
                sigma_tot[comm[v]] -= k[v]
                sigma_tot[target] += k[v]
                comm[v] = target
                inside += 2.0 * gained
                moved = True
        if not moved:
            return comm
        new_score = inside * m2 - sum(s * s for s in sigma_tot)
        if new_score < score:
            return before
        if new_score - score < 1e-7 * m2 * m2:
            return comm
        score = new_score


def degrees(adj: list[dict[int, float]]) -> np.ndarray:
    return np.array(
        [
            sum(w for u, w in row.items() if u != i) + 2.0 * row.get(i, 0.0)
            for i, row in enumerate(adj)
        ]
    )


def local_move(adj: list[dict[int, float]], rng: np.random.Generator) -> list[int]:
    n = len(adj)
    k = degrees(adj)
    m2 = k.sum()
    comm = list(range(n))
    sigma_tot = k.copy()
    order = rng.permutation(n).tolist()
    improved = True
    while improved:
        improved = False
        for v in order:
            cv = comm[v]
            links: dict[int, float] = {}
            for u, w in adj[v].items():
                if u != v:
                    cu = comm[u]
                    links[cu] = links.get(cu, 0.0) + w
            sigma_tot[cv] -= k[v]
            best_c = cv
            best_gain = links.get(cv, 0.0) - sigma_tot[cv] * k[v] / m2
            for c in sorted(links):
                if c == cv:
                    continue
                gain = links[c] - sigma_tot[c] * k[v] / m2
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm[v] = best_c
            sigma_tot[best_c] += k[v]
            if best_c != cv:
                improved = True
    return comm


def modularity(adj: list[dict[int, float]], comm: list[int]) -> float:
    k = degrees(adj)
    m2 = k.sum()
    n_comm = max(comm) + 1
    sigma_tot = np.zeros(n_comm)
    for i, c in enumerate(comm):
        sigma_tot[c] += k[i]
    sigma_in = np.zeros(n_comm)
    for i, row in enumerate(adj):
        for j, w in row.items():
            if comm[i] == comm[j]:
                sigma_in[comm[i]] += 2.0 * w if i == j else w
    return float(np.sum(sigma_in / m2 - (sigma_tot / m2) ** 2))


def aggregate(adj: list[dict[int, float]], comm: np.ndarray) -> list[dict[int, float]]:
    n_comm = int(comm.max()) + 1
    new_adj: list[dict[int, float]] = [dict() for _ in range(n_comm)]
    for i, row in enumerate(adj):
        ci = int(comm[i])
        for j, w in row.items():
            cj = int(comm[j])
            if i == j:
                new_adj[ci][ci] = new_adj[ci].get(ci, 0.0) + w
            elif i < j:
                if ci == cj:
                    new_adj[ci][ci] = new_adj[ci].get(ci, 0.0) + w
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                    new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj


def renumber(labels: np.ndarray) -> np.ndarray:
    """Relabel to contiguous 0..k-1 in order of first occurrence."""
    labels = np.asarray(labels, dtype=np.int64)
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels.tolist()):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


# ---------------------------------------------------------------------------
# Lloyd k-means and elbow runs with per-step temporaries
# ---------------------------------------------------------------------------


def prepare_points(features: np.ndarray, normalize_rows: bool) -> np.ndarray:
    pts = np.asarray(features, dtype=np.float64)
    if normalize_rows:
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        pts = np.divide(pts, norms, out=np.zeros_like(pts), where=norms > 0)
    return pts


def pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    n, k = points.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    prev_assign: np.ndarray | None = None
    history: list[float] = []
    for _ in range(max_iters):
        d2 = pairwise_sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        cost = d2[np.arange(n), assign]
        for j in range(k):
            if not np.any(assign == j):
                far = int(np.argmax(cost))
                centroids[j] = points[far]
                assign[far] = j
                cost[far] = 0.0
        for j in range(k):
            members = points[assign == j]
            if members.size:
                centroids[j] = members.mean(axis=0)
        history.append(float(((points - centroids[assign]) ** 2).sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return assign.astype(np.int64), centroids, history


def extend_centroids(points: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    cents = list(centroids)
    d2 = pairwise_sq_dists(points, centroids).min(axis=1)
    while len(cents) < k:
        far = int(np.argmax(d2))
        cents.append(points[far])
        d2 = np.minimum(d2, ((points - points[far]) ** 2).sum(axis=1))
    return np.array(cents[:k])


def elbow_runs(
    features: np.ndarray, ks: list[int], seed: int, max_iters: int, normalize_rows: bool
) -> tuple[list[tuple[int, float]], dict[int, np.ndarray]]:
    """The elbow curve and the labels chosen for each candidate ``k``."""
    points = prepare_points(features, normalize_rows)
    curve: list[tuple[int, float]] = []
    labels_by_k: dict[int, np.ndarray] = {}
    prev_centroids: np.ndarray | None = None
    for k in ks:
        rng = make_rng(seed, STREAM_CLUSTER, k)
        labels, cents, hist = lloyd(points, kmeanspp_init(points, k, rng), max_iters)
        best = (hist[-1], labels, cents)
        if prev_centroids is not None:
            warm = extend_centroids(points, prev_centroids, k)
            w_labels, w_cents, w_hist = lloyd(points, warm, max_iters)
            if w_hist[-1] < best[0]:
                best = (w_hist[-1], w_labels, w_cents)
        curve.append((k, best[0]))
        labels_by_k[k] = best[1]
        prev_centroids = best[2]
    return curve, labels_by_k


# ---------------------------------------------------------------------------
# Exact Lloyd k-means and elbow runs over Fractions (integer points only)
# ---------------------------------------------------------------------------
#
# Every distance, mean and SSD is an exact rational.  Ties go to the lowest
# index, in the assignment, in the farthest-point choices and in the
# fresh-versus-warm choice.  k-means++ draws from the same float
# probabilities as the library, which are exact on integer points.

Point = tuple[Fraction, ...]


def exact_points(features: np.ndarray) -> list[Point]:
    pts = np.asarray(features)
    if not np.array_equal(pts, np.round(pts)):
        raise ValueError("the exact oracle takes integer points only")
    return [tuple(Fraction(int(v)) for v in row) for row in pts.tolist()]


def exact_sq_dist(a: Point, b: Point) -> Fraction:
    return sum(((x - y) ** 2 for x, y in zip(a, b)), Fraction(0))


def first_argmin(values: list[Fraction]) -> int:
    return min(range(len(values)), key=values.__getitem__)


def first_argmax(values: list[Fraction]) -> int:
    return max(range(len(values)), key=values.__getitem__)


def exact_kmeanspp_init(points: list[Point], k: int, rng: np.random.Generator) -> list[Point]:
    n = len(points)
    first = int(rng.integers(n))
    cents = [points[first]]
    d2 = [exact_sq_dist(p, points[first]) for p in points]
    while len(cents) < k:
        total = sum(d2)
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=np.array(d2, dtype=float) / float(total)))
        cents.append(points[idx])
        d2 = [min(a, exact_sq_dist(p, points[idx])) for a, p in zip(d2, points)]
    return cents


def exact_lloyd(
    points: list[Point], cents: list[Point], max_iters: int
) -> tuple[list[int], list[Point], list[Fraction]]:
    n, k = len(points), len(cents)
    cents = list(cents)
    prev: list[int] | None = None
    history: list[Fraction] = []
    for _ in range(max_iters):
        dists = [[exact_sq_dist(p, c) for c in cents] for p in points]
        assign = [first_argmin(row) for row in dists]
        cost = [row[a] for row, a in zip(dists, assign)]
        for j in range(k):
            if j not in assign:
                far = first_argmax(cost)
                cents[j] = points[far]
                assign[far] = j
                cost[far] = Fraction(0)
        for j in range(k):
            members = [p for p, a in zip(points, assign) if a == j]
            if members:
                cents[j] = tuple(Fraction(sum(col), len(members)) for col in zip(*members))
        history.append(sum(exact_sq_dist(p, cents[a]) for p, a in zip(points, assign)))
        if prev is not None and assign == prev:
            break
        prev = assign
    return assign, cents, history


def exact_extend_centroids(points: list[Point], cents: list[Point], k: int) -> list[Point]:
    cents = list(cents)
    d2 = [min(exact_sq_dist(p, c) for c in cents) for p in points]
    while len(cents) < k:
        far = first_argmax(d2)
        cents.append(points[far])
        d2 = [min(a, exact_sq_dist(p, points[far])) for a, p in zip(d2, points)]
    return cents


def exact_elbow_runs(
    features: np.ndarray, ks: list[int], seed: int, max_iters: int
) -> tuple[list[tuple[int, Fraction]], dict[int, list[int]]]:
    """The exact elbow curve and the labels chosen for each candidate ``k``."""
    points = exact_points(features)
    curve: list[tuple[int, Fraction]] = []
    labels_by_k: dict[int, list[int]] = {}
    prev: list[Point] | None = None
    for k in ks:
        rng = make_rng(seed, STREAM_CLUSTER, k)
        labels, cents, hist = exact_lloyd(
            points, exact_kmeanspp_init(points, k, rng), max_iters
        )
        best = (hist[-1], labels, cents)
        if prev is not None:
            warm = exact_extend_centroids(points, prev, k)
            w_labels, w_cents, w_hist = exact_lloyd(points, warm, max_iters)
            if w_hist[-1] < best[0]:
                best = (w_hist[-1], w_labels, w_cents)
        curve.append((k, best[0]))
        labels_by_k[k] = best[1]
        prev = best[2]
    return curve, labels_by_k
