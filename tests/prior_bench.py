"""Prior-construction runtime on synthetic edge lists of growing size, for
acceptance criterion 2 (prior construction is linear in the edge count)."""

from __future__ import annotations

import time

import numpy as np

from classlink.errors import ConfigurationError
from classlink.priors import count_class_links
from classlink.rand import STREAM_BENCH, make_rng


def bench_prior_runtime(
    edge_counts: list[int],
    seed: int,
    *,
    n_classes: int = 7,
    repeats: int = 3,
) -> dict:
    """Time class-prior counting on synthetic edge lists of growing size.

    For each edge count, a random labeled edge list is generated and
    :func:`count_class_links` is timed (best of ``repeats``).  Returns the
    rows plus a least-squares linear fit (slope, intercept, R^2) of seconds
    vs edges — near-linear scaling shows up as R^2 close to 1.
    """
    if len(edge_counts) < 2:
        raise ConfigurationError("bench needs at least two edge counts")
    rng = make_rng(seed, STREAM_BENCH)
    rows: list[tuple[int, float]] = []
    for count in edge_counts:
        if count < 1:
            raise ConfigurationError(f"edge count must be positive, got {count}")
        n_nodes = max(count // 8, 16)
        edges = np.column_stack(
            [
                rng.integers(0, n_nodes, size=count),
                rng.integers(0, n_nodes, size=count),
            ]
        )
        labels = rng.integers(0, n_classes, size=n_nodes)
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            count_class_links(edges, labels, n_classes)
            best = min(best, time.perf_counter() - t0)
        rows.append((int(count), float(best)))

    xs = np.array([r[0] for r in rows], dtype=np.float64)
    ys = np.array([r[1] for r in rows], dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "rows": rows,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": float(r2),
    }
