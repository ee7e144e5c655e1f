"""Ranking metrics, split evaluation, reports, and the prior-runtime bench.

A positive pair is ranked against a pool of negative scores with midpoint tie
handling: ``rank = 1 + |{s_neg > s_pos}| + floor(|{s_neg == s_pos}| / 2)``.
MRR is the mean reciprocal of those ranks; HR@K the fraction with rank <= K.

Reports are written so reruns with the same config are byte-identical:
``report.json`` and ``ranks.csv`` carry only deterministic content (metric,
value, seed, config digest, ranks), while wall-clock timings go to a separate
``timings.json`` sidecar that is excluded from any byte comparison.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError
from .graph import EdgeSplit, Graph, sample_negatives
from .heuristics import Scorer
from .priors import count_class_links
from .rand import STREAM_BENCH, STREAM_EVAL, make_rng


@dataclass(frozen=True)
class EvalReport:
    """Outcome of evaluating one scorer on one split."""

    metric: str
    value: float
    ranks: np.ndarray
    n_negatives: int
    seed: int
    timings: dict[str, float]
    positive_scores: np.ndarray | None = None  # aligned with ``ranks``
    negative_scores: np.ndarray | None = None  # the shared pool's, when one is used


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rank_positive(positive_scores, negative_scores: np.ndarray) -> np.ndarray:
    """Midpoint-tie rank of each positive among negatives (1 = best).

    ``negative_scores`` is either one pool shared by every positive (1-D) or
    one pool per positive (2-D, row ``i`` for positive ``i``).  A scalar
    positive gives a scalar rank.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(neg)):
        raise NumericError("scores must be finite to be ranked")
    if neg.ndim == 1:
        ordered = np.sort(neg)
        below_or_tied = np.searchsorted(ordered, pos, side="right")
        ties = below_or_tied - np.searchsorted(ordered, pos, side="left")
        greater = neg.size - below_or_tied
    else:
        if neg.shape[0] != pos.size:
            raise ConfigurationError(
                f"{neg.shape[0]} negative pools for {pos.size} positives"
            )
        col = pos.reshape(-1, 1)
        greater = (neg > col).sum(axis=1).reshape(pos.shape)
        ties = (neg == col).sum(axis=1).reshape(pos.shape)
    return 1 + greater + ties // 2


def mrr(ranks: np.ndarray) -> float:
    """Mean reciprocal rank."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ConfigurationError("cannot compute MRR of an empty rank list")
    return float(np.mean(1.0 / ranks))


def hr_at_k(ranks: np.ndarray, k: int) -> float:
    """Hit ratio at K: fraction of ranks at or below ``k``."""
    if k < 1:
        raise ConfigurationError(f"K must be >= 1, got {k}")
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ConfigurationError("cannot compute HR@K of an empty rank list")
    return float(np.mean(ranks <= k))


def parse_metric(spec: str) -> tuple[str, int | None]:
    """Parse a metric spec: ``mrr`` or ``hr@<K>``."""
    spec = spec.strip().lower()
    if spec == "mrr":
        return "mrr", None
    if spec.startswith("hr@"):
        try:
            k = int(spec[3:])
        except ValueError as exc:
            raise ConfigurationError(f"bad metric spec '{spec}'") from exc
        if k < 1:
            raise ConfigurationError(f"K must be >= 1 in '{spec}'")
        return "hr", k
    raise ConfigurationError(f"unknown metric '{spec}' (expected mrr or hr@K)")


def compute_metric(spec: str, ranks: np.ndarray) -> float:
    kind, k = parse_metric(spec)
    return mrr(ranks) if kind == "mrr" else hr_at_k(ranks, k)


# ---------------------------------------------------------------------------
# Split evaluation
# ---------------------------------------------------------------------------


def evaluate_split(
    scorer: Scorer,
    split: EdgeSplit,
    metric_spec: str,
    seed: int,
    *,
    which: str = "test",
    per_edge_negatives: int | None = None,
    graph: Graph | None = None,
) -> EvalReport:
    """Rank each positive edge of a split against sampled negatives.

    By default every positive shares the split's negative pool.  With
    ``per_edge_negatives=n`` (requires ``graph``), an independent pool of
    ``n`` non-edges is drawn per positive on a seed derived from ``seed`` and
    the positive's index.
    """
    parse_metric(metric_spec)
    if which == "test":
        positives, pool = split.test_edges, split.test_negatives
    elif which == "valid":
        positives, pool = split.valid_edges, split.valid_negatives
    else:
        raise ConfigurationError(f"unknown split part '{which}'")
    if len(positives) == 0:
        raise ConfigurationError(f"split has no {which} positives to evaluate")

    t0 = time.perf_counter()
    pos_scores = _score_batch(scorer, positives, f"{which} positives")
    if per_edge_negatives is None:
        if len(pool) == 0:
            raise ConfigurationError(f"split has no {which} negatives to rank against")
        neg_scores = _score_batch(scorer, pool, f"{which} negative pool")
        n_negatives = int(len(pool))
    else:
        if graph is None:
            raise ConfigurationError(
                "per-edge negative sampling needs the graph to draw non-edges"
            )
        if per_edge_negatives < 1:
            raise ConfigurationError("per-edge negative count must be >= 1")
        n_negatives = int(per_edge_negatives)
        per_edge_pools = np.concatenate(
            [
                sample_negatives(graph, n_negatives, (seed, STREAM_EVAL, idx))
                for idx in range(len(positives))
            ]
        )
        neg_scores = _score_batch(
            scorer, per_edge_pools, "per-edge negative pools"
        ).reshape(len(positives), n_negatives)
    t_score = time.perf_counter() - t0

    t0 = time.perf_counter()
    ranks = np.asarray(rank_positive(pos_scores, neg_scores), dtype=np.int64)
    t_rank = time.perf_counter() - t0

    return EvalReport(
        metric=metric_spec,
        value=compute_metric(metric_spec, ranks),
        ranks=ranks,
        n_negatives=n_negatives,
        seed=int(seed),
        timings={"scoring_s": t_score, "ranking_s": t_rank},
        positive_scores=pos_scores,
        negative_scores=neg_scores if per_edge_negatives is None else None,
    )


def _score_batch(scorer: Scorer, pairs: np.ndarray, context: str) -> np.ndarray:
    try:
        scores = np.asarray(scorer(pairs), dtype=np.float64)
    except Exception as exc:
        first = pairs[0].tolist() if len(pairs) else None
        raise NumericError(
            f"scorer failed while scoring {context} "
            f"({len(pairs)} pairs, first={first}): {exc}"
        ) from exc
    if scores.shape != (len(pairs),):
        raise NumericError(
            f"scorer returned shape {scores.shape} for {len(pairs)} {context}"
        )
    if not np.all(np.isfinite(scores)):
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise NumericError(
            f"scorer produced a non-finite score for {context} pair "
            f"{pairs[bad].tolist()}"
        )
    return scores


# ---------------------------------------------------------------------------
# Report artifacts
# ---------------------------------------------------------------------------


def save_report(
    report: EvalReport,
    out_dir: str | Path,
    *,
    config_digest: str,
    positives: np.ndarray | None = None,
    scores: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> dict[str, Path]:
    """Write report.json + ranks.csv (deterministic) and timings.json.

    ``positives`` (pair array aligned with ``report.ranks``) enriches the
    ranks CSV with endpoints; ``scores`` optionally adds a ``scores.csv``
    mapping a label to (pairs, values) score columns.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    payload = {
        "version": 1,
        "kind": "report",
        "metric": report.metric,
        "value": report.value,
        "n_positives": int(report.ranks.size),
        "n_negatives": report.n_negatives,
        "seed": report.seed,
        "config_digest": config_digest,
    }
    paths["report"] = out / "report.json"
    paths["report"].write_text(json.dumps(payload, sort_keys=True) + "\n")

    lines = []
    if positives is not None:
        for (u, v), r in zip(positives.tolist(), report.ranks.tolist()):
            lines.append(f"{u},{v},{r}")
    else:
        lines = [str(r) for r in report.ranks.tolist()]
    paths["ranks"] = out / "ranks.csv"
    paths["ranks"].write_text("\n".join(lines) + "\n")

    if scores is not None:
        rows = []
        for label, (pairs, vals) in scores.items():
            for (u, v), s in zip(pairs.tolist(), np.asarray(vals).tolist()):
                rows.append(f"{u},{v},{label},{format(float(s), '.17g')}")
        paths["scores"] = out / "scores.csv"
        paths["scores"].write_text("\n".join(rows) + "\n")

    paths["timings"] = out / "timings.json"
    paths["timings"].write_text(
        json.dumps({"kind": "timings", **report.timings}, sort_keys=True) + "\n"
    )
    return paths


# ---------------------------------------------------------------------------
# Prior-runtime bench
# ---------------------------------------------------------------------------


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


def save_bench_csv(result: dict, path: str | Path) -> None:
    """Write ``edges,seconds`` rows plus a trailing fit comment."""
    lines = [f"{count},{format(sec, '.6g')}" for count, sec in result["rows"]]
    lines.append(
        f"# fit: slope={result['slope']:.6g} intercept={result['intercept']:.6g} "
        f"r2={result['r_squared']:.6g}"
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
