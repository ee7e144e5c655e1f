"""Ranking metrics, split evaluation and reports.

A positive pair is ranked against a pool of negative scores with midpoint tie
handling: ``rank = 1 + |{s_neg > s_pos}| + floor(|{s_neg == s_pos}| / 2)``.
MRR is the mean reciprocal of those ranks; HR@K the fraction with rank <= K.

Reports are written so reruns with the same config are byte-identical:
``report.json`` and ``ranks.csv`` carry only deterministic content (metric,
value, seed, config digest, ranks), while wall-clock timings go to a separate
``timings.json`` sidecar that is excluded from any byte comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .config import parse_metric
from .errors import ClasslinkError, ConfigurationError, NumericError
from .graph import EdgeSplit, Graph, Scorer, sample_negative_pools
from .rand import STREAM_EVAL


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
    the positive's index; all pools are drawn in one call and scored in one
    scorer call.  ``timings`` holds ``sampling_s`` (drawing those pools, 0
    for the shared pool), ``scoring_s`` and ``ranking_s``.
    """
    parse_metric(metric_spec)
    positives, pool = split.part(which)
    if len(positives) == 0:
        raise ConfigurationError(f"split has no {which} positives to evaluate")

    t0 = time.perf_counter()
    t_sample = 0.0
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
        # positive i draws its pool on the stream (seed, STREAM_EVAL, i); an
        # object column holds a root seed of any size
        seeds = np.column_stack(
            [
                np.full(len(positives), seed, dtype=object),
                np.full(len(positives), STREAM_EVAL),
                np.arange(len(positives)),
            ]
        )
        t1 = time.perf_counter()
        per_edge_pools = sample_negative_pools(graph, n_negatives, seeds)
        t_sample = time.perf_counter() - t1
        neg_scores = _score_batch(
            scorer, per_edge_pools.reshape(-1, 2), "per-edge negative pools"
        ).reshape(len(positives), n_negatives)
    t_score = time.perf_counter() - t0 - t_sample

    t0 = time.perf_counter()
    ranks = np.asarray(rank_positive(pos_scores, neg_scores), dtype=np.int64)
    t_rank = time.perf_counter() - t0

    return EvalReport(
        metric=metric_spec,
        value=compute_metric(metric_spec, ranks),
        ranks=ranks,
        n_negatives=n_negatives,
        seed=int(seed),
        timings={"sampling_s": t_sample, "scoring_s": t_score, "ranking_s": t_rank},
        positive_scores=pos_scores,
        negative_scores=neg_scores if per_edge_negatives is None else None,
    )


def _score_batch(scorer: Scorer, pairs: np.ndarray, context: str) -> np.ndarray:
    """Scores of ``pairs``; a scorer's :class:`ClasslinkError` keeps its class."""
    try:
        scores = np.asarray(scorer(pairs), dtype=np.float64)
    except Exception as exc:
        first = pairs[0].tolist() if len(pairs) else None
        message = (
            f"scorer failed while scoring {context} "
            f"({len(pairs)} pairs, first={first}): {exc}"
        )
        if isinstance(exc, ClasslinkError):
            exc.args = (message,)
            raise
        raise NumericError(message) from exc
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
    paths = {
        "report": artifacts.write(
            out / "report.json",
            "report",
            {
                "metric": report.metric,
                "value": report.value,
                "n_positives": int(report.ranks.size),
                "n_negatives": report.n_negatives,
                "seed": report.seed,
                "config_digest": config_digest,
            },
        )
    }

    ranks = report.ranks.astype(str)
    if positives is not None:
        ranks = _csv_join(positives[:, 0].astype(str), positives[:, 1].astype(str), ranks)
    paths["ranks"] = artifacts.write_text(out / "ranks.csv", "\n".join(ranks.tolist()) + "\n")

    if scores is not None:
        rows = [
            _csv_join(
                pairs[:, 0].astype(str),
                pairs[:, 1].astype(str),
                np.full(len(pairs), label),
                np.char.mod("%.17g", np.asarray(vals, dtype=np.float64)),
            )
            for label, (pairs, vals) in scores.items()
        ]
        lines = np.concatenate(rows).tolist() if rows else []
        paths["scores"] = artifacts.write_text(out / "scores.csv", "\n".join(lines) + "\n")

    paths["timings"] = artifacts.write(out / "timings.json", "timings", report.timings)
    return paths


def _csv_join(*columns: np.ndarray) -> np.ndarray:
    """Row-wise comma join of equal-length string columns."""
    joined = columns[0]
    for col in columns[1:]:
        joined = np.char.add(np.char.add(joined, ","), col)
    return joined
