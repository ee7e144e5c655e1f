"""Class-conditioned edge priors.

From training edges and node class labels, estimate how likely an edge is to
connect each ordered pair of classes: ``probs[i][j]`` is the empirical
probability that a training neighbor of a class-``i`` node belongs to class
``j``.  Each undirected edge contributes one count in each direction, so the
joint count matrix is symmetric (a same-class edge adds 2 to its diagonal
cell) and every row of ``probs`` sums to 1 unless its class never appears as
an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import ConfigurationError, MissingLabelError, ParseError
from .graph import check_pairs


@dataclass(frozen=True)
class ClassPriorMatrix:
    """Joint class-pair counts and the row-normalized conditional matrix;
    rows with ``row_totals == 0`` normalize to all-zero rows."""

    n_classes: int
    joint_counts: np.ndarray  # (C, C) int64, symmetric
    row_totals: np.ndarray  # (C,) int64
    probs: np.ndarray  # (C, C) float64


def _from_counts(counts: np.ndarray) -> ClassPriorMatrix:
    """The prior of a joint count matrix, its rows normalized."""
    row_totals = counts.sum(axis=1)
    totals = row_totals.astype(np.float64)
    safe = np.where(totals == 0, 1.0, totals)
    probs = counts / safe[:, None]
    probs[totals == 0] = 0.0
    return ClassPriorMatrix(counts.shape[0], counts, row_totals, probs)


def _endpoint_classes(pairs: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """The ``(m, 2)`` class labels of a pair batch's endpoints.

    Ids are checked against ``labels`` (:func:`~classlink.graph.check_pairs`).
    An endpoint without a label in ``[0, n_classes)`` (``-1`` marks an
    unlabeled node) raises :class:`MissingLabelError` naming the first such
    node in pair order; the min/max test keeps the clean case to two sweeps.
    """
    labels = np.asarray(labels, dtype=np.int64)
    pairs = check_pairs(pairs, labels.size)
    cls = labels[pairs]
    if cls.size and (cls.min() < 0 or cls.max() >= n_classes):
        bad = np.nonzero((cls < 0) | (cls >= n_classes))
        node = int(pairs[bad[0][0], bad[1][0]])
        raise MissingLabelError(
            f"node {node} lacks a usable class label "
            f"(label={int(labels[node])}, n_classes={n_classes})"
        )
    return cls


def count_class_links(
    train_edges: np.ndarray, labels: np.ndarray, n_classes: int
) -> ClassPriorMatrix:
    """Count class co-occurrences over training edges (one per direction) and
    normalize the rows.

    Ids are checked against ``labels`` (:func:`~classlink.graph.check_pairs`).
    Every endpoint must carry a label in ``[0, n_classes)``; an unlabeled
    endpoint (label ``-1``) raises :class:`MissingLabelError` naming the node.
    """
    if n_classes < 1:
        raise ConfigurationError(f"need at least one class, got {n_classes}")
    endpoint_labels = _endpoint_classes(train_edges, labels, n_classes)
    cu, cv = endpoint_labels[:, 0], endpoint_labels[:, 1]
    flat = np.bincount(cu * n_classes + cv, minlength=n_classes * n_classes)
    flat += np.bincount(cv * n_classes + cu, minlength=n_classes * n_classes)
    return _from_counts(flat.reshape(n_classes, n_classes).astype(np.int64))


def lookup_prior_batch(
    prior: ClassPriorMatrix, labels: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Class priors of a ``(m, 2)`` pair array.

    Returns an ``(m, 2)`` float array of ``(P(c_y|c_x), P(c_x|c_y))`` rows.
    Ids are checked against ``labels`` (:func:`~classlink.graph.check_pairs`);
    an endpoint without a label in ``[0, n_classes)`` raises
    :class:`MissingLabelError` naming the first such node in pair order.
    """
    cls = _endpoint_classes(pairs, labels, prior.n_classes)
    fwd = prior.probs[cls[:, 0], cls[:, 1]]
    rev = prior.probs[cls[:, 1], cls[:, 0]]
    return np.column_stack([fwd, rev])


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def export_heatmap(
    prior: ClassPriorMatrix,
    path: str | Path,
    class_ids: tuple[str, ...] | None = None,
) -> Path:
    """Write ``probs`` as CSV plus a ``<path>.meta.json`` sidecar.

    The CSV stores probabilities with 17 significant digits so values
    round-trip exactly; the sidecar records class ids and row totals.
    """
    path = Path(path)
    rows = [",".join(format(v, ".17g") for v in row) for row in prior.probs]
    artifacts.write_text(path, "\n".join(rows) + "\n")
    return artifacts.write(
        path.with_name(path.name + ".meta.json"),
        "heatmap-meta",
        {"n_classes": prior.n_classes, "class_ids": list(class_ids or ())},
        {"row_totals": prior.row_totals},
    )


def save_prior_json(
    prior: ClassPriorMatrix,
    path: str | Path,
    *,
    seed: int | None = None,
    label_source: str = "true",
) -> None:
    """Persist integer counts (probabilities are recomputed on load)."""
    artifacts.write(
        path,
        "prior",
        {"seed": seed, "label_source": label_source, "n_classes": prior.n_classes},
        {"joint_counts": prior.joint_counts},
    )


def load_prior_json(path: str | Path) -> ClassPriorMatrix:
    p = artifacts.read(
        path,
        "prior",
        fields={"seed": int, "label_source": str, "n_classes": int},
        arrays={"joint_counts": (artifacts.INT, (None, None))},
        optional=("seed",),
    )
    n, counts = p["n_classes"], p["joint_counts"]
    if n < 1 or counts.shape != (n, n):
        raise ParseError(
            f"{path}: joint_counts has shape {counts.shape} for n_classes={n}"
        )
    if (counts < 0).any() or (counts != counts.T).any():
        raise ParseError(f"{path}: joint_counts must be symmetric and non-negative")
    return _from_counts(counts)
