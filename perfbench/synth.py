"""Seeded planted-class graphs written as classlink's plain-text inputs.

A planted-class stochastic block model: every node gets a class, each edge
joins two nodes of the same class with probability ``homophily`` and two
nodes of different classes otherwise, and every node carries a sparse binary
feature row biased towards a block of features owned by its class.  This is
``tests/conftest.py::planted_two_class`` grown to many classes and made
vectorised, so a Cora-sized graph is generated in well under a second.

The program under test only ever sees the three files; the seed stays here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_FILES = ("edges.txt", "features.csv", "labels.csv")


@dataclass(frozen=True)
class Preset:
    """Shape of one synthetic graph."""

    n_nodes: int
    n_edges: int
    n_classes: int
    n_features: int
    density: float  # fraction of ones per feature row
    homophily: float  # fraction of edges inside a class
    topic_share: float = 0.6  # fraction of a row's ones drawn from its class block

    def scaled(self, factor: float) -> "Preset":
        """The same shape with node and edge counts multiplied by ``factor``."""
        return Preset(
            n_nodes=max(self.n_classes * 8, round(self.n_nodes * factor)),
            n_edges=max(self.n_classes * 16, round(self.n_edges * factor)),
            n_classes=self.n_classes,
            n_features=self.n_features,
            density=self.density,
            homophily=self.homophily,
            topic_share=self.topic_share,
        )


# Cora: 2708 nodes, 5278 edges, 7 classes, 1433 binary features at about
# 1.3% density, edge homophily about 0.81.
CORA = Preset(
    n_nodes=2708, n_edges=5278, n_classes=7, n_features=1433,
    density=0.0127, homophily=0.81,
)
# Graph-sized rather than feature-sized: four times Cora's nodes at twice its
# mean degree, few features, and weaker communities than Cora's, so Louvain
# needs several sweeps.
MID = Preset(
    n_nodes=12000, n_edges=48000, n_classes=10, n_features=128,
    density=0.06, homophily=0.6,
)


def planted_graph(
    preset: Preset, seed: int, part: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edges, features, labels)`` of one seeded planted-class graph.

    ``part`` picks one of several independent graphs drawn for one seed.

    ``edges`` is a canonical ``(m, 2)`` array with ``u < v``, no duplicates,
    exactly ``preset.n_edges`` rows; ``features`` is ``(n, F)`` uint8 0/1;
    ``labels`` is ``(n,)`` int64 in ``[0, n_classes)``.
    """
    p = preset
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED, int(part)]))
    n, c = p.n_nodes, p.n_classes
    labels = rng.integers(0, c, size=n)
    members = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=c)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    keys = np.empty(0, dtype=np.int64)
    while keys.size < p.n_edges:
        batch = 2 * (p.n_edges - keys.size) + 64
        u = rng.integers(0, n, size=batch)
        same = rng.random(batch) < p.homophily
        cu = labels[u]
        v_same = members[starts[cu] + (rng.random(batch) * counts[cu]).astype(np.int64)]
        v_any = rng.integers(0, n, size=batch)
        v = np.where(same, v_same, v_any)
        # an inter-class draw that lands in the endpoint's class is redrawn
        ok = (u != v) & (same | (labels[v_any] != cu))
        lo = np.minimum(u, v)[ok]
        hi = np.maximum(u, v)[ok]
        new = lo * n + hi
        # keep first occurrences in draw order, so the edge set is a prefix
        # of one seeded stream whatever the batch sizes
        merged = np.concatenate([keys, new])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = np.sort(keys[: p.n_edges])
    edges = np.column_stack([keys // n, keys % n])

    per_row = max(1, round(p.density * p.n_features))
    block = max(1, p.n_features // c)
    topic = rng.random((n, per_row)) < p.topic_share
    in_block = labels[:, None] * block + rng.integers(0, block, size=(n, per_row))
    anywhere = rng.integers(0, p.n_features, size=(n, per_row))
    cols = np.where(topic, in_block, anywhere)
    features = np.zeros((n, p.n_features), dtype=np.uint8)
    features[np.repeat(np.arange(n), per_row), cols.reshape(-1)] = 1
    return edges, features, labels


def write_inputs(preset: Preset, seed: int, out_dir: str | Path, part: int = 0) -> str:
    """Write ``edges.txt``, ``features.csv``, ``labels.csv``; return their digest.

    Node ids are ``0 .. n-1`` in feature-row order and class names are
    ``c0 .. c{C-1}``, so the program's dense ids equal the generator's.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges, features, labels = planted_graph(preset, seed, part)

    edge_text = "\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n"
    (out / "edges.txt").write_text(edge_text)

    n, f = features.shape
    cells = np.full((n, 2 * f), ord(","), dtype=np.uint8)
    cells[:, 1::2] = features + ord("0")
    with open(out / "features.csv", "wb") as fh:
        for i in range(n):
            fh.write(str(i).encode() + cells[i].tobytes() + b"\n")

    (out / "labels.csv").write_text(
        "".join(f"{i},c{c}\n" for i, c in enumerate(labels.tolist()))
    )
    return inputs_digest(out)


def inputs_digest(in_dir: str | Path) -> str:
    """SHA-256 over the three input files, in a fixed order."""
    h = hashlib.sha256()
    for name in INPUT_FILES:
        data = (Path(in_dir) / name).read_bytes()
        h.update(f"{name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()

