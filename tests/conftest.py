"""Shared fixtures and tiny graph builders used across the test suite."""

from __future__ import annotations

import base64
from pathlib import Path

import numpy as np
import pytest

from classlink.graph import Graph, build_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CITATION_DIR = DATA_DIR / "cora"


def citation_files() -> dict[str, Path] | None:
    """Locate the real citation-network benchmark files, if provisioned.

    Returns ``None`` when the dataset has not been placed under
    ``data/cora/`` (see README for how to provision it).
    """
    files = {
        "edges": CITATION_DIR / "edges.txt",
        "features": CITATION_DIR / "features.csv",
        "labels": CITATION_DIR / "labels.csv",
    }
    if all(p.is_file() for p in files.values()):
        return files
    return None


def encode_blob(arr) -> dict:
    """The blob an artifact stores for ``arr``: the base64 of its little-endian
    ``<f8`` (float) or ``<i8`` (integer, boolean) bytes, with dtype and shape."""
    arr = np.asarray(arr)
    arr = np.ascontiguousarray(arr, dtype="<f8" if arr.dtype.kind == "f" else "<i8")
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def random_edges(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Erdos-Renyi edge list over ``n`` nodes (canonical u < v pairs)."""
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    keep = mask[iu]
    return np.column_stack([iu[0][keep], iu[1][keep]]).astype(np.int64)


def planted_two_class(
    rng: np.random.Generator,
    n_per_class: int = 60,
    p_in: float = 0.03,
    p_out: float = 0.25,
    n_features: int = 8,
) -> Graph:
    """Two-class graph whose inter-class edges dominate (informative priors).

    Features are noisy one-hot class indicators so a feature-based model can
    learn something, while the class prior carries the strongest signal.
    """
    n = 2 * n_per_class
    labels = np.repeat([0, 1], n_per_class)
    probs = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    mask = rng.random((n, n)) < probs
    iu = np.triu_indices(n, k=1)
    keep = mask[iu]
    edges = np.column_stack([iu[0][keep], iu[1][keep]]).astype(np.int64)
    features = np.zeros((n, n_features))
    features[np.arange(n), labels % n_features] = 1.0
    features += 0.3 * rng.standard_normal((n, n_features))
    return build_graph(n, edges, features=features, labels=labels)


@pytest.fixture
def triangle() -> Graph:
    """K3 on nodes 0,1,2 plus a pendant node 3 attached to 0."""
    return build_graph(4, np.array([[0, 1], [1, 2], [0, 2], [0, 3]]))


@pytest.fixture
def path3() -> Graph:
    """Path 0 - 1 - 2."""
    return build_graph(3, np.array([[0, 1], [1, 2]]))
