"""Seed streams: the domain of a seed, and the documented stream ids."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from classlink import rand
from classlink.backbone import TrainConfig
from classlink.clustering import kmeans, louvain
from classlink.errors import ConfigurationError
from classlink.graph import build_graph, sample_negatives, split_edges

from conftest import random_edges


def _graph():
    return build_graph(30, random_edges(np.random.default_rng(720), 30, 0.2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: split_edges(_graph(), (0.8, 0.1, 0.1), seed=-1),
        lambda: sample_negatives(_graph(), 5, seed=(3, -1)),
        lambda: kmeans(np.eye(6), 2, seed=-1),
        lambda: louvain(_graph(), seed=-1),
        lambda: TrainConfig(seed=-1),
    ],
    ids=["split_edges", "sample_negatives", "kmeans", "louvain", "TrainConfig"],
)
def test_negative_seed_is_a_config_error(call):
    with pytest.raises(ConfigurationError, match="seed"):
        call()


def test_readme_determinism_table_lists_every_stream():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Determinism and seed derivation", 1)[1]
    documented = dict(re.findall(r"^\| `(STREAM_\w+)` \| (\d+) \|", table, re.M))
    streams = {
        name: str(value) for name, value in vars(rand).items() if name.startswith("STREAM_")
    }
    assert documented == streams
