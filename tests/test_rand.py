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


# First three draws of ``integers(0, 2**32)`` on two streams: a change to
# seed handling must not move an existing stream.
PINNED_SPLIT_7 = [3737738445, 3307730197, 3761774060]
PINNED_ROOT_0 = [3653403231, 2735729615, 2195314465]


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: split_edges(_graph(), (0.8, 0.1, 0.1), seed=1.7),
        lambda: split_edges(_graph(), (0.8, 0.1, 0.1), seed=2.0),
        lambda: split_edges(_graph(), (0.8, 0.1, 0.1), seed=True),
        lambda: sample_negatives(_graph(), 5, seed=(3, 1.5)),
        lambda: kmeans(np.eye(6), 2, seed="3"),
        lambda: rand.make_rng(np.float64(4.0)),
        lambda: rand.make_rng([1, np.bool_(True)]),
        lambda: TrainConfig(seed=2.5),
    ],
    ids=[
        "fraction",
        "integral_float",
        "bool",
        "float_in_tuple",
        "string",
        "numpy_float",
        "numpy_bool",
        "TrainConfig",
    ],
)
def test_non_integer_seed_is_a_config_error(call):
    with pytest.raises(ConfigurationError, match="non-negative integer"):
        call()


def test_integer_parts_keep_their_streams():
    """Python and numpy integers, flat or in a sequence, give one stream;
    the first draws of two documented streams are pinned."""
    draws = [
        rand.make_rng(*parts).integers(0, 2**32, size=3).tolist()
        for parts in (
            (7, rand.STREAM_SPLIT),
            (np.int64(7), np.uint8(rand.STREAM_SPLIT)),
            ((7, rand.STREAM_SPLIT),),
            ([np.int64(7), rand.STREAM_SPLIT],),
        )
    ]
    assert draws == [draws[0]] * 4
    assert draws[0] == PINNED_SPLIT_7
    assert rand.make_rng(0).integers(0, 2**32, size=3).tolist() == PINNED_ROOT_0


def test_readme_determinism_table_lists_every_stream():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Determinism and seed derivation", 1)[1]
    documented = dict(re.findall(r"^\| `(STREAM_\w+)` \| (\d+) \|", table, re.M))
    streams = {
        name: str(value) for name, value in vars(rand).items() if name.startswith("STREAM_")
    }
    assert documented == streams
