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
from classlink import graph as graph_module
from classlink.graph import build_graph, sample_negative_pools, sample_negatives, split_edges

from conftest import random_edges
from test_graph import oracle_sample_pools


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


STAGE1 = rand.derive_seed(3, rand.STREAM_INIT)  # ncnc stage 1's 64-bit root


class TestBatchSeeding:
    """A batch of negative pools, one ``sample_negative_pools`` call, is
    seeded once: every pool comes from the generator ``make_rng(seed)``, and
    the seed is checked as ``make_rng`` checks it."""

    # one to four words per part
    SEEDS = [
        0,
        2**32 - 1,
        2**32,
        2**64 + 5,
        STAGE1,
        (STAGE1, rand.STREAM_TRAIN_NEG, 4),
        (2**64 + 5, rand.STREAM_EVAL),
        (0, 0),
        (7, 1, 2**40),
        (2**100, 2**32 - 1, 2**32, 1, 2, 3),
    ]

    def test_streams_equal_make_rng(self, monkeypatch):
        """Every pool of a call, over several chunks, is the oracle's draw
        from ``make_rng(seed)``."""
        monkeypatch.setattr(graph_module, "_POOL_CHUNK", 4)
        g = _graph()
        for seed in self.SEEDS:
            pools = sample_negative_pools(g, 6, 10, seed)
            np.testing.assert_array_equal(pools, oracle_sample_pools(g, 6, 10, seed, chunk=4))

    def test_random_parts_of_every_size(self):
        rng = np.random.default_rng(730)

        def part() -> int:  # 0 up to about 2**142: one to five words
            return int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) << int(
                rng.integers(0, 80)
            )

        g = _graph()
        for _ in range(100):
            seed = tuple(part() for _ in range(int(rng.integers(1, 9))))
            np.testing.assert_array_equal(
                sample_negative_pools(g, 5, 3, seed), oracle_sample_pools(g, 5, 3, seed)
            )

    def test_int_and_object_arrays_equal_tuples(self):
        """Parts taken from the rows of a uint64, int64 or object array give
        the pools of the same Python ints."""
        table = np.empty((6, 3), dtype=np.uint64)
        table[:, 0], table[:, 1], table[:, 2] = STAGE1, 7, np.arange(6) * 2**31
        assert int(table[0, 0]) == STAGE1
        g = _graph()
        for row, signed in zip(table, table[:, 1:].astype(np.int64)):
            expect = sample_negative_pools(g, 4, 3, tuple(int(p) for p in row))
            for parts in (row, row.astype(object)):
                np.testing.assert_array_equal(
                    sample_negative_pools(g, 4, 3, tuple(parts)), expect
                )
            np.testing.assert_array_equal(
                sample_negative_pools(g, 4, 3, tuple(signed)),
                sample_negative_pools(g, 4, 3, tuple(signed.tolist())),
            )

    @pytest.mark.parametrize(
        "seed",
        [-1, (3, -1), 2.0, (3, 1.5), True, (1, np.bool_(True)), (4, np.float64(4.0)), "3"],
    )
    def test_bad_parts_raise_what_make_rng_raises(self, seed):
        with pytest.raises(ConfigurationError) as expected:
            rand.make_rng(seed)
        with pytest.raises(ConfigurationError) as got:
            sample_negative_pools(_graph(), 5, 3, seed)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "table",
        [
            np.array([[1, 2], [3, -4]]),
            np.array([[1.0, 2.0]]),
            np.array([[True, False]]),
            np.array([[1, 2], [3, 2.5]], dtype=object),
            np.array([[1, 2], [3, True]], dtype=object),
        ],
        ids=["negative", "float", "bool", "object_float", "object_bool"],
    )
    def test_bad_array_parts_raise(self, table):
        """A seed made of an array row's numpy scalars is checked part by part."""
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            sample_negative_pools(_graph(), 5, 3, tuple(table[-1]))

    def test_a_seed_needs_a_part(self):
        with pytest.raises(ValueError, match="at least one seed part"):
            sample_negative_pools(_graph(), 5, 3, ())
