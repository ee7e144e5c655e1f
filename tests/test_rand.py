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


def _flat(seed) -> list:
    """The parts ``make_rng(*seed)`` hashes, for an int or a tuple seed."""
    flat: list = []
    for part in seed if isinstance(seed, (list, tuple)) else [seed]:
        flat.extend(part if isinstance(part, (list, tuple)) else [part])
    return flat


STAGE1 = rand.derive_seed(3, rand.STREAM_INIT)  # ncnc stage 1's 64-bit root


class TestBatchSeeding:
    # one to four words per part, all in one call
    SEEDS = [
        0,
        2**32 - 1,
        2**32,
        2**64 + 5,
        STAGE1,
        (STAGE1, rand.STREAM_TRAIN_NEG, 4),
        (2**64 + 5, rand.STREAM_EVAL, 0),
        (0, 0),
        (7, [1, 2**40]),
        (2**100, 2**32 - 1, 2**32, 1, 2, 3),
    ]

    def test_words_equal_seed_sequence_state(self):
        states = rand._seed_states(self.SEEDS)
        assert states.dtype == np.uint64 and states.shape == (len(self.SEEDS), 4)
        for seed, row in zip(self.SEEDS, states):
            expect = np.random.SeedSequence(_flat(seed)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expect)

    def test_random_parts_of_every_size(self):
        rng = np.random.default_rng(730)

        def part() -> int:  # 0 up to about 2**142: one to five words
            return int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) << int(
                rng.integers(0, 80)
            )

        seeds = [tuple(part() for _ in range(int(rng.integers(1, 9)))) for _ in range(300)]
        for seed, row in zip(seeds, rand._seed_states(seeds)):
            expect = np.random.SeedSequence(list(seed)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expect)

    def test_int_and_object_arrays_equal_tuples(self):
        table = np.empty((40, 3), dtype=np.uint64)
        table[:, 0], table[:, 1], table[:, 2] = STAGE1, 7, np.arange(40) * 2**31
        assert int(table[0, 0]) == STAGE1
        tuples = [tuple(int(p) for p in row) for row in table]
        expect = rand._seed_states(tuples)
        np.testing.assert_array_equal(rand._seed_states(table), expect)
        np.testing.assert_array_equal(rand._seed_states(table.astype(object)), expect)
        signed = table[:, 1:].astype(np.int64)
        np.testing.assert_array_equal(
            rand._seed_states(signed), rand._seed_states([tuple(r) for r in signed.tolist()])
        )
        np.testing.assert_array_equal(
            rand._seed_states(np.arange(5)), rand._seed_states([0, 1, 2, 3, 4])
        )
        assert rand._seed_states([]).shape == (0, 4)

    def test_streams_equal_make_rng(self):
        rngs = list(rand.make_rngs(self.SEEDS))
        assert len(rngs) == len(self.SEEDS)
        for seed, rng in zip(self.SEEDS, rngs):
            one = rand.make_rng(*seed) if isinstance(seed, tuple) else rand.make_rng(seed)
            assert rng.integers(0, 2**63, size=50).tolist() == one.integers(
                0, 2**63, size=50
            ).tolist()
            assert rng.random(5).tolist() == one.random(5).tolist()

    @pytest.mark.parametrize(
        "seed",
        [-1, (3, -1), 2.0, (3, 1.5), True, (1, np.bool_(True)), (4, np.float64(4.0)), "3"],
    )
    def test_bad_parts_raise_what_make_rng_raises(self, seed):
        with pytest.raises(ConfigurationError) as expected:
            rand.make_rng(*_flat(seed))
        with pytest.raises(ConfigurationError) as got:
            rand.make_rngs([5, seed, (1, 2)])
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
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            rand.make_rngs(table)

    def test_a_seed_needs_a_part(self):
        with pytest.raises(ValueError, match="at least one seed part"):
            rand.make_rngs([1, ()])
