"""Seed handling.

All randomness in the package flows through :func:`make_rng`, which builds a
``numpy`` PCG64 generator from a ``SeedSequence`` over ``(root_seed,
stream_id, ...)`` tuples.  Deriving per-stage generators this way keeps every
pipeline stage on an independent, reproducible stream: re-running a stage with
the same root seed is bit-identical, and inserting a new stage never shifts
the draws of an existing one.

:func:`make_rngs` builds many such generators at once (one per positive for
per-edge negative pools): generator ``i`` draws exactly what
``make_rng(*seeds[i])`` draws.  It hashes every seed's entropy together, as
vectorised uint32 mixing that follows numpy's published ``SeedSequence``
algorithm (pool size 4), and hands each PCG64 the four ``uint64`` words that
``SeedSequence(parts).generate_state(4, np.uint64)`` would give.

Stream ids are small integers fixed below; they are part of the on-disk
reproducibility contract and must not be renumbered.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError

# Fixed stream ids, one per pipeline stage that consumes randomness.
STREAM_SPLIT = 1
STREAM_VALID_NEG = 2
STREAM_TEST_NEG = 3
STREAM_CLUSTER = 4
STREAM_INIT = 5
STREAM_TRAIN_NEG = 6
STREAM_EVAL = 7
STREAM_BENCH = 8


def make_rng(*seed_parts: int | Sequence[int]) -> np.random.Generator:
    """Return a PCG64 generator derived from the given seed parts.

    ``make_rng(7)`` and ``make_rng(7, STREAM_SPLIT)`` are independent
    streams; the same parts always reproduce the same stream.  A part that is
    negative or not an integer (a float, even ``2.0``, a bool or a string)
    raises :class:`ConfigurationError`.
    """
    flat: list = []
    for part in seed_parts:
        flat.extend(part if isinstance(part, (list, tuple)) else [part])
    if not flat:
        raise ValueError("make_rng needs at least one seed part")
    if not all(is_seed(p) for p in flat):
        raise ConfigurationError(
            f"seed parts must be non-negative integers, got {tuple(flat)!r}"
        )
    state = np.random.SeedSequence([int(p) for p in flat])
    return np.random.Generator(np.random.PCG64(state))


def is_seed(value: object) -> bool:
    """Whether ``value`` is a non-negative ``int`` or numpy integer (bool is
    not a seed, though Python counts it as an ``int``)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and value >= 0


def derive_seed(root_seed: int, stream_id: int) -> int:
    """Collapse (root, stream) into a single recordable integer seed."""
    state = np.random.SeedSequence([int(root_seed), int(stream_id)])
    return int(state.generate_state(1, np.uint64)[0])


def make_rngs(
    seeds: Sequence[int | Sequence[int]] | np.ndarray,
) -> Iterator[np.random.Generator]:
    """One PCG64 generator per seed, generator ``i`` equal to ``make_rng(*seeds[i])``.

    A seed is an int or a sequence of ints; a row of a 2-D int or object
    array is one seed's parts.  Every seed is checked and hashed before the
    first generator is returned; the generators themselves are built as the
    iterator is consumed.  Parts are checked as :func:`make_rng` checks them,
    once per column of an int array.
    """
    return (
        np.random.Generator(np.random.PCG64(_StateWords(words)))
        for words in _seed_states(seeds)
    )


def _seed_states(seeds: Sequence[int | Sequence[int]] | np.ndarray) -> np.ndarray:
    """``(len(seeds), 4)`` uint64 words; row ``i`` equals
    ``np.random.SeedSequence(parts_i).generate_state(4, np.uint64)``."""
    states = np.zeros((len(seeds), 4), dtype=np.uint64)
    if not len(seeds):
        return states
    for rows, table in _seed_tables(seeds):
        if table.shape[1] == 0:
            raise ValueError("make_rng needs at least one seed part")
        if not all(_all_seeds(column) for column in table.T):
            bad = next(r for r in table if not all(is_seed(p) for p in r))
            raise ConfigurationError(
                f"seed parts must be non-negative integers, got {tuple(bad)!r}"
            )
        # every part's words side by side, then each row's words moved left
        words, valid = (np.hstack(a) for a in zip(*map(_words, table.T)))
        order = np.argsort(~valid, axis=1, kind="stable")
        entropy = np.take_along_axis(words, order, axis=1)
        lengths = valid.sum(axis=1)
        for length in np.unique(lengths):
            sel = np.flatnonzero(lengths == length)
            states[rows[sel]] = _generate_state(_mix_entropy(entropy[sel, :length]))
    return states


def _seed_tables(seeds) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(rows, table)`` groups: ``table[r]`` holds the parts of seed ``rows[r]``."""
    if isinstance(seeds, np.ndarray) and (seeds.ndim == 2 or seeds.dtype != object):
        return [(np.arange(len(seeds)), seeds.reshape(len(seeds), -1))]
    by_count: dict[int, list] = {}
    for i, seed in enumerate(seeds):
        parts: list = []
        for part in seed if isinstance(seed, (list, tuple, np.ndarray)) else [seed]:
            parts.extend(part if isinstance(part, (list, tuple)) else [part])
        by_count.setdefault(len(parts), []).append((i, parts))
    groups = []
    for members in by_count.values():
        rows, parts = zip(*members)
        table = np.empty((len(parts), len(parts[0])), dtype=object)
        table[:] = parts
        groups.append((np.array(rows), table))
    return groups


def _all_seeds(column: np.ndarray) -> bool:
    """Whether every entry of a column is a seed, looked at once per column."""
    if column.dtype.kind == "u":
        return True
    if column.dtype.kind == "i":
        return not (column < 0).any()
    if column.dtype != object:
        return False
    kinds = set(map(type, column))
    integer = all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds)
    return integer and min(column) >= 0


_MASK32 = 0xFFFFFFFF


def _words(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words of non-negative ints, low word first, one row per int,
    and which of them the int has (``0`` has one word, ``2**32`` two)."""
    if column.dtype != object or max(column) <= np.iinfo(np.uint64).max:
        column = column.astype(np.uint64)
    words, valid = [column & _MASK32], [np.ones(len(column), dtype=bool)]
    rest = column >> 32
    while (more := rest != 0).any():
        words.append(rest & _MASK32)
        valid.append(more)
        rest = rest >> 32
    return np.column_stack(words).astype(np.uint32), np.column_stack(valid)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` on every row of a ``(k, L)`` uint32 array:
    the four pool words, one ``(k,)`` array each."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        out ^= out >> np.uint32(16)
        return out

    k, length = entropy.shape
    pool = [
        hashmix(entropy[:, i] if i < length else np.zeros(k, dtype=np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` from the pool words:
    ``(k, 4)`` uint64, each from two little-endian uint32 words."""
    hash_const = _INIT_B
    out = np.empty((len(pool[0]), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        out[:, i] = value
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence that hands a PCG64 its precomputed four state words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.uint64 or n_words > _POOL_SIZE:
            raise ValueError("only the first four uint64 state words are kept")
        return self._words[:n_words]
