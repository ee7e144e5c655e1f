"""Seed handling.

All randomness in the package flows through :func:`make_rng`, which builds a
``numpy`` PCG64 generator from a ``SeedSequence`` over ``(root_seed,
stream_id, ...)`` tuples.  Deriving per-stage generators this way keeps every
pipeline stage on an independent, reproducible stream: re-running a stage with
the same root seed is bit-identical, and inserting a new stage never shifts
the draws of an existing one.  A stage that draws many things (every
per-edge negative pool of an evaluation, say) draws them all from its one
stage generator.

Stream ids are small integers fixed below; they are part of the on-disk
reproducibility contract and must not be renumbered.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
