"""Deterministic random-number seeding for workload generation.

Every trace must be reproducible from (workload name, kernel index, CTA
index) alone: the engine regenerates CTA traces on demand, and iterative
kernels rely on identical per-CTA address streams across launches to model
convergence-loop reuse (paper Section 5.3 / Figure 12).

:func:`rng_for` is the one definition of a stream: ``default_rng`` seeded
with the CRC32 of the joined parts.  Workloads draw a kernel's streams
through :func:`kernel_rngs`, which hands out the very same generators at a
fraction of the cost.  Most of ``default_rng``'s price is ``SeedSequence``
mixing its one 32-bit entropy word into PCG64's four state words;
:func:`seed_state_words` runs that mixing for a whole kernel's seeds at once
in numpy ``uint32`` arithmetic, and each CTA's generator is then seeded from
its precomputed row through numpy's own PCG64 seeding.  ``numpy.random`` is
imported only on the first kernel pass, so a process that imports ``repro``
but generates no trace (a pooled sweep's parent, the job server's front
end) never loads it.
"""

from __future__ import annotations

import functools
import zlib
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.random import Generator


def stable_seed(*parts: object) -> int:
    """A 32-bit seed derived deterministically from the given parts.

    Uses CRC32 over the joined string representation — stable across
    processes and Python versions (unlike ``hash``).
    """
    text = "|".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8"))


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy Generator seeded from :func:`stable_seed`."""
    return np.random.default_rng(stable_seed(*parts))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), after
# M. O'Neill's seed_seq_fe: a 4-word pool, a 32-bit hash whose multiplier
# advances with every use, and a two-word mix.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_multipliers(init: int, mult: int, count: int) -> list:
    """The ``count`` successive hash multipliers a SeedSequence hash uses.

    The multiplier sequence is independent of the entropy, so one list
    serves every seed of a batch.  Each entry pairs the constant a value is
    XORed with and the (advanced) constant it is then multiplied by.
    """
    constants = []
    current = init
    for _ in range(count):
        advanced = (current * mult) & _MASK32
        constants.append((np.uint32(current), np.uint32(advanced)))
        current = advanced
    return constants


# Every hash call of one single-word seeding, in order: four to fill the
# pool, twelve in the all-pairs mix (``mix_entropy``); then eight output
# words (``generate_state(4, uint64)``) from the second hash.
_POOL_HASHES = _hash_multipliers(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASHES = _hash_multipliers(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(values: np.ndarray, constants) -> np.ndarray:
    xor_with, multiply_by = constants
    values = (values ^ xor_with) * multiply_by
    return values ^ (values >> _XSHIFT)


def seed_state_words(seeds) -> np.ndarray:
    """PCG64's seeding words for every 32-bit seed, computed at once.

    Row ``i`` equals ``np.random.SeedSequence(seeds[i]).generate_state(4,
    np.uint64)``: the pool is filled with the seed word and three hashes of
    zero, every pool word is mixed into every other, and eight 32-bit words
    are drawn and paired little-endian into four 64-bit words.  Every step
    is elementwise ``uint32`` arithmetic (wrapping, like the C original).
    """
    seeds = np.asarray(seeds, dtype=np.uint32).reshape(-1)
    hashes = iter(_POOL_HASHES)
    pool = [_hash(seeds, next(hashes))]
    pool += [_hash(np.zeros_like(seeds), next(hashes)) for _ in range(1, _POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    halves = [
        _hash(pool[i % _POOL_SIZE], constants).astype(np.uint64)
        for i, constants in enumerate(_STATE_HASHES)
    ]
    return np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)],
        axis=1,
    )


@functools.cache
def _generator_from_words() -> Callable[[np.ndarray], "Generator"]:
    """``Generator(PCG64(...))`` seeded from one precomputed row of words.

    Built on first use, so ``numpy.random`` loads with the first kernel pass.
    The row goes through a minimal ``ISeedSequence``, so numpy's own PCG64
    seeding (state and increment from the four words) still runs.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        """One CTA's precomputed PCG64 seeding words."""

        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or dtype is not np.uint64:
                raise ValueError("holds only PCG64's four uint64 seeding words")
            return self._words

    return lambda words: Generator(PCG64(_StateWords(words)))


def kernel_rngs(*parts: object, n_ctas: int) -> Callable[[int], "Generator"]:
    """Per-CTA generators of one kernel: ``get(cta)`` draws as ``rng_for(*parts, cta)``.

    The ``n_ctas`` seeds come from one running CRC over the shared
    ``"part|part|...|"`` prefix (equal to :func:`stable_seed` of the joined
    parts) and are mixed by :func:`seed_state_words` in one pass; each call
    then builds one generator from its CTA's row.  The generators are
    stream-identical to :func:`rng_for`'s but carry no spawnable
    ``SeedSequence`` (``Generator.spawn`` is unavailable).
    """
    prefix = zlib.crc32(("|".join(str(part) for part in parts) + "|").encode("utf-8"))
    seeds = np.fromiter(
        (zlib.crc32(str(cta).encode("utf-8"), prefix) for cta in range(n_ctas)),
        dtype=np.uint32,
        count=n_ctas,
    )
    words = seed_state_words(seeds)
    generator = _generator_from_words()

    def get(cta_index: int) -> "Generator":
        if not 0 <= cta_index < n_ctas:
            raise IndexError(f"CTA {cta_index} outside a {n_ctas}-CTA kernel")
        return generator(words[cta_index])

    return get
