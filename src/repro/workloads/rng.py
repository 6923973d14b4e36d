"""Deterministic random-number seeding for workload generation.

Every trace must be reproducible from (workload name, kernel index, CTA
index) alone: the engine regenerates CTA traces on demand, and iterative
kernels rely on identical per-CTA address streams across launches to model
convergence-loop reuse (paper Section 5.3 / Figure 12).

:func:`rng_for` is the one definition of a stream: ``default_rng`` seeded
with the CRC32 of the joined parts.  Workloads draw a kernel's streams
through :func:`kernel_streams`, whose batches reproduce those generators'
draws word for word at a fraction of the cost.  Seeding a kernel is one
pass: one running CRC for every CTA's seed, and :func:`seed_state_words`
for ``SeedSequence``'s mixing of each 32-bit seed into PCG64's four state
words, in numpy ``uint32`` arithmetic for all seeds at once.  Each CTA's
PCG64 is then seeded from its precomputed row through numpy's own PCG64
seeding, and a :class:`~repro.workloads.streams.CTAStreams` batch draws
from all of them as 2-D numpy over one block of raw words.
``numpy.random`` is imported only on a batch's first draw, so a process
that imports ``repro`` but generates no trace (a pooled sweep's parent,
the job server's front end) never loads it.
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence

import numpy as np

from .streams import CTAStreams


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


def kernel_streams(*parts: object, n_ctas: int) -> Callable[[Sequence[int]], CTAStreams]:
    """Stream batches of one kernel: row ``i`` of ``get(ctas)`` draws as ``rng_for(*parts, ctas[i])``.

    Nothing is computed until a batch first draws.  Then the ``n_ctas``
    seeds come from one running CRC over the shared ``"part|part|...|"``
    prefix (equal to :func:`stable_seed` of the joined parts) and are mixed
    by :func:`seed_state_words` in one pass, for every batch of the kernel.
    """
    words = None

    def state_words(ctas: np.ndarray) -> np.ndarray:
        nonlocal words
        if words is None:
            prefix = zlib.crc32(("|".join(str(part) for part in parts) + "|").encode("utf-8"))
            seeds = np.fromiter(
                (zlib.crc32(str(cta).encode("utf-8"), prefix) for cta in range(n_ctas)),
                dtype=np.uint32,
                count=n_ctas,
            )
            words = seed_state_words(seeds)
        return words[ctas]

    def get(ctas: Sequence[int]) -> CTAStreams:
        ctas = np.asarray(ctas, dtype=np.int64)
        if ctas.size and not (0 <= ctas.min() and ctas.max() < n_ctas):
            raise IndexError(f"CTAs {ctas.tolist()} reach outside a {n_ctas}-CTA kernel")
        return CTAStreams.seeded(len(ctas), lambda: state_words(ctas))

    return get
