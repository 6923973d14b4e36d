"""A batch of CTA random streams, drawn for every CTA at once.

Each row of a :class:`CTAStreams` is one CTA's numpy ``PCG64``, and its
draws are exactly those of ``numpy.random.Generator`` over that bit
generator.  The batch asks each row's PCG64 once for a block of raw 64-bit
words (``random_raw``), tops up only the rows that run short, and computes
every draw from the words as 2-D numpy over the whole batch, so a kernel's
streams cost one bit-generator call per CTA instead of one ``Generator``
call per CTA per draw site.

The word-for-word consumption rules, verified against numpy 2.4.6
(``tests/test_cta_streams.py`` holds the batch to ``Generator``, values
and final states):

* ``random()`` is ``(w >> 11) * 2**-53`` of the next word ``w``; it leaves
  the 32-bit buffer alone.
* ``integers(0, b)`` for ``1 < b <= 2**32`` is Lemire's method on 32-bit
  halves: a half ``h`` gives ``(h * b) >> 32`` unless
  ``(h * b) mod 2**32 < (2**32 - b) mod b``, in which case it is skipped,
  so a row's draws are its accepted halves in order.  Halves come from the
  buffer if it holds one, else from the next word, low half first, the
  high half being buffered for the next 32-bit draw.  ``b == 1`` draws
  nothing (and yields 0); ``b == 2**32`` takes the halves raw.
* ``choice(n, k, replace=False)`` is a tail Fisher-Yates over
  ``arange(n)`` when ``n > 10000`` and ``k > n // 50``, and otherwise
  Floyd's algorithm (bounds ``j + 1`` for ``j`` in ``[n - k, n)``)
  followed by a Fisher-Yates over the ``k`` picks (bounds ``i + 1`` for
  ``i`` from ``k - 1`` down to 1).

``numpy.random`` is imported on the first draw, so importing this module
(and ``repro``) never loads it.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Sequence

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
#: Where a word's low half sits in its pair of ``uint32`` halves.
_LOW_HALF = 0 if sys.byteorder == "little" else 1
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_TWO32 = np.uint64(1 << 32)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

#: ``choice`` shuffles a tail of ``arange(n)`` above this population size
#: when more than ``n // _CHOICE_CUTOFF`` items are picked (numpy's rule).
_CHOICE_POPULATION = 10000
_CHOICE_CUTOFF = 50

#: Extra words a top-up draws beyond a short row's need, so a rejected half
#: rarely costs a second top-up.
_TOP_UP_SLACK = 8


@functools.cache
def _seeding() -> tuple:
    """``PCG64`` and the one-row ``ISeedSequence`` it is seeded through.

    Built on first use, so ``numpy.random`` loads with the first draw.  A
    row of precomputed words goes through the minimal ``ISeedSequence``,
    so numpy's own PCG64 seeding (state and increment from the four
    words) still runs.
    """
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        """One CTA's precomputed PCG64 seeding words."""

        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds only PCG64's four uint64 seeding words")
            return self._words

    return PCG64, _StateWords


def _pcg64s(state_words: np.ndarray) -> list:
    """One ``PCG64`` per row of ``SeedSequence`` state words."""
    pcg64, words = _seeding()
    return list(map(pcg64, map(words, state_words)))


class CTAStreams:
    """The random streams of a batch of CTAs; row ``i`` is one CTA's PCG64.

    ``bit_generators`` returns the rows' PCG64s and is called on the first
    draw; :meth:`seeded` and :meth:`wrapping` build batches of fresh and of
    existing generators.

    Draws return one row per CTA; ``*_each`` draws take a per-row count and
    return the rows' draws concatenated (row-major, as boolean-mask
    assignment expects).  Every draw reproduces the row's
    ``numpy.random.Generator`` call of the same name word for word.
    """

    def __init__(self, n_rows: int, bit_generators: Callable[[], Sequence]) -> None:
        self.n_rows = n_rows
        self._bit_generators = bit_generators
        self._rows: Sequence = ()  # each row's bit generator, once drawn from
        self._wrapped = False
        self._reserved = 0
        self._words = np.empty((n_rows, 0), dtype=np.uint64)
        self._filled = np.zeros(n_rows, dtype=np.int64)  # words drawn per row
        self._pos = np.zeros(n_rows, dtype=np.int64)  # next unused word per row
        self._has_half = np.zeros(n_rows, dtype=bool)  # a buffered high half
        self._half = np.zeros(n_rows, dtype=np.uint64)

    @classmethod
    def seeded(cls, n_rows: int, state_words: Callable[[], np.ndarray]) -> "CTAStreams":
        """A batch of fresh PCG64s, one per row of ``state_words()``.

        ``state_words`` returns the rows' ``(n_rows, 4)`` uint64 seeding
        words (see :func:`repro.workloads.rng.seed_state_words`); it is
        called on the first draw, so a batch that draws nothing seeds
        nothing.
        """
        return cls(n_rows, lambda: _pcg64s(state_words()))

    @classmethod
    def wrapping(cls, generators: Sequence["np.random.Generator"]) -> "CTAStreams":
        """A batch drawing from existing PCG64 ``Generator``\\ s, row ``i`` from ``generators[i]``.

        The generators' 32-bit buffers carry over; call :meth:`settle`
        afterwards to leave each generator in the state its own calls
        would have.
        """
        bit_generators = [generator.bit_generator for generator in generators]
        streams = cls(len(bit_generators), lambda: bit_generators)
        streams._rows = bit_generators
        streams._wrapped = True
        for row, bit_generator in enumerate(bit_generators):
            state = bit_generator.state
            if state["bit_generator"] != "PCG64":
                raise ValueError(
                    f"CTAStreams reproduces PCG64 only, not {state['bit_generator']}"
                )
            streams._has_half[row] = bool(state["has_uint32"])
            streams._half[row] = state["uinteger"]
        return streams

    def settle(self) -> None:
        """Hand the words drawn ahead back to the wrapped generators.

        Each generator rewinds to just after the last word its row used
        and keeps the row's buffered half, as if it had made the draws
        itself.  Seeded rows have no one to hand words back to.
        """
        if not self._wrapped:
            return
        for row, bit_generator in enumerate(self._rows):
            spare = int(self._filled[row] - self._pos[row])
            if spare:
                bit_generator.advance(-spare)
            state = bit_generator.state
            state["has_uint32"] = int(self._has_half[row])
            state["uinteger"] = int(self._half[row])
            bit_generator.state = state

    def reserve(self, uniforms: int = 0, integers: int = 0) -> None:
        """Announce at most how many uniforms and bounded integers each row will draw.

        The first top-up then draws enough words for them in one call per
        row (an integer takes half a word, less its rare rejections);
        shortfalls are still topped up, row by row.
        """
        self._reserved = uniforms + (integers + 1) // 2

    # -- draws -----------------------------------------------------------

    def random(self, n: int) -> np.ndarray:
        """Each row's ``Generator.random(n)``: a ``(n_rows, n)`` float64 array."""
        words = self._window(np.full(self.n_rows, n, dtype=np.int64), n)
        self._pos += n
        return self._doubles(words)

    def random_each(self, counts: np.ndarray) -> np.ndarray:
        """Row ``i``'s ``Generator.random(counts[i])``, concatenated."""
        counts = np.asarray(counts, dtype=np.int64)
        width = int(counts.max(initial=0))
        if not width:
            return np.empty(0)
        words = self._window(counts, width)
        self._pos += counts
        return self._doubles(words[np.arange(width) < counts[:, None]])

    def integers(self, high, n: int) -> np.ndarray:
        """Each row's ``Generator.integers(0, high, size=n)``: ``(n_rows, n)`` int64.

        ``high`` broadcasts against ``(n_rows, n)``: one bound, one per
        row (shape ``(n_rows, 1)``), or one per element, drawn in element
        order (as ``integers(0, high_row)`` draws for a row of bounds).
        """
        return self._bounded(self._bounds(high), np.ones((self.n_rows, n), dtype=bool))

    def integers_each(self, high, counts: np.ndarray) -> np.ndarray:
        """Row ``i``'s ``Generator.integers(0, high_i, size=counts[i])``, concatenated.

        ``high`` is one bound or one per row.
        """
        counts = np.asarray(counts, dtype=np.int64)
        width = int(counts.max(initial=0))
        drawn = np.arange(width) < counts[:, None]
        bounds = self._bounds(high)
        if bounds.ndim:
            bounds = bounds[:, None]
        return self._bounded(bounds, drawn)[drawn]

    def choice(self, n: int, k: int) -> np.ndarray:
        """Each row's ``Generator.choice(n, size=k, replace=False)``: ``(n_rows, k)`` int64."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n} without replacement")
        rows = np.arange(self.n_rows)
        if n > _CHOICE_POPULATION and k > n // _CHOICE_CUTOFF:
            # Fisher-Yates over the tail of arange(n), from the back.
            first = max(n - k, 1)
            swaps = self.integers(np.arange(n, first, -1), n - first)
            pool = np.tile(np.arange(n, dtype=np.int64), (self.n_rows, 1))
            for step, i in enumerate(range(n - 1, first - 1, -1)):
                _swap(pool, rows, i, swaps[:, step])
            return pool[:, n - k :]
        # Floyd's algorithm, then a Fisher-Yates over the picks.  Neither's
        # draws depend on the values picked, so all are drawn in one call.
        draws = self.integers(
            np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)]),
            2 * k - 1 if k else 0,
        )
        picks = draws[:, :k].copy()
        for step in range(1, k):
            taken = (picks[:, :step] == picks[:, step : step + 1]).any(axis=1)
            picks[taken, step] = n - k + step
        for step, i in enumerate(range(k - 1, 0, -1)):
            _swap(picks, rows, i, draws[:, k + step])
        return picks

    # -- machinery -------------------------------------------------------

    @staticmethod
    def _bounds(high) -> np.ndarray:
        bounds = np.asarray(high, dtype=np.int64)
        if bounds.size:
            if bounds.min() < 1:
                raise ValueError(f"integers needs bounds of at least 1, got {bounds.min()}")
            if bounds.max() > 1 << 32:
                raise ValueError(
                    f"integers draws 32-bit bounds only (at most 2**32), got {bounds.max()}"
                )
        return bounds.astype(np.uint64)

    @staticmethod
    def _doubles(words: np.ndarray) -> np.ndarray:
        return (words >> _SHIFT11) * _DOUBLE_UNIT

    def _window(self, need: np.ndarray, width: int) -> np.ndarray:
        """The next ``width`` words of every row, of which row ``i`` uses ``need[i]``.

        Words a row will not use may be stale; the caller masks them out.
        """
        self._ensure(self._pos + need)
        start = int(self._pos.min(initial=0))
        if (self._pos == start).all():  # one slice serves every row
            return self._words[:, start : start + width]
        return _gather(self._words, self._pos[:, None] + np.arange(width))

    def _bounded(self, bounds: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        """Lemire draws for the ``drawn`` elements of a ``(n_rows, m)`` grid, in row order.

        ``bounds`` broadcasts against the grid.
        """
        consumes = drawn & (bounds > 1)
        if not consumes.any():
            return np.zeros(drawn.shape, dtype=np.int64)
        thresholds = (_TWO32 - bounds) % bounds
        # Element e of a row takes half q[e] of the row's half stream
        # (0 = the buffered half, if any).  Assume no rejections, then
        # move every element from each row's first rejection on by one
        # half until none is rejected: elements before it are settled.
        halves = np.cumsum(consumes, axis=1) - 1
        while True:
            scaled = self._halves(halves) * bounds
            rejected = (scaled & _MASK32) < thresholds
            rejected &= consumes
            if not rejected.any():
                break
            halves += np.logical_or.accumulate(rejected, axis=1)
        self._use_halves(halves[:, -1] + 1)
        return np.where(consumes, scaled >> _SHIFT32, 0).astype(np.int64)

    def _halves(self, halves: np.ndarray) -> np.ndarray:
        """The 32-bit halves at positions ``halves`` of each row's half stream.

        Position 0 is the buffered half if the row holds one; the rest are
        the halves of the row's next words, low half first.  Positions are
        nondecreasing along a row, so the last is the furthest it needs.
        """
        virtual = halves - self._has_half[:, None]  # -1: the buffered half
        self._ensure(self._pos + (np.maximum(virtual[:, -1] + 2, 0) >> 1))
        columns = 2 * self._pos[:, None] + np.maximum(virtual, 0)
        out = _gather(self._words.view(np.uint32), columns ^ _LOW_HALF)
        if self._has_half.any():
            return np.where(virtual < 0, self._half[:, None], out)
        return out

    def _use_halves(self, used: np.ndarray) -> None:
        """Advance each row's half stream past its first ``used`` halves."""
        virtual = used - self._has_half
        # Splitting a word buffers its high half, and numpy keeps that value
        # (``uinteger``) after handing it out: the last word split is the
        # buffer value, which is pending only after an odd count of halves.
        split = np.flatnonzero(virtual > 0)
        if split.size:
            last = self._pos[split] + (virtual[split] - 1 >> 1)
            self._half[split] = self._words[split, last] >> _SHIFT32
        self._has_half = np.where(used > 0, virtual & 1 == 1, self._has_half)
        self._pos += np.maximum(virtual + 1, 0) >> 1

    def _ensure(self, need: np.ndarray) -> None:
        """Draw words until row ``i`` holds at least ``need[i]``."""
        short = np.flatnonzero(need > self._filled)
        if not short.size:
            return
        if not self._rows:
            self._rows = self._bit_generators()
        targets = need[short] + _TOP_UP_SLACK
        if self._reserved:
            targets = np.maximum(targets, self._pos[short] + self._reserved)
            self._reserved = 0
        width = int(targets.max())
        if width > self._words.shape[1]:
            grown = np.empty((self.n_rows, width), dtype=np.uint64)
            grown[:, : self._words.shape[1]] = self._words
            self._words = grown
        words, rows, filled = self._words, self._rows, self._filled
        for row, start, stop in zip(short.tolist(), filled[short].tolist(), targets.tolist()):
            words[row, start:stop] = rows[row].random_raw(stop - start)
        filled[short] = targets


def _gather(table: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each row's entries at ``columns``, clipped to the table (stale past a row's own)."""
    if not table.shape[1]:
        return np.zeros(columns.shape, dtype=table.dtype)
    np.minimum(columns, table.shape[1] - 1, out=columns)
    return np.take_along_axis(table, columns, axis=1)


def _swap(table: np.ndarray, rows: np.ndarray, column: int, others: np.ndarray) -> None:
    """Swap column ``column`` of every row with that row's column ``others[row]``."""
    held = table[rows, others]
    table[rows, others] = table[:, column]
    table[:, column] = held
