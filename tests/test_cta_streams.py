"""``CTAStreams`` against numpy's ``Generator``, value for value and state for state.

A stream batch draws every CTA's random numbers from one block of raw
PCG64 words, reproducing ``Generator``'s consumption rules (see
``repro/workloads/streams.py``).  These properties run random sequences of
draws on batches wrapped around ``rng_for`` generators and the same calls
on twin ``Generator``\\ s, then compare every value and, after
``settle()``, each generator's full ``bit_generator.state`` (the buffered
32-bit half, ``has_uint32``/``uinteger``, included).  Bounds cover 1
(draws nothing), 2**32 (raw halves) and 2**31 + 1 (about half the halves
rejected); counts cover 0 (rows that draw nothing) and odd counts (a half
left buffered); ``choice`` covers Floyd's algorithm and the tail shuffle.

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.patterns import PATTERNS, make_pattern
from repro.workloads.rng import rng_for
from repro.workloads.streams import CTAStreams

from .pattern_oracle import reference_generate

#: Bounds at the edges of the 32-bit Lemire method, and anywhere between.
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 7, 1000, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)
COUNTS = st.integers(0, 9)


def _twins(n_rows, seed):
    """``rng_for`` generators for a batch to wrap, and their reference twins."""
    wrapped = [rng_for("streams", seed, row) for row in range(n_rows)]
    reference = [rng_for("streams", seed, row) for row in range(n_rows)]
    return wrapped, reference


def _draw_op(data, n_rows):
    """One draw: ``(batch call, the same call on each reference generator)``."""
    kind = data.draw(
        st.sampled_from(
            [
                "random",
                "random_each",
                "integers",
                "integers_per_row",
                "integers_per_element",
                "integers_each",
                "integers_each_per_row",
                "choice",
                "choice_tail",
            ]
        ),
        label="op",
    )
    if kind == "random":
        n = data.draw(COUNTS)
        return (lambda s: s.random(n)), (lambda gens: np.stack([g.random(n) for g in gens]))
    if kind == "random_each":
        counts = data.draw(st.lists(COUNTS, min_size=n_rows, max_size=n_rows))
        return (lambda s: s.random_each(counts)), (
            lambda gens: np.concatenate([g.random(c) for g, c in zip(gens, counts)])
        )
    if kind in ("integers", "integers_per_row", "integers_per_element"):
        n = data.draw(COUNTS)
        shape = {"integers": (), "integers_per_row": (n_rows, 1)}.get(kind, (n_rows, n))
        size = int(np.prod(shape))
        highs = np.array(data.draw(st.lists(BOUNDS, min_size=size, max_size=size)))
        highs = highs.astype(np.int64).reshape(shape)
        rows = np.broadcast_to(highs, (n_rows, n))
        if kind == "integers_per_element":
            # A row of bounds draws as one integers(0, row) call.
            def expected(gens):
                return np.stack([g.integers(0, row) for g, row in zip(gens, rows)])
        else:
            bounds = np.broadcast_to(highs, (n_rows, 1))[:, 0].tolist()

            def expected(gens):
                return np.stack([g.integers(0, b, size=n) for g, b in zip(gens, bounds)])

        return (lambda s: s.integers(highs, n)), expected
    if kind in ("integers_each", "integers_each_per_row"):
        counts = data.draw(st.lists(COUNTS, min_size=n_rows, max_size=n_rows))
        if kind == "integers_each":
            high = data.draw(BOUNDS)
            highs = [high] * n_rows
        else:
            highs = data.draw(st.lists(BOUNDS, min_size=n_rows, max_size=n_rows))
            high = np.array(highs, dtype=np.int64)
        return (lambda s: s.integers_each(high, counts)), (
            lambda gens: np.concatenate(
                [g.integers(0, b, size=c, dtype=np.int64) for g, b, c in zip(gens, highs, counts)]
            )
        )
    if kind == "choice":
        n = data.draw(st.integers(1, 120))
        k = data.draw(st.integers(0, n))
    else:
        # numpy shuffles a tail of arange(n) when n > 10000 and k > n // 50.
        n = data.draw(st.integers(10001, 10400))
        k = data.draw(st.integers(n // 50 + 1, n // 50 + 24))
    return (lambda s: s.choice(n, k)), (
        lambda gens: np.stack([g.choice(n, size=k, replace=False) for g in gens])
    )


@given(data=st.data())
def test_draw_sequences_equal_generator_calls(data):
    n_rows = data.draw(st.integers(1, 5), label="rows")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    wrapped, reference = _twins(n_rows, seed)
    # Some generators start with a buffered half, which the batch inherits.
    for row in data.draw(st.sets(st.integers(0, n_rows - 1)), label="primed"):
        wrapped[row].integers(0, 5)
        reference[row].integers(0, 5)
    streams = CTAStreams.wrapping(wrapped)
    for _ in range(data.draw(st.integers(1, 8), label="n_ops")):
        batch_call, reference_call = _draw_op(data, n_rows)
        got = batch_call(streams)
        expected = reference_call(reference)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    streams.settle()
    for mine, theirs in zip(wrapped, reference):
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_rejected_halves_are_skipped():
    # 2**31 + 1 rejects about half of all 32-bit halves.
    wrapped, reference = _twins(3, 11)
    streams = CTAStreams.wrapping(wrapped)
    got = streams.integers(2**31 + 1, 65)
    assert np.array_equal(got, np.stack([g.integers(0, 2**31 + 1, size=65) for g in reference]))
    assert np.array_equal(streams.random(3), np.stack([g.random(3) for g in reference]))
    streams.settle()
    assert [g.bit_generator.state for g in wrapped] == [g.bit_generator.state for g in reference]


def test_a_batch_that_draws_nothing_leaves_its_generators_alone():
    wrapped, reference = _twins(2, 3)
    streams = CTAStreams.wrapping(wrapped)
    assert streams.integers(1, 4).tolist() == [[0] * 4] * 2
    assert streams.integers_each(7, [0, 0]).size == 0
    streams.settle()
    assert [g.bit_generator.state for g in wrapped] == [g.bit_generator.state for g in reference]


@pytest.mark.parametrize("high", [0, -3, 2**32 + 1, 2**40])
def test_bounds_outside_32_bits_raise(high):
    streams = CTAStreams.wrapping(_twins(2, 0)[0])
    with pytest.raises(ValueError, match="bounds"):
        streams.integers(high, 3)
    with pytest.raises(ValueError, match="bounds"):
        streams.integers_each([5, high], [1, 1])


def test_choosing_more_than_the_population_raises():
    streams = CTAStreams.wrapping(_twins(1, 0)[0])
    with pytest.raises(ValueError, match="without replacement"):
        streams.choice(4, 5)


def test_wrapping_refuses_other_bit_generators():
    with pytest.raises(ValueError, match="PCG64"):
        CTAStreams.wrapping([np.random.Generator(np.random.MT19937(1))])


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_generate_leaves_the_generator_where_the_oracle_does(name):
    pattern = make_pattern(name)
    extra = {"kernel_index": 2} if pattern.kernel_indexed else {}
    for cta, n_accesses in ((0, 1), (3, 37), (7, 160)):
        mine, theirs = rng_for(name, cta), rng_for(name, cta)
        lines = pattern.generate(cta, 8, n_accesses, 3000, mine, **extra)
        expected = reference_generate(pattern, cta, 8, n_accesses, 3000, theirs, **extra)
        assert np.array_equal(lines, expected)
        assert mine.bit_generator.state == theirs.bit_generator.state
