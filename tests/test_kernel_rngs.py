"""Bit-identity of per-kernel CTA seeding against ``rng_for``.

``SyntheticWorkload`` seeds a kernel's CTA generators in one pass
(``kernel_rngs``): one running CRC for the seeds, one vectorized
``SeedSequence`` mix for PCG64's state words.  ``rng_for`` stays the
definition of every stream; these tests hold the fast path to it, word for
word and trace for trace (the traces against the per-CTA pattern oracle in
``tests/pattern_oracle.py``).

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.patterns import PATTERNS, make_pattern
from repro.workloads.rng import kernel_rngs, rng_for, seed_state_words, stable_seed
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import ColumnarCTATrace, write_period_from_fraction

from .pattern_oracle import reference_generate

SEEDS_32 = st.integers(min_value=0, max_value=2**32 - 1)


def _reference_words(seeds):
    return np.stack(
        [np.random.SeedSequence(int(seed)).generate_state(4, np.uint64) for seed in seeds]
    )


class TestSeedStateWords:
    def test_edge_seeds(self):
        seeds = [0, 1, 2**31, 2**32 - 1]
        words = seed_state_words(seeds)
        assert words.dtype == np.uint64
        assert words.shape == (4, 4)
        assert np.array_equal(words, _reference_words(seeds))

    @given(st.lists(SEEDS_32, min_size=1, max_size=64))
    def test_matches_seed_sequence(self, seeds):
        assert np.array_equal(seed_state_words(seeds), _reference_words(seeds))


class TestKernelRngs:
    @given(
        name=st.text(max_size=12),
        seed=st.integers(min_value=0, max_value=10**6),
        kernel=st.integers(min_value=0, max_value=64),
        n_ctas=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_draws_equal_rng_for(self, name, seed, kernel, n_ctas, data):
        cta = data.draw(st.integers(min_value=0, max_value=n_ctas - 1))
        fast = kernel_rngs(name, seed, kernel, n_ctas=n_ctas)(cta)
        reference = rng_for(name, seed, kernel, cta)
        assert np.array_equal(fast.integers(0, 2**62, size=8), reference.integers(0, 2**62, size=8))
        assert np.array_equal(fast.random(4), reference.random(4))

    def test_running_crc_is_stable_seed(self):
        # The one-pass seeds are stable_seed's, so the PCG64 states agree.
        get = kernel_rngs("mcm|wl", 7, 2, n_ctas=12)
        for cta in range(12):
            reference = np.random.default_rng(stable_seed("mcm|wl", 7, 2, cta))
            assert get(cta).bit_generator.state == reference.bit_generator.state

    def test_cta_outside_the_kernel_raises(self):
        get = kernel_rngs("w", 0, 0, n_ctas=4)
        for cta in (-1, 4):
            with pytest.raises(IndexError):
                get(cta)


def _spec(pattern: str) -> WorkloadSpec:
    return WorkloadSpec(
        name=f"rng-{pattern}",
        category=Category.M_INTENSIVE,
        pattern=pattern,
        n_ctas=24,
        groups_per_cta=2,
        records_per_group=3,
        accesses_per_record=4,
        kernel_iterations=3,
        footprint_bytes=512 * 1024,
        imbalance=1.5,
        seed=5,
    )


def _reference_trace(spec: WorkloadSpec, kernel_index: int, cta: int) -> ColumnarCTATrace:
    """The trace ``rng_for`` and the per-CTA oracle define, built alone."""
    pattern = spec.build_pattern()
    varies = pattern.kernel_variant or pattern.kernel_indexed
    extra = {"kernel_index": kernel_index} if pattern.kernel_indexed else {}
    total = spec.records_for_cta(cta) * spec.accesses_per_record * spec.groups_per_cta
    lines = reference_generate(
        pattern,
        cta,
        spec.n_ctas,
        total,
        spec.footprint_lines,
        rng_for(spec.name, spec.seed, kernel_index if varies else 0, cta),
        **extra,
    )
    return ColumnarCTATrace.from_flat(
        lines,
        spec.groups_per_cta,
        write_period_from_fraction(spec.write_fraction),
        spec.accesses_per_record,
        spec.compute_per_record,
    )


def test_patterns_cover_every_seeding_flavour():
    patterns = [make_pattern(name) for name in PATTERNS]
    assert any(p.kernel_variant for p in patterns)
    assert any(p.kernel_indexed for p in patterns)
    assert any(not (p.kernel_variant or p.kernel_indexed) for p in patterns)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_workload_traces_equal_rng_for_path(pattern):
    spec = _spec(pattern)
    workload = SyntheticWorkload(spec)
    for kernel_index, launch in enumerate(workload.kernels()):
        # Reverse order: the first miss is the last CTA, not CTA 0.
        for cta in reversed(range(spec.n_ctas)):
            trace = launch.trace_fn(cta)
            expected = _reference_trace(spec, kernel_index, cta)
            assert np.array_equal(trace.addrs, expected.addrs)
            assert trace.spans == expected.spans
