"""Unit and property tests for workload access patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.patterns import (
    HotsetPattern,
    IrregularPattern,
    StencilPattern,
    StreamingPattern,
    make_pattern,
)
from repro.workloads.rng import rng_for


def gen(pattern, cta=0, n_ctas=8, n_accesses=64, footprint=1024, seed=("t", 0)):
    return pattern.generate(cta, n_ctas, n_accesses, footprint, rng_for(*seed, cta))


class TestStreaming:
    def test_stays_in_chunk(self):
        pattern = StreamingPattern()
        addrs = gen(pattern, cta=3, n_ctas=8, footprint=800)
        chunk = 800 // 8
        assert addrs.min() >= 3 * chunk
        assert addrs.max() < 4 * chunk

    def test_sequential_with_wrap(self):
        pattern = StreamingPattern()
        addrs = gen(pattern, cta=0, n_ctas=8, n_accesses=250, footprint=800)
        assert addrs[0] == 0
        assert addrs[1] == 1
        assert addrs[100] == 0  # wrapped at chunk length 100

    def test_stride(self):
        pattern = StreamingPattern(stride=3)
        addrs = gen(pattern, cta=0, n_ctas=8, n_accesses=10, footprint=800)
        assert list(addrs[:4]) == [0, 3, 6, 9]

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            StreamingPattern(stride=0)


class TestStencil:
    def test_halo_reaches_neighbor_chunks_only(self):
        pattern = StencilPattern(halo_fraction=0.3, halo_lines=4)
        cta, n_ctas, footprint = 4, 8, 800
        addrs = gen(pattern, cta=cta, n_ctas=n_ctas, n_accesses=200, footprint=footprint)
        chunk = footprint // n_ctas
        own = set(range(cta * chunk, (cta + 1) * chunk))
        left_border = set(range(cta * chunk - 4, cta * chunk))
        right_border = set(range((cta + 1) * chunk, (cta + 1) * chunk + 4))
        allowed = own | left_border | right_border
        assert set(int(a) for a in addrs) <= allowed
        assert any(int(a) not in own for a in addrs)  # some halo present

    def test_deterministic_across_kernels(self):
        """Stencil streams must repeat on kernel re-launch (Figure 12)."""
        pattern = StencilPattern(halo_fraction=0.2)
        assert not pattern.kernel_variant
        a = gen(pattern, seed=("stencil", 0))
        b = gen(pattern, seed=("stencil", 0))
        assert np.array_equal(a, b)

    def test_zero_halo_is_pure_streaming(self):
        pattern = StencilPattern(halo_fraction=0.0)
        addrs = gen(pattern, cta=2, n_ctas=8, footprint=800)
        chunk = 100
        assert addrs.min() >= 2 * chunk
        assert addrs.max() < 3 * chunk

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="halo_fraction"):
            StencilPattern(halo_fraction=1.0)


class TestIrregular:
    def test_covers_footprint(self):
        pattern = IrregularPattern(hot_fraction=0.0)
        addrs = gen(pattern, n_accesses=2000, footprint=100)
        assert addrs.min() >= 0
        assert addrs.max() < 100
        assert len(np.unique(addrs)) > 50

    def test_hot_region_bias(self):
        pattern = IrregularPattern(hot_fraction=0.6, hot_lines=10)
        addrs = gen(pattern, n_accesses=4000, footprint=1000)
        hot = (addrs < 10).mean()
        assert hot > 0.5  # ~0.6 + uniform spill

    def test_kernel_variant(self):
        assert IrregularPattern().kernel_variant


class TestHotset:
    def test_mixes_hot_and_private(self):
        pattern = HotsetPattern(hot_fraction=0.5, hot_lines=16)
        addrs = gen(pattern, cta=1, n_ctas=4, n_accesses=400, footprint=416)
        hot = addrs[addrs < 16]
        cold = addrs[addrs >= 16]
        assert len(hot) > 100
        assert len(cold) > 100
        # Cold accesses stay in this CTA's chunk of the cold region.
        cold_chunk = (416 - 16) // 4
        assert cold.min() >= 16 + cold_chunk
        assert cold.max() < 16 + 2 * cold_chunk

    def test_not_kernel_variant(self):
        assert not HotsetPattern().kernel_variant


class TestRegistry:
    def test_make_pattern_with_params(self):
        pattern = make_pattern("irregular", hot_fraction=0.1, hot_lines=5)
        assert isinstance(pattern, IrregularPattern)
        assert pattern.hot_fraction == 0.1

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_pattern("zigzag")


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["streaming", "stencil", "irregular", "hotset"]),
    cta=st.integers(min_value=0, max_value=15),
    n_accesses=st.integers(min_value=1, max_value=200),
    footprint=st.integers(min_value=64, max_value=4096),
)
def test_patterns_produce_valid_addresses(name, cta, n_accesses, footprint):
    """Property: every pattern yields n in-footprint line addresses."""
    pattern = make_pattern(name)
    addrs = pattern.generate(cta, 16, n_accesses, footprint, rng_for(name, cta))
    assert len(addrs) == n_accesses
    assert addrs.min() >= 0
    assert addrs.max() < footprint


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["streaming", "stencil", "hotset"]),
    cta=st.integers(min_value=0, max_value=7),
)
def test_non_variant_patterns_are_reproducible(name, cta):
    """Property: same seed -> identical stream (cross-kernel locality)."""
    pattern = make_pattern(name)
    a = pattern.generate(cta, 8, 100, 2048, rng_for("x", cta))
    b = pattern.generate(cta, 8, 100, 2048, rng_for("x", cta))
    assert np.array_equal(a, b)
