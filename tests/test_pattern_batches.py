"""Batched pattern generation against the per-CTA oracle.

Every pattern generates a batch of CTAs in one call
(``AccessPattern.generate_batch``); ``tests/pattern_oracle.py`` keeps the
per-CTA bodies the batches replaced.  For every registered pattern these
properties draw parameters within the pattern's validators, tiny and large
grids (one and two CTAs included: with two, a stencil CTA's left and right
neighbours coincide), fractions of exactly 0 and near 1 (so per-CTA mask
counts of zero occur), any CTA subset in any order, and kernel indices;
each batch row must equal the oracle's stream element for element.  The
workload-level property adds ragged grids (``imbalance > 0``), whose CTAs
are generated in one batch per access count, and sampled prefetches.

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.patterns import PATTERNS, make_pattern
from repro.workloads.rng import rng_for
from repro.workloads import synthetic
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec

from .pattern_oracle import REFERENCE, reference_generate
from .test_kernel_rngs import _reference_trace


def _fraction(low_open=False, high_closed=False):
    """Fractions with 0 (unless excluded) and values near 1 drawn often."""
    edges = [st.just(0.999)]
    if not low_open:
        edges.append(st.just(0.0))
    if high_closed:
        edges.append(st.just(1.0))
    inner = st.floats(
        min_value=0.0,
        max_value=1.0,
        exclude_min=low_open,
        exclude_max=not high_closed,
        allow_nan=False,
    )
    return st.one_of(*edges, inner)


#: Registry name -> strategy of constructor keywords within its validators.
PARAMS = {
    "streaming": st.fixed_dictionaries({"stride": st.integers(1, 7)}),
    "stencil": st.fixed_dictionaries(
        {"halo_fraction": _fraction(), "halo_lines": st.integers(1, 12)}
    ),
    "irregular": st.fixed_dictionaries(
        {
            "hot_fraction": _fraction(high_closed=True),
            "hot_lines": st.integers(0, 600),
            "local_bias": _fraction(high_closed=True),
        }
    ),
    "hotset": st.fixed_dictionaries(
        {"hot_fraction": _fraction(), "hot_lines": st.integers(1, 300)}
    ),
    "banded": st.fixed_dictionaries(
        {
            "band_fraction": _fraction(),
            "band_width_ctas": st.integers(1, 50),
            "band_lines": st.integers(1, 400),
            "band_skew": st.one_of(st.just(2.0), st.floats(1.0, 5.0)),
        }
    ),
    "global_stride": st.fixed_dictionaries(
        {"stride_ctas": st.integers(1, 4), "shuffle": st.booleans()}
    ),
    "gemm_tile": st.fixed_dictionaries(
        {"k_steps": st.integers(1, 8), "c_fraction": _fraction(low_open=True)}
    ),
    "attention": st.fixed_dictionaries(
        {
            "kv_fraction": _fraction(low_open=True),
            "gather_fraction": _fraction(high_closed=True),
            "recency_skew": st.floats(1.0, 6.0),
            "sink_lines": st.integers(0, 40),
            "sink_fraction": _fraction(high_closed=True),
        }
    ),
    "allreduce": st.fixed_dictionaries({"accum_ratio": _fraction(low_open=True)}),
    "zipfian": st.fixed_dictionaries(
        {"alpha": st.floats(0.05, 2.5), "stream_fraction": _fraction()}
    ),
    "bursty": st.fixed_dictionaries(
        {
            "burst_lines": st.integers(1, 20),
            "hot_fraction": _fraction(high_closed=True),
            "n_hot": st.integers(1, 8),
            "hot_region_lines": st.integers(1, 200),
        }
    ),
}


def test_every_registered_pattern_has_an_oracle_and_parameters():
    assert set(PARAMS) == set(PATTERNS) == set(REFERENCE)


def _cta_sets(n_ctas):
    """One CTA, an unsorted subset, or the whole kernel."""
    return st.one_of(
        st.integers(0, n_ctas - 1).map(lambda cta: [cta]),
        st.lists(st.integers(0, n_ctas - 1), min_size=1, max_size=n_ctas, unique=True),
        st.just(list(range(n_ctas))),
    )


@pytest.mark.parametrize("name", sorted(PATTERNS))
@given(data=st.data())
def test_batch_rows_equal_the_per_cta_oracle(name, data):
    pattern = make_pattern(name, **data.draw(PARAMS[name], label="params"))
    n_ctas = data.draw(st.one_of(st.integers(1, 3), st.integers(1, 80)), label="n_ctas")
    n_accesses = data.draw(st.integers(1, 160), label="n_accesses")
    footprint = data.draw(st.integers(1, 6000), label="footprint_lines")
    ctas = data.draw(_cta_sets(n_ctas), label="ctas")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    extra = {}
    if pattern.kernel_indexed:
        extra["kernel_index"] = data.draw(st.integers(0, 3 * n_ctas), label="kernel_index")

    batch = pattern.generate_batch(
        np.array(ctas, dtype=np.int64),
        n_ctas,
        n_accesses,
        footprint,
        (rng_for(name, seed, cta) for cta in ctas),
        **extra,
    )
    assert batch.dtype == np.int64
    assert batch.shape == (len(ctas), n_accesses)
    for row, cta in zip(batch, ctas):
        expected = reference_generate(
            pattern, cta, n_ctas, n_accesses, footprint, rng_for(name, seed, cta), **extra
        )
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("name", sorted(PATTERNS))
@given(data=st.data())
def test_workload_traces_equal_the_oracle(name, data):
    n_ctas = data.draw(st.integers(1, 40), label="n_ctas")
    spec = WorkloadSpec(
        name=f"batch-{name}",
        category=Category.M_INTENSIVE,
        pattern=name,
        pattern_params=tuple(sorted(data.draw(PARAMS[name], label="params").items())),
        n_ctas=n_ctas,
        groups_per_cta=data.draw(st.integers(1, 3), label="groups"),
        records_per_group=data.draw(st.integers(1, 4), label="records"),
        accesses_per_record=data.draw(st.integers(1, 5), label="accesses_per_record"),
        write_fraction=data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="write_fraction"),
        kernel_iterations=2,
        footprint_bytes=128 * data.draw(st.integers(1, 4000), label="footprint_lines"),
        imbalance=data.draw(st.sampled_from([0.0, 0.7, 2.5]), label="imbalance"),
        seed=data.draw(st.integers(0, 50), label="seed"),
    )
    workload = SyntheticWorkload(spec)
    sample = data.draw(_cta_sets(n_ctas), label="sample")
    for kernel_index, launch in enumerate(workload.kernels()):
        # A sampled prefetch first, then every CTA in reverse order: the
        # first miss builds whatever the sample left out.
        launch.prefetch(sample)
        for cta in reversed(range(n_ctas)):
            trace = launch.trace_fn(cta)
            expected = _reference_trace(spec, kernel_index, cta)
            assert np.array_equal(trace.addrs, expected.addrs)
            assert trace.spans == expected.spans
            assert trace.compute_cycles == expected.compute_cycles


def test_prefetched_traces_count_as_materializations_when_first_handed_out():
    spec = WorkloadSpec(
        name="batch-memo",
        category=Category.M_INTENSIVE,
        pattern="irregular",
        n_ctas=12,
        kernel_iterations=1,
        footprint_bytes=256 * 1024,
    )
    workload = SyntheticWorkload(spec)
    memo = workload._trace_memo
    (launch,) = workload.kernels()
    launch.prefetch([7, 3, 3])
    assert (memo.materializations, memo.reuses) == (0, 0)
    first = launch.trace_fn(3)
    assert (memo.materializations, memo.reuses) == (1, 0)
    assert launch.trace_fn(3) is first
    assert (memo.materializations, memo.reuses) == (1, 1)
    # A miss outside the sample builds the rest of the kernel in one batch;
    # the prefetched CTA 7 is handed out as built, not rebuilt.
    launch.prefetch([7])
    seven = memo._built[(0, 7)]
    launch.trace_fn(0)
    assert len(memo._built) == spec.n_ctas - 2
    assert launch.trace_fn(7) is seven
    assert (memo.materializations, memo.reuses) == (3, 1)
    with pytest.raises(IndexError):
        launch.trace_fn(spec.n_ctas)


def test_only_patterns_that_draw_seed_their_kernels(monkeypatch):
    seeded = []
    seed_kernel = synthetic.kernel_rngs

    def recording(*parts, n_ctas):
        seeded.append(parts[0])
        return seed_kernel(*parts, n_ctas=n_ctas)

    monkeypatch.setattr(synthetic, "kernel_rngs", recording)
    for name in sorted(PATTERNS):
        spec = WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=name,
            n_ctas=8,
            kernel_iterations=1,
            footprint_bytes=256 * 1024,
        )
        (launch,) = SyntheticWorkload(spec).kernels()
        launch.trace_fn(0)
    drawing = set(PATTERNS) - {"streaming", "global_stride", "gemm_tile", "allreduce"}
    assert sorted(seeded) == sorted(drawing)
