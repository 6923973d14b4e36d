"""Memory access-pattern generators for the synthetic workload suite.

Each pattern produces the flat sequence of line addresses a CTA's warp
groups will touch, for a whole batch of CTAs at once.  The patterns model
the application classes named in the paper's evaluation:

* :class:`StreamingPattern` — bulk sequential sweeps (Stream triad,
  NN-Conv activations, Srad): each CTA owns a contiguous chunk.
* :class:`StencilPattern` — iterative nearest-neighbor solvers (Lulesh,
  MiniAMR, CFD, CoMD, Nekbone): chunked like streaming plus halo accesses
  into neighboring CTAs' chunks, identical across kernel re-launches.
* :class:`IrregularPattern` — graph workloads (BFS, SSSP, MST): uniform
  random over the footprint with an optional hot vertex region.
* :class:`HotsetPattern` — clustering/reduction workloads (Kmeans): a
  small shared hot region (centroids) plus a private streaming sweep.

Post-2017 ML-era families extend the suite beyond the paper's evaluation:

* :class:`GemmTilePattern` — blocked GEMM: output-tile CTAs sweep shared
  A-row and B-column panels per k-step (dense cross-CTA reuse).
* :class:`AttentionPattern` — attention-style gather: causal
  recency-skewed reads of a shared KV region plus sink tokens.
* :class:`AllReducePattern` — ring allreduce: each kernel launch is one
  ring phase, every CTA pulling a *different* peer shard per phase
  (``kernel_indexed`` — the stream is a function of the kernel index).
* :class:`ZipfianPattern` — Zipf-distributed table lookups (embedding
  gathers), hot entries scattered across the address space.
* :class:`BurstyPattern` — short dense runs at hot bases (MoE expert
  dispatch, KV-block paging).

Every pattern has one generator, :meth:`AccessPattern.generate_batch`: it
takes any set of CTAs with equal access counts, draws from each CTA's own
generator exactly what that CTA's stream needs (in the same order whatever
the batch), and does everything else — chunk bounds, sweeps, masks,
per-CTA counts, skews and scatters — once for the whole batch as 2-D
numpy.  A CTA's stream is therefore the same in any batch, and
:meth:`AccessPattern.generate` is only that batch for one CTA.  Patterns
that draw nothing never iterate ``rngs``, so no generator is built for
them.

Whether a pattern re-rolls its addresses on every kernel launch is part of
its semantics (``kernel_variant``): solvers re-touch the same data each
iteration; graph frontiers move.  Patterns whose stream is a
*deterministic* function of the launch position instead declare
``kernel_indexed`` and receive the kernel index as an argument.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Tuple

import numpy as np


class AccessPattern(ABC):
    """Produces per-CTA line-address sequences, a batch of CTAs at a time."""

    #: When True the address stream differs between kernel launches
    #: (the generator RNG is seeded with the kernel index as well).
    kernel_variant = False

    #: When True, :meth:`generate_batch` accepts a ``kernel_index`` keyword
    #: and the stream is a deterministic function of it (phase-structured
    #: algorithms like ring allreduce).  Distinct from ``kernel_variant``:
    #: an indexed pattern replayed at the same index reproduces the same
    #: stream, so trace memoization still applies per launch position.
    kernel_indexed = False

    @abstractmethod
    def generate_batch(
        self,
        ctas: np.ndarray,
        n_ctas: int,
        n_accesses: int,
        footprint_lines: int,
        rngs: Iterable["np.random.Generator"],
    ) -> np.ndarray:
        """Line addresses of ``ctas``: an int64 ``(len(ctas), n_accesses)`` array.

        ``ctas`` is an int64 array of CTA indices of an ``n_ctas``-CTA
        kernel, in any order; row ``i`` is CTA ``ctas[i]``'s stream, so
        the array in C order is the batch's concatenated stream.  ``rngs``
        yields each CTA's generator in ``ctas`` order; a pattern iterates
        it at most once, and only if it draws.
        """

    def generate(
        self,
        cta_index: int,
        n_ctas: int,
        n_accesses: int,
        footprint_lines: int,
        rng: "np.random.Generator",
        **kwargs: int,
    ) -> np.ndarray:
        """One CTA's line addresses: :meth:`generate_batch` over a batch of one."""
        ctas = np.array([cta_index], dtype=np.int64)
        return self.generate_batch(
            ctas, n_ctas, n_accesses, footprint_lines, [rng], **kwargs
        )[0]


#: Registry for configuration-by-name.  Populated by
#: :func:`register_pattern` at class-definition time, so a new family is
#: registered (and appears in ``make_pattern`` error listings, spec
#: validation, and reports) the moment its class is decorated — there is
#: no second list to update.
PATTERNS: Dict[str, type] = {}


def register_pattern(name: str):
    """Class decorator adding an :class:`AccessPattern` to the registry."""

    def wrap(pattern_cls: type) -> type:
        if name in PATTERNS:
            raise ValueError(f"pattern name {name!r} is already registered")
        PATTERNS[name] = pattern_cls
        pattern_cls.pattern_name = name
        return pattern_cls

    return wrap


def _chunk_bounds(
    ctas: np.ndarray, n_ctas: int, footprint_lines: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Start and length of the footprint slice each of ``ctas`` owns.

    Uses the same balanced split as the distributed scheduler so chunk and
    CTA-batch boundaries align the way real block-partitioned kernels do.
    Lengths are at least one line.
    """
    base, extra = divmod(footprint_lines, n_ctas)
    starts = ctas * base + np.minimum(ctas, extra)
    return starts, np.maximum(1, base + (ctas < extra))


def _sweep(starts: np.ndarray, lengths: np.ndarray, n_accesses: int) -> np.ndarray:
    """Row ``i`` walks its chunk from ``starts[i]``, wrapping every ``lengths[i]``."""
    return starts[:, None] + np.arange(n_accesses, dtype=np.int64) % lengths[:, None]


def _uniforms(rngs: List["np.random.Generator"], n: int) -> np.ndarray:
    """Row ``i`` holds the next ``n`` uniforms of ``rngs[i]``."""
    out = np.empty((len(rngs), n))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


def _row_counts(mask: np.ndarray) -> List[int]:
    """True entries per row of a 2-D mask."""
    return np.count_nonzero(mask, axis=1).tolist()


def _uniforms_each(rngs, counts: List[int]) -> np.ndarray:
    """``rngs[i].random(counts[i])`` concatenated, skipping empty draws."""
    parts = [rng.random(count) for rng, count in zip(rngs, counts) if count]
    return np.concatenate(parts) if parts else np.empty(0)


def _integers_each(rngs, counts: List[int], high) -> np.ndarray:
    """``rngs[i].integers(0, high, size=counts[i])`` concatenated, skipping empty draws.

    ``high`` is one bound for every CTA or a list of per-CTA bounds.
    """
    highs = high if isinstance(high, list) else [high] * len(counts)
    parts = [
        rng.integers(0, bound, size=count, dtype=np.int64)
        for rng, bound, count in zip(rngs, highs, counts)
        if count
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


@register_pattern("streaming")
class StreamingPattern(AccessPattern):
    """Sequential sweep over the CTA's private chunk, wrapping on overflow."""

    def __init__(self, stride: int = 1) -> None:
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.stride = stride

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        starts, lengths = _chunk_bounds(ctas, n_ctas, footprint_lines)
        offsets = np.arange(n_accesses, dtype=np.int64) * self.stride
        return starts[:, None] + offsets % lengths[:, None]


@register_pattern("stencil")
class StencilPattern(AccessPattern):
    """Chunked sweep plus halo exchanges with neighboring CTAs' chunks.

    ``halo_fraction`` of accesses read the border region of the previous or
    next CTA's chunk — the inter-CTA spatial locality that distributed
    scheduling converts into GPM-local sharing (Section 5.2).  The stream
    is a pure function of the CTA index, so re-launched kernels touch the
    same lines (Figure 12).
    """

    kernel_variant = False

    def __init__(self, halo_fraction: float = 0.15, halo_lines: int = 8) -> None:
        if not 0.0 <= halo_fraction < 1.0:
            raise ValueError(f"halo_fraction must be in [0, 1), got {halo_fraction}")
        self.halo_fraction = halo_fraction
        self.halo_lines = halo_lines

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        addrs = _sweep(*_chunk_bounds(ctas, n_ctas, footprint_lines), n_accesses)
        n_halo = int(n_accesses * self.halo_fraction)
        if n_halo and n_ctas > 1:
            rngs = list(rngs)
            positions = np.empty((len(rngs), n_halo), dtype=np.int64)
            coins = np.empty((len(rngs), n_halo))
            for rng, row, coin in zip(rngs, positions, coins):
                row[:] = rng.choice(n_accesses, size=n_halo, replace=False)
                rng.random(out=coin)
            # Each halo access reads the border of the previous or the next
            # CTA's chunk, the one facing this CTA; with two CTAs both are
            # the same chunk, read from its end.
            left = coins < 0.5
            if n_ctas == 2:
                left[:] = True
            left_start, left_len = _chunk_bounds((ctas - 1) % n_ctas, n_ctas, footprint_lines)
            right_start, right_len = _chunk_bounds((ctas + 1) % n_ctas, n_ctas, footprint_lines)
            depths = np.where(
                left,
                np.minimum(self.halo_lines, left_len)[:, None],
                np.minimum(self.halo_lines, right_len)[:, None],
            )
            # One bounded draw per halo access, in access order.
            depth_draws = np.stack(
                [rng.integers(0, depth) for rng, depth in zip(rngs, depths)]
            )
            halo = np.where(
                left,
                (left_start + left_len - 1)[:, None] - depth_draws,
                right_start[:, None] + depth_draws,
            )
            np.put_along_axis(addrs, positions, halo, axis=1)
        return addrs


@register_pattern("irregular")
class IrregularPattern(AccessPattern):
    """Uniform random accesses with an optional hot (high-degree) region.

    Models graph traversals: ``hot_fraction`` of accesses hit the first
    ``hot_lines`` of the footprint (high-degree vertices); of the rest,
    ``local_bias`` are drawn from the CTA's own partition of the vertex
    array (community structure — graph partitioners place most of a
    block's neighbors in the same block) and the remainder are uniform
    over the whole footprint.  The frontier moves between kernel launches,
    so the stream is re-rolled per kernel (``kernel_variant``).
    """

    kernel_variant = True

    def __init__(
        self,
        hot_fraction: float = 0.3,
        hot_lines: int = 512,
        local_bias: float = 0.0,
    ) -> None:
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if not 0.0 <= local_bias <= 1.0:
            raise ValueError(f"local_bias must be in [0, 1], got {local_bias}")
        self.hot_fraction = hot_fraction
        self.hot_lines = hot_lines
        self.local_bias = local_bias

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        hot_lines = min(self.hot_lines, footprint_lines)
        addrs = np.stack(
            [
                rng.integers(0, footprint_lines, size=n_accesses, dtype=np.int64)
                for rng in rngs
            ]
        )
        if self.local_bias:
            starts, lengths = _chunk_bounds(ctas, n_ctas, footprint_lines)
            local_mask = _uniforms(rngs, n_accesses) < self.local_bias
            counts = _row_counts(local_mask)
            addrs[local_mask] = np.repeat(starts, counts) + _integers_each(
                rngs, counts, lengths.tolist()
            )
        if hot_lines and self.hot_fraction:
            hot_mask = _uniforms(rngs, n_accesses) < self.hot_fraction
            addrs[hot_mask] = _integers_each(rngs, _row_counts(hot_mask), hot_lines)
        return addrs


@register_pattern("hotset")
class HotsetPattern(AccessPattern):
    """Shared hot region plus a private streaming sweep.

    The first ``hot_lines`` of the footprint are shared by all CTAs
    (centroids, lookup tables); the remainder is chunk-partitioned and
    swept sequentially.  The private sweep is deterministic per CTA so
    iterative kernels (kmeans steps) re-touch the same points.
    """

    kernel_variant = False

    def __init__(self, hot_fraction: float = 0.4, hot_lines: int = 256) -> None:
        if not 0.0 <= hot_fraction < 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1), got {hot_fraction}")
        self.hot_fraction = hot_fraction
        self.hot_lines = hot_lines

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        hot_lines = min(self.hot_lines, max(1, footprint_lines - n_ctas))
        cold_lines = footprint_lines - hot_lines
        addrs = hot_lines + _sweep(*_chunk_bounds(ctas, n_ctas, cold_lines), n_accesses)
        hot_mask = _uniforms(rngs, n_accesses) < self.hot_fraction
        addrs[hot_mask] = _integers_each(rngs, _row_counts(hot_mask), hot_lines)
        return addrs


@register_pattern("banded")
class BandedPattern(AccessPattern):
    """Private streaming plus a band region shared by contiguous CTAs.

    Models block-decomposed solvers (Lulesh, AMG, Nekbone, Srad rows):
    every CTA sweeps its private chunk, and a ``band_fraction`` of its
    accesses hit a *band* — data shared by the ``band_width_ctas``
    contiguous CTAs of its block (boundary planes, coarse-grid rows,
    shared operators).  Contiguous CTAs therefore reuse each other's band
    lines densely and continuously.

    This is precisely the inter-CTA locality distributed scheduling
    converts into GPM-local traffic (Section 5.2): under the distributed
    scheduler one GPM hosts whole bands and its L1.5 holds a few band
    working sets; under the centralized scheduler every GPM touches every
    active band and no cache can hold them all.

    The stream is a pure function of the CTA index (``kernel_variant`` is
    False), so iterative solvers re-touch the same lines each launch.
    """

    kernel_variant = False

    def __init__(
        self,
        band_fraction: float = 0.35,
        band_width_ctas: int = 128,
        band_lines: int = 320,
        band_skew: float = 2.0,
    ) -> None:
        if not 0.0 <= band_fraction < 1.0:
            raise ValueError(f"band_fraction must be in [0, 1), got {band_fraction}")
        if band_width_ctas <= 0:
            raise ValueError(f"band_width_ctas must be positive, got {band_width_ctas}")
        if band_lines <= 0:
            raise ValueError(f"band_lines must be positive, got {band_lines}")
        if band_skew < 1.0:
            raise ValueError(f"band_skew must be >= 1, got {band_skew}")
        self.band_fraction = band_fraction
        self.band_width_ctas = band_width_ctas
        self.band_lines = band_lines
        #: Concentration of band accesses toward the front of the band
        #: (``u**skew`` sampling): boundary planes are touched far more
        #: often than deep halo layers, so a cache that holds only the hot
        #: front still captures most band traffic.
        self.band_skew = band_skew

    def band_of_cta(self, cta_index: int) -> int:
        """Band index the CTA belongs to."""
        return cta_index // self.band_width_ctas

    def _layout(self, n_ctas: int, footprint_lines: int):
        """Split the footprint into band region (front) and private region."""
        n_bands = -(-n_ctas // self.band_width_ctas)
        # Cap bands at half the footprint so private chunks stay non-empty.
        band_lines = min(self.band_lines, max(1, footprint_lines // (2 * n_bands)))
        return n_bands, band_lines, n_bands * band_lines

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        n_bands, band_lines, band_region = self._layout(n_ctas, footprint_lines)
        private_lines = footprint_lines - band_region
        addrs = band_region + _sweep(
            *_chunk_bounds(ctas, n_ctas, private_lines), n_accesses
        )
        band_mask = _uniforms(rngs, n_accesses) < self.band_fraction
        counts = _row_counts(band_mask)
        band_bases = self.band_of_cta(ctas) % n_bands * band_lines
        offsets = (_uniforms_each(rngs, counts) ** self.band_skew * band_lines).astype(np.int64)
        addrs[band_mask] = np.repeat(band_bases, counts) + offsets
        return addrs


@register_pattern("global_stride")
class GlobalStridePattern(AccessPattern):
    """CTA-interleaved global sweep: CTA ``i`` touches lines i, i+N, i+2N...

    Models transposed/column-major passes (the second pass of a 2-D DWT,
    gather phases of reordering kernels): every page is shared by many
    CTAs, yet no two CTAs ever touch the *same line*.  This is the
    pathological case for all three MCM-GPU optimizations — first-touch
    placement cannot localize shared pages, and there is no reuse for the
    L1.5 to capture, so its lookup latency is pure overhead.  The paper's
    DWT (up to -14.6% on the optimized design) behaves this way.
    """

    kernel_variant = False

    #: Large prime used to shuffle CTA indices onto lanes, so CTAs that are
    #: contiguous in index space (and therefore co-scheduled by the
    #: distributed scheduler) do NOT own contiguous lanes — the page-level
    #: sharing is with far-away CTAs, exactly what defeats first-touch.
    LANE_SHUFFLE_PRIME = 7919

    def __init__(self, stride_ctas: int = 1, shuffle: bool = True) -> None:
        if stride_ctas <= 0:
            raise ValueError(f"stride_ctas must be positive, got {stride_ctas}")
        self.stride_ctas = stride_ctas
        self.shuffle = shuffle

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        lanes = ctas
        if self.shuffle:
            lanes = (ctas * self.LANE_SHUFFLE_PRIME) % n_ctas
        step = n_ctas * self.stride_ctas
        offsets = np.arange(n_accesses, dtype=np.int64) * step + lanes[:, None]
        return offsets % footprint_lines


@register_pattern("gemm_tile")
class GemmTilePattern(AccessPattern):
    """Blocked GEMM (C = A·B) with output-tile CTAs and panel reuse.

    The footprint is laid out as [A panels | B panels | C tiles].  CTAs
    form a near-square 2-D grid over C: CTA ``(r, c)`` sweeps A panel
    ``r`` and B panel ``c`` once per k-step and finishes with its private
    C tile.  Every CTA in grid row ``r`` re-reads the same A panel and
    every CTA in grid column ``c`` the same B panel — the dense
    cross-CTA reuse that tiling exists to create.  Row-mates are
    contiguous in CTA index (co-scheduled onto one GPM by the distributed
    scheduler), so A-panel reuse turns GPM-local, while column-mates are
    spread across the grid and keep B panels inter-GPM: GEMM stresses
    both sides of the MCM locality story at once.

    The stream is a pure function of the CTA index (training steps
    re-touch the same operand layout), so iterative kernels hit the trace
    memo and the L1.5 sees genuine cross-kernel reuse.
    """

    kernel_variant = False

    def __init__(self, k_steps: int = 4, c_fraction: float = 0.2) -> None:
        if k_steps <= 0:
            raise ValueError(f"k_steps must be positive, got {k_steps}")
        if not 0.0 < c_fraction < 1.0:
            raise ValueError(f"c_fraction must be in (0, 1), got {c_fraction}")
        self.k_steps = k_steps
        self.c_fraction = c_fraction

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        grid_cols = max(1, int(math.isqrt(n_ctas)))
        grid_rows = -(-n_ctas // grid_cols)
        rows, cols = np.divmod(ctas, grid_cols)
        c_lines = max(1, int(footprint_lines * self.c_fraction))
        panel_lines = max(1, (footprint_lines - c_lines) // 2)
        a_base, b_base = 0, panel_lines
        c_base = min(2 * panel_lines, footprint_lines - 1)
        c_lines = footprint_lines - c_base
        a_start, a_len = _chunk_bounds(rows % grid_rows, grid_rows, panel_lines)
        b_start, b_len = _chunk_bounds(cols % grid_cols, grid_cols, panel_lines)
        c_start, c_len = _chunk_bounds(ctas, n_ctas, c_lines)
        n_c = max(1, int(n_accesses * self.c_fraction))
        n_panels = n_accesses - n_c
        per_step = max(1, n_panels // (2 * self.k_steps))
        # The panel accesses come first, in slices of ``per_step``: k-step
        # ``s`` reads slice ``2s`` from A and ``2s + 1`` from B.  Each
        # k-step walks the next slice of the panel; slices wrap, so small
        # panels are simply re-swept (reuse).  The private C tile sweep
        # takes the rest.
        produced = min(n_panels, 2 * self.k_steps * per_step)
        position = np.arange(n_accesses, dtype=np.int64)
        slices = position // per_step
        offsets = position - slices * per_step + slices // 2 * per_step
        panel_addrs = np.where(
            slices % 2 == 1,
            b_base + b_start[:, None] + offsets % b_len[:, None],
            a_base + a_start[:, None] + offsets % a_len[:, None],
        )
        tile_addrs = c_base + c_start[:, None] + (position - produced) % c_len[:, None]
        return np.where(position < produced, panel_addrs, tile_addrs) % footprint_lines


@register_pattern("attention")
class AttentionPattern(AccessPattern):
    """Causal attention gather over a shared KV region.

    The front ``kv_fraction`` of the footprint is the KV cache shared by
    all CTAs; the rest is chunk-partitioned query/output state.  Each CTA
    (a query block at sequence position ``cta_index / n_ctas``) spends
    ``gather_fraction`` of its accesses gathering keys/values from its
    *causal prefix* of the KV region with a recency skew (softmax mass
    concentrates on recent tokens) plus a small always-hot sink at the
    front (attention-sink tokens).  The remaining accesses sweep the
    CTA's private chunk sequentially.

    Decode steps shift the attended positions, so the stream re-rolls per
    kernel launch (``kernel_variant``).
    """

    kernel_variant = True

    def __init__(
        self,
        kv_fraction: float = 0.5,
        gather_fraction: float = 0.6,
        recency_skew: float = 3.0,
        sink_lines: int = 16,
        sink_fraction: float = 0.1,
    ) -> None:
        if not 0.0 < kv_fraction < 1.0:
            raise ValueError(f"kv_fraction must be in (0, 1), got {kv_fraction}")
        if not 0.0 <= gather_fraction <= 1.0:
            raise ValueError(
                f"gather_fraction must be in [0, 1], got {gather_fraction}"
            )
        if recency_skew < 1.0:
            raise ValueError(f"recency_skew must be >= 1, got {recency_skew}")
        if sink_lines < 0:
            raise ValueError(f"sink_lines must be non-negative, got {sink_lines}")
        if not 0.0 <= sink_fraction <= 1.0:
            raise ValueError(f"sink_fraction must be in [0, 1], got {sink_fraction}")
        self.kv_fraction = kv_fraction
        self.gather_fraction = gather_fraction
        self.recency_skew = recency_skew
        self.sink_lines = sink_lines
        self.sink_fraction = sink_fraction

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        kv_lines = max(1, int(footprint_lines * self.kv_fraction))
        private_lines = max(1, footprint_lines - kv_lines)
        addrs = kv_lines + _sweep(
            *_chunk_bounds(ctas, n_ctas, private_lines), n_accesses
        )
        gather_mask = _uniforms(rngs, n_accesses) < self.gather_fraction
        counts = _row_counts(gather_mask)
        # Causal prefix: query block i attends to keys [0, prefix).
        prefixes = np.maximum(1, (kv_lines * (ctas + 1)) // n_ctas)
        recency = (1.0 - _uniforms_each(rngs, counts) ** self.recency_skew) * np.repeat(
            prefixes, counts
        )
        gathered = recency.astype(np.int64)
        sinks = min(self.sink_lines, kv_lines)
        if sinks and self.sink_fraction:
            sink_mask = _uniforms_each(rngs, counts) < self.sink_fraction
            sinking = np.zeros_like(gather_mask)
            sinking[gather_mask] = sink_mask
            gathered[sink_mask] = _integers_each(rngs, _row_counts(sinking), sinks)
        addrs[gather_mask] = gathered
        return addrs % footprint_lines


@register_pattern("allreduce")
class AllReducePattern(AccessPattern):
    """Ring allreduce: one kernel launch per ring phase.

    The footprint is sharded into ``n_ctas`` gradient chunks.  In phase
    ``p`` (the kernel index), CTA ``i`` pulls the shard of ring peer
    ``(i - p - 1) mod n_ctas`` and accumulates into its own shard — the
    textbook reduce-scatter schedule where the peer *changes every
    phase*, producing structured all-to-all traffic that no static page
    placement can localize.  Accesses alternate peer-shard reads with
    own-shard read-modify-writes in ``accum_ratio`` proportion.

    The stream is a deterministic function of ``(cta_index,
    kernel_index)`` (``kernel_indexed``): replaying a phase reproduces it
    exactly, so memoization and export both remain per-launch stable.
    """

    kernel_indexed = True

    def __init__(self, accum_ratio: float = 0.5) -> None:
        if not 0.0 < accum_ratio < 1.0:
            raise ValueError(f"accum_ratio must be in (0, 1), got {accum_ratio}")
        self.accum_ratio = accum_ratio

    def generate_batch(
        self, ctas, n_ctas, n_accesses, footprint_lines, rngs, kernel_index=0
    ):
        own_start, own_len = _chunk_bounds(ctas, n_ctas, footprint_lines)
        peers = (ctas - kernel_index - 1) % n_ctas
        remote_start, remote_len = _chunk_bounds(peers, n_ctas, footprint_lines)
        n_own = max(1, int(n_accesses * self.accum_ratio))
        n_remote = n_accesses - n_own
        # Interleave so peer pulls and local accumulation overlap in time
        # the way a fused reduce kernel issues them: paired positions
        # alternate a peer-shard read (even) with an own-shard access
        # (odd), and the longer sweep finishes alone.
        paired = 2 * min(n_own, n_remote)
        position = np.arange(n_accesses, dtype=np.int64)
        index = np.where(position < paired, position // 2, position - paired // 2)
        remote = np.where(position < paired, position % 2 == 0, n_remote > n_own)
        addrs = np.where(
            remote,
            remote_start[:, None] + index % remote_len[:, None],
            own_start[:, None] + index % own_len[:, None],
        )
        return addrs % footprint_lines


@register_pattern("zipfian")
class ZipfianPattern(AccessPattern):
    """Zipf-distributed lookups over the footprint (embedding gathers).

    Rank ``k`` is drawn with probability proportional to
    ``1 / (k + 1)**alpha`` and mapped to a line via a fixed coprime
    multiplicative scatter, so the hot entries are spread across the
    address space (hash-sharded embedding tables) rather than packed into
    one page run.  A ``stream_fraction`` of accesses sweep the CTA's
    private chunk instead, modeling the dense MLP side of a
    recommendation model.  Batches change every step, so the stream
    re-rolls per kernel launch.
    """

    kernel_variant = True

    #: Knuth's multiplicative-hash constant; made coprime to the footprint
    #: at sample time so the rank→line scatter is a bijection.
    SCATTER_MULTIPLIER = 2654435761

    def __init__(self, alpha: float = 0.9, stream_fraction: float = 0.2) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= stream_fraction < 1.0:
            raise ValueError(f"stream_fraction must be in [0, 1), got {stream_fraction}")
        self.alpha = alpha
        self.stream_fraction = stream_fraction
        self._cdf_cache: Dict[int, np.ndarray] = {}

    def _cdf(self, footprint_lines: int) -> np.ndarray:
        cdf = self._cdf_cache.get(footprint_lines)
        if cdf is None:
            weights = 1.0 / np.power(
                np.arange(1, footprint_lines + 1, dtype=np.float64), self.alpha
            )
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._cdf_cache[footprint_lines] = cdf
        return cdf

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        ranks = np.searchsorted(
            self._cdf(footprint_lines), _uniforms(rngs, n_accesses), side="left"
        ).astype(np.int64)
        multiplier = self.SCATTER_MULTIPLIER % footprint_lines
        while multiplier < 1 or math.gcd(multiplier, footprint_lines) != 1:
            multiplier += 1
        addrs = (ranks * multiplier) % footprint_lines
        if self.stream_fraction:
            # The k-th streamed access of a CTA reads line k of its chunk.
            stream_mask = _uniforms(rngs, n_accesses) < self.stream_fraction
            starts, lengths = _chunk_bounds(ctas, n_ctas, footprint_lines)
            sweep = np.cumsum(stream_mask, axis=1) - 1
            addrs[stream_mask] = (starts[:, None] + sweep % lengths[:, None])[stream_mask]
        return addrs % footprint_lines


@register_pattern("bursty")
class BurstyPattern(AccessPattern):
    """Short dense runs at hot bases (MoE expert dispatch, paged KV).

    Accesses arrive as sequential bursts of ``burst_lines``; each burst's
    base is drawn from one of ``n_hot`` hot regions (popular experts /
    resident KV blocks, evenly spaced through the footprint) with
    probability ``hot_fraction``, uniform elsewhere otherwise.  Token
    routing changes per step, so the stream re-rolls per kernel launch.
    """

    kernel_variant = True

    def __init__(
        self,
        burst_lines: int = 16,
        hot_fraction: float = 0.7,
        n_hot: int = 4,
        hot_region_lines: int = 128,
    ) -> None:
        if burst_lines <= 0:
            raise ValueError(f"burst_lines must be positive, got {burst_lines}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if n_hot <= 0:
            raise ValueError(f"n_hot must be positive, got {n_hot}")
        if hot_region_lines <= 0:
            raise ValueError(f"hot_region_lines must be positive, got {hot_region_lines}")
        self.burst_lines = burst_lines
        self.hot_fraction = hot_fraction
        self.n_hot = n_hot
        self.hot_region_lines = hot_region_lines

    def generate_batch(self, ctas, n_ctas, n_accesses, footprint_lines, rngs):
        rngs = list(rngs)
        n_bursts = -(-n_accesses // self.burst_lines)
        bases = np.stack(
            [rng.integers(0, footprint_lines, size=n_bursts, dtype=np.int64) for rng in rngs]
        )
        hot_mask = _uniforms(rngs, n_bursts) < self.hot_fraction
        counts = _row_counts(hot_mask)
        region = min(self.hot_region_lines, max(1, footprint_lines // self.n_hot))
        spacing = max(1, footprint_lines // self.n_hot)
        starts = (_integers_each(rngs, counts, self.n_hot) * spacing) % footprint_lines
        bases[hot_mask] = starts + _integers_each(rngs, counts, region)
        runs = bases[:, :, None] + np.arange(self.burst_lines, dtype=np.int64)
        return runs.reshape(len(rngs), -1)[:, :n_accesses] % footprint_lines


def make_pattern(name: str, **params: object) -> AccessPattern:
    """Instantiate a pattern from its registry name and parameters."""
    try:
        pattern_cls = PATTERNS[name]
    except KeyError:
        known = ", ".join(sorted(PATTERNS))
        raise ValueError(f"unknown pattern {name!r}; expected one of: {known}")
    return pattern_cls(**params)
