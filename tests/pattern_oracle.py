"""Per-CTA reference generators: the oracle for the batched patterns.

Each function is one built-in pattern's single-CTA ``generate`` body from
before patterns generated CTA batches, kept verbatim (``self`` is the
pattern instance, which supplies its parameters and helpers such as
``BandedPattern._layout`` and ``ZipfianPattern._cdf``).  The batched
``generate_batch`` of every pattern must reproduce these streams element
for element, drawing from each CTA's generator in the same order;
:func:`reference_generate` dispatches by registry name.
"""

import math

import numpy as np


def _chunk_bounds(cta_index: int, n_ctas: int, footprint_lines: int) -> range:
    """Contiguous slice of the footprint owned by ``cta_index``.

    Uses the same balanced split as the distributed scheduler so chunk and
    CTA-batch boundaries align the way real block-partitioned kernels do.
    """
    base, extra = divmod(footprint_lines, n_ctas)
    start = cta_index * base + min(cta_index, extra)
    count = base + (1 if cta_index < extra else 0)
    return range(start, start + max(1, count))


def streaming(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    chunk = _chunk_bounds(cta_index, n_ctas, footprint_lines)
    chunk_len = len(chunk)
    offsets = (np.arange(n_accesses, dtype=np.int64) * self.stride) % chunk_len
    return chunk.start + offsets


def stencil(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    chunk = _chunk_bounds(cta_index, n_ctas, footprint_lines)
    chunk_len = len(chunk)
    addrs = chunk.start + (np.arange(n_accesses, dtype=np.int64) % chunk_len)
    n_halo = int(n_accesses * self.halo_fraction)
    if n_halo and n_ctas > 1:
        positions = rng.choice(n_accesses, size=n_halo, replace=False)
        neighbors = np.where(
            rng.random(n_halo) < 0.5,
            (cta_index - 1) % n_ctas,
            (cta_index + 1) % n_ctas,
        )
        halo_addrs = np.empty(n_halo, dtype=np.int64)
        for i, neighbor in enumerate(neighbors):
            nb_chunk = _chunk_bounds(int(neighbor), n_ctas, footprint_lines)
            # Border of the neighbor chunk facing this CTA.
            depth = min(self.halo_lines, len(nb_chunk))
            if neighbor == (cta_index - 1) % n_ctas:
                halo_addrs[i] = nb_chunk.stop - 1 - rng.integers(depth)
            else:
                halo_addrs[i] = nb_chunk.start + rng.integers(depth)
        addrs[positions] = halo_addrs
    return addrs


def irregular(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    hot_lines = min(self.hot_lines, footprint_lines)
    addrs = rng.integers(0, footprint_lines, size=n_accesses, dtype=np.int64)
    if self.local_bias:
        chunk = _chunk_bounds(cta_index, n_ctas, footprint_lines)
        local_mask = rng.random(n_accesses) < self.local_bias
        n_local = int(np.count_nonzero(local_mask))
        if n_local:
            addrs[local_mask] = chunk.start + rng.integers(
                0, len(chunk), size=n_local, dtype=np.int64
            )
    if hot_lines and self.hot_fraction:
        hot_mask = rng.random(n_accesses) < self.hot_fraction
        n_hot = int(np.count_nonzero(hot_mask))
        addrs[hot_mask] = rng.integers(0, hot_lines, size=n_hot, dtype=np.int64)
    return addrs


def hotset(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    hot_lines = min(self.hot_lines, max(1, footprint_lines - n_ctas))
    cold_lines = footprint_lines - hot_lines
    chunk = _chunk_bounds(cta_index, n_ctas, cold_lines)
    chunk_len = len(chunk)
    addrs = hot_lines + chunk.start + (np.arange(n_accesses, dtype=np.int64) % chunk_len)
    hot_mask = rng.random(n_accesses) < self.hot_fraction
    n_hot = int(np.count_nonzero(hot_mask))
    if n_hot:
        addrs[hot_mask] = rng.integers(0, hot_lines, size=n_hot, dtype=np.int64)
    return addrs


def banded(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    n_bands, band_lines, band_region = self._layout(n_ctas, footprint_lines)
    private_lines = footprint_lines - band_region
    chunk = _chunk_bounds(cta_index, n_ctas, private_lines)
    chunk_len = len(chunk)
    addrs = band_region + chunk.start + (
        np.arange(n_accesses, dtype=np.int64) % chunk_len
    )
    band_mask = rng.random(n_accesses) < self.band_fraction
    n_band = int(np.count_nonzero(band_mask))
    if n_band:
        band_base = self.band_of_cta(cta_index) % n_bands * band_lines
        offsets = (rng.random(n_band) ** self.band_skew * band_lines).astype(np.int64)
        addrs[band_mask] = band_base + offsets
    return addrs


def global_stride(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    lane = cta_index
    if self.shuffle:
        lane = (cta_index * self.LANE_SHUFFLE_PRIME) % n_ctas
    step = n_ctas * self.stride_ctas
    offsets = np.arange(n_accesses, dtype=np.int64) * step + lane
    return offsets % footprint_lines


def gemm_tile(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    grid_cols = max(1, int(math.isqrt(n_ctas)))
    grid_rows = -(-n_ctas // grid_cols)
    row, col = divmod(cta_index, grid_cols)
    c_lines = max(1, int(footprint_lines * self.c_fraction))
    panel_lines = max(1, (footprint_lines - c_lines) // 2)
    a_base, b_base = 0, panel_lines
    c_base = min(2 * panel_lines, footprint_lines - 1)
    c_lines = footprint_lines - c_base
    a_panel = _chunk_bounds(row % grid_rows, grid_rows, panel_lines)
    b_panel = _chunk_bounds(col % grid_cols, grid_cols, panel_lines)
    c_tile = _chunk_bounds(cta_index, n_ctas, c_lines)
    n_c = max(1, int(n_accesses * self.c_fraction))
    n_panels = n_accesses - n_c
    per_step = max(1, n_panels // (2 * self.k_steps))
    parts = []
    produced = 0
    for step in range(self.k_steps):
        for base, panel in ((a_base, a_panel), (b_base, b_panel)):
            if produced >= n_panels:
                break
            count = min(per_step, n_panels - produced)
            # Each k-step walks the next slice of the panel; slices
            # wrap, so small panels are simply re-swept (reuse).
            offsets = (np.arange(count, dtype=np.int64) + step * per_step) % len(panel)
            parts.append(base + panel.start + offsets)
            produced += count
    tail = n_accesses - produced
    parts.append(c_base + c_tile.start + (np.arange(tail, dtype=np.int64) % len(c_tile)))
    return np.concatenate(parts) % footprint_lines


def attention(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    kv_lines = max(1, int(footprint_lines * self.kv_fraction))
    private_lines = max(1, footprint_lines - kv_lines)
    chunk = _chunk_bounds(cta_index, n_ctas, private_lines)
    addrs = kv_lines + chunk.start + (
        np.arange(n_accesses, dtype=np.int64) % len(chunk)
    )
    gather_mask = rng.random(n_accesses) < self.gather_fraction
    n_gather = int(np.count_nonzero(gather_mask))
    if n_gather:
        # Causal prefix: query block i attends to keys [0, prefix).
        prefix = max(1, (kv_lines * (cta_index + 1)) // n_ctas)
        recency = (1.0 - rng.random(n_gather) ** self.recency_skew) * prefix
        gathered = recency.astype(np.int64)
        sinks = min(self.sink_lines, kv_lines)
        if sinks and self.sink_fraction:
            sink_mask = rng.random(n_gather) < self.sink_fraction
            n_sink = int(np.count_nonzero(sink_mask))
            if n_sink:
                gathered[sink_mask] = rng.integers(
                    0, sinks, size=n_sink, dtype=np.int64
                )
        addrs[gather_mask] = gathered
    return addrs % footprint_lines


def allreduce(self, cta_index, n_ctas, n_accesses, footprint_lines, rng, kernel_index=0):
    own = _chunk_bounds(cta_index, n_ctas, footprint_lines)
    peer = (cta_index - kernel_index - 1) % n_ctas
    remote = _chunk_bounds(peer, n_ctas, footprint_lines)
    n_own = max(1, int(n_accesses * self.accum_ratio))
    n_remote = n_accesses - n_own
    sweep_remote = remote.start + (
        np.arange(n_remote, dtype=np.int64) % len(remote)
    )
    sweep_own = own.start + (np.arange(n_own, dtype=np.int64) % len(own))
    # Interleave so peer pulls and local accumulation overlap in time
    # the way a fused reduce kernel issues them.
    addrs = np.empty(n_accesses, dtype=np.int64)
    addrs[: 2 * min(n_own, n_remote) : 2] = sweep_remote[: min(n_own, n_remote)]
    addrs[1 : 2 * min(n_own, n_remote) : 2] = sweep_own[: min(n_own, n_remote)]
    leftover = abs(n_remote - n_own)
    if leftover:
        longer = sweep_remote if n_remote > n_own else sweep_own
        addrs[n_accesses - leftover :] = longer[len(longer) - leftover :]
    return addrs % footprint_lines


def zipfian(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    ranks = np.searchsorted(
        self._cdf(footprint_lines), rng.random(n_accesses), side="left"
    ).astype(np.int64)
    multiplier = self.SCATTER_MULTIPLIER % footprint_lines
    while multiplier < 1 or math.gcd(multiplier, footprint_lines) != 1:
        multiplier += 1
    addrs = (ranks * multiplier) % footprint_lines
    if self.stream_fraction:
        stream_mask = rng.random(n_accesses) < self.stream_fraction
        n_stream = int(np.count_nonzero(stream_mask))
        if n_stream:
            chunk = _chunk_bounds(cta_index, n_ctas, footprint_lines)
            addrs[stream_mask] = chunk.start + (
                np.arange(n_stream, dtype=np.int64) % len(chunk)
            )
    return addrs % footprint_lines


def bursty(self, cta_index, n_ctas, n_accesses, footprint_lines, rng):
    n_bursts = -(-n_accesses // self.burst_lines)
    bases = rng.integers(0, footprint_lines, size=n_bursts, dtype=np.int64)
    hot_mask = rng.random(n_bursts) < self.hot_fraction
    n_hot_bursts = int(np.count_nonzero(hot_mask))
    if n_hot_bursts:
        region = min(self.hot_region_lines, max(1, footprint_lines // self.n_hot))
        experts = rng.integers(0, self.n_hot, size=n_hot_bursts)
        spacing = max(1, footprint_lines // self.n_hot)
        starts = (experts * spacing) % footprint_lines
        bases[hot_mask] = starts + rng.integers(
            0, region, size=n_hot_bursts, dtype=np.int64
        )
    runs = bases[:, None] + np.arange(self.burst_lines, dtype=np.int64)[None, :]
    return runs.reshape(-1)[:n_accesses] % footprint_lines


#: Registry name -> reference body.
REFERENCE = {
    "streaming": streaming,
    "stencil": stencil,
    "irregular": irregular,
    "hotset": hotset,
    "banded": banded,
    "global_stride": global_stride,
    "gemm_tile": gemm_tile,
    "attention": attention,
    "allreduce": allreduce,
    "zipfian": zipfian,
    "bursty": bursty,
}


def reference_generate(pattern, cta_index, n_ctas, n_accesses, footprint_lines, rng, **kwargs):
    """One CTA's stream as the per-CTA body of ``pattern``'s family defines it."""
    body = REFERENCE[pattern.pattern_name]
    return body(pattern, cta_index, n_ctas, n_accesses, footprint_lines, rng, **kwargs)
