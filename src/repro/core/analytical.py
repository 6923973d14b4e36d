"""Analytical models: link sizing (Section 3.3.1) and a fast predictor tier.

Two layers live here:

* The paper's first-principles **link sizing model** — with ``n`` GPMs,
  per-partition DRAM bandwidth ``b``, and an L2 hit rate ``h``, each
  memory-side L2 slice supplies ``b / (1 - h)`` of demand bandwidth
  (``2b`` at the assumed ~50% hit rate).  Under a statistically uniform
  address distribution a fraction ``(n-1)/n`` of each slice's supply is
  consumed by remote GPMs, and on a ring every message additionally
  occupies one link per hop.  The headline result reproduced here: for
  the 4-GPM, 3 TB/s machine the bandwidth demand through each GPM's ring
  ports is ``4b`` (= 3 TB/s), so "link bandwidth settings of less than
  3 TB/s are expected to result in performance degradation due to NUMA
  effects" — which Figure 4 then confirms in simulation.

* A per-(workload, config) **analytical predictor**
  (:func:`predict_cycles`) that estimates kernel cycles and link traffic
  from a static :class:`~repro.workloads.characterize.WorkloadProfile`
  plus the config's topology/link/cache/placement knobs — no simulation.
  It mirrors the exact simulator's cost structure (issue throughput,
  DRAM and link bandwidth pipes, memory latency chains) as a smooth max
  of bound terms.  It is *not* bit-accurate; `repro.validate.analytical`
  calibrates its error against the golden store and the successive-
  halving router only ever uses it conservatively, within those blessed
  error bands (see `repro.explore.analytical`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable

from ..interconnect import topology as _topology
from .memsys import REQUEST_HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports nothing from us)
    from .config import SystemConfig
    from ..workloads.characterize import WorkloadProfile

#: Placement policies that spread lines uniformly across partitions.
UNIFORM_PLACEMENTS = frozenset({"interleave", "round_robin_page"})
#: Fraction of the profile's measured first-touch page locality each CTA
#: scheduler realizes.  The distributed scheduler's contiguous-block CTA
#: binding is exactly what the locality table measures (1.0); the dynamic
#: scheduler's finer batches and work stealing give up some of it; the
#: centralized scheduler re-binds CTAs arbitrarily on every launch, so
#: first-touch placement recovers nothing over uniform (0.0).
SCHEDULER_LOCALITY = {
    "distributed": 1.0,
    "dynamic": 0.8,
    "centralized": 0.0,
}
#: Exponent of the smooth-max (p-norm) combining the bound terms.
SMOOTH_MAX_P = 4.0
#: Link serialization overlap model.  Unlike DRAM service (absorbed into
#: the latency chains' round-trip term), link serialization in the exact
#: simulator is charged per hop *inside* each remote round trip, so a
#: fraction of it extends the critical path even when the fabric is far
#: from saturated.  Two regimes, fitted against exact-simulator
#: bandwidth sweeps:
#:
#: * Uniform placements spread traffic evenly over every link and both
#:   virtual channels, so queueing is mild and roughly
#:   utilization-independent: a constant ``UNIFORM`` fraction of the
#:   serialization cycles lands on the critical path.
#: * First-touch concentrates the residual remote traffic on few homes
#:   (shared pages are homed wherever the first-touching block lives),
#:   so the balanced capacity is optimistic and the exposed fraction
#:   grows with utilization: ``BASE + SLOPE * link_k / core``, capped at
#:   fully additive.
LINK_SERIAL_UNIFORM = 0.08
LINK_SERIAL_BASE = 0.30
LINK_SERIAL_SLOPE = 0.30


def supply_bandwidth_per_partition(dram_bandwidth_per_partition: float, l2_hit_rate: float) -> float:
    """Demand bandwidth one memory-side L2 slice can satisfy.

    A hit rate of ``h`` amplifies DRAM bandwidth by ``1 / (1 - h)``: for
    every miss serviced by DRAM, ``h / (1 - h)`` further requests are
    served from the cache.
    """
    if not 0.0 <= l2_hit_rate < 1.0:
        raise ValueError(f"l2_hit_rate must be in [0, 1), got {l2_hit_rate}")
    return dram_bandwidth_per_partition / (1.0 - l2_hit_rate)


@dataclass(frozen=True)
class BandwidthRequirement:
    """Output of the sizing model, all figures in GB/s (== bytes/cycle)."""

    #: Traffic leaving each GPM for remote consumers.
    egress_per_gpm: float
    #: Traffic arriving at each GPM from remote suppliers.
    ingress_per_gpm: float
    #: Total link-hop volume across the whole fabric (egress x average hops).
    total_link_hop_volume: float
    #: Bandwidth demand through one GPM's network ports — the quantity that
    #: must not exceed the GPM's aggregate link bandwidth.
    per_gpm_link_demand: float
    #: Average volume per directional link.
    per_link_volume: float
    #: Distinct directional links in the fabric.
    n_links: int = 0
    #: Mean directional links touching one GPM.
    ports_per_gpm: float = 0.0


def required_link_bandwidth(
    n_gpms: int,
    dram_bandwidth_per_partition: float,
    l2_hit_rate: float = 0.5,
    topology: str = "ring",
) -> BandwidthRequirement:
    """Size the inter-GPM links for full DRAM utilization (Section 3.3.1).

    For ``n_gpms=4``, ``b=768`` GB/s, ``h=0.5`` this reproduces the paper's
    ``4b`` (3 TB/s) per-GPM demand: each slice supplies ``2b``; ``3/4`` of
    that is remote, so egress = ingress = ``1.5b`` per GPM; the 4/3 average
    hop count adds pass-through traffic, and the volume through each GPM's
    four directional ring ports works out to ``4b``.

    Degenerate and non-ring fabrics are counted exactly: a two-node ring
    has one neighbor pair (two directional links, two ports per GPM — not
    the four a larger ring has), and a fully connected fabric has an
    in/out link pair per peer with single-hop delivery, so per-GPM demand
    is exactly egress + ingress (no pass-through traffic).
    """
    if n_gpms <= 0:
        raise ValueError(f"n_gpms must be positive, got {n_gpms}")
    supply = supply_bandwidth_per_partition(dram_bandwidth_per_partition, l2_hit_rate)
    if n_gpms == 1:
        return BandwidthRequirement(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    remote_fraction = (n_gpms - 1) / n_gpms
    egress = supply * remote_fraction
    total_egress = egress * n_gpms
    avg_hops = _topology.average_hops(topology, n_gpms)
    total_volume = total_egress * avg_hops
    n_links = _topology.link_count(topology, n_gpms)
    ports = _topology.mean_ports(topology, n_gpms)
    per_link = total_volume / n_links
    # Volume through one GPM's ports: every hop of every message enters
    # one port and leaves another, so port-volume is evenly split when
    # traffic is uniform — per-link average times the port count.
    per_gpm = per_link * ports
    return BandwidthRequirement(
        egress_per_gpm=egress,
        ingress_per_gpm=egress,
        total_link_hop_volume=total_volume,
        per_gpm_link_demand=per_gpm,
        per_link_volume=per_link,
        n_links=n_links,
        ports_per_gpm=ports,
    )


def expected_slowdown_bound(
    link_bandwidth_per_gpm: float,
    required_per_gpm: float,
) -> float:
    """Upper bound on achievable throughput fraction from link sizing alone.

    If the links provide less than the required bandwidth, DRAM cannot be
    kept busy and throughput of a bandwidth-bound workload is capped at
    ``provided / required``.  Values >= 1 mean the links are not the
    bottleneck.
    """
    if required_per_gpm <= 0:
        return 1.0
    return min(1.0, link_bandwidth_per_gpm / required_per_gpm)


@dataclass(frozen=True)
class CollapsePoint:
    """Where a topology's fabric stops keeping DRAM busy at scale.

    Two independent bounds, both as the minimum per-link bandwidth
    *setting* (GB/s, the ``config.link_bandwidth`` knob) at which the
    fabric just meets uniform-traffic demand; below either, bandwidth-
    bound workloads degrade:

    * **port-limited** — the average directional link must carry its
      share of hop volume within its half-duplex capacity;
    * **bisection-limited** — traffic crossing the half-split must fit
      the bisection bandwidth.  For the hierarchical fabric the bisection
      is a *fixed* board ring that does not scale with the link setting,
      so past a node count no setting suffices (``math.inf``).
    """

    topology: str
    n_gpms: int
    #: Uniform cross-half traffic demand, GB/s (both directions).
    bisection_demand: float
    #: Minimum link setting to satisfy the per-link volume bound.
    port_limited_gbps: float
    #: Minimum link setting to satisfy the bisection bound (inf when the
    #: fabric's fixed bottleneck is below demand at any setting).
    bisection_limited_gbps: float

    @property
    def collapse_gbps(self) -> float:
        """The binding bound: the larger of the two minima."""
        return max(self.port_limited_gbps, self.bisection_limited_gbps)


def bisection_collapse(
    n_gpms: int,
    topology: str = "ring",
    dram_bandwidth_per_partition: float = 768.0,
    l2_hit_rate: float = 0.5,
) -> CollapsePoint:
    """Find a topology's collapse point under uniform traffic.

    Uses the Section 3.3.1 demand model (each L2 slice supplies
    ``b / (1 - h)``, a ``(n-1)/n`` fraction of it remote) and the
    topology registry's bisection accounting.  The 4-GPM ring reproduces
    the paper's sizing result: both bounds land at the 1.5 TB/s setting
    below which Figure 4 shows degradation.
    """
    if n_gpms <= 1:
        return CollapsePoint(topology, n_gpms, 0.0, 0.0, 0.0)
    requirement = required_link_bandwidth(
        n_gpms, dram_bandwidth_per_partition, l2_hit_rate, topology
    )
    # Port bound: the mean directional link carries per_link_volume and
    # has capacity link_setting / 2.
    port_limited = 2.0 * requirement.per_link_volume
    # Bisection bound: egress spread uniformly over n-1 destinations;
    # ordered cross-half pairs each carry egress / (n-1).
    half = n_gpms // 2
    cross_pairs = 2 * half * (n_gpms - half)
    demand = requirement.egress_per_gpm * cross_pairs / (n_gpms - 1)
    # bisection(setting) = fixed + slope * setting, from two probes.
    fixed = _topology.bisection_bandwidth(topology, n_gpms, 0.0)
    slope = _topology.bisection_bandwidth(topology, n_gpms, 1.0) - fixed
    if demand <= fixed:
        bisection_limited = 0.0
    elif slope <= 0.0:
        bisection_limited = math.inf
    else:
        bisection_limited = (demand - fixed) / slope
    return CollapsePoint(
        topology=topology,
        n_gpms=n_gpms,
        bisection_demand=demand,
        port_limited_gbps=port_limited,
        bisection_limited_gbps=bisection_limited,
    )


# ---------------------------------------------------------------------------
# Per-(workload, config) analytical predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticalPrediction:
    """Predicted execution profile of one (workload, config) pair.

    ``cycles`` is the headline quantity; the bound terms it was combined
    from and the cache/traffic estimates behind them are kept for
    reports and calibration diagnostics.  All byte figures are workload
    totals; ``per_gpm_link_demand`` is bytes/cycle at the predicted
    runtime.
    """

    workload: str
    system: str
    cycles: float
    issue_cycles: float
    dram_cycles: float
    link_cycles: float
    latency_cycles: float
    l1_hit_rate: float
    l15_hit_rate: float
    l2_hit_rate: float
    remote_fraction: float
    link_bytes: float
    dram_bytes: float
    per_gpm_link_demand: float


def predicted_remote_fraction(profile: "WorkloadProfile", config: "SystemConfig") -> float:
    """Fraction of post-L1 traffic homed on a remote partition.

    Uniform placements (fine-grain interleave, round-robin pages) pin
    this at ``(n-1)/n``.  First-touch-style placements are evaluated
    against the profile's measured page-locality table at the config's
    page size and GPM count — the fraction of accesses whose CTA shares a
    contiguous CTA block with the page's first toucher — scaled by how
    much of that block binding the scheduler actually realizes
    (:data:`SCHEDULER_LOCALITY`).
    """
    n = config.n_gpms
    if n <= 1:
        return 0.0
    uniform = (n - 1) / n
    if config.placement in UNIFORM_PLACEMENTS:
        return uniform
    realized = SCHEDULER_LOCALITY.get(config.scheduler, 0.5)
    measured = profile.page_local_fraction(config.page_bytes, n)
    local = realized * measured + (1.0 - realized) * (1.0 / n)
    return max(0.0, 1.0 - local)


def _l1_hit_rate(profile: "WorkloadProfile", config: "SystemConfig") -> float:
    """Per-CTA reuse captured by the private L1, with capacity pressure."""
    accesses = profile.per_cta_accesses
    distinct = profile.per_cta_distinct_lines
    if accesses <= 0:
        return 0.0
    reuse = max(0.0, 1.0 - distinct / accesses)
    sm = config.gpm.sm
    l1_lines = sm.l1.size_bytes / max(1, sm.l1.line_bytes)
    working_set = max(1.0, distinct * sm.max_resident_ctas)
    return reuse * min(1.0, l1_lines / working_set)


def _expected_max_latency(atoms, draws: float) -> float:
    """Expected maximum of ``draws`` iid samples from a discrete latency law.

    ``atoms`` is ``[(latency, probability), ...]``; the engine completes a
    record's accesses in parallel and advances the CTA's chain at the
    *last* completion, so the per-record memory time is an order
    statistic, not a mean.  ``E[max] = sum lat * (F(lat)^k - F(lat-)^k)``
    over the sorted support; fewer than one draw falls back to the mean.
    """
    if draws <= 1.0:
        return sum(lat * p for lat, p in atoms)
    expectation = 0.0
    cdf = 0.0
    prev_pow = 0.0
    for lat, p in sorted(atoms):
        if p <= 0.0:
            continue
        cdf = min(1.0, cdf + p)
        pow_k = cdf**draws
        expectation += lat * (pow_k - prev_pow)
        prev_pow = pow_k
    return expectation


def _shared_cache_hit_rate(
    demand: float,
    distinct: float,
    capacity_lines: float,
) -> float:
    """Reuse x capacity-coverage model for a shared (L1.5/L2) level."""
    if demand <= 0 or distinct <= 0:
        return 0.0
    reuse = max(0.0, 1.0 - distinct / demand)
    coverage = min(1.0, capacity_lines / distinct)
    return reuse * coverage


def predict_cycles(profile: "WorkloadProfile", config: "SystemConfig") -> AnalyticalPrediction:
    """Predict total cycles and link traffic for one (workload, config).

    The model mirrors the exact simulator's cost structure with four
    bound terms — issue/DRAM/latency combined by a smooth max (p-norm,
    so concurrent bottlenecks overlap rather than add) plus a partially
    overlapped link-serialization term:

    * **issue** — every record issues ``compute + accesses`` instruction
      slots through each SM's issue port (``charge_issue`` in the
      engine);
    * **dram** — post-cache line fills and write-backs through the
      aggregate DRAM bandwidth;
    * **link** — remote request/response hop-bytes (64 B headers, 192 B
      line responses, matching ``core.memsys``) through the fabric's
      aggregate directional-link bandwidth;
    * **latency** — CTA waves times each warp group's serial
      record chain at the average memory round-trip latency.
    """
    n = config.n_gpms
    gpm = config.gpm
    line = float(config.line_bytes)
    total_sms = max(1, n * gpm.n_sms)

    # Workload totals, extrapolated from the sampled profile.
    ctas = max(1, profile.n_ctas)
    kernels = max(1, profile.kernel_launches)
    accesses_k = profile.per_cta_accesses * ctas
    stores_k = accesses_k * profile.store_fraction
    loads_k = accesses_k - stores_k
    compute_k = profile.compute_per_access * accesses_k
    distinct_total = max(1.0, profile.distinct_lines_estimate)

    # --- cache filtering -------------------------------------------------
    l1_hit = _l1_hit_rate(profile, config)
    post_l1_loads = loads_k * (1.0 - l1_hit)
    remote_frac = predicted_remote_fraction(profile, config)
    remote_loads = post_l1_loads * remote_frac
    local_loads = post_l1_loads - remote_loads
    remote_stores = stores_k * remote_frac

    # L1.5: a per-GPM cache in front of the fabric.  With REMOTE_ONLY
    # allocation it filters exactly the remote load stream (the only
    # traffic whose round trip it can save); stores write through it.
    l15 = gpm.l15
    l15_hit = 0.0
    if l15 is not None and l15.size_bytes > 0 and remote_loads > 0:
        l15_lines = l15.size_bytes / max(1, l15.line_bytes)
        # Each GPM's remote working set: its share of distinct lines that
        # are homed elsewhere, plus shared lines pulled by every GPM.
        private = distinct_total * (1.0 - profile.shared_line_fraction)
        shared = distinct_total * profile.shared_line_fraction
        remote_distinct_per_gpm = remote_frac * private / n + shared * (n - 1) / n
        l15_hit = _shared_cache_hit_rate(
            remote_loads / n, max(1.0, remote_distinct_per_gpm), l15_lines
        )
    remote_loads_after_l15 = remote_loads * (1.0 - l15_hit)

    # Memory-side L2 (not flushed between kernels: reuse accumulates
    # across the whole workload).
    l2_demand_k = local_loads + remote_loads_after_l15 + stores_k
    l2_lines = n * gpm.l2.size_bytes / max(1, gpm.l2.line_bytes)
    l2_hit = _shared_cache_hit_rate(l2_demand_k * kernels, distinct_total, l2_lines)

    # --- bound terms (per kernel) ---------------------------------------
    instr_k = compute_k + accesses_k
    issue_k = (instr_k / total_sms) / max(1e-9, gpm.sm.issue_throughput)

    dram_bytes_k = l2_demand_k * (1.0 - l2_hit) * line
    dram_k = dram_bytes_k / max(1e-9, n * gpm.dram_bandwidth)

    hops = _topology.average_hops(config.topology, n)
    response_bytes = line + REQUEST_HEADER_BYTES
    # Each link direction carries two virtual networks (request: read
    # commands + write data; response: read data — interconnect.link),
    # each granted the full per-direction bandwidth (bw/2 of the
    # full-duplex per-link total).  The serialization bound is therefore
    # set by the *busier channel*, not the combined byte count.
    request_bytes_k = hops * (
        remote_loads_after_l15 * REQUEST_HEADER_BYTES + remote_stores * response_bytes
    )
    response_bytes_k = hops * remote_loads_after_l15 * response_bytes
    link_bytes_k = request_bytes_k + response_bytes_k
    n_links = _topology.link_count(config.topology, n)
    # Aggregate per-channel capacity: n_links directions, each at half the
    # per-link full-duplex total.  Rev 7 introduced this split to fix a
    # "systematic 2-GPM underprediction" — which turned out to be partly
    # the simulator's stranded-link bug (two parallel pairs of which
    # routing used one).  Since rev 8 the two-node ring really does have
    # n_links == 2 physical directions, so this count is the fabric's
    # honest capacity with no compensation baked in.
    channel_capacity = n_links * config.link_bandwidth / 2.0
    uniform_traffic = config.placement in UNIFORM_PLACEMENTS
    if channel_capacity <= 0:
        link_k = link_floor = 0.0
    else:
        # Balanced serialization floor: the bytes of the busier virtual
        # channel cannot cross the fabric faster than its capacity.
        link_floor = max(request_bytes_k, response_bytes_k) / channel_capacity
        # First-touch hot-spotting: combined bytes over per-channel
        # capacity approximates the loss from concentrated homes.
        link_k = link_floor if uniform_traffic else link_bytes_k / channel_capacity

    # --- latency term ----------------------------------------------------
    # A record's accesses complete in parallel and the CTA's chain waits
    # for the last one, so per-record memory time is the expected *max*
    # over its loads' round-trip latencies — built from the full hop-
    # distance distribution (the tail stretches with ring size).
    sm = gpm.sm
    l2_lat = gpm.xbar_latency + gpm.l2.hit_latency + (1.0 - l2_hit) * gpm.dram_latency
    load_atoms = [(sm.l1.hit_latency, l1_hit), (l2_lat, (1.0 - l1_hit) * (1.0 - remote_frac))]
    remote_p = (1.0 - l1_hit) * remote_frac
    has_l15 = l15 is not None and l15.size_bytes > 0
    if has_l15:
        load_atoms.append((l15.hit_latency, remote_p * l15_hit))
        remote_p *= 1.0 - l15_hit
    for distance, p in _topology.remote_distance_pmf(config.topology, n):
        round_trip = 2.0 * distance * config.hop_latency + l2_lat
        if has_l15:
            round_trip += l15.hit_latency + gpm.l15_miss_penalty
        load_atoms.append((round_trip, remote_p * p))
    loads_per_record = (
        profile.per_cta_accesses
        * (1.0 - profile.store_fraction)
        / max(1.0, profile.per_cta_records)
    )
    per_record = max(
        profile.compute_per_record,
        _expected_max_latency(load_atoms, loads_per_record),
    )
    records_per_group = profile.per_cta_records / max(1.0, profile.groups_per_cta)
    waves = math.ceil(ctas / (total_sms * max(1, sm.max_resident_ctas)))
    latency_k = waves * records_per_group * per_record

    # --- combine ---------------------------------------------------------
    # Issue, DRAM, and latency overlap (concurrent CTAs hide each other's
    # stalls), so they combine as a smooth max.  Link serialization rides
    # inside the remote round trips and partially extends the critical
    # path (see LINK_SERIAL_*), with the balanced per-channel bound as a
    # hard floor.
    p = SMOOTH_MAX_P
    core = (
        max(0.0, issue_k) ** p + max(0.0, dram_k) ** p + max(0.0, latency_k) ** p
    ) ** (1.0 / p)
    if link_k > 0.0 and core > 0.0:
        if uniform_traffic:
            overlap = LINK_SERIAL_UNIFORM
        else:
            overlap = min(1.0, LINK_SERIAL_BASE + LINK_SERIAL_SLOPE * link_k / core)
        kernel_cycles = max(core + link_k * overlap, link_floor)
    else:
        kernel_cycles = max(core, link_k)
    cycles = max(1.0, kernels * kernel_cycles)

    link_bytes = link_bytes_k * kernels
    return AnalyticalPrediction(
        workload=profile.name,
        system=config.name,
        cycles=cycles,
        issue_cycles=issue_k * kernels,
        dram_cycles=dram_k * kernels,
        link_cycles=link_k * kernels,
        latency_cycles=latency_k * kernels,
        l1_hit_rate=l1_hit,
        l15_hit_rate=l15_hit,
        l2_hit_rate=l2_hit,
        remote_fraction=remote_frac,
        link_bytes=link_bytes,
        dram_bytes=dram_bytes_k * kernels,
        per_gpm_link_demand=(link_bytes / cycles) * _topology.mean_ports(config.topology, n) / max(1, n_links)
        if n_links
        else 0.0,
    )


def predict_speedup(
    profile: "WorkloadProfile",
    candidate: "SystemConfig",
    baseline: "SystemConfig",
) -> float:
    """Predicted speedup of ``candidate`` over ``baseline`` on one workload.

    Any constant calibration scale on predicted cycles cancels in the
    ratio, which is why the router only needs a *score* error band, not
    absolute-cycle accuracy.
    """
    return predict_cycles(profile, baseline).cycles / predict_cycles(profile, candidate).cycles


def predict_suite_score(
    profiles: Iterable["WorkloadProfile"],
    candidate: "SystemConfig",
    baseline: "SystemConfig",
) -> float:
    """Geomean predicted speedup over a workload suite — the rung score."""
    log_sum = 0.0
    count = 0
    for profile in profiles:
        log_sum += math.log(predict_speedup(profile, candidate, baseline))
        count += 1
    if count == 0:
        raise ValueError("predict_suite_score needs at least one profile")
    return math.exp(log_sum / count)


def predicted_objectives(
    profiles: Iterable["WorkloadProfile"],
    candidate: "SystemConfig",
    baseline: "SystemConfig",
) -> Dict[str, float]:
    """Analytical stand-in for ``explore.search.objectives_of``.

    Same keys (``geomean_speedup`` / ``link_bandwidth`` /
    ``energy_joules`` / ``area_mm2``) so screened-out candidates still
    rank and plot, with energy derived from predicted traffic through
    the same per-tier energy model the simulator uses and area from the
    budget cost model (exact — no prediction involved).
    """
    from .budget import package_cost
    from .energy import IntegrationTier, breakdown_from_traffic

    tier = IntegrationTier(candidate.link_tier)
    log_sum = 0.0
    count = 0
    energy = 0.0
    for profile in profiles:
        base = predict_cycles(profile, baseline)
        cand = predict_cycles(profile, candidate)
        log_sum += math.log(base.cycles / cand.cycles)
        count += 1
        accesses = profile.per_cta_accesses * max(1, profile.n_ctas) * max(1, profile.kernel_launches)
        breakdown = breakdown_from_traffic(
            on_chip_bytes=accesses * candidate.line_bytes,
            inter_module_bytes=cand.link_bytes,
            dram_bytes=cand.dram_bytes,
            inter_module_tier=tier,
        )
        energy += breakdown.total_joules
    if count == 0:
        raise ValueError("predicted_objectives needs at least one profile")
    return {
        "geomean_speedup": math.exp(log_sum / count),
        "link_bandwidth": float(candidate.link_bandwidth),
        "energy_joules": energy,
        "area_mm2": package_cost(candidate).area_mm2,
    }
