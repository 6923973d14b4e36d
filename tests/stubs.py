"""Test helpers: stub suite results that drive an experiment plan's
``reduce`` without simulating, and a side-effect-free cache residency check."""

from repro.memory.cache import CacheStats
from repro.sim.result import SimResult


def stub_result(name, cycles, link_bytes=10_000):
    """A result with 1000 loads, a fifth of them to remote homes."""
    return SimResult(
        workload_name=name,
        system_name="stub",
        cycles=cycles,
        kernels=1,
        ctas=1,
        records=1,
        loads=1000,
        stores=0,
        remote_loads=200,
        remote_stores=0,
        l1=CacheStats(),
        l15=CacheStats(),
        l2=CacheStats(),
        dram_bytes_read=0,
        dram_bytes_written=0,
        link_bytes=link_bytes,
        page_local=800,
        page_remote=200,
    )


def stub_suites(slots, cycles):
    """One suite per ``(config, workloads)`` slot: ``cycles(config, workload)``
    cycles and ten link bytes per cycle for every workload of the slot."""

    def result(name, value):
        return stub_result(name, value, int(10 * value))

    return [
        {workload.name: result(workload.name, cycles(config, workload)) for workload in workloads}
        for config, workloads in slots
    ]


def reduce_stubbed(plan, cycles):
    """``plan``'s output over :func:`stub_suites`."""
    return plan.reduce(stub_suites(plan.slots, cycles))


def resident(cache, line_addr):
    """True when ``cache`` holds ``line_addr``; touches neither LRU nor stats."""
    return bool(cache.n_sets) and line_addr in cache._sets[line_addr % cache.n_sets]
