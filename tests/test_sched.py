"""Unit and property tests for CTA schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu
from repro.sched.centralized import CentralizedScheduler
from repro.sched.distributed import DistributedScheduler, make_scheduler


def small_system(n_gpms=4, sms_per_gpm=4):
    return build_system(baseline_mcm_gpu(n_gpms=n_gpms, sms_per_gpm=sms_per_gpm))


class TestCentralized:
    def test_dispatches_in_index_order(self):
        system = small_system()
        sched = CentralizedScheduler(system)
        sched.start_kernel(10)
        sms = system.all_sms()
        order = [sched.next_cta(sms[i % len(sms)]) for i in range(10)]
        assert order == list(range(10))
        assert sched.next_cta(sms[0]) is None
        assert sched.exhausted

    def test_initial_fill_interleaves_gpms(self):
        """Figure 8(a): consecutive first-wave CTAs land on different GPMs."""
        system = small_system()
        sched = CentralizedScheduler(system)
        order = sched.initial_fill_order()
        gpm_sequence = [sm.gpm_id for sm in order[:4]]
        assert gpm_sequence == [0, 1, 2, 3]

    def test_rejects_empty_kernel(self):
        sched = CentralizedScheduler(small_system())
        with pytest.raises(ValueError, match="n_ctas"):
            sched.start_kernel(0)


def drain_per_gpm(sched, system):
    """The CTAs ``next_cta`` hands each GPM's SMs, in dispatch order."""
    batches = []
    for gpm in system.gpms:
        batch = []
        while (cta := sched.next_cta(gpm.sms[len(batch) % len(gpm.sms)])) is not None:
            batch.append(cta)
        batches.append(batch)
    return batches


class TestDistributed:
    def test_contiguous_batches_per_gpm(self):
        """Figure 8(b): each GPM owns one contiguous CTA index range."""
        system = small_system()
        sched = DistributedScheduler(system)
        sched.start_kernel(16)
        batches = drain_per_gpm(sched, system)
        assert batches[0] == [0, 1, 2, 3]
        assert batches[3] == [12, 13, 14, 15]
        assert sched.exhausted

    def test_uneven_split_spreads_remainder(self):
        system = small_system()
        sched = DistributedScheduler(system)
        sched.start_kernel(10)
        batches = drain_per_gpm(sched, system)
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]

    def test_sm_draws_from_its_gpm_batch(self):
        system = small_system()
        sched = DistributedScheduler(system)
        sched.start_kernel(16)
        sm_gpm2 = system.gpms[2].sms[0]
        cta = sched.next_cta(sm_gpm2)
        assert cta == 8
        # Every SM of GPM 2 draws the rest of batch 2 and nothing else.
        assert drain_per_gpm(sched, system)[2] == [9, 10, 11]

    def test_no_stealing_returns_none_when_batch_empty(self):
        system = small_system()
        sched = DistributedScheduler(system)
        sched.start_kernel(4)  # one CTA per GPM
        sm = system.gpms[1].sms[0]
        assert sched.next_cta(sm) is not None
        assert sched.next_cta(sm) is None  # batch 1 exhausted; no stealing
        assert not sched.exhausted  # other batches still hold CTAs

    def test_binding_is_stable_across_kernels(self):
        """Figure 12: CTA index -> GPM binding repeats on re-launch."""
        system = small_system()
        sched = DistributedScheduler(system)

        def dispatch_all():
            sched.start_kernel(16)
            bound = {}
            for gpm in system.gpms:
                while (cta := sched.next_cta(gpm.sms[0])) is not None:
                    bound[cta] = gpm.gpm_id
            return bound

        first = dispatch_all()
        assert sorted(first) == list(range(16))
        assert dispatch_all() == first


class TestFactory:
    def test_make_scheduler(self):
        system = small_system()
        assert isinstance(make_scheduler("centralized", system), CentralizedScheduler)
        assert isinstance(make_scheduler("distributed", system), DistributedScheduler)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("magic", small_system())


@settings(max_examples=30, deadline=None)
@given(n_ctas=st.integers(min_value=1, max_value=200))
def test_distributed_covers_every_cta_exactly_once(n_ctas):
    """Property: the dispatched batches partition [0, n_ctas) in order."""
    system = small_system()
    sched = DistributedScheduler(system)
    sched.start_kernel(n_ctas)
    seen = [cta for batch in drain_per_gpm(sched, system) for cta in batch]
    assert seen == list(range(n_ctas))
    assert sched.exhausted


@settings(max_examples=30, deadline=None)
@given(n_ctas=st.integers(min_value=1, max_value=100))
def test_both_schedulers_dispatch_all_ctas(n_ctas):
    """Property: draining either scheduler yields each CTA exactly once."""
    system = small_system()
    for name in ("centralized", "distributed"):
        sched = make_scheduler(name, system)
        sched.start_kernel(n_ctas)
        dispatched = []
        for _ in range(n_ctas * 4 + 8):
            for sm in system.all_sms():
                cta = sched.next_cta(sm)
                if cta is not None:
                    dispatched.append(cta)
            if sched.exhausted:
                break
        assert sorted(dispatched) == list(range(n_ctas))
