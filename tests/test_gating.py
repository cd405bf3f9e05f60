"""Tests for the power-gating controller and its accounting."""

from __future__ import annotations

from tests.conftest import gated_config, small_config

from repro.core.gating import GatingPolicy, GatingStats
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState


def gated_fabric(**overrides):
    return MultiNocFabric(gated_config(**overrides), seed=3)


class TestPolicyResolution:
    def test_disabled(self):
        assert GatingPolicy.resolve(small_config()) == GatingPolicy.NONE

    def test_catnap_multi_uses_rcs(self):
        assert (
            GatingPolicy.resolve(gated_config()) == GatingPolicy.RCS
        )

    def test_single_noc_uses_baseline(self):
        config = gated_config(num_subnets=1, link_width_bits=256)
        assert GatingPolicy.resolve(config) == GatingPolicy.BASELINE

    def test_round_robin_uses_baseline(self):
        config = gated_config(selection_policy="round_robin")
        assert GatingPolicy.resolve(config) == GatingPolicy.BASELINE


class TestSleepTransitions:
    def test_idle_higher_subnets_sleep_after_idle_detect(self):
        fabric = gated_fabric()
        idle_detect = fabric.config.gating.idle_detect_cycles
        for _ in range(idle_detect + 3):
            fabric.step()
        subnet1 = fabric.subnets[1]
        assert all(
            r.power_state == PowerState.SLEEP for r in subnet1.routers
        )

    def test_subnet0_never_sleeps_under_rcs_policy(self):
        fabric = gated_fabric()
        for _ in range(50):
            fabric.step()
        subnet0 = fabric.subnets[0]
        assert all(
            r.power_state == PowerState.ACTIVE for r in subnet0.routers
        )

    def test_subnet0_ignores_top_subnet_rcs_when_gated(self):
        # Subnet 0 has no lower-order subnet: with keep_subnet0_active
        # off it gates on idleness alone, whatever subnet N-1's RCS.
        fabric = gated_fabric(
            gating=PowerGatingConfig(enabled=True, keep_subnet0_active=False)
        )
        assert fabric.gating.policy == GatingPolicy.RCS
        regional = fabric.monitor.regional
        top = fabric.config.num_subnets - 1
        latch = regional.update

        def update_with_top_rcs_on(cycle, lcs):
            latch(cycle, lcs)
            for region in range(regional.num_regions):
                regional.force_rcs(top, region, True)

        regional.update = update_with_top_rcs_on
        for _ in range(fabric.config.gating.idle_detect_cycles + 3):
            fabric.step()
        assert all(
            regional.rcs(top, node) for node in range(fabric.mesh.num_nodes)
        )
        assert all(
            r.power_state == PowerState.SLEEP
            for r in fabric.subnets[0].routers
        )

    def test_baseline_gates_everything(self):
        fabric = gated_fabric(
            num_subnets=1, link_width_bits=256,
        )
        for _ in range(50):
            fabric.step()
        assert all(
            r.power_state == PowerState.SLEEP
            for r in fabric.subnets[0].routers
        )


class TestWakeup:
    def test_wake_request_transitions_through_wakeup_state(self):
        fabric = gated_fabric()
        for _ in range(20):
            fabric.step()
        router = fabric.subnets[1].routers[5]
        assert router.power_state == PowerState.SLEEP
        fabric.gating.request_wakeup(router)
        fabric.step()
        assert router.power_state == PowerState.WAKEUP
        for _ in range(fabric.config.gating.wakeup_cycles + 1):
            fabric.step()
        assert router.power_state == PowerState.ACTIVE

    def test_wakeup_takes_t_wakeup_cycles(self):
        fabric = gated_fabric()
        for _ in range(20):
            fabric.step()
        router = fabric.subnets[1].routers[0]
        fabric.gating.request_wakeup(router)
        fabric.step()
        waited = 0
        while router.power_state != PowerState.ACTIVE:
            fabric.step()
            waited += 1
            assert waited < 20
        assert waited >= fabric.config.gating.wakeup_cycles - 1


class TestCscAccounting:
    def test_long_sleep_compensated(self):
        fabric = gated_fabric()
        for _ in range(200):
            fabric.step()
        fabric.gating.finalize(fabric.cycle)
        stats = fabric.gating.stats[1]
        assert stats.sleep_periods >= fabric.mesh.num_nodes
        assert stats.compensated_sleep_cycles > 0
        # Each period's CSC is its length minus break-even.
        breakeven = fabric.config.gating.breakeven_cycles
        assert (
            stats.compensated_sleep_cycles
            <= stats.sleep_cycles - 0  # csc can never exceed sleep cycles
        )
        assert stats.compensated_sleep_cycles <= (
            stats.sleep_cycles
        )

    def test_short_sleep_not_compensated(self):
        stats = GatingStats()
        from repro.core.gating import PowerGatingController
        from repro.core.monitor import CongestionMonitor
        from repro.noc.topology import ConcentratedMesh

        config = gated_config()
        fabric = MultiNocFabric(config, seed=1)
        controller = fabric.gating
        router = fabric.subnets[1].routers[0]
        # Sleep at cycle 100, wake at 105 (< breakeven 12).
        controller._sleep(router, 100)
        controller._begin_wakeup(router, 105, controller.stats[1])
        assert controller.stats[1].short_sleep_periods == 1
        assert controller.stats[1].compensated_sleep_cycles == 0

    def test_finalize_idempotent(self):
        fabric = gated_fabric()
        for _ in range(100):
            fabric.step()
        fabric.gating.finalize(fabric.cycle)
        csc = fabric.gating.total_stats().compensated_sleep_cycles
        fabric.gating.finalize(fabric.cycle)
        assert (
            fabric.gating.total_stats().compensated_sleep_cycles == csc
        )

    def test_state_cycles_sum_to_router_cycles(self):
        fabric = gated_fabric()
        cycles = 150
        for _ in range(cycles):
            fabric.step()
        for subnet, stats in enumerate(fabric.gating.stats):
            assert stats.total_cycles == cycles * fabric.mesh.num_nodes


class TestGatingStats:
    def test_merge(self):
        a = GatingStats(active_cycles=10, sleep_cycles=5, sleep_periods=1)
        b = GatingStats(active_cycles=1, wakeup_cycles=2)
        merged = a.merge(b)
        assert merged.active_cycles == 11
        assert merged.sleep_cycles == 5
        assert merged.wakeup_cycles == 2

    def test_csc_fraction_zero_when_empty(self):
        assert GatingStats().csc_fraction() == 0.0


class TestDisabledGating:
    def test_none_policy_counts_active_cycles(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        for _ in range(10):
            fabric.step()
        stats = fabric.gating.total_stats()
        assert stats.active_cycles == 10 * fabric.mesh.num_nodes * 2
        assert stats.sleep_cycles == 0
