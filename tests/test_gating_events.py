"""Differential test: event-driven gating against the full per-router scan.

``PowerGatingController.step`` visits only the routers whose gating
decision can change in a cycle and charges residency in bulk from its
per-subnet SLEEP and WAKEUP sets.  :func:`scan_step` below is the plain
scan of the Figure 5 state machine over every router of every subnet,
kept here as the oracle.  A twin fabric runs the oracle in lockstep
with the event-driven fabric, and after every cycle the two must agree
on power states, idle counters, gating statistics and closed sleep
periods.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import gated_config

from repro.core.gating import GatingPolicy, PowerGatingController
from repro.faults.engine import FaultEngine
from repro.faults.spec import FaultEvent, FaultSpec
from repro.noc.config import CongestionConfig, PowerGatingConfig
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern
from repro.workloads.spec import make_workload_source


def scan_step(gating: PowerGatingController, cycle: int) -> None:
    """Oracle: evaluate every router of every subnet, every cycle."""
    if gating.policy == GatingPolicy.NONE:
        for stats, network in zip(gating.stats, gating.subnets):
            stats.active_cycles += len(network.routers)
        return
    rcs = gating.policy == GatingPolicy.RCS
    monitor = gating.monitor
    for subnet, network in enumerate(gating.subnets):
        stats = gating.stats[subnet]
        gated = not (gating.keep_subnet0 and subnet == 0)
        for router in network.routers:
            congested_below = (
                rcs
                and subnet > 0
                and monitor.gating_status(router.node, subnet - 1)
            )
            if router.power_state == PowerState.ACTIVE:
                stats.active_cycles += 1
                if not gated:
                    continue
                if not router.is_drained:
                    router.idle_cycles = 0
                    continue
                router.idle_cycles += 1
                if (
                    router.idle_cycles >= gating.idle_detect_cycles
                    and not congested_below
                ):
                    gating._sleep(router, cycle)
            elif router.power_state == PowerState.SLEEP:
                stats.sleep_cycles += 1
                if (
                    router.node in gating._pending_wakes[subnet]
                    or congested_below
                ):
                    gating._begin_wakeup(router, cycle, stats)
            else:
                stats.wakeup_cycles += 1
                if cycle >= gating.state_of(router).wake_ready:
                    gating._wake_complete(router, cycle)
    for pending in gating._pending_wakes:
        pending.clear()


def make_source(fabric, traffic, seed):
    kind, value = traffic
    if kind == "uniform":
        return SyntheticTrafficSource(
            fabric, make_pattern("uniform", fabric.mesh), value, 512,
            seed=seed,
        )
    return make_workload_source(
        fabric, f"diurnal:base={value};cycles_per_hour=12", seed=seed
    )


def twin_fabrics(config, traffic, seed):
    """The event-driven fabric and its scan-oracle twin, with sources."""
    fabric = MultiNocFabric(config, seed=seed)
    twin = MultiNocFabric(config, seed=seed)
    twin.gating.step = partial(scan_step, twin.gating)
    return (
        (fabric, make_source(fabric, traffic, seed)),
        (twin, make_source(twin, traffic, seed)),
    )


def assert_lockstep(fabric, twin):
    cycle = fabric.cycle
    for network, other in zip(fabric.subnets, twin.subnets):
        states = [r.power_state for r in network.routers]
        assert states == [r.power_state for r in other.routers], cycle
        assert [r.idle_cycles for r in network.routers] == [
            r.idle_cycles for r in other.routers
        ], cycle
        subnet = network.subnet
        assert fabric.gating.asleep[subnet] == {
            node for node, s in enumerate(states) if s == PowerState.SLEEP
        }, cycle
        assert fabric.gating.waking[subnet] == {
            node for node, s in enumerate(states) if s == PowerState.WAKEUP
        }, cycle
    assert fabric.gating.stats == twin.gating.stats, cycle
    assert (
        fabric.gating.sleep_period_lengths()
        == twin.gating.sleep_period_lengths()
    ), cycle


def run_lockstep(config, traffic, seed, cycles, stuck=None):
    """Step both fabrics ``cycles`` times, comparing after each cycle.

    ``stuck`` is an optional ``(fault, subnet)`` pair: that stuck-at
    gating fault is pinned on every router of the subnet, on both
    fabrics, for the whole run.  Returns the event-driven fabric and
    the fault engines.
    """
    pairs = twin_fabrics(config, traffic, seed)
    engines = []
    if stuck is not None:
        fault, subnet = stuck
        for fabric, _source in pairs:
            event = FaultEvent(
                seq=0, cycle=0, fault=fault, subnet=subnet,
                duration=cycles,
            )
            engines.append(
                FaultEngine(fabric, FaultSpec(), schedule=[event]).attach()
            )
    (fabric, source), (twin, twin_source) = pairs
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()
        twin_source.step(twin.cycle)
        twin.step()
        assert_lockstep(fabric, twin)
    return fabric, engines


traffic_cases = st.one_of(
    st.tuples(st.just("uniform"), st.floats(0.0, 0.3)),
    st.tuples(st.just("diurnal"), st.floats(0.02, 0.3)),
)


@settings(max_examples=30, deadline=None)
@given(
    subnets=st.integers(1, 4),
    policy=st.sampled_from(["rcs", "baseline"]),
    regional=st.booleans(),
    keep_subnet0=st.booleans(),
    bfm_threshold=st.integers(2, 9),
    traffic=traffic_cases,
    seed=st.integers(0, 2**16),
)
def test_event_driven_step_matches_full_scan(
    subnets, policy, regional, keep_subnet0, bfm_threshold, traffic, seed
):
    config = gated_config(
        num_subnets=subnets,
        selection_policy="catnap" if policy == "rcs" else "round_robin",
        gating=PowerGatingConfig(
            enabled=True, keep_subnet0_active=keep_subnet0
        ),
        congestion=CongestionConfig(
            use_regional=regional, bfm_threshold_flits=bfm_threshold
        ),
    )
    run_lockstep(config, traffic, seed, cycles=250)


def test_stuck_asleep_routers_stay_in_the_sleep_set():
    # Round-robin selection sends traffic into every subnet, so the
    # stuck subnet keeps requesting wakes the fault tap swallows.
    config = gated_config(num_subnets=3, selection_policy="round_robin")
    fabric, engines = run_lockstep(
        config, ("uniform", 0.2), seed=11, cycles=300,
        stuck=("stuck-asleep", 1),
    )
    assert all(engine.schedule[0].hits for engine in engines)
    assert fabric.gating.asleep[1]


def test_stuck_awake_routers_never_enter_the_sleep_set():
    config = gated_config(num_subnets=3)
    fabric, engines = run_lockstep(
        config, ("uniform", 0.05), seed=12, cycles=300,
        stuck=("stuck-awake", 2),
    )
    assert all(engine.schedule[0].hits for engine in engines)
    assert not fabric.gating.asleep[2]
    assert fabric.gating.asleep[1]
