"""Differential test: the default kernel against the dense reference.

A default-constructed fabric steps its busy cycles through
``MultiNocFabric.step`` and leaps over quiescent spans;
``backend="dense"`` steps every cycle.  For drawn configurations,
traffic, congestion metrics, span splits and checker attachment, both
must end in the same state: the same report digest, clock, fabric and
source RNG positions, and NI injection-rate averages.

The metric is drawn from ``bfm``, ``delay`` and ``ir``: ``delay`` reads
the blocking counters the masked router scan maintains, and ``ir``
reads the lazily decayed NI injection rates every cycle.  NIs decay
their rate averages lazily, so the leap needs no idle NI work and fires
as soon as the fabric drains.  Bursty and diurnal sources are drawn
with idle gaps, so the leap also fires in the middle of runs and not
only on fabrics that never saw traffic.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import gated_config, small_config

from repro.analysis.invariants import InvariantChecker
from repro.noc.config import CongestionConfig
from repro.noc.multinoc import MultiNocFabric
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern
from repro.workloads.point import report_digest
from repro.workloads.sources import DiurnalSource

LOADS = (0.0, 0.005, 0.02, 0.1)


def make_config(gating: str, subnets: int, metric: str = "bfm"):
    congestion = CongestionConfig(metric=metric)
    if gating == "none":
        return small_config(num_subnets=subnets, congestion=congestion)
    policy = "catnap" if gating == "rcs" else "round_robin"
    return gated_config(
        num_subnets=subnets, selection_policy=policy, congestion=congestion
    )


def make_source(fabric, traffic, seed):
    kind, arg = traffic
    pattern = make_pattern("uniform", fabric.mesh)
    if kind == "uniform":
        return SyntheticTrafficSource(fabric, pattern, arg, 128, seed=seed)
    if kind == "bursty":
        return BurstyTrafficSource(fabric, pattern, arg, 128, seed=seed)
    base, cycles_per_hour = arg
    return DiurnalSource(
        fabric, base=base, cycles_per_hour=cycles_per_hour,
        packet_bits=128, seed=seed,
    )


@contextmanager
def counted_steps():
    """Count ``MultiNocFabric.step`` calls per fabric.

    The count is taken on the class, not on an instance: an instance
    shadow on ``step`` stops the default kernel from leaping.
    """
    counts: dict[int, int] = {}
    real_step = MultiNocFabric.step

    def step(self):
        counts[id(self)] = counts.get(id(self), 0) + 1
        real_step(self)

    MultiNocFabric.step = step
    try:
        yield counts
    finally:
        MultiNocFabric.step = real_step


def run(config, traffic, spans, seed, backend=None, check=False):
    """Run ``spans`` in turn (the measure window is all but the first),
    then drain; return the end state and the fabric."""
    fabric = MultiNocFabric(config, seed=seed, backend=backend)
    if check:
        fabric.invariant_checker = InvariantChecker(fabric).attach()
    source = make_source(fabric, traffic, seed)
    for index, span in enumerate(spans):
        fabric.backend.run(span, source)
        if index == 0:
            fabric.stats.begin_measurement(fabric.cycle)
    fabric.stats.end_measurement(fabric.cycle)
    drained = fabric.drain(5000)
    state = (
        report_digest(fabric.report()),
        fabric.cycle,
        drained,
        fabric.rng.getstate(),
        source.rng.getstate(),
        # Not in the report, but read by the ``ir`` congestion metric.
        [
            (
                ni.injection_rate(fabric.cycle),
                [
                    ni.subnet_injection_rate(subnet, fabric.cycle)
                    for subnet in range(config.num_subnets)
                ],
            )
            for ni in fabric.nis
        ],
    )
    return state, fabric


TRAFFIC_ARGS = {
    "uniform": st.sampled_from(LOADS),
    # (start cycle, load) steps, some far enough apart for a leap.
    "bursty": st.lists(
        st.tuples(st.integers(0, 3000), st.sampled_from(LOADS)),
        min_size=1,
        max_size=4,
    ).map(sorted),
    # (base load, cycles per hour): hours 3 and 4 of the default
    # shape are idle.
    "diurnal": st.tuples(st.sampled_from(LOADS[1:]), st.integers(5, 800)),
}

traffic_cases = st.sampled_from(sorted(TRAFFIC_ARGS)).flatmap(
    lambda kind: st.tuples(st.just(kind), TRAFFIC_ARGS[kind])
)

# The first span is never empty, so every draw simulates some cycles.
span_splits = st.tuples(
    st.integers(1, 1000), st.lists(st.integers(0, 1000), max_size=4)
).map(lambda first_rest: [first_rest[0], *first_rest[1]])


@settings(max_examples=40, deadline=None)
@example(
    subnets=4, gating="rcs", metric="bfm", traffic=("uniform", 0.0),
    spans=[300, 0, 200], check=True, seed=1,
)
@given(
    subnets=st.integers(1, 4),
    gating=st.sampled_from(["none", "baseline", "rcs"]),
    metric=st.sampled_from(["bfm", "delay", "ir"]),
    traffic=traffic_cases,
    spans=span_splits,
    check=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_default_kernel_matches_dense(
    subnets, gating, metric, traffic, spans, check, seed
):
    config = make_config(gating, subnets, metric)
    with counted_steps() as counts:
        leaped, fabric = run(config, traffic, spans, seed, check=check)
    dense, _ = run(config, traffic, spans, seed, backend="dense")
    assert leaped == dense
    if traffic == ("uniform", 0.0) and metric == "bfm":
        # ``delay`` and ``ir`` are not idle-skippable: they never leap.
        assert counts.get(id(fabric), 0) < fabric.cycle


def test_leap_fires_between_bursts():
    config = make_config("rcs", 4)
    traffic = ("bursty", [(0, 0.1), (100, 0.0), (1600, 0.05)])
    with counted_steps() as counts:
        leaped, fabric = run(config, traffic, [1000, 1000], seed=3)
    dense, _ = run(config, traffic, [1000, 1000], seed=3, backend="dense")
    assert leaped == dense
    # The leap lands on cycle 1600, well inside the second span.
    assert counts[id(fabric)] < fabric.cycle - 100


def test_leap_fires_in_a_short_idle_gap():
    """A 300-cycle gap leaps although the NI rate averages are still
    far above 1e-9 (they take about 1,000 idle cycles to get there)."""
    config = make_config("rcs", 4)
    traffic = ("bursty", [(0, 0.1), (100, 0.0), (400, 0.05), (500, 0.0)])
    with counted_steps() as counts:
        leaped, fabric = run(config, traffic, [300, 300], seed=3)
    dense, _ = run(config, traffic, [300, 300], seed=3, backend="dense")
    assert leaped == dense
    assert counts[id(fabric)] < fabric.cycle - 100
