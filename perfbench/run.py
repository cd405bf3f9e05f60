#!/usr/bin/env python3
"""Host-throughput benchmark of the Catnap simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pg_low_load --seed 42 \\
        --seconds 30 --trace 0

One run is one process and one thread.  It imports the simulator from
``src/`` of the checkout, computes an untimed reference report for the
workload on the ``dense`` reference kernel, then repeats the timed
point (set-up, simulation, report, power model) about ``--seconds``
worth of times, checking every repetition against the reference.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced repetition with
``--trace 1``.  ``perfbench/README.md`` gives the reason for each
workload and which layer metric should move which end-to-end metric.

The sweep runner, its cache and the throughput meters are never used:
every point is built and run directly through the public entry points
the figure sweeps call.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layers import LayerTracer, trace_closed_loop, trace_open_loop

ROOT = Path(__file__).resolve().parent.parent

#: Variables that would change the executed code path (another kernel,
#: an attached observer); a run with any of them set measures something
#: else, so it is refused.
PINNED_ENV = (
    "REPRO_BACKEND",
    "REPRO_CHECK",
    "REPRO_PERF",
    "REPRO_FAULTS",
    "REPRO_TELEMETRY",
    "REPRO_EXPLAIN",
)

#: Fewest set-up samples per run; ``setup_s`` is their median.  Samples are
#: spread over the run, so a slow second of the host does not set it.
SETUP_SAMPLES = 25

#: Host clock of the end-to-end metrics.
CLOCK = time.process_time

END_TO_END_UNITS = {
    "sim_cycles_per_s": "cycles/s",
    "flit_hops_per_s": "hops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark point on the paper's 256-core 4NT-128b design."""

    name: str
    power_gating: bool
    #: Open loop: ``"uniform:<load>"`` or a ``repro.workloads`` spec.
    traffic: str | None = None
    #: Open loop: (warmup, measure, cooldown) cycles.
    phases: tuple[int, int, int] = (0, 0, 0)
    #: Closed loop: a Table 3 application mix and its cycle count.
    mix: str | None = None
    cycles: int = 0
    #: Host seconds one repetition took at the commit that defined the
    #: benchmark (2 CPUs, Python 3.11).  A run makes ``--seconds /
    #: rep_s`` repetitions, a count fixed by the benchmark, so that two
    #: commits are measured over the same work.
    rep_s: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pg_low_load", True, traffic="uniform:0.02",
                 phases=(100, 1500, 100), rep_s=0.55),
        Workload("uniform_high", False, traffic="uniform:0.25",
                 phases=(100, 300, 50), rep_s=0.95),
        # One simulated day (24 h x 250 cycles) inside the measure phase.
        # Not listed in BENCHMARK.json: see README.md.
        Workload("diurnal_serving", True,
                 traffic="diurnal:base=0.2;cycles_per_hour=250",
                 phases=(250, 6000, 250), rep_s=7.6),
        Workload("app_closed_loop", True, mix="Medium-Light", cycles=1000,
                 rep_s=0.75),
    )
}


@dataclass
class Outcome:
    """What one repetition of a point produced and what it cost."""

    setup_s: float
    run_s: float
    #: Host time between consecutive time stamps of the run (one per
    #: simulated cycle; see ``run_point``), in simulated-time order.
    windows: list[float]
    cycles: int
    flit_hops: int
    digest: str
    ipc: float | None
    transactions: int | None
    report: Any
    power_w: float


def scaled(cycles: int, scale: float) -> int:
    return max(1, round(cycles * scale)) if cycles else 0


def build(
    repro: Any, workload: Workload, seed: int, backend: str | None = None
) -> tuple[Any, Any]:
    """The point's objects: ``(fabric, source)`` for the open loop,
    ``(processor, None)`` for the closed loop."""
    config = repro.config(workload.power_gating)
    if workload.mix is not None:
        return repro.Processor(config, workload.mix, seed=seed), None
    fabric = repro.MultiNocFabric(config, seed=seed, backend=backend)
    return fabric, repro.source(fabric, workload.traffic, seed)


def stamp_calls(obj: Any, method: str, stamps: list[float]) -> None:
    """Shadow ``obj.method`` to append the host time at every call."""
    inner = getattr(obj, method)

    def stamped(*args: Any) -> Any:
        stamps.append(CLOCK())
        return inner(*args)

    setattr(obj, method, stamped)


def run_point(
    repro: Any,
    workload: Workload,
    seed: int,
    scale: float,
    backend: str | None = None,
    tracer: LayerTracer | None = None,
) -> Outcome:
    """Build and run ``workload`` once; time set-up and the run apart.

    An untraced run is cut into windows by a time stamp at every call of
    a method the point calls once per simulated cycle, before the
    cycle's work: ``source.step`` in the open loop,
    ``CoherenceEngine.process_due`` in the closed loop.  The simulation
    is deterministic, so window ``i`` of every repetition does the same
    work.
    """
    gc.collect()
    start = CLOCK()
    point, source = build(repro, workload, seed, backend)
    ready = CLOCK()
    closed_loop = source is None
    stamps = [ready]
    power_model = repro.compute_network_power
    if tracer is not None:
        power_model = tracer.wrap(power_model, "point.report")
        if closed_loop:
            trace_closed_loop(tracer, point)
        else:
            trace_open_loop(tracer, point, source)
    elif closed_loop:
        stamp_calls(point.engine, "process_due", stamps)
    else:
        stamp_calls(source, "step", stamps)
    if closed_loop:
        result = point.run(scaled(workload.cycles, scale))
        report = result.fabric_report
    else:
        phases = repro.SimulationPhases(
            *(scaled(cycles, scale) for cycles in workload.phases)
        )
        report = repro.run_open_loop(point, source, phases)
    power = power_model(report)
    done = CLOCK()
    stamps.append(done)
    return Outcome(
        setup_s=ready - start,
        run_s=done - ready,
        windows=[end - begin for begin, end in zip(stamps, stamps[1:])],
        cycles=report.cycles,
        flit_hops=sum(a["crossbar_traversals"] for a in report.activity),
        digest=repro.report_digest(report),
        ipc=result.aggregate_ipc if closed_loop else None,
        transactions=result.transactions_completed if closed_loop else None,
        report=report,
        power_w=power.total_watts,
    )


def time_setup(repro: Any, workload: Workload, seed: int) -> float:
    """Time one set-up alone, without running the point."""
    gc.collect()
    start = CLOCK()
    build(repro, workload, seed)
    return CLOCK() - start


def attempt(
    repro: Any,
    workload: Workload,
    seed: int,
    scale: float,
    reference: Outcome,
    tracer: LayerTracer | None = None,
) -> Outcome | None:
    """One timed repetition; ``None`` if it raised or differs from
    ``reference`` (a byte-identical report is required, and for the
    closed loop the same IPC and transaction count)."""
    try:
        outcome = run_point(repro, workload, seed, scale, tracer=tracer)
    except Exception as exc:  # counted as a failed repetition
        print(f"perfbench: repetition raised {exc!r}", file=sys.stderr)
        return None
    if (
        outcome.digest != reference.digest
        or outcome.ipc != reference.ipc
        or outcome.transactions != reference.transactions
    ):
        print(f"perfbench: report digest {outcome.digest} differs from "
              f"the reference {reference.digest}", file=sys.stderr)
        return None
    return outcome


class Simulator:
    """The simulator's public entry points, imported from ``src/``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.noc.backend import DEFAULT_BACKEND
        from repro.noc.config import SYNTHETIC_PACKET_BITS, NocConfig
        from repro.noc.multinoc import MultiNocFabric
        from repro.noc.simulator import SimulationPhases, run_open_loop
        from repro.perf.bench import git_sha, host_fingerprint
        from repro.power.network_power import compute_network_power
        from repro.system.processor import Processor
        from repro.traffic.generators import SyntheticTrafficSource
        from repro.traffic.patterns import make_pattern
        from repro.workloads.point import report_digest
        from repro.workloads.spec import make_workload_source

        self.DEFAULT_BACKEND = DEFAULT_BACKEND
        self.NocConfig = NocConfig
        self.MultiNocFabric = MultiNocFabric
        self.SimulationPhases = SimulationPhases
        self.run_open_loop = run_open_loop
        self.compute_network_power = compute_network_power
        self.Processor = Processor
        self.report_digest = report_digest
        self.git_sha = git_sha
        self.host_fingerprint = host_fingerprint
        self._packet_bits = SYNTHETIC_PACKET_BITS
        self._synthetic = SyntheticTrafficSource
        self._pattern = make_pattern
        self._workload_source = make_workload_source

    def config(self, power_gating: bool) -> Any:
        """The paper's 4NT-128b, with or without power gating."""
        return self.NocConfig.multi_noc(4, power_gating=power_gating)

    def source(self, fabric: Any, traffic: str, seed: int) -> Any:
        kind, _, rest = traffic.partition(":")
        if kind == "uniform":
            return self._synthetic(
                fabric,
                self._pattern("uniform", fabric.mesh),
                float(rest),
                self._packet_bits,
                seed=seed,
            )
        return self._workload_source(fabric, traffic, seed=seed)


def end_to_end(
    outcome: Outcome, fastest: list[float], setups: list[float]
) -> dict:
    """The end-to-end metrics of a run.

    ``fastest`` holds each window's fastest time over the repetitions.
    Other processes on a shared host slow some seconds of a run and not
    others; their sum leaves most of that out, while still covering all
    the work of one repetition.
    """
    run_s = sum(fastest)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sim_cycles_per_s": outcome.cycles / run_s,
        "flit_hops_per_s": outcome.flit_hops / run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(
    traced: Outcome, tracer: LayerTracer, untraced_cycles_per_s: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition.

    ``untraced_cycles_per_s`` is the median plain rate (cycles over the
    whole run) of the untraced repetitions, the same measure the traced
    repetition gets.
    """
    report = traced.report
    closed_loop = traced.ipc is not None
    self_s = tracer.self_s
    gating = report.gating
    sleeps = sum(stats.sleep_periods for stats in gating)
    transitions = sleeps + sum(stats.wake_requests for stats in gating)
    # Router-cycles the controller may gate: none without gating, and
    # not the always-on subnet 0 under Catnap's RCS policy.
    gated = [
        stats.total_cycles
        for subnet, stats in enumerate(gating)
        if report.gating_policy != "none"
        and not (subnet == 0 and keeps_subnet0(report))
    ]
    measure_s = tracer.span_s("point.measure")
    metrics: dict[str, tuple[float, str]] = {
        "point.warmup_s": (tracer.span_s("point.warmup"), "s"),
        "point.measure_s": (measure_s, "s"),
        "point.cooldown_s": (tracer.span_s("point.cooldown"), "s"),
        "point.report_s": (tracer.inclusive_s["point.report"], "s"),
        "noc.link.self_s": (self_s["noc.link"], "s"),
        "noc.link.share": (tracer.share("noc.link"), "ratio"),
        "noc.router.self_s": (self_s["noc.router"], "s"),
        "noc.router.share": (tracer.share("noc.router"), "ratio"),
        "noc.router.ns_per_flit_hop": (
            1e9 * self_s["noc.router"] / traced.flit_hops
            if traced.flit_hops else 0.0,
            "ns",
        ),
        "noc.ni.self_s": (self_s["noc.ni"], "s"),
        "noc.ni.share": (tracer.share("noc.ni"), "ratio"),
        "noc.step.self_s": (self_s["noc.step"], "s"),
        "core.monitor.self_s": (self_s["core.monitor"], "s"),
        "core.monitor.share": (tracer.share("core.monitor"), "ratio"),
        "core.monitor.rcs_transitions": (report.rcs_transitions, "count"),
        "core.gating.self_s": (self_s["core.gating"], "s"),
        "core.gating.share": (tracer.share("core.gating"), "ratio"),
        "core.gating.transitions": (transitions, "count"),
        "core.gating.transition_frac": (
            transitions / sum(gated) if sum(gated) else 0.0, "ratio"
        ),
        "core.gating.short_sleep_frac": (
            sum(stats.short_sleep_periods for stats in gating) / sleeps
            if sleeps else 0.0,
            "ratio",
        ),
        "traffic.source.self_s": (self_s["traffic.source"], "s"),
        "traffic.source.share": (tracer.share("traffic.source"), "ratio"),
        "system.self_s": (self_s["system"], "s"),
        "system.coherence.self_s": (self_s["system.coherence"], "s"),
        "system.network_share": (
            tracer.measure_inclusive_s.get("noc.step", 0.0) / measure_s
            if closed_loop and measure_s > 0 else 0.0,
            "ratio",
        ),
        "system.transactions": (
            traced.transactions if closed_loop else 0, "count"
        ),
        "model.latency_cycles": (report.avg_packet_latency, "cycles"),
        "model.latency_p99_cycles": (report.latency_p99, "cycles"),
        "model.throughput": (report.throughput_packets, "pkt/node/cycle"),
        "model.power_w": (traced.power_w, "W"),
        "model.csc_pct": (100.0 * report.csc_fraction, "%"),
        "model.ipc": (traced.ipc if traced.ipc is not None else 0.0, "IPC"),
        "trace.overhead_frac": (
            1.0 - traced.cycles / traced.run_s / untraced_cycles_per_s,
            "ratio",
        ),
    }
    return metrics


def keeps_subnet0(report: Any) -> bool:
    """Whether the gating controller never gates subnet 0."""
    return (
        report.gating_policy == "rcs"
        and report.config.gating.keep_subnet0_active
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every cycle count (for smoke tests; default 1.0)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pinned = [name for name in PINNED_ENV if os.environ.get(name)]
    if pinned:
        print(
            f"perfbench: refusing to run with {', '.join(pinned)} set: "
            "it changes the code path being measured",
            file=sys.stderr,
        )
        return 2
    try:
        repro = Simulator()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed, scale = args.seed, args.scale

    reference = run_point(repro, workload, seed, scale, backend="dense")
    info = {
        "workload": workload.name,
        "seed": seed,
        "cycles": reference.cycles,
        # The closed loop steps the fabric itself, bypassing the kernel.
        "kernel": repro.DEFAULT_BACKEND,
        "git_sha": repro.git_sha(str(ROOT)),
        "host": repro.host_fingerprint(),
        "reference_digest": reference.digest,
    }
    print("perfbench info " + json.dumps(info, sort_keys=True))

    # A traced run spends half its time on untraced repetitions, the
    # base of trace.overhead_frac, then traces one more.
    seconds = args.seconds / 2 if args.trace else args.seconds
    reps = max(1, round(seconds / (workload.rep_s * scale)))
    attempted = failed = 0
    passed: Outcome | None = None
    fastest: list[float] = []
    rates: list[float] = []
    setups: list[float] = []
    for rep in range(reps):
        attempted += 1
        outcome = attempt(repro, workload, seed, scale, reference)
        if outcome is None:
            failed += 1
            continue
        passed = outcome
        fastest = (
            list(map(min, fastest, outcome.windows)) if fastest
            else outcome.windows
        )
        rates.append(outcome.cycles / outcome.run_s)
        setups.append(outcome.setup_s)
        while len(setups) < (rep + 1) * SETUP_SAMPLES / reps:
            setups.append(time_setup(repro, workload, seed))
    traced = None
    if args.trace:
        tracer = LayerTracer()
        attempted += 1
        outcome = attempt(repro, workload, seed, scale, reference, tracer)
        if outcome is None:
            failed += 1
        else:
            traced = (outcome, tracer)

    metrics: dict[str, tuple[float, str]] = {}
    if passed is not None and not args.trace:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(passed, fastest, setups).items()
        }
    elif passed is not None and traced is not None:
        outcome, tracer = traced
        print("perfbench trace " + json.dumps(
            {"digest": outcome.digest, **tracer.to_json()}
        ))
        metrics = per_layer(outcome, tracer, statistics.median(rates))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
