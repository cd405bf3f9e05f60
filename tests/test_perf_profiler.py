"""Tests for the sampling phase profiler (repro.perf.profiler).

The contract under test: a fabric without ``REPRO_PERF`` carries no
instance shadows; an attached profiler shadows only ``report``, so the
default kernel still leaps, and it changes *nothing* about simulation
behaviour (byte-identical fabric reports); its sample counts partition
into the step phases and router stages; attribution of a frame to a
phase and stage is exact and does not depend on timer luck; and
flushes produce schema-valid artifacts (plus cProfile outputs when
asked).
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import os
import signal
import sys
import weakref
from types import SimpleNamespace

import pytest

from repro.core.gating import PowerGatingController
from repro.core.monitor import CongestionMonitor
from repro.core.regional import RegionalCongestionNetwork
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.noc.interface import NetworkInterface
from repro.noc.multinoc import MultiNocFabric
from repro.noc.network import SubnetNetwork
from repro.noc.router import Router
from repro.perf import profiler as profiler_module
from repro.perf.profiler import (
    PROFILE_SCHEMA,
    ROUTER_STAGES,
    STEP_PHASES,
    PhaseProfiler,
    attribute,
    cprofile_enabled,
    marker_table,
    stage_table,
)
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern

CYCLES = 600
LOAD = 0.15


def _config() -> NocConfig:
    return NocConfig(
        mesh_cols=4,
        mesh_rows=4,
        num_subnets=2,
        link_width_bits=128,
        voltage_v=0.625,
        gating=PowerGatingConfig(enabled=True),
    )


def _source(fabric: MultiNocFabric) -> SyntheticTrafficSource:
    return SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), LOAD, 128, seed=7
    )


def _run(fabric: MultiNocFabric, cycles: int = CYCLES) -> None:
    # Through the backend (not a hand-rolled step loop) so the
    # profiled-vs-plain contract is tested on every kernel.
    fabric.backend.run(cycles, _source(fabric))


def _run_until_sampled(
    profiler: PhaseProfiler, phase: str = "router_pipeline", least: int = 20
) -> None:
    """Run the profiled fabric until ``phase`` holds ``least`` samples.

    Sampling is statistical, so the partition tests run to a sample
    count, not to a cycle count; the cycle cap only stops a broken
    sampler from looping forever.
    """
    fabric = profiler.fabric
    source = _source(fabric)
    for _ in range(400):
        if profiler.phase_samples[phase] >= least:
            return
        fabric.backend.run(200, source)
    pytest.fail(f"fewer than {least} {phase} samples in 80,000 cycles")


class TestZeroOverheadWhenDetached:
    def test_perf_off_is_the_class_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        assert fabric.perf is None
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        assert fabric.step.__func__ is MultiNocFabric.step
        assert fabric.report.__func__ is MultiNocFabric.report
        assert "update" not in fabric.monitor.regional.__dict__

    def test_maybe_attach_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "0")
        assert MultiNocFabric(_config(), seed=7).perf is None
        assert not cprofile_enabled()

    def test_detach_restores_everything(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        assert "report" in fabric.__dict__
        profiler.detach()
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        assert "update" not in fabric.monitor.regional.__dict__
        assert fabric.report.__func__ is MultiNocFabric.report
        # Detached: the sampling window is closed.
        samples = profiler.samples
        _run(fabric, cycles=200)
        assert profiler.samples == samples


class TestSamplerLeaves:
    def test_attached_profiler_shadows_only_report(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        PhaseProfiler(fabric, out_dir=None).attach()
        assert list(vars(fabric)).count("report") == 1
        assert "step" not in vars(fabric)
        assert "update" not in vars(fabric.monitor.regional)
        for network in fabric.subnets:
            for router in network.routers:
                assert type(router) is Router

    def test_profiled_zero_load_run_leaps(self, monkeypatch):
        """Profiling no longer forces per-cycle stepping: a profiled
        zero-load 4NT-PG run leaps (fewer ``step`` calls than cycles)
        and still equals the dense reference."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        config = NocConfig.multi_noc(4, power_gating=True)
        dense = MultiNocFabric(config, seed=3, backend="dense")
        dense.run(2_000)

        calls = []
        class_step = MultiNocFabric.step
        stage_table()  # read the markers before step is wrapped

        def counted(self: MultiNocFabric) -> None:
            calls.append(self.cycle)
            class_step(self)

        monkeypatch.setattr(MultiNocFabric, "step", counted)
        fabric = MultiNocFabric(config, seed=3)
        PhaseProfiler(fabric, out_dir=None).attach()
        fabric.run(2_000)
        assert fabric.cycle == 2_000
        assert len(calls) < 2_000
        assert dataclasses.asdict(fabric.report()) == dataclasses.asdict(
            dense.report()
        )

    def test_timer_stops_once_no_profiler_is_alive(self, monkeypatch):
        """Profilers attached and never detached (as sweeps leave them)
        stop the timer once they are garbage: the next sample finds no
        live profiler and disarms."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        # Hide profilers earlier tests left alive.
        monkeypatch.setattr(
            profiler_module, "_LIVE", weakref.WeakValueDictionary()
        )
        fabric = MultiNocFabric(_config(), seed=7)
        PhaseProfiler(fabric, out_dir=None).attach()
        assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
        del fabric
        gc.collect()
        assert not profiler_module._LIVE
        profiler_module._on_sample(signal.SIGPROF, sys._getframe())
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


class TestBehavioralEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "skip"])
    def test_profiled_run_matches_plain_run(self, monkeypatch, backend):
        """An attached sampler must not perturb the simulation: same
        seed, same traffic — identical fabric report, field for field,
        on the dense reference and on the leaping default kernel."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        plain = MultiNocFabric(_config(), seed=7, backend=backend)
        _run(plain)
        plain_report = plain.report()

        profiled = MultiNocFabric(_config(), seed=7, backend=backend)
        profiler = PhaseProfiler(profiled, out_dir=None).attach()
        _run(profiled)
        profiled_report = profiled.report()

        assert dataclasses.asdict(plain_report) == dataclasses.asdict(
            profiled_report
        )
        assert profiler.cycles_profiled == CYCLES


class TestPhaseAccounting:
    def test_phases_partition_step_time(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run_until_sampled(profiler)
        phases = profiler.phase_samples
        assert tuple(phases) == STEP_PHASES
        assert all(count >= 0 for count in phases.values())
        # Each step sample lands in exactly one phase; every sample the
        # process took while attached is at most one step sample.
        assert sum(phases.values()) == profiler.step_samples
        assert 0 < profiler.step_samples <= profiler.samples
        assert profiler.resolution_s > 0
        assert profiler.cpu_seconds == pytest.approx(
            profiler.samples * profiler.resolution_s
        )

    def test_router_stages_partition_pipeline(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run_until_sampled(profiler)
        stages = profiler.stage_samples
        assert tuple(stages) == ROUTER_STAGES
        pipeline = profiler.phase_samples["router_pipeline"]
        assert pipeline >= 20
        assert sum(stages.values()) == pipeline

    def test_throughput_counts_real_work(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run(fabric)
        throughput = profiler.throughput()
        assert throughput["cycles_per_sec"] > 0
        assert throughput["flits_per_sec"] > 0
        assert throughput["flits_routed"] > 0

    def test_ascii_summary_renders(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run_until_sampled(profiler, least=1)
        text = profiler.ascii_summary()
        assert "router_pipeline" in text
        assert "switch_traversal" in text
        assert "cycles/s" in text


# ----------------------------------------------------------------------
# Attribution: real frames, no timer
# ----------------------------------------------------------------------

#: (owner, method) -> the (phase, stage) a frame inside it belongs to.
_PROBES = {
    (SubnetNetwork, "deliver_arrivals"): ("link_delivery", None),
    (CongestionMonitor, "update"): ("monitor_lcs", None),
    (NetworkInterface, "step"): ("ni_packetization", None),
    (SubnetNetwork, "step_routers"): ("router_pipeline", "switch_alloc"),
    (PowerGatingController, "step"): ("gating", None),
    (Router, "_allocate_vc"): ("router_pipeline", "vc_alloc"),
    (Router, "_lookahead_route"): ("router_pipeline", "route_compute"),
    (Router, "_forward"): ("router_pipeline", "switch_traversal"),
    (Router, "_eject"): ("router_pipeline", "switch_traversal"),
}


class _CycleProbe(MultiNocFabric):
    """A fabric whose ``cycle`` reads record the reader's attribution:
    ``step`` reads and writes it on its ``step_other`` lines."""

    seen: list = []

    @property
    def cycle(self) -> int:
        hit = attribute(sys._getframe())
        if hit is not None:
            self.seen.append(hit)
        return self._cycle

    @cycle.setter
    def cycle(self, value: int) -> None:
        self._cycle = value


class TestAttribution:
    def test_frames_inside_each_phase_and_stage(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        seen: dict[tuple[type, str], set] = {key: set() for key in _PROBES}
        fabrics: set[int] = set()

        def probe(key, real):
            def wrapper(*args, **kwargs):
                fabric, phase, stage = attribute(sys._getframe())
                fabrics.add(id(fabric))
                seen[key].add((phase, stage))
                return real(*args, **kwargs)

            return wrapper

        for key in _PROBES:
            owner, name = key
            monkeypatch.setattr(
                owner, name, probe(key, getattr(owner, name))
            )
        monkeypatch.setattr(_CycleProbe, "seen", [])
        fabric = _CycleProbe(_config(), seed=7, backend="dense")
        _run(fabric, cycles=300)
        assert fabrics == {id(fabric)}
        for key, expected in _PROBES.items():
            assert seen[key] == {expected}, key
        assert {hit[1:] for hit in _CycleProbe.seen} == {
            ("step_other", None)
        }
        assert {id(hit[0]) for hit in _CycleProbe.seen} == {id(fabric)}

    def test_regional_update_splits_out_of_the_monitor(self, monkeypatch):
        """The regional OR network calls nothing a probe could wrap, so
        its frame is stood in for on top of a real monitor frame."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        regional_code = RegionalCongestionNetwork.update.__code__
        hits = []
        real = CongestionMonitor.update

        def wrapper(*args, **kwargs):
            inner = SimpleNamespace(
                f_code=regional_code,
                f_lineno=regional_code.co_firstlineno,
                f_back=sys._getframe(),
            )
            hits.append(attribute(inner)[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(CongestionMonitor, "update", wrapper)
        _run(MultiNocFabric(_config(), seed=7, backend="dense"), cycles=20)
        assert set(hits) == {("regional_update", None)}

    def test_outside_any_step_is_unattributed(self):
        assert attribute(sys._getframe()) is None

    @pytest.mark.parametrize(
        "func, snippet, name",
        [
            (MultiNocFabric.step, "cycle = self.cycle", "step_other"),
            (MultiNocFabric.step, "self.cycle = cycle + 1", "step_other"),
            (MultiNocFabric.step, "ni.step(cycle)", "ni_packetization"),
            (Router.step, "pending ^= low", "switch_alloc"),
            (Router.step, "moved += 1", "switch_alloc"),
            (Router.step, "self._allocate_vc(", "vc_alloc"),
            (Router.step, "self._lookahead_route(", "route_compute"),
            (Router.step, "self._forward(", "switch_traversal"),
            (Router.step, "self._eject(", "switch_traversal"),
        ],
    )
    def test_marker_table_maps_source_lines(self, func, snippet, name):
        table = stage_table()
        lines = (
            table.phase_of_line
            if func is MultiNocFabric.step
            else table.stage_of_line
        )
        source, first = inspect.getsourcelines(func)
        hits = [
            first + offset
            for offset, text in enumerate(source)
            if snippet in text and not text.strip().startswith("#")
        ]
        assert hits
        assert {lines[lineno] for lineno in hits} == {name}

    def test_missing_and_unknown_markers_raise(self):
        def marked(x: int) -> int:
            # perf: alpha
            y = x + 1
            # perf: beta
            return y

        assert set(marker_table(marked, ("alpha", "beta")).values()) == {
            "alpha",
            "beta",
        }
        with pytest.raises(ValueError, match="missing.*gamma"):
            marker_table(marked, ("alpha", "beta", "gamma"))
        with pytest.raises(ValueError, match="unknown.*beta"):
            marker_table(marked, ("alpha",))


class TestArtifacts:
    def test_flush_writes_schema_valid_profile(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=str(tmp_path)).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        with open(paths["profile"], encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["config"] == fabric.config.name
        assert doc["cycles_profiled"] == 50
        assert set(doc["phases"]) == set(STEP_PHASES)
        assert set(doc["router_stages"]) == set(ROUTER_STAGES)
        assert doc["samples"] >= doc["step_samples"] >= 0
        assert doc["step_samples"] == sum(
            entry["samples"] for entry in doc["phases"].values()
        )
        assert doc["resolution_s"] >= 0.0
        assert doc["cpu_seconds"] > 0.0
        # Repeated flushes get fresh names (no clobbering).
        second = profiler.flush()
        assert second["profile"] != paths["profile"]

    def test_report_autoflushes_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "1")
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path))
        fabric = MultiNocFabric(_config(), seed=7)
        assert fabric.perf is not None
        _run(fabric, cycles=50)
        fabric.report()
        artifacts = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".perf.json")
        ]
        assert len(artifacts) == 1

    def test_cprofile_capture_emits_folded_stacks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(
            fabric, out_dir=str(tmp_path), capture_cprofile=True
        ).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        assert os.path.exists(paths["pstats"])
        with open(paths["folded"], encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert lines, "cProfile capture produced no folded stacks"
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames
            assert int(weight) > 0
        # Router work must be visible in the capture.
        assert any("step" in line for line in lines)


class TestShowCli:
    def test_show_renders_profile(self, tmp_path, monkeypatch, capsys):
        from repro.perf.__main__ import main

        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=str(tmp_path)).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        assert main(["show", paths["profile"]]) == 0
        out = capsys.readouterr().out
        assert "router_pipeline" in out
        assert "switch_traversal" in out
        assert "samples=" in out
        assert "ms each" in out

    def test_show_unreadable_path_fails(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        assert main(["show", str(tmp_path / "missing.perf.json")]) == 1
