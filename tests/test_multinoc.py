"""End-to-end fabric tests: delivery, conservation, reporting."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import gated_config, small_config, small_fabric

from repro.noc.flit import MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.noc.observers import OBSERVERS


class TestDelivery:
    def test_every_packet_delivered(self, fabric):
        received = []
        fabric.packet_sink = lambda p, c: received.append(p.packet_id)
        packets = []
        for src in range(fabric.mesh.num_nodes):
            for dst in (0, 5, 15):
                if dst == src:
                    continue
                packet = Packet(src=src, dst=dst, size_bits=512)
                fabric.offer(packet)
                packets.append(packet)
        assert fabric.drain()
        assert sorted(received) == sorted(p.packet_id for p in packets)

    def test_offer_from_tile_maps_to_nodes(self, fabric):
        packet = fabric.offer_from_tile(0, 15, 512, MessageClass.REQUEST)
        assert packet.src == 0
        assert packet.dst == 3  # tile 15 -> node 3 (4 tiles/node)
        assert fabric.drain()
        assert packet.received_cycle >= 0

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_conservation_random_traffic(self, data):
        """Property: offered == received after drain, any traffic set."""
        fabric = small_fabric(seed=data.draw(st.integers(0, 1000)))
        n = fabric.mesh.num_nodes
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.sampled_from([72, 128, 512, 584]),
                ),
                max_size=40,
            )
        )
        offered = 0
        for src, dst, bits in pairs:
            if src == dst:
                continue
            fabric.offer(Packet(src=src, dst=dst, size_bits=bits))
            offered += 1
        assert fabric.drain()
        assert fabric.stats.packets_received == offered

    def test_conservation_with_power_gating(self):
        fabric = MultiNocFabric(gated_config(), seed=9)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    fabric.offer(Packet(src=src, dst=dst, size_bits=512))
        assert fabric.drain()
        assert fabric.stats.packets_received == 16 * 15


class TestSubnetUsage:
    def test_catnap_uses_subnet0_at_low_load(self):
        fabric = small_fabric()
        for i in range(10):
            fabric.offer(Packet(src=0, dst=10, size_bits=72))
            for _ in range(20):
                fabric.step()
        shares = fabric.subnet_injection_share()
        assert shares[0] > 0.9

    def test_round_robin_spreads_evenly(self):
        fabric = small_fabric(selection_policy="round_robin")
        for i in range(40):
            fabric.offer(Packet(src=i % 16, dst=(i + 5) % 16, size_bits=72))
        assert fabric.drain()
        shares = fabric.subnet_injection_share()
        assert shares[0] == pytest.approx(0.5, abs=0.1)

    def test_share_empty_fabric(self, fabric):
        assert fabric.subnet_injection_share() == [0.0, 0.0]


class TestReport:
    def test_report_shape(self, fabric):
        fabric.offer(Packet(src=0, dst=3, size_bits=512))
        fabric.stats.begin_measurement(0)
        assert fabric.drain()
        fabric.stats.end_measurement(fabric.cycle)
        report = fabric.report()
        assert report.cycles == fabric.cycle
        assert len(report.activity) == 2
        assert len(report.gating) == 2
        assert report.packets_received == 1
        assert report.avg_packet_latency > 0

    def test_report_csc_zero_without_gating(self, fabric):
        fabric.run(20)
        assert fabric.report().csc_fraction == 0.0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run(seed):
            fabric = small_fabric(seed=seed)
            rng_packets = [
                (i % 16, (i * 7 + 3) % 16) for i in range(50)
            ]
            for src, dst in rng_packets:
                if src != dst:
                    fabric.offer(Packet(src=src, dst=dst, size_bits=512))
            assert fabric.drain()
            return (
                fabric.cycle,
                fabric.subnets[0].counters.link_traversals,
                fabric.subnets[1].counters.link_traversals,
            )

        assert run(7) == run(7)

    def test_different_policies_differ(self):
        """Round-robin and Catnap produce different subnet usage."""
        def shares(policy):
            fabric = small_fabric(selection_policy=policy)
            for i in range(60):
                fabric.offer(
                    Packet(src=i % 16, dst=(i + 3) % 16, size_bits=512)
                )
            assert fabric.drain()
            return fabric.subnet_injection_share()

        assert shares("catnap")[0] > shares("round_robin")[0]


class TestHopCounts:
    def test_hops_equal_manhattan_distance(self):
        """Under X-Y routing every packet's hop count is exact."""
        fabric = small_fabric()
        received = []
        fabric.packet_sink = lambda packet, cycle: received.append(packet)
        mesh = fabric.mesh
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                if src != dst:
                    fabric.offer(Packet(src=src, dst=dst, size_bits=512))
        assert fabric.drain()
        assert received
        for packet in received:
            sx, sy = mesh.coordinates(packet.src)
            dx, dy = mesh.coordinates(packet.dst)
            assert packet.hops == abs(sx - dx) + abs(sy - dy)

    def test_report_carries_avg_hops_per_subnet(self):
        fabric = small_fabric()
        for i in range(40):
            fabric.offer(
                Packet(src=i % 16, dst=(i + 5) % 16, size_bits=512)
            )
        assert fabric.drain()
        report = fabric.report()
        assert len(report.avg_hops_per_subnet) == 2
        # Traffic flowed, so at least one subnet has a positive mean.
        assert any(h > 0 for h in report.avg_hops_per_subnet)
        assert report.avg_hops_per_subnet == (
            fabric.stats.average_hops_per_subnet()
        )
        assert fabric.stats.average_hops() > 0

    def test_report_carries_latency_percentiles(self):
        fabric = small_fabric()
        from repro.traffic.generators import SyntheticTrafficSource
        from repro.traffic.patterns import make_pattern

        source = SyntheticTrafficSource(
            fabric, make_pattern("uniform", fabric.mesh), 0.1, 128, seed=5
        )
        fabric.stats.begin_measurement(0)
        for _ in range(600):
            source.step(fabric.cycle)
            fabric.step()
        report = fabric.report()
        assert report.latency_p50 > 0
        assert (
            report.latency_p50
            <= report.latency_p95
            <= report.latency_p99
        )


# ----------------------------------------------------------------------
# The observer table (repro.noc.observers)
# ----------------------------------------------------------------------

_SWITCHES = [row.env for row in OBSERVERS]


def _clear_switches(monkeypatch, tmp_path) -> None:
    for row in OBSERVERS:
        monkeypatch.delenv(row.env, raising=False)
        if row.dir_env:
            monkeypatch.setenv(row.dir_env, str(tmp_path / row.attr))


def _method_shadows(fabric) -> list[tuple[str, str]]:
    """Instance attributes that hide a class method, anywhere an
    observer can shadow."""
    owners = [
        fabric,
        fabric.gating,
        fabric.monitor,
        fabric.monitor.regional,
        *fabric.nis,
        *fabric.subnets,
    ]
    return [
        (type(owner).__name__, name)
        for owner in owners
        for name in vars(owner)
        if callable(getattr(type(owner), name, None))
    ]


class TestObserverTable:
    @pytest.mark.parametrize("row", OBSERVERS, ids=lambda row: row.attr)
    def test_switch_attaches_its_row(self, monkeypatch, tmp_path, row):
        _clear_switches(monkeypatch, tmp_path)
        for off in (None, "0"):
            if off is not None:
                monkeypatch.setenv(row.env, off)
            fabric = MultiNocFabric(gated_config(), seed=5)
            assert getattr(fabric, row.attr) is None
            assert _method_shadows(fabric) == []
            for ni in fabric.nis:
                assert ni.packet_sink == fabric._on_packet_received
        monkeypatch.setenv(row.env, "1")
        fabric = MultiNocFabric(gated_config(), seed=5)
        observer = getattr(fabric, row.attr)
        assert isinstance(observer, row.load())
        assert observer.attached
        # Each observer installs a shadow on the fabric itself: perf
        # only on ``report``, the others on ``step``.
        shadowed = vars(fabric)["report" if row.attr == "perf" else "step"]
        assert shadowed.__self__ is observer
        for other in OBSERVERS:
            if other is not row:
                assert getattr(fabric, other.attr) is None

    def test_stacked_observers_wrap_in_table_order(
        self, monkeypatch, tmp_path
    ):
        _clear_switches(monkeypatch, tmp_path)
        for row in OBSERVERS:
            monkeypatch.setenv(row.env, "1")
        fabric = MultiNocFabric(gated_config(), seed=5)
        perf, faults, checker, telemetry, explain = (
            getattr(fabric, row.attr) for row in OBSERVERS
        )
        assert vars(fabric)["step"] == explain._explain_step
        assert explain._orig_step == telemetry._telemetry_step
        assert telemetry._orig_step == checker._checked_step
        assert checker._orig_step == faults._fault_step
        # perf samples instead of wrapping step: faults wrap the class
        # step directly.
        assert faults._orig_step.__func__ is MultiNocFabric.step
        fabric.run(64)
        assert fabric.cycle == 64 and perf.cycles_profiled == 64
        for observer in (explain, telemetry, checker, faults, perf):
            observer.detach()
        assert "step" not in vars(fabric)
        assert "report" not in vars(fabric)
        assert _method_shadows(fabric) == []

    def test_out_of_order_detach_raises_and_changes_nothing(
        self, monkeypatch, tmp_path
    ):
        _clear_switches(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        fabric = MultiNocFabric(gated_config(), seed=5)
        checker, telemetry = fabric.invariant_checker, fabric.telemetry
        with pytest.raises(RuntimeError, match="InvariantChecker.*step"):
            checker.detach()
        assert checker.attached
        assert vars(fabric)["step"] == telemetry._telemetry_step
        assert telemetry._orig_step == checker._checked_step
        telemetry.detach()
        checker.detach()
        assert "step" not in vars(fabric)

    def test_unobserved_fabric_imports_no_observer_package(self):
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in _SWITCHES
        }
        code = (
            "import sys\n"
            "from repro.noc.config import NocConfig\n"
            "from repro.noc.multinoc import MultiNocFabric\n"
            "MultiNocFabric(NocConfig.mesh_64_core(num_subnets=2))\n"
            "packages = ('perf', 'faults', 'analysis', 'telemetry', "
            "'explain')\n"
            "print(sorted(name for name in sys.modules if "
            "name.split('.')[:2][-1] in packages and "
            "name.startswith('repro.')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"
