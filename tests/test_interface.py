"""Tests for the shared network interface."""

from __future__ import annotations

from tests.conftest import small_fabric

from repro.noc.config import NocConfig
from repro.noc.flit import MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.traffic.generators import BurstyTrafficSource
from repro.traffic.patterns import make_pattern


def offer(fabric, src=0, dst=3, bits=512, mc=MessageClass.SYNTHETIC):
    packet = Packet(src=src, dst=dst, size_bits=bits, message_class=mc)
    fabric.offer(packet)
    return packet


class TestPacketization:
    def test_flit_count_from_width(self, fabric):
        packet = offer(fabric, bits=512)  # 128-bit subnets
        assert packet.num_flits == 4

    def test_control_packet_single_flit(self, fabric):
        packet = offer(fabric, bits=72)
        assert packet.num_flits == 1

    def test_queue_occupancy_tracks_flits(self, fabric):
        ni = fabric.nis[0]
        offer(fabric, bits=512)
        offer(fabric, bits=72)
        assert ni.queue_occupancy_flits() == 5
        assert fabric.drain()
        assert ni.queue_occupancy_flits() == 0


class TestStreaming:
    def test_one_flit_per_subnet_per_cycle(self, fabric):
        offer(fabric, bits=512)
        injected_before = fabric.subnets[0].counters.flits_injected
        fabric.step()
        fabric.step()
        total = sum(n.counters.flits_injected for n in fabric.subnets)
        assert total - injected_before <= 2  # <= 1 per cycle

    def test_back_to_back_packets_no_bubble(self):
        """Consecutive single-flit packets inject on consecutive cycles."""
        fabric = small_fabric(num_subnets=1, link_width_bits=256)
        for _ in range(4):
            offer(fabric, bits=72, mc=MessageClass.REQUEST)
        cycles = 0
        while fabric.subnets[0].counters.flits_injected < 4:
            fabric.step()
            cycles += 1
            assert cycles < 20
        assert cycles <= 5  # 4 flits + at most 1 startup cycle

    def test_different_classes_interleave_on_vcs(self):
        """A control packet need not wait behind a long data packet."""
        fabric = small_fabric(num_subnets=1, link_width_bits=128)
        data = offer(fabric, bits=4096, mc=MessageClass.RESPONSE)  # 32 flit
        ctrl = offer(fabric, bits=72, mc=MessageClass.REQUEST)
        assert fabric.drain()
        assert ctrl.received_cycle < data.received_cycle

    def test_all_flits_same_subnet(self, fabric):
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert packet.subnet in (0, 1)


class TestInjectionRate:
    def test_rate_rises_with_injection(self, fabric):
        ni = fabric.nis[0]
        assert ni.injection_rate(fabric.cycle) == 0.0
        for _ in range(30):
            offer(fabric, bits=72)
            fabric.step()
        assert ni.injection_rate(fabric.cycle) > 0.05

    def test_rate_decays_when_idle(self, fabric):
        for _ in range(30):
            offer(fabric, bits=72)
            fabric.step()
        peak = fabric.nis[0].injection_rate(fabric.cycle)
        assert fabric.drain()
        for _ in range(300):
            fabric.step()
        assert fabric.nis[0].injection_rate(fabric.cycle) < peak / 4


class EagerRateOracle:
    """One NI's injection-rate averages, updated eagerly every cycle.

    This is the per-cycle update the fabric ran before idle NIs decayed
    their averages lazily, kept as the oracle: an NI the fabric steps
    makes an active update with what it assigned, and any other NI
    decays its averages by alpha while its rate is above 1e-9.
    """

    def __init__(self, ni):
        self.alpha = ni._ir_alpha
        self.rate = 0.0
        self.rates = [0.0] * len(ni._ir_rate_subnet)
        self.stepped = False
        self.assigned = -1
        step, assign = ni.step, ni._assign_head

        def probe_step(cycle):
            self.stepped = True
            step(cycle)

        def probe_assign(cycle):
            subnet = assign(cycle)
            if subnet >= 0:
                self.assigned = subnet
            return subnet

        ni.step = probe_step
        ni._assign_head = probe_assign

    def end_cycle(self):
        alpha = self.alpha
        rates = self.rates
        if self.stepped:
            hit = 1 if self.assigned >= 0 else 0
            self.rate += alpha * (hit - self.rate)
            for subnet in range(len(rates)):
                hit = 1.0 if subnet == self.assigned else 0.0
                rates[subnet] += alpha * (hit - rates[subnet])
        elif self.rate > 1e-9:
            self.rate -= alpha * self.rate
            for subnet in range(len(rates)):
                rates[subnet] -= alpha * rates[subnet]
        self.stepped = False
        self.assigned = -1

    def bits(self):
        return [value.hex() for value in (self.rate, *self.rates)]


def rate_bits(ni, cycle):
    """The NI's averages as read at ``cycle``, as exact hex strings."""
    rates = [
        ni.subnet_injection_rate(subnet, cycle)
        for subnet in range(len(ni.subnets))
    ]
    return [value.hex() for value in (ni.injection_rate(cycle), *rates)]


# Idle from cycle 150 to 1600: longer than the ~1,200 idle cycles a
# 0.1 packets/cycle average needs to decay below 1e-9.
BURSTS = [(0, 0.1), (150, 0.0), (1600, 0.05), (1700, 0.0)]
BURST_CYCLES = 1900


def bursty_fabric(backend=None):
    fabric = small_fabric(backend=backend)
    pattern = make_pattern("uniform", fabric.mesh)
    source = BurstyTrafficSource(fabric, pattern, BURSTS, 128, seed=3)
    return fabric, source


def eager_lockstep():
    """Run the bursts on the dense kernel, reading every NI's rates
    every cycle and comparing them bit for bit with the eager oracle.
    Returns the oracle's per-cycle readings and the cycles at which an
    oracle rate fell to 1e-9."""
    fabric, source = bursty_fabric(backend="dense")
    oracles = [EagerRateOracle(ni) for ni in fabric.nis]
    history = {}
    frozen = []
    for _ in range(BURST_CYCLES):
        source.step(fabric.cycle)
        fabric.step()
        cycle = fabric.cycle
        readings = []
        for ni, oracle in zip(fabric.nis, oracles):
            before = oracle.rate
            oracle.end_cycle()
            if before > 1e-9 >= oracle.rate:
                frozen.append(cycle)
            assert rate_bits(ni, cycle) == oracle.bits(), (ni.node, cycle)
            readings.append(oracle.bits())
        history[cycle] = readings
    return history, frozen


class TestLazyRateDecay:
    def test_matches_eager_decay_every_cycle(self):
        _history, frozen = eager_lockstep()
        # The gap froze averages: the lazy replay crossed 1e-9.
        assert frozen and all(150 + 1000 < cycle < 1600 for cycle in frozen)

    def test_sparse_reads_replay_the_idle_gap(self):
        """Reads far apart (and leaps over the gap on the default
        kernel) replay many idle cycles per read, still bit-exact."""
        history, _frozen = eager_lockstep()
        fabric, source = bursty_fabric()
        for span in (140, 30, 700, 731, 250, 49):
            fabric.backend.run(span, source)
            cycle = fabric.cycle
            readings = [rate_bits(ni, cycle) for ni in fabric.nis]
            assert readings == history[cycle], cycle
        assert fabric.cycle == BURST_CYCLES


class TestReassembly:
    def test_packet_completes_once(self, fabric):
        completions = []
        fabric.packet_sink = lambda p, c: completions.append(p.packet_id)
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert completions.count(packet.packet_id) == 1

    def test_received_cycle_set(self, fabric):
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert packet.received_cycle > packet.created_cycle
        assert packet.injected_cycle >= packet.created_cycle
