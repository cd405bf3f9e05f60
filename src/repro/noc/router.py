"""Two-stage speculative virtual-channel router.

Models the paper's router microarchitecture (§2.1, §4.1): five ports
(four neighbours + local NI), input-buffered with credit-based VC flow
control, wormhole switching, look-ahead X-Y routing, and a separable
round-robin switch allocator.  The two pipeline stages plus one link
cycle give the 3-cycle per-hop latency used throughout.

Power-gating hooks: a router exposes a coarse power state
(ACTIVE/SLEEP/WAKEUP) managed by a gating controller; a non-active
router accepts no flits, and upstream routers issue look-ahead wakeup
requests when a head flit targets a sleeping next hop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.buffers import InputPort, vc_candidates
from repro.noc.flit import Flit
from repro.noc.topology import Port

if TYPE_CHECKING:
    from repro.noc.network import SubnetNetwork

__all__ = ["PowerState", "Router"]


class PowerState:
    """Coarse router power states (paper §3.1)."""

    ACTIVE = 0
    SLEEP = 1
    WAKEUP = 2

    NAMES = ("active", "sleep", "wakeup")


#: _channel_table(v)[i] == (in_port, 1 << in_port, in_vc) of occupancy
#: bit i mod (Port.COUNT * v), repeated once so that a rotated bit
#: position plus the rotation indexes it without a modulo.
_CHANNEL_TABLES: dict[int, tuple[tuple[int, int, int], ...]] = {}


def _channel_table(vcs: int) -> tuple[tuple[int, int, int], ...]:
    table = _CHANNEL_TABLES.get(vcs)
    if table is None:
        table = _CHANNEL_TABLES[vcs] = tuple(
            (port, 1 << port, vc)
            for _ in range(2)
            for port in range(Port.COUNT)
            for vc in range(vcs)
        )
    return table


class Router:
    """One router of one subnet.

    The router does not decide its own power transitions; a gating
    controller (see :mod:`repro.core.gating`) drives ``power_state``
    through :meth:`can_sleep`-style queries and the network step loop.
    """

    __slots__ = (
        "node",
        "subnet",
        "network",
        "ports",
        "credits",
        "out_owner",
        "neighbor_router",
        "neighbor_node",
        "credit_sinks",
        "vcs_per_port",
        "flits_per_vc",
        "buffered_flits",
        "expected_arrivals",
        "power_state",
        "idle_cycles",
        "track_blocking",
        "blocked_accum",
        "moved_accum",
        "_occupied",
        "_channel_of",
        "_rr",
        "_vc_rr",
        "_route_table",
        "_route_nodes",
    )

    def __init__(
        self,
        node: int,
        subnet: int,
        vcs_per_port: int,
        flits_per_vc: int,
    ) -> None:
        self.node = node
        self.subnet = subnet
        self.network: SubnetNetwork | None = None
        self.vcs_per_port = vcs_per_port
        self.flits_per_vc = flits_per_vc
        self.ports = [
            InputPort(vcs_per_port, flits_per_vc) for _ in range(Port.COUNT)
        ]
        # credits[out_port][vc]: free downstream buffer slots.
        self.credits = [
            [flits_per_vc] * vcs_per_port for _ in range(Port.COUNT)
        ]
        # out_owner[out_port][vc]: output VC currently held by a packet.
        self.out_owner = [
            [False] * vcs_per_port for _ in range(Port.COUNT)
        ]
        # Downstream router object per output port (None at mesh edges
        # and for LOCAL, which ejects to the NI).
        self.neighbor_router: list[Router | None] = [None] * Port.COUNT
        self.neighbor_node: list[int] = [-1] * Port.COUNT
        # credit_sinks[in_port]: the per-VC credit counters of the
        # sender that feeds this input port (the upstream router's
        # credits[out_port] or the local NI's credits for this subnet);
        # a departure returns its credit with sink[vc] += 1.
        self.credit_sinks: list[list[int] | None] = [None] * Port.COUNT
        self.buffered_flits = 0
        self.expected_arrivals = 0
        self.power_state = PowerState.ACTIVE
        self.idle_cycles = 0
        # Blocking-delay counters for the Delay congestion metric; only
        # maintained when track_blocking is set (it costs hot-loop work).
        self.track_blocking = False
        self.blocked_accum = 0
        self.moved_accum = 0
        # Occupancy mask: bit in_port * vcs_per_port + vc is set exactly
        # when that VC's FIFO is non-empty.  The switch allocator walks
        # only the set bits, starting at bit _rr (rotated each cycle for
        # fairness).
        self._occupied = 0
        self._channel_of = _channel_table(vcs_per_port)
        self._rr = 0
        self._vc_rr = 0
        # Route table cached from the routing function (set by the
        # owning network) for flat lookups in _lookahead_route.
        self._route_table: list[int] | None = None
        self._route_nodes = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self, out_port: int, downstream: "Router", downstream_node: int
    ) -> None:
        """Attach ``downstream`` behind output ``out_port``."""
        self.neighbor_router[out_port] = downstream
        self.neighbor_node[out_port] = downstream_node
        downstream.credit_sinks[Port.OPPOSITE[out_port]] = (
            self.credits[out_port]
        )

    # ------------------------------------------------------------------
    # Flit arrival
    # ------------------------------------------------------------------
    def deliver(self, in_port: int, vc: int, flit: Flit) -> None:
        """Land an in-flight flit into input buffer ``(in_port, vc)``."""
        port = self.ports[in_port]
        channel = port.vcs[vc]
        fifo = channel.fifo
        if len(fifo) >= channel.depth:
            raise OverflowError("flit arrived at a full VC (credit bug)")
        fifo.append(flit)
        port.occupancy += 1
        self._occupied |= 1 << (in_port * self.vcs_per_port + vc)
        self.buffered_flits += 1
        self.expected_arrivals -= 1
        self.idle_cycles = 0

    # ------------------------------------------------------------------
    # Congestion-metric views
    # ------------------------------------------------------------------
    def max_port_occupancy(self) -> int:
        """BFM input: max flit occupancy over all input ports.

        Written as a plain loop (not ``max`` over a generator): the BFM
        congestion metric polls this for every busy (node, subnet) pair
        every cycle, and the generator frame dominates at that rate.
        """
        best = 0
        for port in self.ports:
            occupancy = port.occupancy
            if occupancy > best:
                best = occupancy
        return best

    def mean_port_occupancy(self) -> float:
        """BFA input: mean flit occupancy over all input ports."""
        return sum(p.occupancy for p in self.ports) / Port.COUNT

    @property
    def is_drained(self) -> bool:
        """No buffered flits and none in flight toward this router."""
        return self.buffered_flits == 0 and self.expected_arrivals == 0

    # ------------------------------------------------------------------
    # Switch allocation + traversal (one cycle)
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Run VC allocation, switch allocation, and traversal.

        Winners are popped from their input VCs and handed to the
        network's delay line (or ejected to the NI); credits flow back
        to the senders.  At most one flit leaves per input port and per
        output port per cycle (crossbar constraint).

        The ``# perf:`` comments name the pipeline stage each line
        belongs to; :mod:`repro.perf.profiler` reads them to attribute
        its samples.
        """
        # perf: switch_alloc
        occupied = self._occupied
        if not occupied:
            return
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        channel_of = self._channel_of
        total = len(channel_of) >> 1
        offset = self._rr
        self._rr = (offset + 1) % total
        # Rotated right by the round-robin offset, bit b of ``pending``
        # is channel b + offset (mod total): taking the lowest set bit
        # first visits the busy channels in the rotated scan order.
        pending = (
            occupied >> offset | occupied << (total - offset)
        ) & ((1 << total) - 1)
        used_in = 0
        used_out = 0
        moved = 0
        ports = self.ports
        credits = self.credits
        while pending:
            low = pending & -pending
            pending ^= low
            in_port, in_bit, in_vc = channel_of[low.bit_length() - 1 + offset]
            if used_in & in_bit:
                continue
            channel = ports[in_port].vcs[in_vc]
            flit = channel.fifo[0]
            out_port = flit.route
            out_bit = 1 << out_port
            if used_out & out_bit:
                continue
            if out_port == Port.LOCAL:
                # Ejection: no VC allocation needed, bandwidth one
                # flit/cycle through the local output.
                # perf: switch_traversal
                self._eject(in_port, in_vc, flit, cycle)
                # perf: switch_alloc
                used_in |= in_bit
                used_out |= out_bit
                moved += 1
                continue
            # perf: vc_alloc
            if channel.out_port < 0 and not self._allocate_vc(
                channel, flit, out_port
            ):
                continue
            # perf: switch_alloc
            out_vc = channel.out_vc
            if credits[out_port][out_vc] <= 0:
                continue
            downstream = self.neighbor_router[out_port]
            if downstream is None or downstream.power_state:
                # Sleeping/waking next hop: look-ahead wakeup request.
                if downstream is not None:
                    network.request_wakeup(downstream, self.node)
                continue
            # perf: switch_traversal
            self._forward(
                in_port, in_vc, flit, out_port, out_vc, downstream,
                # perf: route_compute
                self._lookahead_route(out_port, flit.packet.dst), cycle,
            )
            # perf: switch_alloc
            used_in |= in_bit
            used_out |= out_bit
            moved += 1
        if self.track_blocking:
            # Blocking proxy for the Delay metric: every head flit that
            # stayed put this cycle accrued one blocked flit-cycle.  A
            # pop empties only the channel being visited, so the heads
            # waiting are exactly the busy channels at entry.
            self.blocked_accum += occupied.bit_count() - moved
            self.moved_accum += moved

    def _allocate_vc(self, channel, flit: Flit, out_port: int) -> bool:
        """Try to allocate an output VC for the head flit of ``channel``.

        Returns True on success.  A sleeping downstream router cannot
        grant VCs; the allocator issues a wakeup request instead.
        """
        downstream = self.neighbor_router[out_port]
        if downstream is None:
            raise RuntimeError(
                f"route to missing neighbour at node {self.node} "
                f"port {Port.NAMES[out_port]}"
            )
        if downstream.power_state:
            if self.network is None:
                raise RuntimeError("router not attached to a network")
            self.network.request_wakeup(downstream, self.node)
            return False
        owner = self.out_owner[out_port]
        candidates = vc_candidates(
            flit.packet.message_class, self.vcs_per_port
        )
        start = self._vc_rr
        self._vc_rr = (start + 1) % len(candidates)
        for j in range(len(candidates)):
            vc = candidates[(j + start) % len(candidates)]
            if not owner[vc]:
                owner[vc] = True
                channel.out_port = out_port
                channel.out_vc = vc
                return True
        return False

    def _lookahead_route(self, out_port: int, dst: int) -> int:
        """Output port the flit will take at the downstream router.

        Look-ahead routing (route compute) runs while the flit crosses
        this switch.
        """
        table = self._route_table
        if table is not None:
            return table[
                self.neighbor_node[out_port] * self._route_nodes + dst
            ]
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        return network.routing.output_port(
            self.neighbor_node[out_port], dst
        )

    def _forward(
        self,
        in_port: int,
        in_vc: int,
        flit: Flit,
        out_port: int,
        out_vc: int,
        downstream: "Router",
        next_route: int,
        cycle: int,
    ) -> None:
        port = self.ports[in_port]
        channel = port.vcs[in_vc]
        fifo = channel.fifo
        fifo.popleft()
        if not fifo:
            self._occupied &= ~(1 << (in_port * self.vcs_per_port + in_vc))
        port.occupancy -= 1
        self.buffered_flits -= 1
        sink = self.credit_sinks[in_port]
        if sink is not None:
            sink[in_vc] += 1
        self.credits[out_port][out_vc] -= 1
        if flit.is_tail:
            self.out_owner[out_port][out_vc] = False
            channel.out_port = -1
            channel.out_vc = -1
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        flit.route = next_route
        flit.vc = out_vc
        downstream.expected_arrivals += 1
        network.send(flit, downstream, Port.OPPOSITE[out_port], out_vc, cycle)

    def _eject(self, in_port: int, in_vc: int, flit: Flit, cycle: int) -> None:
        port = self.ports[in_port]
        channel = port.vcs[in_vc]
        fifo = channel.fifo
        fifo.popleft()
        if not fifo:
            self._occupied &= ~(1 << (in_port * self.vcs_per_port + in_vc))
        port.occupancy -= 1
        self.buffered_flits -= 1
        sink = self.credit_sinks[in_port]
        if sink is not None:
            sink[in_vc] += 1
        if flit.is_tail:
            channel.out_port = -1
            channel.out_vc = -1
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        network.eject(flit, self.node, cycle)
