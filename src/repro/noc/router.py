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

from typing import TYPE_CHECKING, Callable

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
        "_rr",
        "_vc_rr",
        "_scan",
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
        # credit_sinks[in_port]: callable(vc) crediting the sender that
        # feeds this input port (upstream router or the local NI).
        self.credit_sinks: list[Callable[[int], None] | None] = (
            [None] * Port.COUNT
        )
        self.buffered_flits = 0
        self.expected_arrivals = 0
        self.power_state = PowerState.ACTIVE
        self.idle_cycles = 0
        # Blocking-delay counters for the Delay congestion metric; only
        # maintained when track_blocking is set (it costs hot-loop work).
        self.track_blocking = False
        self.blocked_accum = 0
        self.moved_accum = 0
        self._rr = 0
        self._vc_rr = 0
        # Precomputed (in_port, in_bit, in_vc, channel) scan order for
        # the switch allocator; rotated by _rr each cycle for fairness.
        # Built lazily on the first step: routers of a subnet that
        # stays empty never step, and 40 tuples per router add up at
        # construction time.
        self._scan: list[tuple] | None = None
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
        in_port = Port.OPPOSITE[out_port]
        downstream.credit_sinks[in_port] = self._make_credit_sink(out_port)

    def _make_credit_sink(self, out_port: int) -> Callable[[int], None]:
        credits = self.credits[out_port]

        def sink(vc: int) -> None:
            credits[vc] += 1

        return sink

    # ------------------------------------------------------------------
    # Flit arrival
    # ------------------------------------------------------------------
    def deliver(self, in_port: int, vc: int, flit: Flit) -> None:
        """Land an in-flight flit into input buffer ``(in_port, vc)``."""
        self.ports[in_port].push(vc, flit)
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

    def occupancy_by_port(self) -> tuple[int, ...]:
        """Flit occupancy of each input port, indexed by ``Port``.

        Telemetry samplers poll this for the per-router occupancy
        heatmap; it is a read-only snapshot with no hot-loop cost.
        """
        return tuple(p.occupancy for p in self.ports)

    @property
    def is_drained(self) -> bool:
        """No buffered flits and none in flight toward this router."""
        return self.buffered_flits == 0 and self.expected_arrivals == 0

    def _scan_order(self) -> list[tuple]:
        """The (in_port, in_bit, in_vc, channel) allocator scan order,
        built on first use (also read by the perf router mirror)."""
        scan = self._scan
        if scan is None:
            scan = self._scan = [
                (p, 1 << p, v, self.ports[p].vcs[v])
                for p in range(Port.COUNT)
                for v in range(self.vcs_per_port)
            ]
        return scan

    # ------------------------------------------------------------------
    # Switch allocation + traversal (one cycle)
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Run VC allocation, switch allocation, and traversal.

        Winners are popped from their input VCs and handed to the
        network's delay line (or ejected to the NI); credits flow back
        to the senders.  At most one flit leaves per input port and per
        output port per cycle (crossbar constraint).
        """
        if self.buffered_flits == 0:
            return
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        scan = self._scan
        if scan is None:
            scan = self._scan_order()
        total = len(scan)
        offset = self._rr
        self._rr = (offset + 1) % total
        if offset:
            scan = scan[offset:] + scan[:offset]
        used_in = 0
        used_out = 0
        heads_waiting = 0
        moved = 0
        credits = self.credits
        for in_port, in_bit, in_vc, channel in scan:
            fifo = channel.fifo
            if not fifo:
                continue
            heads_waiting += 1
            if used_in & in_bit:
                continue
            flit = fifo[0]
            out_port = flit.route
            out_bit = 1 << out_port
            if used_out & out_bit:
                continue
            if out_port == Port.LOCAL:
                # Ejection: no VC allocation needed, bandwidth one
                # flit/cycle through the local output.
                self._eject(in_port, in_vc, flit, cycle)
                used_in |= in_bit
                used_out |= out_bit
                moved += 1
                continue
            if channel.out_port < 0 and not self._allocate_vc(
                channel, flit, out_port
            ):
                continue
            out_vc = channel.out_vc
            if credits[out_port][out_vc] <= 0:
                continue
            downstream = self.neighbor_router[out_port]
            if downstream is None or downstream.power_state:
                # Sleeping/waking next hop: look-ahead wakeup request.
                if downstream is not None:
                    network.request_wakeup(downstream, self.node)
                continue
            self._forward(
                in_port, in_vc, flit, out_port, out_vc, downstream,
                self._lookahead_route(out_port, flit.packet.dst), cycle,
            )
            used_in |= in_bit
            used_out |= out_bit
            moved += 1
        if self.track_blocking:
            # Blocking proxy for the Delay metric: every head flit that
            # stayed put this cycle accrued one blocked flit-cycle.
            self.blocked_accum += heads_waiting - moved
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
        this switch; :mod:`repro.perf` times it as its own pipeline
        stage, so it stays a separate method from :meth:`_forward`.
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
        ports = self.ports
        channel = ports[in_port].vcs[in_vc]
        ports[in_port].pop(in_vc)
        self.buffered_flits -= 1
        self.credits[out_port][out_vc] -= 1
        credit_sink = self.credit_sinks[in_port]
        if credit_sink is not None:
            credit_sink(in_vc)
        if flit.is_tail:
            self.out_owner[out_port][out_vc] = False
            channel.release_allocation()
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        flit.route = next_route
        flit.vc = out_vc
        downstream.expected_arrivals += 1
        network.send(flit, downstream, Port.OPPOSITE[out_port], out_vc, cycle)

    def _eject(self, in_port: int, in_vc: int, flit: Flit, cycle: int) -> None:
        ports = self.ports
        channel = ports[in_port].vcs[in_vc]
        ports[in_port].pop(in_vc)
        self.buffered_flits -= 1
        credit_sink = self.credit_sinks[in_port]
        if credit_sink is not None:
            credit_sink(in_vc)
        if flit.is_tail and channel.has_allocation:
            channel.release_allocation()
        network = self.network
        if network is None:
            raise RuntimeError("router not attached to a network")
        network.eject(flit, self.node, cycle)
