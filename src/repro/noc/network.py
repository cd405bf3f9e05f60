"""A single subnetwork: a mesh of routers plus its transfer delay line.

One of the N equal subnets of the paper's Multi-NoC (§2.2, Figure 1) —
a Single-NoC is the N=1 special case.  :class:`SubnetNetwork` owns the
routers of one subnet, moves flits between them with the configured
pipeline + link latency, returns credits, and accumulates the
:class:`ActivityCounters` the power model (§4.2) consumes.
"""

from __future__ import annotations

from typing import Callable

from repro.noc.config import NocConfig
from repro.noc.flit import Flit
from repro.noc.router import PowerState, Router
from repro.noc.routing import XYRouting
from repro.noc.topology import ConcentratedMesh, Port

__all__ = ["SubnetNetwork", "ActivityCounters"]


class ActivityCounters:
    """Per-subnet event counts consumed by the power model.

    All counts are in flit events; ``flit_cycles`` integrates buffered
    flits over time (for average-occupancy statistics).
    """

    __slots__ = (
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
        "link_traversals",
        "flits_injected",
        "flits_ejected",
        "packets_injected",
        "packets_ejected",
        "flit_cycles",
    )

    def __init__(self) -> None:
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.crossbar_traversals = 0
        self.link_traversals = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_injected = 0
        self.packets_ejected = 0
        self.flit_cycles = 0

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}


class SubnetNetwork:
    """One subnet's routers, links, and bookkeeping.

    Parameters
    ----------
    subnet:
        Index of this subnet within the Multi-NoC (0 = lowest order).
    config:
        Shared fabric configuration.
    mesh, routing:
        Topology and routing function shared by all subnets.
    """

    def __init__(
        self,
        subnet: int,
        config: NocConfig,
        mesh: ConcentratedMesh,
        routing: XYRouting,
    ) -> None:
        self.subnet = subnet
        self.config = config
        self.mesh = mesh
        self.routing = routing
        self.counters = ActivityCounters()
        self.routers = [
            Router(node, subnet, config.vcs_per_port, config.flits_per_vc)
            for node in range(mesh.num_nodes)
        ]
        for router in self.routers:
            router.network = self
            router._route_table = routing.table
            router._route_nodes = routing.num_nodes
        for node in range(mesh.num_nodes):
            for port, neighbor in mesh.neighbors(node).items():
                self.routers[node].connect(
                    port, self.routers[neighbor], neighbor
                )
        self._hop_cycles = config.timing.hop_cycles
        ring_len = self._hop_cycles + 1
        self._ring: list[list[tuple[Router, int, int, Flit]]] = [
            [] for _ in range(ring_len)
        ]
        self._ring_len = ring_len
        #: callable(flit, subnet, node, cycle) installed by the fabric.
        self.eject_sink: Callable[[Flit, int, int, int], None] | None = None
        #: callable(router, requester_node) installed by the gating
        #: controller; collects look-ahead wakeup requests.
        self.wakeup_sink: Callable[[Router, int], None] | None = None
        #: Flits currently inside this subnet (buffered + in flight).
        self.flits_in_network = 0

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def send(
        self, flit: Flit, downstream: Router, in_port: int, vc: int,
        cycle: int,
    ) -> None:
        """Put ``flit`` on the link toward ``downstream``.

        The flit lands in the downstream input buffer ``hop_cycles``
        cycles later (router pipeline + link traversal).
        """
        slot = (cycle + self._hop_cycles) % self._ring_len
        self._ring[slot].append((downstream, in_port, vc, flit))
        if flit.is_head:
            # Head-flit link traversals count the packet's hops (its
            # X-Y routing distance; validated against the topology).
            flit.packet.hops += 1
        counters = self.counters
        counters.buffer_reads += 1
        counters.crossbar_traversals += 1
        counters.link_traversals += 1

    def inject(
        self, flit: Flit, node: int, vc: int, cycle: int
    ) -> None:
        """Inject ``flit`` from the NI into the local router at ``node``.

        Injection uses the same pipeline latency as a hop minus the
        inter-router link (the NI sits next to its router).
        """
        router = self.routers[node]
        router.expected_arrivals += 1
        slot = (cycle + self.config.timing.pipeline_cycles) % self._ring_len
        self._ring[slot].append((router, Port.LOCAL, vc, flit))
        self.flits_in_network += 1
        counters = self.counters
        counters.flits_injected += 1
        if flit.is_head:
            counters.packets_injected += 1

    def eject(self, flit: Flit, node: int, cycle: int) -> None:
        """Hand an ejected flit to the fabric's network interface."""
        counters = self.counters
        counters.buffer_reads += 1
        counters.crossbar_traversals += 1
        counters.flits_ejected += 1
        if flit.is_tail:
            counters.packets_ejected += 1
        self.flits_in_network -= 1
        if self.eject_sink is None:
            raise RuntimeError("no ejection sink installed")
        self.eject_sink(flit, self.subnet, node, cycle)

    def request_wakeup(self, router: Router, requester_node: int) -> None:
        """Forward a look-ahead wakeup request to the gating controller."""
        if self.wakeup_sink is not None:
            self.wakeup_sink(router, requester_node)

    # ------------------------------------------------------------------
    # Per-cycle evaluation
    # ------------------------------------------------------------------
    def deliver_arrivals(self, cycle: int) -> None:
        """Land all flits whose link traversal completes this cycle."""
        slot = self._ring[cycle % self._ring_len]
        if not slot:
            return
        writes = len(slot)
        for router, in_port, vc, flit in slot:
            router.deliver(in_port, vc, flit)
        slot.clear()
        self.counters.buffer_writes += writes

    def step_routers(self, cycle: int) -> None:
        """Run switch allocation + traversal on every busy router."""
        if not self.flits_in_network:
            # Nothing buffered or in flight: no router is busy and the
            # occupancy integral gains nothing.
            return
        for router in self.routers:
            if router.buffered_flits:
                router.step(cycle)
        self.counters.flit_cycles += self.flits_in_network

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def resync_credits(self) -> int:
        """Recompute every upstream credit counter from ground truth.

        Credit-resynchronization recovery (:mod:`repro.faults`): for a
        router-to-router link the correct credit count is the
        downstream VC capacity minus its buffer occupancy minus the
        flits in flight on the link.  Returns the total absolute
        correction applied (0 when every counter was already
        consistent — the steady state without faults).
        """
        in_flight: dict[tuple[int, int, int], int] = {}
        for router, in_port, vc, _flit in self.in_flight():
            key = (id(router), in_port, vc)
            in_flight[key] = in_flight.get(key, 0) + 1
        capacity = self.config.flits_per_vc
        vcs = self.config.vcs_per_port
        corrected = 0
        for router in self.routers:
            for out_port in range(Port.COUNT):
                if out_port == Port.LOCAL:
                    continue
                downstream = router.neighbor_router[out_port]
                if downstream is None:
                    continue
                in_port = Port.OPPOSITE[out_port]
                port = downstream.ports[in_port]
                credits = router.credits[out_port]
                for vc in range(vcs):
                    truth = (
                        capacity
                        - port.vcs[vc].occupancy
                        - in_flight.get((id(downstream), in_port, vc), 0)
                    )
                    if credits[vc] != truth:
                        corrected += abs(credits[vc] - truth)
                        credits[vc] = truth
        return corrected

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self):
        """Yield every link-in-flight flit as (router, in_port, vc, flit).

        ``router`` is the destination the flit will land at.  Used by
        the runtime invariant checker (:mod:`repro.analysis.invariants`)
        to recount credits and conservation laws from first principles;
        the delay-line internals stay private to this class.
        """
        for slot in self._ring:
            for router, in_port, vc, flit in slot:
                yield router, in_port, vc, flit

    @property
    def is_idle(self) -> bool:
        """True when no flit is buffered or in flight in this subnet."""
        return self.flits_in_network == 0

    def active_router_count(self) -> int:
        """Number of routers currently in the ACTIVE power state."""
        return sum(
            1
            for router in self.routers
            if router.power_state == PowerState.ACTIVE
        )
