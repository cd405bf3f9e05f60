"""Phase names and the stage-timed router class used when profiling.

The phase profiler (:class:`repro.perf.profiler.PhaseProfiler`) splits
one fabric clock step into the named phases below.  The first six
partition :meth:`MultiNocFabric.step` directly; the four router stages
partition the ``router_pipeline`` slice of it, mirroring the paper's
router microarchitecture (route compute / VC allocation / switch
allocation / switch traversal).

:class:`Router` declares ``__slots__`` and cannot be shadowed per
instance, so the profiler retypes each router to the stateless
subclass :func:`stage_timed_router` builds, which times the stage
helpers :meth:`Router.step` calls; the step itself runs unchanged.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any

from repro.noc.flit import Flit
from repro.noc.router import Router

__all__ = [
    "STEP_PHASES",
    "ROUTER_STAGES",
    "ALL_PHASES",
    "StageClock",
    "stage_timed_router",
]

#: Top-level slices of one ``MultiNocFabric.step`` call, in execution
#: order.  ``router_pipeline`` is itself split by :data:`ROUTER_STAGES`;
#: ``step_other`` is the residual (cycle bookkeeping, timer overhead).
STEP_PHASES = (
    "link_delivery",
    "monitor_lcs",
    "regional_update",
    "ni_packetization",
    "router_pipeline",
    "gating",
    "step_other",
)

#: Stages of the router pipeline slice.  ``switch_alloc`` is the scan
#: loop itself — winner arbitration over (port, VC) pairs — measured as
#: the pipeline residual around the three bracketed stages.
ROUTER_STAGES = (
    "switch_alloc",
    "vc_alloc",
    "route_compute",
    "switch_traversal",
)

ALL_PHASES = STEP_PHASES + ROUTER_STAGES


class StageClock:
    """Nanosecond accumulators for the three bracketed router stages.

    One instance lives per profiler; the routers of its
    :func:`stage_timed_router` class add into it, and the profiler
    reads the totals to split the router pipeline into stages.
    """

    __slots__ = ("vc_alloc", "route_compute", "switch_traversal")

    def __init__(self) -> None:
        self.vc_alloc = 0
        self.route_compute = 0
        self.switch_traversal = 0

    def bracketed_total(self) -> int:
        """Nanoseconds measured inside explicit stage brackets."""
        return self.vc_alloc + self.route_compute + self.switch_traversal


def stage_timed_router(clock: StageClock) -> type[Router]:
    """A :class:`Router` subclass whose stage helpers add their wall
    time into ``clock``.

    Switch traversal is ``_forward`` and ``_eject``; whatever the
    pipeline spends outside the three bracketed stages is the switch
    allocation residual.
    """

    class StageTimedRouter(Router):
        __slots__ = ()

        def _allocate_vc(
            self, channel: Any, flit: Flit, out_port: int
        ) -> bool:
            t0 = perf_counter_ns()
            granted = Router._allocate_vc(self, channel, flit, out_port)
            clock.vc_alloc += perf_counter_ns() - t0
            return granted

        def _lookahead_route(self, out_port: int, dst: int) -> int:
            t0 = perf_counter_ns()
            route = Router._lookahead_route(self, out_port, dst)
            clock.route_compute += perf_counter_ns() - t0
            return route

        def _forward(self, *args: Any, **kwargs: Any) -> None:
            t0 = perf_counter_ns()
            Router._forward(self, *args, **kwargs)
            clock.switch_traversal += perf_counter_ns() - t0

        def _eject(self, *args: Any, **kwargs: Any) -> None:
            t0 = perf_counter_ns()
            Router._eject(self, *args, **kwargs)
            clock.switch_traversal += perf_counter_ns() - t0

    return StageTimedRouter
