"""Per-layer timers for the traced benchmark run.

The tracer shadows public methods on single simulator *instances*
(never on classes), so an untraced fabric in the same process runs the
plain class bytecode.  Each shadow adds the call's duration to its
layer and subtracts it from the enclosing timed call, which gives every
layer a self time.  Per-cycle layers keep only a call count and two
running totals; spans with start and end times are kept at the
point-phase level (a handful per run), so memory stays bounded however
long the run is.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

#: Open-loop phases, in the order ``run_open_loop`` hands them to the
#: fabric's backend.
OPEN_LOOP_PHASES = ("point.warmup", "point.measure", "point.cooldown")

MEASURE = "point.measure"


class LayerTracer:
    """Self time, inclusive time and call count per layer, plus spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: ``(name, start, end)`` per point-phase span.
        self.spans: list[tuple[str, float, float]] = []
        #: Self and inclusive time per layer inside the measure phase.
        self.measure_self_s: dict[str, float] = {}
        self.measure_inclusive_s: dict[str, float] = {}
        self._child_s: list[float] = []
        self._at_measure_start: tuple[dict[str, float], dict[str, float]]

    def shadow(
        self,
        obj: Any,
        method: str,
        layer: str,
        spans: tuple[str, ...] | None = None,
    ) -> None:
        """Time every call of ``obj.method`` as ``layer``."""
        setattr(obj, method, self.wrap(getattr(obj, method), layer, spans))

    def wrap(
        self,
        inner: Callable[..., Any],
        layer: str,
        spans: tuple[str, ...] | None = None,
    ) -> Callable[..., Any]:
        """``inner`` with every call timed as ``layer``.

        With ``spans``, the n-th call is also recorded as a span named
        ``spans[n]``; the span named :data:`MEASURE` snapshots every
        layer's totals so shares can be taken over the measure phase.
        """
        clock = self.clock
        child_s = self._child_s
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            span = None
            if spans is not None:
                span = spans[calls[layer]]
                if span == MEASURE:
                    self._at_measure_start = (dict(self_s), dict(inclusive_s))
            child_s.append(0.0)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[layer] += elapsed - child_s.pop()
                inclusive_s[layer] += elapsed
                calls[layer] += 1
                if child_s:
                    child_s[-1] += elapsed
                if span is not None:
                    self._end_span(span, start, end)

        return timed

    def _end_span(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))
        if name == MEASURE:
            self_before, inclusive_before = self._at_measure_start
            self.measure_self_s = {
                layer: total - self_before.get(layer, 0.0)
                for layer, total in self.self_s.items()
            }
            self.measure_inclusive_s = {
                layer: total - inclusive_before.get(layer, 0.0)
                for layer, total in self.inclusive_s.items()
            }

    def span_s(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for span, start, end in self.spans
                   if span == name)

    def share(self, layer: str) -> float:
        """``layer``'s self time as a fraction of the measure phase."""
        measure = self.span_s(MEASURE)
        if measure <= 0.0:
            return 0.0
        return self.measure_self_s.get(layer, 0.0) / measure

    def to_json(self) -> dict[str, Any]:
        """Everything recorded, for writing out when the run ends."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": name, "start_s": start - origin,
                 "end_s": end - origin}
                for name, start, end in self.spans
            ],
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "self_s": self.self_s[layer],
                    "inclusive_s": self.inclusive_s[layer],
                }
                for layer in sorted(self.calls)
            },
        }


def trace_fabric(tracer: LayerTracer, fabric: Any) -> None:
    """Shadow the per-cycle layers of one ``MultiNocFabric``.

    The dense backend and ``Processor.run`` look ``fabric.step`` up on
    the instance every cycle, and ``MultiNocFabric.step`` looks up each
    child method on its own instance, so these shadows see every call.
    """
    tracer.shadow(fabric, "step", "noc.step")
    tracer.shadow(fabric, "report", "point.report")
    tracer.shadow(fabric.monitor, "update", "core.monitor")
    tracer.shadow(fabric.gating, "step", "core.gating")
    for network in fabric.subnets:
        tracer.shadow(network, "deliver_arrivals", "noc.link")
        tracer.shadow(network, "step_routers", "noc.router")
    for ni in fabric.nis:
        tracer.shadow(ni, "step", "noc.ni")


def trace_open_loop(tracer: LayerTracer, fabric: Any, source: Any) -> None:
    """Shadow an open-loop point: phases, source and fabric layers."""
    trace_fabric(tracer, fabric)
    tracer.shadow(fabric.backend, "run", "point.phase", OPEN_LOOP_PHASES)
    tracer.shadow(source, "step", "traffic.source")


def trace_closed_loop(tracer: LayerTracer, processor: Any) -> None:
    """Shadow a closed-loop point: ``Processor.run`` is the measure phase."""
    trace_fabric(tracer, processor.fabric)
    tracer.shadow(processor, "run", "system", (MEASURE,))
    tracer.shadow(processor.engine, "process_due", "system.coherence")
    tracer.shadow(processor.engine, "start_transaction", "system.coherence")
