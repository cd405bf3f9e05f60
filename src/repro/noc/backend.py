"""Simulation kernels behind the :class:`FabricBackend` interface.

A backend owns the *time loop* of a :class:`~repro.noc.multinoc.
MultiNocFabric`: given a span of cycles (and optionally a traffic
source), it advances the fabric to the end of the span.  There is one
step implementation, ``MultiNocFabric.step``; the two backends differ
only in whether they may leap over cycles in which it would do nothing.

``skip`` (the default)
    Calls ``source.step`` and ``fabric.step`` once per busy cycle.
    Whenever the fabric is fully quiescent and the source is quiet, it
    leaps in one jump to the next event horizon — the source's next
    offer or the requested span end — with the power-gating state
    machine advanced in closed form.

``dense``
    The reference for differential tests: ``source.step`` and
    ``fabric.step`` once per simulated cycle, never leaping.

Equivalence is a hard contract, not an aspiration: for any workload,
``skip`` must leave the fabric in a byte-identical state to ``dense``
(same ``FabricReport``, same RNG positions, same counters).  The
figure-table tests, ``tests/test_backend.py`` and
``tests/test_backend_differential.py`` enforce this.

Backends also respect the per-instance shadowing contract (see
``docs/architecture.md``): ``fabric.step`` is looked up every cycle, so
a shadowed step is always honoured, and when faults, telemetry or
explain have shadowed it the skip backend never leaps, because those
layers observe every cycle.  The invariant checker composes with the
leap — its laws hold at every cycle boundary, so a leap reports its
span through
:meth:`~repro.analysis.invariants.InvariantChecker.note_steps` — and
the phase profiler samples instead of shadowing ``step``, so it never
stops a leap.

Backend selection: ``MultiNocFabric(config, backend="dense")``; unset
means :data:`DEFAULT_BACKEND`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.gating import GatingPolicy
from repro.noc.router import PowerState

if TYPE_CHECKING:
    from repro.noc.multinoc import MultiNocFabric

__all__ = [
    "FabricBackend",
    "DenseBackend",
    "SkipBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NEVER",
    "backend_names",
    "make_backend",
]

#: Name used when the constructor does not choose.
DEFAULT_BACKEND = "skip"

#: Sentinel horizon for "the source never becomes active again".
NEVER = 1 << 62


class FabricBackend:
    """Time-loop strategy for one fabric instance.

    Subclasses must satisfy the invariants documented in
    ``docs/architecture.md``: byte-identical fabric state at every span
    boundary, per-cycle deference to shadowed ``step`` observers, and
    ``source.step(cycle)`` called for every cycle at which the source
    may act.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def __init__(self, fabric: "MultiNocFabric") -> None:
        self.fabric = fabric

    def run(self, cycles: int, source=None) -> None:
        """Advance the fabric by ``cycles``, stepping ``source`` too."""
        raise NotImplementedError

    def drain(self, max_cycles: int) -> bool:
        """Run until the fabric is empty; True when fully drained."""
        fabric = self.fabric
        for _ in range(max_cycles):
            if fabric.in_flight_flits == 0 and all(
                not ni.queue and not ni.active_streams for ni in fabric.nis
            ):
                return True
            self.run(1)
        return False


class DenseBackend(FabricBackend):
    """The reference per-cycle loop: every cycle is stepped."""

    name = "dense"

    def run(self, cycles: int, source=None) -> None:
        # ``fabric.step`` is looked up per iteration on purpose: the
        # shadowing contract lets observers attach or detach between
        # cycles, and the dense kernel must honour the current shadow.
        fabric = self.fabric
        if source is None:
            for _ in range(cycles):
                fabric.step()
        else:
            source_step = source.step
            for _ in range(cycles):
                source_step(fabric.cycle)
                fabric.step()


class SkipBackend(FabricBackend):
    """The per-cycle loop plus a leap over quiescent spans."""

    name = "skip"

    # ------------------------------------------------------------------
    # Shadowing-contract composition
    # ------------------------------------------------------------------
    def _shadow_mode(self) -> str:
        """How ``fabric.step`` is currently shadowed.

        ``"none"``   — plain class bytecode; the kernel may leap.
        ``"checker"`` — only the invariant checker wraps ``step``; the
        kernel may leap and reports the span to the checker.
        ``"defer"``  — faults, telemetry or explain (alone or
        stacked) observe every cycle; the kernel never leaps.
        """
        fabric = self.fabric
        shadow = vars(fabric).get("step")
        if shadow is None:
            return "none"
        checker = fabric.invariant_checker
        if (
            checker is not None
            and shadow == checker._checked_step
            and getattr(checker._orig_step, "__func__", None)
            is type(fabric).step
        ):
            return "checker"
        return "defer"

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, cycles: int, source=None) -> None:
        fabric = self.fabric
        mode = self._shadow_mode()
        leap = mode != "defer"
        checker = fabric.invariant_checker if mode == "checker" else None
        quiet_source = self._source_quiet_probe(source)
        source_step = source.step if source is not None else None
        end = fabric.cycle + cycles
        while fabric.cycle < end:
            if leap and quiet_source(fabric.cycle) and self._quiescent():
                self._jump(end, source, checker)
                continue
            if source_step is not None:
                source_step(fabric.cycle)
            # Looked up per cycle: a shadow attached between cycles is
            # honoured (see DenseBackend.run).
            fabric.step()

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def _source_quiet_probe(self, source) -> Callable[[int], bool]:
        """Predicate: at ``cycle`` the source offers nothing and can
        report its next active cycle (else it is never quiet)."""
        if source is None:
            return lambda cycle: True
        next_offer = getattr(source, "next_offer_cycle", None)
        if next_offer is None:
            return lambda cycle: False
        return lambda cycle: next_offer(cycle) > cycle

    def _quiescent(self) -> bool:
        """True when a clock jump is provably invisible.

        Requires: no flit anywhere (buffered or in flight), every NI
        empty (its rate averages decay lazily, so a leap needs no NI
        work), the congestion monitor structurally clear (idle-skippable
        metric, zero latched LCS bits, all regional bits low), and no
        pending or watchdog-armed wakeups.
        """
        fabric = self.fabric
        for network in fabric.subnets:
            if network.flits_in_network:
                return False
        for ni in fabric.nis:
            if ni.queue or ni._active_slots:
                return False
        monitor = fabric.monitor
        if not monitor._idle_skippable:
            return False
        if any(monitor._latched_count):
            return False
        if any(any(row) for row in monitor.regional._rcs):
            return False
        gating = fabric.gating
        if any(gating._pending_wakes) or gating._wake_timeout is not None:
            return False
        return True

    def _jump(self, end: int, source, checker) -> None:
        """Advance the clock over a quiescent span in one step.

        Only power-gating bookkeeping evolves during quiescence, and
        each router's state machine runs independently (no congestion,
        no wakeup requests), so it is advanced in closed form; every
        other per-cycle phase is a proven no-op.  The caller has
        checked that the source is quiet now, so the span is non-empty.
        """
        fabric = self.fabric
        start = fabric.cycle
        horizon = end
        if source is not None:
            horizon = min(horizon, source.next_offer_cycle(start))
        self._advance_gating(start, horizon)
        fabric.cycle = horizon
        if checker is not None:
            checker.note_steps(horizon - start, horizon - 1)

    def _advance_gating(self, start: int, end: int) -> None:
        """Closed-form gating over quiescent cycles ``[start, end)``.

        Sleeping routers stay asleep (a quiescent span has no wake
        request and no congestion), so they are charged in bulk from
        the controller's per-subnet SLEEP sets; only awake and waking
        routers are walked, in node order as the dense step would.
        """
        gating = self.fabric.gating
        span = end - start
        if gating.policy == GatingPolicy.NONE:
            for subnet_idx, network in enumerate(gating.subnets):
                gating.stats[subnet_idx].active_cycles += (
                    span * len(network.routers)
                )
            return
        detect = gating.idle_detect_cycles
        for subnet_idx, network in enumerate(gating.subnets):
            stats = gating.stats[subnet_idx]
            if gating.keep_subnet0 and subnet_idx == 0:
                stats.active_cycles += span * len(network.routers)
                continue
            asleep = gating.asleep[subnet_idx]
            stats.sleep_cycles += span * len(asleep)
            routers = network.routers
            for node in sorted(gating._all_nodes - asleep):
                router = routers[node]
                t = start
                while t < end:
                    state = router.power_state
                    if state == PowerState.SLEEP:
                        stats.sleep_cycles += end - t
                        t = end
                    elif state == PowerState.ACTIVE:
                        # Drained and uncongested: sleeps once the idle
                        # window fills (counted active through the
                        # transition cycle, exactly as the dense loop).
                        sleep_at = t + max(
                            0, detect - router.idle_cycles - 1
                        )
                        if sleep_at >= end:
                            stats.active_cycles += end - t
                            router.idle_cycles += end - t
                            t = end
                        else:
                            stats.active_cycles += sleep_at - t + 1
                            router.idle_cycles += sleep_at - t + 1
                            gating._sleep(router, sleep_at)
                            gating._refile(router)
                            t = sleep_at + 1
                    else:  # WAKEUP
                        ready = gating.state_of(router).wake_ready
                        done_at = ready if ready > t else t
                        if done_at >= end:
                            stats.wakeup_cycles += end - t
                            t = end
                        else:
                            stats.wakeup_cycles += done_at - t + 1
                            gating._wake_complete(router, done_at)
                            gating._refile(router)
                            t = done_at + 1


#: Registry of selectable backends, keyed by name.
BACKENDS: dict[str, type[FabricBackend]] = {
    DenseBackend.name: DenseBackend,
    SkipBackend.name: SkipBackend,
}


def backend_names() -> tuple[str, ...]:
    """Valid backend names, sorted (for CLI help and errors)."""
    return tuple(sorted(BACKENDS))


def make_backend(name: str, fabric: "MultiNocFabric") -> FabricBackend:
    """Instantiate the backend called ``name`` for ``fabric``.

    Raises ``ValueError`` with the valid names for anything unknown, so
    library users get an actionable message instead of an
    AttributeError mid-simulation.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric backend {name!r}; "
            f"choose from {', '.join(backend_names())}"
        ) from None
    return cls(fabric)
