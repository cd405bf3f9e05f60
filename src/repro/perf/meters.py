"""Simulation-work accounting: how much did this process simulate?

The throughput figures the CLI and sweep runner print (simulated
cycles/sec, flits-routed/sec) need a cheap, always-on count of the work
each measurement point performed.  A :class:`WorkMeter` is a pair of
monotonically growing counters — simulated cycles and routed flits —
fed *once per finished point* (never from the per-cycle hot loop, so
the fast path is untouched):

* :func:`note_report` — from a finished :class:`FabricReport`
  (synthetic and application points);
* :func:`note_fabric` — from a live fabric that never built a report
  (the bursty time-series executor).

Two process-global meters exist.  :data:`WORK` accumulates for the
lifetime of the process, including work shipped back from sweep pool
workers, so a caller can difference two snapshots to rate any span of
work.  A private per-point meter is
drained by the sweep runner around each executed point so pool workers
can ship their work deltas back to the parent, which folds them into
:data:`WORK` and into the sweep's :class:`SweepStats`.

A *routed flit* is one crossbar traversal (forward or ejection), the
same event the power model charges for switching — so flits/sec is
directly comparable across configurations with different hop counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.noc.multinoc import FabricReport, MultiNocFabric

__all__ = [
    "WorkMeter",
    "WORK",
    "note_report",
    "note_fabric",
    "begin_point",
    "drain_point",
    "format_rate",
    "throughput_suffix",
]


class WorkMeter:
    """Two additive counters: simulated cycles and routed flits."""

    __slots__ = ("cycles", "flits")

    def __init__(self) -> None:
        self.cycles = 0
        self.flits = 0

    def add(self, cycles: int, flits: int) -> None:
        """Fold ``cycles``/``flits`` of completed work into the meter."""
        self.cycles += cycles
        self.flits += flits

    def snapshot(self) -> tuple[int, int]:
        """Current ``(cycles, flits)`` totals."""
        return self.cycles, self.flits

    def reset(self) -> tuple[int, int]:
        """Zero the meter; return what it held."""
        held = (self.cycles, self.flits)
        self.cycles = 0
        self.flits = 0
        return held


#: Process-lifetime work total, pool workers' points included.
WORK = WorkMeter()

#: Per-point collector drained by the sweep runner around each
#: executed point (see :func:`begin_point` / :func:`drain_point`).
_POINT = WorkMeter()


def _flits_from_activity(activity: "list[dict[str, int]]") -> int:
    return sum(counters["crossbar_traversals"] for counters in activity)


def note_report(report: "FabricReport") -> None:
    """Record a finished point's work from its fabric report."""
    flits = _flits_from_activity(report.activity)
    WORK.add(report.cycles, flits)
    _POINT.add(report.cycles, flits)


def note_fabric(fabric: "MultiNocFabric") -> None:
    """Record a finished point's work from a live fabric."""
    flits = sum(
        network.counters.crossbar_traversals for network in fabric.subnets
    )
    WORK.add(fabric.cycle, flits)
    _POINT.add(fabric.cycle, flits)


def begin_point() -> None:
    """Clear the per-point collector before executing a sweep point.

    Under a forked worker pool the collector may hold totals inherited
    from the parent; dropping them keeps each point's delta exact.
    """
    _POINT.reset()


def drain_point() -> tuple[int, int]:
    """``(cycles, flits)`` recorded since :func:`begin_point`."""
    return _POINT.reset()


def format_rate(per_second: float) -> str:
    """Compact human rate: ``875``, ``12.3k``, ``4.6M``, ``1.2G``."""
    magnitude = abs(per_second)
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= threshold:
            return f"{per_second / threshold:.1f}{suffix}"
    return f"{per_second:.0f}"


def throughput_suffix(
    cycles: int, flits: int, seconds: float
) -> str:
    """``"1.2M cycles/s, 4.6M flits/s"`` — empty when nothing ran."""
    if cycles <= 0 or seconds <= 0:
        return ""
    return (
        f"{format_rate(cycles / seconds)} cycles/s, "
        f"{format_rate(flits / seconds)} flits/s"
    )
