"""The phase profiler: where does the simulator's CPU time go?

``PhaseProfiler`` samples.  While any profiler is attached, a
process-wide ``ITIMER_PROF`` interval timer raises ``SIGPROF`` every
:data:`SAMPLE_INTERVAL_S` of this process's CPU time, and one handler
walks the interrupted frame stack.  A sample whose stack holds a
:meth:`MultiNocFabric.step` frame is credited to the profiler attached
to that frame's ``self``:

* to a *step phase* by the line of ``MultiNocFabric.step`` being run
  (link delivery, congestion monitor, NI packetization, router
  pipeline, gating), with ``regional_update`` split out of the monitor
  when ``RegionalCongestionNetwork.update`` is on the stack;
* inside the router pipeline, to a *router stage* by the line of
  ``Router.step`` being run (switch allocation, VC allocation, route
  compute, switch traversal).

Both line maps are built once from ``# perf: <name>`` marker comments
in those two functions (:func:`marker_table`), so a stage boundary is a
comment, not a call boundary.  A marker line starts its stage, which
runs to the next marker.

The profiler shadows only ``fabric.report``, where it flushes the
``*.perf.json`` artifact, so a profiled fabric runs the plain class
``step`` and the default kernel leaps over quiescent spans exactly as
an unprofiled one does.  The handler reads frames and never touches
simulation state, so results are byte-identical with or without it.

Counts are statistical: each phase holds the samples that landed in
it.  The artifact states the *measured* resolution — profiled CPU
seconds over samples taken — because the kernel's tick can stretch the
requested interval (about 4 ms on a 250 Hz kernel).

Enable with ``REPRO_PERF=1``; artifacts go to ``REPRO_PERF_DIR``
(default ``results/perf``).  ``REPRO_PERF_CPROFILE=1`` additionally
runs a deterministic ``cProfile`` from attach to the flush on
``report`` and writes a ``.pstats`` dump plus a caller;callee
collapsed-stack text file for flame-graph tools (``docs/perf.md``).
"""

from __future__ import annotations

import atexit
import inspect
import json
import os
import re
import signal
import weakref
from functools import cache
from time import process_time
from types import CodeType, FrameType
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.noc.observers import ShadowingObserver
from repro.util import env
from repro.util.tables import format_table

if TYPE_CHECKING:
    import cProfile

    from repro.noc.multinoc import FabricReport, MultiNocFabric

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_DIR",
    "SAMPLE_INTERVAL_S",
    "STEP_PHASES",
    "ROUTER_STAGES",
    "PhaseProfiler",
    "attribute",
    "cprofile_enabled",
    "marker_table",
    "render_profile",
]

#: Schema tag stamped into every ``*.perf.json`` artifact.
PROFILE_SCHEMA = "repro.perf.profile/2"

#: Default artifact directory (override with ``REPRO_PERF_DIR``).
DEFAULT_DIR = os.path.join("results", "perf")

#: Requested CPU time between samples; the kernel tick may stretch it.
SAMPLE_INTERVAL_S = 0.001

#: Slices of one ``MultiNocFabric.step`` call, in execution order.
#: ``step_other`` is the cycle bookkeeping around the named phases.
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
#: loop itself (winner arbitration over (port, VC) pairs) plus the
#: per-subnet loop around ``Router.step``.
ROUTER_STAGES = (
    "switch_alloc",
    "vc_alloc",
    "route_compute",
    "switch_traversal",
)

#: The phase credited by stack membership rather than by a marker.
_REGIONAL = "regional_update"

_MARKER = re.compile(r"^\s*#\s*perf:\s*(\S+)\s*$")


def cprofile_enabled() -> bool:
    """True when ``REPRO_PERF_CPROFILE`` asks for a cProfile capture."""
    return env.flag("REPRO_PERF_CPROFILE")


def marker_table(
    func: Callable[..., Any], names: tuple[str, ...]
) -> dict[int, str]:
    """Line number -> name for every source line of ``func``.

    A ``# perf: NAME`` line starts NAME, which runs to the next marker;
    the first marker also covers the signature and docstring above it.
    Raises ``ValueError`` when a marker names something outside
    ``names`` or when one of ``names`` is never marked.
    """
    lines, first = inspect.getsourcelines(func)
    marks: dict[int, str] = {}
    for offset, text in enumerate(lines):
        match = _MARKER.match(text)
        if match:
            marks[first + offset] = match.group(1)
    where = f"{func.__qualname__} ({inspect.getsourcefile(func)})"
    unknown = sorted(set(marks.values()) - set(names))
    if unknown:
        raise ValueError(f"unknown perf marker(s) {unknown} in {where}")
    missing = [name for name in names if name not in marks.values()]
    if missing:
        raise ValueError(f"missing perf marker(s) {missing} in {where}")
    current = next(iter(marks.values()))
    table: dict[int, str] = {}
    for lineno in range(first, first + len(lines)):
        current = marks.get(lineno, current)
        table[lineno] = current
    return table


class StageTable(NamedTuple):
    """Code objects the sampler looks for and their line maps."""

    step_code: CodeType
    phase_of_line: dict[int, str]
    router_code: CodeType
    stage_of_line: dict[int, str]
    regional_code: CodeType


@cache
def stage_table() -> StageTable:
    """The marker tables of ``MultiNocFabric.step`` and ``Router.step``."""
    from repro.core.regional import RegionalCongestionNetwork
    from repro.noc.multinoc import MultiNocFabric
    from repro.noc.router import Router

    marked = tuple(name for name in STEP_PHASES if name != _REGIONAL)
    return StageTable(
        MultiNocFabric.step.__code__,
        marker_table(MultiNocFabric.step, marked),
        Router.step.__code__,
        marker_table(Router.step, ROUTER_STAGES),
        RegionalCongestionNetwork.update.__code__,
    )


def attribute(
    frame: FrameType | None,
) -> tuple[Any, str, str | None] | None:
    """``(fabric, phase, stage)`` for a sample taken at ``frame``.

    ``fabric`` is ``self`` of the innermost ``MultiNocFabric.step``
    frame on the stack; ``None`` is returned when there is none.
    ``stage`` is set for the ``router_pipeline`` phase only; pipeline
    samples outside ``Router.step`` count as ``switch_alloc``.
    """
    table = stage_table()
    router_line: int | None = None
    regional = False
    while frame is not None:
        code = frame.f_code
        if code is table.step_code:
            phase = table.phase_of_line.get(frame.f_lineno, "step_other")
            if regional:
                phase = _REGIONAL
            stage = None
            if phase == "router_pipeline":
                stage = "switch_alloc"
                if router_line is not None:
                    stage = table.stage_of_line.get(router_line, stage)
            return frame.f_locals.get("self"), phase, stage
        if code is table.router_code:
            if router_line is None:
                router_line = frame.f_lineno
        elif code is table.regional_code:
            regional = True
        frame = frame.f_back
    return None


def render_profile(doc: dict[str, Any]) -> str:
    """Terminal rendering of a profile document (``python -m repro.perf
    show`` and :meth:`PhaseProfiler.ascii_summary`)."""
    throughput = doc.get("throughput", {})
    lines = [
        f"{doc.get('config')} seed={doc.get('seed')} "
        f"cycles={doc.get('cycles_profiled')} "
        f"cpu={doc.get('cpu_seconds', 0.0):.3f}s "
        f"samples={doc.get('samples')} "
        f"({1e3 * doc.get('resolution_s', 0.0):.2f} ms each; "
        f"{throughput.get('cycles_per_sec', 0.0):,.0f} cycles/s, "
        f"{throughput.get('flits_per_sec', 0.0):,.0f} flits/s)"
    ]
    for key, rows, share, column in (
        ("phase", doc.get("phases", {}), "share", "share_pct"),
        ("stage", doc.get("router_stages", {}), "share_of_pipeline",
         "pipeline_pct"),
    ):
        if rows:
            table = [
                {
                    key: name,
                    "samples": entry.get("samples", 0),
                    column: 100.0 * entry.get(share, 0.0),
                }
                for name, entry in rows.items()
            ]
            lines.append(format_table(table, [key, "samples", column]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The process-wide sampler
# ----------------------------------------------------------------------
#: Attached profilers by ``id`` of their fabric.  Weak, because sweeps
#: and tests attach profilers and never detach them.
_LIVE: "weakref.WeakValueDictionary[int, PhaseProfiler]" = (
    weakref.WeakValueDictionary()
)
#: SIGPROF samples this process has taken.
_samples_taken = 0


def _on_sample(signum: int, frame: FrameType | None) -> None:
    global _samples_taken
    _samples_taken += 1
    if not _LIVE:
        # Every attached profiler has been collected.
        _disarm()
        return
    hit = attribute(frame)
    if hit is None:
        return
    fabric, phase, stage = hit
    profiler = _LIVE.get(id(fabric))
    if profiler is not None:
        profiler.phase_samples[phase] += 1
        if stage is not None:
            profiler.stage_samples[stage] += 1


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0.0)


def _arm() -> None:
    """Install the one handler and start the timer unless running."""
    if signal.getsignal(signal.SIGPROF) is not _on_sample:
        signal.signal(signal.SIGPROF, _on_sample)
        # Interpreter shutdown restores the default action, which
        # terminates the process, so the timer must stop first.
        atexit.register(_disarm)
    if not signal.getitimer(signal.ITIMER_PROF)[1]:
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )


class PhaseProfiler(ShadowingObserver):
    """Sampled CPU-time accounting for one fabric instance."""

    def __init__(
        self,
        fabric: "MultiNocFabric",
        out_dir: str | None = None,
        capture_cprofile: bool = False,
    ) -> None:
        super().__init__(fabric)
        self.out_dir = out_dir
        self._cprofile: "cProfile.Profile | None" = None
        if capture_cprofile:
            import cProfile as _cprofile

            self._cprofile = _cprofile.Profile()

    @classmethod
    def from_env(cls, fabric: "MultiNocFabric") -> "PhaseProfiler":
        """Build a profiler configured by ``REPRO_PERF_*`` variables."""
        out_dir = env.text("REPRO_PERF_DIR", DEFAULT_DIR)
        return cls(
            fabric,
            out_dir=out_dir,
            capture_cprofile=cprofile_enabled(),
        )

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> "PhaseProfiler":
        """Shadow ``report`` and open a sampling window; returns ``self``."""
        if self.attached:
            return self
        stage_table()  # build (and check) the marker tables up front
        fabric = self.fabric
        self.phase_samples = dict.fromkeys(STEP_PHASES, 0)
        self.stage_samples = dict.fromkeys(ROUTER_STAGES, 0)
        self._cycle_at_attach = fabric.cycle
        self._flits_at_attach = self._flits_routed_now()
        # (samples taken, CPU seconds) at attach, and at detach.
        self._opened = (_samples_taken, process_time())
        self._closed: tuple[int, float] | None = None
        self._orig_report: Callable[[], "FabricReport"] = fabric.report
        self._shadow(fabric, "report", self._profiled_report)
        _LIVE[id(fabric)] = self
        _arm()
        if self._cprofile is not None:
            self._cprofile.enable()
        self.attached = True
        return self

    def detach(self) -> None:
        """Restore ``report``; stop the timer if no profiler is left."""
        if not self.attached:
            return
        super().detach()
        self._closed = (_samples_taken, process_time())
        _LIVE.pop(id(self.fabric), None)
        if self._cprofile is not None:
            self._cprofile.disable()
        if not _LIVE:
            _disarm()

    def _profiled_report(self) -> "FabricReport":
        report = self._orig_report()
        if self.out_dir is not None:
            self.flush()
        return report

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def _flits_routed_now(self) -> int:
        return sum(
            network.counters.crossbar_traversals
            for network in self.fabric.subnets
        )

    def _window(self) -> tuple[int, float]:
        """``(samples, CPU seconds)`` this process spent while attached."""
        samples, cpu = self._closed or (_samples_taken, process_time())
        return samples - self._opened[0], cpu - self._opened[1]

    @property
    def samples(self) -> int:
        """Samples this process took while the profiler was attached."""
        return self._window()[0]

    @property
    def cpu_seconds(self) -> float:
        """Process CPU seconds while the profiler was attached."""
        return self._window()[1]

    @property
    def resolution_s(self) -> float:
        """Measured CPU seconds per sample (0.0 before the first)."""
        samples, cpu = self._window()
        return cpu / samples if samples else 0.0

    @property
    def step_samples(self) -> int:
        """Samples credited to this fabric's step; the phases sum to it."""
        return sum(self.phase_samples.values())

    @property
    def cycles_profiled(self) -> int:
        """Simulated cycles since attach, leaps included."""
        return self.fabric.cycle - self._cycle_at_attach

    def throughput(self) -> dict[str, float]:
        """Simulated cycles and routed flits per profiled CPU second."""
        seconds = self.cpu_seconds
        flits = self._flits_routed_now() - self._flits_at_attach
        return {
            "cycles_per_sec": (
                self.cycles_profiled / seconds if seconds else 0.0
            ),
            "flits_per_sec": flits / seconds if seconds else 0.0,
            "flits_routed": float(flits),
        }

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def profile(self) -> dict[str, Any]:
        """JSON-safe profile document for this fabric so far.

        Phase shares are of every sample taken while attached, so the
        remainder is time outside this fabric's step (traffic source,
        leaps, report); stage shares are of the router pipeline.
        """
        fabric = self.fabric
        samples, cpu = self._window()
        pipeline = self.phase_samples["router_pipeline"]
        return {
            "schema": PROFILE_SCHEMA,
            "config": fabric.config.name,
            "seed": fabric.seed,
            "cycles": fabric.cycle,
            "cycles_profiled": self.cycles_profiled,
            "cpu_seconds": cpu,
            "samples": samples,
            "step_samples": self.step_samples,
            "resolution_s": self.resolution_s,
            "phases": {
                name: {
                    "samples": count,
                    "share": count / samples if samples else 0.0,
                }
                for name, count in self.phase_samples.items()
            },
            "router_stages": {
                name: {
                    "samples": count,
                    "share_of_pipeline": (
                        count / pipeline if pipeline else 0.0
                    ),
                }
                for name, count in self.stage_samples.items()
            },
            "throughput": self.throughput(),
        }

    def ascii_summary(self) -> str:
        """Human-readable phase breakdown for terminals and artifacts."""
        return render_profile(self.profile())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _folded_stacks(self) -> list[str]:
        """Collapsed caller;callee lines from the cProfile capture.

        cProfile records caller→callee edges (not full stacks), so the
        folded output is two frames deep — enough for flamegraph.pl or
        speedscope to show where time pools and from where it is
        reached.  Weights are edge-attributed total microseconds.
        """
        if self._cprofile is None:
            return []
        import pstats

        def label(func: tuple[str, int, str]) -> str:
            filename, lineno, name = func
            base = os.path.basename(filename) if filename else "~"
            return f"{base}:{lineno}:{name}".replace(" ", "_")

        lines: list[str] = []
        stats = pstats.Stats(self._cprofile)
        for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
            if not callers:
                micros = int(round(tottime * 1e6))
                if micros:
                    lines.append(f"{label(func)} {micros}")
                continue
            for caller, (_ecc, _enc, edge_tot, _ect) in callers.items():
                micros = int(round(edge_tot * 1e6))
                if micros:
                    lines.append(f"{label(caller)};{label(func)} {micros}")
        return sorted(lines)

    def flush(self) -> dict[str, str]:
        """Write the profile artifacts; return their paths.

        Ends the cProfile capture, if any.  Files share the
        :func:`repro.obs.artifacts.artifact_stem` naming of every
        observer's artifacts.
        """
        from repro.obs.artifacts import artifact_stem

        out_dir = self.out_dir if self.out_dir is not None else DEFAULT_DIR
        stem = artifact_stem(self.fabric, out_dir)
        paths = {"profile": f"{stem}.perf.json"}
        with open(paths["profile"], "w", encoding="utf-8") as handle:
            json.dump(self.profile(), handle, separators=(",", ":"))
        if self._cprofile is not None:
            self._cprofile.disable()
            paths["pstats"] = f"{stem}.pstats"
            self._cprofile.dump_stats(paths["pstats"])
            paths["folded"] = f"{stem}.folded.txt"
            with open(paths["folded"], "w", encoding="utf-8") as handle:
                handle.write("\n".join(self._folded_stacks()) + "\n")
        return paths
