"""Artifact-directory scanning and artifact readers for the rollup.

Three observers drop per-point files into ``results/`` directories
while a sweep runs: telemetry (``*.timeseries.json``, ``*.trace.json``,
``*.summary.txt``), perf (``*.perf.json``, ``*.pstats``,
``*.folded.txt``) and explain (``*.explain.json``).
:class:`ArtifactScanner` is the one implementation of "which files
appeared since I last looked": :class:`ArtifactObserver` (one per
enabled observer on the experiments CLI) and the run ledger both scan
through it, so a new artifact suffix only has to be taught in one
place.

The module also holds the readers the campaign rollup
(:mod:`repro.obs.report`) uses to *join* a ledger with the artifacts
its points recorded.  Every reader degrades gracefully: a missing,
truncated, or schema-foreign file yields ``None``, never an exception,
because a rollup over an interrupted campaign must still render the
points that did complete.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, TextIO

from repro.experiments.runner import SweepObserver

__all__ = [
    "TELEMETRY_SUFFIXES",
    "PERF_SUFFIXES",
    "EXPLAIN_SUFFIXES",
    "SUFFIXES",
    "ArtifactObserver",
    "ArtifactScanner",
    "artifact_stem",
    "classify_artifact",
    "explain_tax",
    "next_flush_ref",
    "read_json_artifact",
    "sleep_fractions",
]

#: File suffixes the telemetry hub's ``flush`` produces.
TELEMETRY_SUFFIXES: tuple[str, ...] = (
    ".timeseries.json",
    ".trace.json",
    ".summary.txt",
)

#: File suffixes the phase profiler's ``flush`` produces.
PERF_SUFFIXES: tuple[str, ...] = (".perf.json", ".pstats", ".folded.txt")

#: File suffixes the attribution hub's ``flush`` produces.
EXPLAIN_SUFFIXES: tuple[str, ...] = (".explain.json",)

#: Artifact suffixes by observer (its ``OBSERVERS`` attribute name).
SUFFIXES: dict[str, tuple[str, ...]] = {
    "perf": PERF_SUFFIXES,
    "telemetry": TELEMETRY_SUFFIXES,
    "explain": EXPLAIN_SUFFIXES,
}

#: Suffix → artifact kind, most specific first (``.timeseries.json``
#: must win over a hypothetical bare ``.json`` entry).
_KINDS: tuple[tuple[str, str], ...] = (
    (".timeseries.json", "telemetry-timeseries"),
    (".trace.json", "telemetry-trace"),
    (".summary.txt", "telemetry-summary"),
    (".perf.json", "perf-profile"),
    (".pstats", "perf-pstats"),
    (".folded.txt", "perf-folded"),
    (".explain.json", "explain-attribution"),
)


class ArtifactScanner:
    """Tracks fresh artifact files appearing in one directory.

    ``fresh()`` returns the paths of matching files that appeared since
    the previous call (or since :meth:`prime`), sorted by name so the
    report order is deterministic.  A directory that does not exist yet
    simply scans empty — subsystems create their directories lazily on
    first flush.
    """

    def __init__(
        self, directory: str, suffixes: tuple[str, ...]
    ) -> None:
        self.directory = directory
        self.suffixes = suffixes
        self._known: set[str] = set()

    def scan(self) -> list[str]:
        """All matching file names currently present, sorted."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name for name in names if name.endswith(self.suffixes)
        )

    def prime(self) -> None:
        """Mark everything currently present as already known.

        Pre-existing artifacts belong to earlier runs; callers prime at
        sweep start so only this sweep's output is reported.
        """
        self._known.update(self.scan())

    def fresh(self) -> list[str]:
        """Paths of files that appeared since the last look, sorted."""
        paths: list[str] = []
        for name in self.scan():
            if name in self._known:
                continue
            self._known.add(name)
            paths.append(os.path.join(self.directory, name))
        return paths


class ArtifactObserver(SweepObserver):
    """Announces an observer's new artifacts as sweep points complete.

    Observers attach inside sweep worker processes (the fabric
    constructor reads their ``REPRO_*`` switch), so the parent CLI
    process only sees the files they flush.  Each fresh file in
    ``directory`` is printed as ``  <label>: <path>``.
    """

    def __init__(
        self,
        label: str,
        directory: str,
        suffixes: tuple[str, ...],
        stream: TextIO | None = None,
    ) -> None:
        self.label = label
        self.stream: TextIO = stream if stream is not None else sys.stderr
        self._scanner = ArtifactScanner(directory, suffixes)
        #: Every artifact path reported so far, in report order.
        self.reported: list[str] = []

    def sweep_started(self, total: int) -> None:
        # Pre-existing artifacts belong to earlier runs; only report
        # what this sweep produces.
        self._scanner.prime()

    def point_finished(self, *_args: Any) -> None:
        self._report_fresh()

    def sweep_finished(self, *_args: Any) -> None:
        # Parallel workers may flush after their point_finished record
        # was consumed; catch any stragglers.
        self._report_fresh()

    def _report_fresh(self) -> None:
        for path in self._scanner.fresh():
            self.reported.append(path)
            print(f"  {self.label}: {path}", file=self.stream)


#: Process-wide flush counts per artifact-stem prefix; see
#: :func:`next_flush_ref`.
_FLUSH_REFS: dict[str, int] = {}


def next_flush_ref(prefix: str) -> int:
    """Next free ``-r<n>`` suffix for ``prefix`` in this process.

    Telemetry hubs and phase profilers name their artifacts
    ``{config}-s{seed}-p{pid}-r{n}``.  The ``r`` counter must be
    process-wide, not per-writer-instance: a sweep probing two loads
    of one configuration builds two fabrics (each with its own hub or
    profiler) in the same process, and per-instance counters would
    both pick ``r0`` — the second flush silently overwriting the
    first's artifacts.  Forked pool workers inherit a copy of the
    table, but their pid lands in the prefix, so inherited entries are
    merely unused.
    """
    ref = _FLUSH_REFS.get(prefix, 0)
    _FLUSH_REFS[prefix] = ref + 1
    return ref


def artifact_stem(fabric: Any, out_dir: str) -> str:
    """Path stem ``<out_dir>/{config}-s{seed}-p{pid}-r{n}`` for one
    flush of ``fabric``'s artifacts; creates ``out_dir``.

    Seed and pid keep parallel sweep workers apart and ``r`` comes from
    :func:`next_flush_ref`, so repeated flushes never collide.
    """
    os.makedirs(out_dir, exist_ok=True)
    prefix = f"{fabric.config.name}-s{fabric.seed}-p{os.getpid()}"
    return os.path.join(out_dir, f"{prefix}-r{next_flush_ref(prefix)}")


def classify_artifact(path: str) -> str:
    """Artifact kind for ``path`` (``"other"`` when unrecognized)."""
    for suffix, kind in _KINDS:
        if path.endswith(suffix):
            return kind
    return "other"


def read_json_artifact(path: str) -> dict[str, object] | None:
    """Parse a JSON artifact; ``None`` on any read or parse failure."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def sleep_fractions(path: str) -> list[float] | None:
    """Per-subnet sleep fraction from a ``*.timeseries.json`` artifact.

    The telemetry summary records exact per-subnet sleep cycles
    (reconciled against ``GatingStats``); dividing by routers-per-
    subnet × simulated cycles gives the fraction of router-cycles each
    subnet spent power-gated — the quantity the energy-proportionality
    rollup plots against offered load.  Returns ``None`` when the file
    is missing/corrupt or carries no usable occupancy data.
    """
    doc = read_json_artifact(path)
    if doc is None:
        return None
    summary = doc.get("summary")
    series = doc.get("series")
    if not isinstance(summary, dict) or not isinstance(series, dict):
        return None
    sleep_cycles = summary.get("sleep_cycles_by_subnet")
    cycles = summary.get("cycles")
    if not isinstance(sleep_cycles, list) or not isinstance(cycles, int):
        return None
    if cycles <= 0:
        return None
    routers = _routers_per_subnet(series)
    if routers is None or routers <= 0:
        return None
    fractions: list[float] = []
    for total in sleep_cycles:
        if not isinstance(total, (int, float)):
            return None
        fractions.append(float(total) / (routers * cycles))
    return fractions


def explain_tax(
    path: str,
) -> tuple[list[float | None], list[float | None]] | None:
    """Per-subnet attribution columns from a ``*.explain.json`` file.

    Returns ``(energy_per_flit_j, mean_wakeup_stall)`` lists indexed
    by subnet — the two columns the campaign rollup joins.  Entries
    are ``None`` when that decomposition was disabled or the subnet
    carried no flits; the whole result is ``None`` when the file is
    missing, corrupt, or schema-foreign.
    """
    doc = read_json_artifact(path)
    if doc is None or doc.get("schema") != "repro.explain/1":
        return None
    tax = doc.get("tax")
    if not isinstance(tax, dict):
        return None
    rows = tax.get("per_subnet")
    if not isinstance(rows, list) or not rows:
        return None
    per_flit: list[float | None] = []
    stall: list[float | None] = []
    for row in rows:
        if not isinstance(row, dict):
            return None
        energy = row.get("energy_per_flit_j")
        wakeup = row.get("mean_wakeup_stall")
        per_flit.append(
            float(energy) if isinstance(energy, (int, float)) else None
        )
        stall.append(
            float(wakeup) if isinstance(wakeup, (int, float)) else None
        )
    return per_flit, stall


def _routers_per_subnet(series: dict[str, object]) -> int | None:
    """Router count per subnet from the first occupancy sample."""
    subnets = series.get("subnets")
    if not isinstance(subnets, list) or not subnets:
        return None
    first = subnets[0]
    if not isinstance(first, dict):
        return None
    total = 0
    for key in ("active", "sleep", "wakeup"):
        column = first.get(key)
        if (
            not isinstance(column, list)
            or not column
            or not isinstance(column[0], int)
        ):
            return None
        total += column[0]
    return total
