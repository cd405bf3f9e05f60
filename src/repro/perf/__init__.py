"""Simulator self-profiling and throughput metrics.

``repro.perf`` makes the *simulator itself* observable, the way
``repro.telemetry`` makes the simulated network observable:

* :mod:`repro.perf.profiler` — a sampling phase profiler
  (``REPRO_PERF=1`` / ``--perf``) that attributes this process's CPU
  time to the fabric step phases and the router pipeline stages,
  without forcing per-cycle stepping, with an optional cProfile capture
  (``REPRO_PERF_CPROFILE=1``) for flame graphs;
* :mod:`repro.perf.meters` — always-on simulated-work counters behind
  the cycles/sec and flits/sec figures in the CLI and sweep output;
* :mod:`repro.perf.bench` — the host fingerprint and git SHA that
  ``perfbench/run.py`` stamps on its results.

See ``docs/perf.md`` for the environment knobs and workflows, and
``docs/telemetry.md`` for the NoC-level counterpart.
"""

from repro.perf.meters import WORK, WorkMeter, throughput_suffix
from repro.perf.profiler import (
    PROFILE_SCHEMA,
    PhaseProfiler,
    cprofile_enabled,
)

__all__ = [
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "WORK",
    "WorkMeter",
    "cprofile_enabled",
    "throughput_suffix",
]
