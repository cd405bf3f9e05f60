"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index), asserts the *shape* the paper reports,
and writes the rendered table to ``benchmarks/out/<name>.txt``.  The
``.txt`` artifact carries a header comment recording the knobs that
shaped the run (``REPRO_BENCH_SCALE``, ``REPRO_JOBS``) and the elapsed
wall time, so a saved artifact is self-describing.

Cycle counts are controlled by ``REPRO_BENCH_SCALE`` (default 0.35 —
quick but statistically meaningful).  Set it to 1.0 to reproduce the
EXPERIMENTS.md numbers exactly.

The on-disk sweep cache is disabled here so benchmarks always measure
real simulation time (a warm cache would report near-zero); sweeps
still parallelize across ``REPRO_JOBS`` workers, which is the shipped
execution path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_NO_CACHE", "1")

OUT_DIR = Path(__file__).parent / "out"

_TEST_STARTED = 0.0


def bench_scale(default: float = 0.35) -> float:
    """Scale factor for benchmark experiment runs."""
    from repro.util import env

    return env.floating("REPRO_BENCH_SCALE", default)


def _jobs() -> int:
    from repro.experiments.runner import env_jobs

    return env_jobs()


def save_result(result) -> str:
    """Persist an ExperimentResult table; return the rendered text.

    The on-disk artifact gets a provenance header comment; the returned
    text is the bare table, which the benchmarks assert on.
    """
    OUT_DIR.mkdir(exist_ok=True)
    table = result.to_table()
    elapsed = time.perf_counter() - _TEST_STARTED
    header = (
        f"# REPRO_BENCH_SCALE={bench_scale():g} REPRO_JOBS={_jobs()} "
        f"elapsed={elapsed:.2f}s\n"
    )
    (OUT_DIR / f"{result.name}.txt").write_text(header + table + "\n")
    return table


@pytest.fixture(autouse=True)
def _test_clock():
    """Start the clock behind the ``elapsed=`` provenance header."""
    global _TEST_STARTED
    _TEST_STARTED = time.perf_counter()


@pytest.fixture(scope="session")
def fig08_result():
    """Figure 8 runs once per session; Figure 9 reuses it."""
    from repro.experiments.fig08_applications import run_fig08

    return run_fig08(scale=bench_scale())
