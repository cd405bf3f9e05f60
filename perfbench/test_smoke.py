"""Smoke test of the benchmark: every workload at a tiny length.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Each workload runs untraced and traced through the benchmark's own
command line, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Cycle-count multiplier that keeps every point to a few hundred cycles.
TINY = 0.02


def bench(workload, trace, scale=TINY, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(10 * scale), "--trace", str(trace),
         "--scale", str(scale)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def lines_with(stdout: str, prefix: str) -> dict:
    found = [line for line in stdout.splitlines() if line.startswith(prefix)]
    assert len(found) == 1, stdout
    return json.loads(found[0][len(prefix):])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric_and_tracing_keeps_results(workload):
    digests = {}
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in listed}
        info = lines_with(done.stdout, "perfbench info ")
        assert info["workload"] == workload and info["seed"] == 7
        digests[trace] = info["reference_digest"]
        if trace:
            digests["traced"] = lines_with(
                done.stdout, "perfbench trace "
            )["digest"]
    assert digests[0] == digests[1] == digests["traced"]


def test_layer_split_shows_on_the_workloads_that_exercise_it():
    layers = {}
    for workload in ("pg_low_load", "uniform_high", "app_closed_loop"):
        # Long enough for the high-load network to fill.
        done = bench(workload, 1, scale=0.1)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        layers[workload] = {k: v["value"] for k, v in metrics.items()}
    pg, high, app = (layers[name] for name in
                     ("pg_low_load", "uniform_high", "app_closed_loop"))
    assert pg["core.gating.share"] >= 10 * high["core.gating.share"]
    assert high["noc.router.share"] > pg["noc.router.share"]
    for name, value in pg.items():
        if name.startswith("system."):
            assert value == 0 == high[name], name
            assert app[name] > 0, name


def test_refuses_a_pinned_environment_variable():
    env = dict(os.environ, REPRO_CHECK="1")
    done = bench("pg_low_load", 0, env=env)
    assert done.returncode != 0
    assert "REPRO_CHECK" in done.stderr
    assert '"metrics"' not in done.stdout


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("pg_low_load", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
