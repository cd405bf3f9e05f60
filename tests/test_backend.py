"""FabricBackend contract: registry and dense/skip equality.

The skip kernel's contract is byte-identical *state*, not merely
similar tables: after the same seeded workload, the fabric report, the
fabric and source RNG positions, and the cycle counter must all match
the dense reference exactly.  The skip-specific tests pin down the
default kernel's defining property — idle and gated routers cost no
Python work (``Router.step`` is never invoked).
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import gated_config, small_config

from repro.noc.backend import (
    DEFAULT_BACKEND,
    SkipBackend,
    backend_names,
    make_backend,
)
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState, Router
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_backend_names(self):
        assert backend_names() == ("dense", "skip")
        assert DEFAULT_BACKEND == "skip"

    def test_make_backend_unknown_name(self, fabric):
        with pytest.raises(ValueError) as err:
            make_backend("bogus", fabric)
        assert "bogus" in str(err.value)
        assert "dense" in str(err.value) and "skip" in str(err.value)


# ----------------------------------------------------------------------
# Dense/skip state equivalence
# ----------------------------------------------------------------------


def _final_state(config, backend: str, cycles: int, load: float):
    fabric = MultiNocFabric(config, seed=11, backend=backend)
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), load, 128, seed=11
    )
    fabric.backend.run(cycles, source)
    assert fabric.drain()
    return (
        dataclasses.asdict(fabric.report()),
        fabric.rng.getstate(),
        source.rng.getstate(),
        fabric.cycle,
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "config_fn, load",
        [
            pytest.param(small_config, 0.2, id="plain-2sub"),
            pytest.param(gated_config, 0.2, id="gated-2sub"),
            pytest.param(gated_config, 0.01, id="gated-idle"),
            pytest.param(
                lambda: small_config(num_subnets=1, link_width_bits=256),
                0.3,
                id="single-subnet",
            ),
        ],
    )
    def test_skip_matches_dense_state(self, config_fn, load):
        dense = _final_state(config_fn(), "dense", 500, load)
        skip = _final_state(config_fn(), "skip", 500, load)
        assert dense == skip

    def test_idle_run_matches_dense_state(self):
        # No source at all: the skip kernel covers the whole span with
        # quiescence jumps, yet gating statistics must match the dense
        # cycle-by-cycle accounting exactly.
        def idle(backend):
            fabric = MultiNocFabric(
                gated_config(), seed=3, backend=backend
            )
            fabric.run(1000)
            return dataclasses.asdict(fabric.report()), fabric.cycle

        assert idle("dense") == idle("skip")


# ----------------------------------------------------------------------
# Skip-kernel specifics
# ----------------------------------------------------------------------


class TestSkipKernel:
    def test_gated_subnet_advances_without_router_step(self, monkeypatch):
        """A fully gated subnet advances the clock at zero router cost:
        the default kernel never invokes ``Router.step`` at all."""
        fabric = MultiNocFabric(gated_config(), seed=9)
        assert isinstance(fabric.backend, SkipBackend)
        fabric.run(600)  # idle warmup: higher-order routers gate off
        assert all(
            router.power_state == PowerState.SLEEP
            for router in fabric.subnets[1].routers
        )
        calls = []
        real_step = Router.step
        monkeypatch.setattr(
            Router,
            "step",
            lambda self, cycle: (calls.append(self), real_step(self, cycle)),
        )
        start = fabric.cycle
        fabric.run(200)
        assert fabric.cycle == start + 200
        assert calls == []

    def test_shadowed_step_defers_to_dense_path(self):
        """An instance shadow on ``fabric.step`` (how perf/faults/
        telemetry attach) must be honoured cycle by cycle."""
        fabric = MultiNocFabric(small_config(), seed=5, backend="skip")
        seen = []
        class_step = type(fabric).step
        fabric.step = lambda: (seen.append(fabric.cycle), class_step(fabric))
        fabric.run(10)
        assert seen == list(range(10))
