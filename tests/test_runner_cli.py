"""Tests for the catnap-experiments command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.experiments.cli import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    main,
    render_experiment,
    run_experiment,
)


class TestMain:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig08" in capsys.readouterr().out

    def test_runs_table02(self, capsys):
        assert main(["table02"]) == 0
        out = capsys.readouterr().out
        assert "2.900" in out or "2.9" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["fig07", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig07.txt").exists()

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            main(["nope"])

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf"])
    def test_bad_scale_is_a_usage_error(self, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig14", "--scale", scale])
        assert excinfo.value.code == 2
        assert "--scale" in capsys.readouterr().err


class TestRenderExperiment:
    def test_chartless_experiment_is_table_only(self):
        result = run_experiment("table02")
        assert render_experiment(result) == result.to_table()

    def test_chart_specs_only_reference_known_experiments(self):
        from repro.experiments.cli import _CHART_SPECS

        assert set(_CHART_SPECS) <= set(EXPERIMENTS)


class TestRegistry:
    def test_paper_experiments_subset(self):
        assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_extension_registered(self):
        assert "ext_class_partition" in EXPERIMENTS


class TestTelemetryFlags:
    def test_trace_out_implies_telemetry_and_writes_artifacts(
        self, tmp_path, capsys, monkeypatch
    ):
        import os

        # main() exports these for sweep workers; the test must leave
        # no trace in the process environment afterwards.  delenv on
        # an *absent* var registers nothing to undo, so a bare delenv
        # would let main()'s os.environ writes outlive the test —
        # setenv first registers restore-to-absent, then delenv clears
        # the placeholder for the call.
        for name in ("REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR"):
            monkeypatch.setenv(name, "placeholder")
            monkeypatch.delenv(name)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        out_dir = tmp_path / "tel"
        assert (
            main(
                [
                    "fig06",
                    "--scale",
                    "0.02",
                    "--trace-out",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert os.environ["REPRO_TELEMETRY"] == "1"
        names = sorted(p.name for p in out_dir.iterdir())
        assert any(n.endswith(".trace.json") for n in names)
        assert any(n.endswith(".timeseries.json") for n in names)
        err = capsys.readouterr().err
        assert "telemetry:" in err

        from repro.telemetry.__main__ import main as telemetry_main

        assert telemetry_main(["validate", str(out_dir)]) == 0

    def test_percentiles_flag_keeps_tables_without_the_columns(
        self, capsys
    ):
        assert main(["table02", "--percentiles"]) == 0
        out = capsys.readouterr().out
        assert "latency_p50" not in out

    def test_percentiles_render_appends_columns(self):
        from dataclasses import replace

        from repro.experiments.common import ExperimentResult

        rows = [
            {
                "load": 0.1,
                "latency": 20.0,
                "latency_p50": 19.0,
                "latency_p95": 30.0,
                "latency_p99": 40.0,
            }
        ]
        result = ExperimentResult(
            "figX", "t", rows, columns=["load", "latency"]
        )
        plain = render_experiment(result)
        with_pct = render_experiment(result, percentiles=True)
        assert "latency_p95" not in plain
        assert "latency_p95" in with_pct
        # The default rendering is untouched (paper tables stay
        # byte-identical) and the result object is not mutated.
        assert render_experiment(result) == plain
        assert result.columns == ["load", "latency"]


class TestFaultFlags:
    def test_bad_spec_is_a_usage_error(self, capsys):
        # Validation happens at argument-parsing time: a typo must
        # exit with argparse's usage status, not as one captured
        # failure per sweep point (which would render an empty table
        # and exit 0).
        with pytest.raises(SystemExit) as excinfo:
            main(["fig06", "--faults", "rate=banana"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--faults" in err

    def test_good_spec_sets_env_and_disables_cache(self, monkeypatch):
        import os

        # Same restore-to-absent dance as the telemetry-flag test:
        # main() writes os.environ for forked sweep workers, and the
        # test must not leak that into later tests.
        for name in ("REPRO_FAULTS", "REPRO_NO_CACHE"):
            monkeypatch.setenv(name, "placeholder")
            monkeypatch.delenv(name)
        assert main(["fig14", "--scale", "0.02", "--faults", "rate=0.001;seed=3"]) == 0
        assert os.environ["REPRO_FAULTS"] == "rate=0.001;seed=3"
        # Faulted rows must never enter (or be served from) the
        # healthy-result cache.
        assert os.environ["REPRO_NO_CACHE"] == "1"


class TestExplainFlag:
    @pytest.mark.parametrize("spec", ["", " "])
    def test_empty_spec_is_a_usage_error(self, monkeypatch, capsys, spec):
        # An empty spec would be exported as REPRO_EXPLAIN="", which
        # reads as off: the run would disable the cache yet attribute
        # nothing.  It must fail at parse time instead.
        monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["table02", "--explain", spec])
        assert excinfo.value.code == 2
        assert "--explain" in capsys.readouterr().err
        assert "REPRO_EXPLAIN" not in os.environ


class TestBackendFlag:
    def test_point_failed_is_loud_without_progress(self, capsys):
        from repro.experiments.cli import _TallyObserver
        from repro.experiments.common import synthetic_phases
        from repro.experiments.runner import PointSpec
        from repro.noc.config import NocConfig

        spec = PointSpec.synthetic(
            NocConfig.mesh_64_core(), "uniform", 0.1,
            synthetic_phases(0.04), 7,
        )
        recorded = []

        class _Extra:
            def point_failed(self, index, spec, error):
                recorded.append((index, error))

        tally = _TallyObserver(progress=False, extra=[_Extra()])
        tally.point_failed(3, spec, "ValueError: boom")
        err = capsys.readouterr().err
        assert "FAILED" in err and "boom" in err
        assert recorded == [(3, "ValueError: boom")]
