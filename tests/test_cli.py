"""CLI smoke tests (argument parsing and fast commands).

Slow commands that run the full simulation (figure/table 2) are covered
by the examples and benches; here we exercise the cheap paths and the
parser itself.
"""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig1"])
        assert args.name == "fig1"
        assert not args.all_months

    def test_scan_probe_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "quic"])

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["--workers", "4", "--no-cache", "--rebuild", "--resume",
             "--faults", "worker_crash:0.1,seed:3", "stats"]
        )
        assert args.workers == 4
        assert args.no_cache
        assert args.rebuild
        assert args.resume
        assert args.faults == "worker_crash:0.1,seed:3"

    def test_engine_flags_default_off(self):
        args = build_parser().parse_args(["stats"])
        assert args.workers is None
        assert not args.no_cache
        assert not args.rebuild
        assert not args.resume
        assert args.faults is None


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "TLS 1.2" in out and "Aug. 2008" in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "Chrome" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table", "6"]) == 0
        assert "SSL 3 fallback removed" in capsys.readouterr().out

    def test_table_out_of_range(self, capsys):
        assert main(["table", "9"]) == 2

    def test_timeline(self, capsys):
        assert main(["timeline"]) == 0
        out = capsys.readouterr().out
        assert "Heartbleed" in out
        assert "POODLE" in out

    def test_timeline_with_browsers(self, capsys):
        assert main(["timeline", "--browsers"]) == 0
        assert "drops RC4" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure 'fig99'" in err
        assert "'fig10'" in err and "'fig9'" in err

    def test_fingerprint_unknown_family(self, capsys):
        assert main(["fingerprint", "Netscape", "4"]) == 2

    def test_scan_ssl3(self, capsys):
        assert main(["scan", "ssl3", "--interval", "400"]) == 0
        out = capsys.readouterr().out
        assert "%" in out
        assert "2015-08-22" in out

    def test_pulse(self, capsys):
        assert main(["pulse", "--interval", "600"]) == 0
        assert "rc4 supported" in capsys.readouterr().out

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "CALIBRATION SHEET" in out
        assert "ssl3_removal" in out


class TestStats:
    def test_stats_reports_dataset_and_counters(self, capsys, monkeypatch):
        """``stats`` prints the dataset summary and engine perf counters.

        The process-wide default model is swapped for a tiny two-month
        window so the command stays fast, and the dataset cache is off
        so the run is hermetic.
        """
        import datetime as dt

        from repro.simulation import ecosystem

        small = ecosystem.EcosystemModel(
            start=dt.date(2014, 6, 1),
            end=dt.date(2014, 7, 1),
            use_cache=False,
            workers=0,
        )
        monkeypatch.setattr(ecosystem, "_DEFAULT_MODEL", small)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "months              : 2" in out
        assert "ENGINE PERF COUNTERS" in out
        assert "negotiations" in out
        assert "records/s" in out
        # Resilience counters are always reported, even when zero.
        assert "chunk retries" in out
        assert "chunk timeouts" in out
        assert "resumed months" in out
        assert "cache evictions" in out

    def test_commands_share_one_default_model(self, monkeypatch):
        """Chained commands must reuse the process-wide model instance."""
        from repro.simulation import ecosystem

        monkeypatch.setattr(ecosystem, "_DEFAULT_MODEL", None)
        first = ecosystem.default_model(workers=0, use_cache=False)
        assert ecosystem.default_model() is first


class TestRunConfiguration:
    """CLI flags resolve once into :class:`EcosystemModel`; the
    environment carries only the deployment and observability knobs."""

    #: Every environment variable the package reads.  Engine options
    #: that shadow a CLI flag live on the model instead.
    KNOBS = {
        "REPRO_CACHE_DIR",
        "REPRO_CACHE_MAX_BYTES",
        "REPRO_FAULTS",
        "REPRO_BACKEND",
        "REPRO_LOG_LEVEL",
        "REPRO_METRICS_PATH",
    }

    def test_environment_knobs_are_exactly_six(self):
        import re
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        found = set()
        for path in src.rglob("*.py"):
            found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text("utf-8")))
        assert found == self.KNOBS

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_scale_below_one_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", value, "timeline"])
        assert exc.value.code == 2
        assert "--scale" in capsys.readouterr().err

    def test_bench_rejects_the_dataset_scale(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "2", "bench", "--quick"])
        assert exc.value.code == 2
        assert "bench runs its windows at scale 1" in capsys.readouterr().err

    def test_scale_below_one_raises_in_the_engine(
        self, client_population, server_population
    ):
        import datetime as dt

        from repro.engine import runner
        from repro.simulation.ecosystem import EcosystemModel

        with pytest.raises(ValueError, match="scale"):
            EcosystemModel(scale=0)
        with pytest.raises(ValueError, match="scale"):
            runner.run_expectation(
                client_population, server_population,
                dt.date(2014, 6, 1), dt.date(2014, 6, 1), workers=0, scale=0,
            )

    def test_flags_map_onto_model_fields(self, monkeypatch):
        from repro.cli import model_kwargs
        from repro.simulation import ecosystem

        args = build_parser().parse_args(
            ["--workers", "2", "--no-cache", "--resume", "--scale", "3",
             "--faults", "seed:1", "serve"]
        )
        assert model_kwargs(args) == {
            "workers": 2, "use_cache": False, "rebuild": False,
            "faults": "seed:1", "resume": True, "scale": 3,
        }
        monkeypatch.setattr(ecosystem, "_DEFAULT_MODEL", None)
        model = ecosystem.default_model(
            **model_kwargs(build_parser().parse_args(["stats"]))
        )
        assert (model.workers, model.use_cache, model.resume, model.scale) == (
            None, True, False, 1,
        )
