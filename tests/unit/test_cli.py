"""Unit tests for :mod:`repro.cli`."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "fig1a", "--reps", "3", "--full", "--csv", "out.csv"])
        assert (args.figure, args.reps, args.full, args.csv) == (
            "fig1a", 3, True, "out.csv")

    def test_jobs_flags(self):
        args = build_parser().parse_args(["run", "fig1a", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["report", "--jobs", "2"])
        assert args.jobs == 2
        assert build_parser().parse_args(["run", "fig1a"]).jobs == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_bare_report_renders_every_registered_panel(self, monkeypatch, tmp_path):
        import repro.reporting.experiments_md as experiments_md
        from repro.experiments.figures import FIGURES

        seen = []
        monkeypatch.setattr(experiments_md, "experiments_markdown",
                            lambda ids, **kw: seen.extend(ids) or "# doc\n")
        assert main(["report", "--out", str(tmp_path / "EXP.md"), "--quiet"]) == 0
        assert seen == list(FIGURES) and "abl-failures" in seen

    def test_list_prints_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fid in ["fig1a", "fig2b", "fig5", "abl-q"]:
            assert fid in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["run", "fig77"]) == 2
        err = capsys.readouterr().err
        assert "repro: error: unknown figure 'fig77'" in err
        assert "Traceback" not in err

    def test_errors_module_hierarchy(self):
        # Sanity: every library error is catchable as ReproError.
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError) or exc is errors.ReproError


class TestJobsValidation:
    """`--jobs 0` used to die deep in the executor; now it is a clean
    one-line usage error (no traceback) before any work starts."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "fig1a", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["run", "fig1a", "--jobs", "-4"], "--jobs must be >= 1, got -4"),
        (["report", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["serve", "--workers", "0"], "--workers must be >= 1, got 0"),
        (["serve", "--workers", "-1"], "--workers must be >= 1, got -1"),
        (["serve", "--queue-limit", "0"], "--queue-limit must be >= 1, got 0"),
    ])
    def test_nonpositive_rejected_cleanly(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro: error: {message}" in err
        assert "Traceback" not in err


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.command, args.host, args.port) == ("serve", "127.0.0.1", 7351)
        assert (args.workers, args.executor, args.queue_limit) == (1, "process", 32)
        assert args.deadline == 30.0

    def test_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--executor", "thread",
             "--queue-limit", "8", "--deadline", "5", "--drain-timeout", "2"])
        assert (args.port, args.workers, args.executor) == (0, 4, "thread")
        assert (args.queue_limit, args.deadline, args.drain_timeout) == (8, 5.0, 2.0)

    def test_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "fiber"])


class TestCacheCLI:
    """The `repro cache` maintenance group and `--cache-dir` plumbing."""

    def test_parser_defaults_and_flags(self):
        assert build_parser().parse_args(["plan"]).cache_dir is None
        assert build_parser().parse_args(["serve"]).cache_dir is None
        assert build_parser().parse_args(["run", "fig1a"]).cache_dir is None
        args = build_parser().parse_args(
            ["cache", "gc", "--cache-dir", "d", "--max-entries", "5"])
        assert (args.command, args.cache_command) == ("cache", "gc")
        assert (args.cache_dir, args.max_entries, args.max_bytes) == ("d", 5, None)

    def test_cache_dir_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def _plan(self, tmp_path, store):
        return main(["plan", "--n", "12", "--q", "2", "--horizon", "60",
                     "--cache-dir", str(store),
                     "--network-out", str(tmp_path / "n.json"),
                     "--plan-out", str(tmp_path / "p.json")])

    def test_plan_populates_store_and_commands_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._plan(tmp_path, store) == 0
        assert self._plan(tmp_path, store) == 0  # warm re-plan, same files

        assert main(["cache", "stats", "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(store) in out

        assert main(["cache", "verify", "--cache-dir", str(store)]) == 0
        assert "0 corrupt" in capsys.readouterr().out

        assert main(["cache", "gc", "--cache-dir", str(store),
                     "--max-entries", "1"]) == 0
        assert "kept 1" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", str(store)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_verify_exit_one_on_corruption(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._plan(tmp_path, store) == 0
        victim = sorted((store / "objects").rglob("*.json"))[0]
        victim.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", str(store)]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_foreign_directory_rejected_cleanly(self, tmp_path, capsys):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("precious")
        assert main(["cache", "clear", "--cache-dir", str(foreign)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err
        assert (foreign / "data.txt").exists()


class TestWatchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert (args.command, args.host, args.port) == ("watch", "127.0.0.1", 7350)
        assert (args.interval, args.duration, args.frames) == (1.0, 0.0, 0)
        assert (args.once, args.plain) == (False, False)
        assert (args.jsonl, args.svg) == (None, None)

    def test_flags(self):
        args = build_parser().parse_args(
            ["watch", "--port", "7351", "--interval", "0.25", "--frames", "5",
             "--duration", "30", "--once", "--plain", "--jsonl", "f.jsonl",
             "--svg", "d.svg"])
        assert (args.port, args.interval, args.frames) == (7351, 0.25, 5)
        assert (args.duration, args.once, args.plain) == (30.0, True, True)
        assert (args.jsonl, args.svg) == ("f.jsonl", "d.svg")

    def test_nonpositive_interval_is_a_usage_error(self, capsys):
        assert main(["watch", "--interval", "0"]) == 2
        err = capsys.readouterr().err
        assert "--interval" in err and "Traceback" not in err

    def test_unreachable_server_is_a_clean_failure(self, capsys):
        # Nothing listens on this port: one stderr line, exit 1.
        assert main(["watch", "--port", "1", "--frames", "1"]) == 1
        assert "Traceback" not in capsys.readouterr().err
