"""CLI error handling: malformed input and unwritable outputs exit 2
with a one-line message."""

import pytest

from repro.cli import main


@pytest.fixture
def no_run(monkeypatch):
    """Fail if the preparation script or the optimizer starts: a bad
    command line must be reported before either."""
    from repro.scripts import flows

    def fail(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(flows, "run_method", fail)
    monkeypatch.setitem(flows.SCRIPTS, "A", fail)


class TestOptimizeErrors:
    def test_malformed_blif_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(
            ".model bad\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n"
        )
        code = main(["optimize", str(bad), "--script", "none"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: {bad}:5: ")

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.blif"
        code = main(["optimize", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")

    def test_unknown_bench_name(self, capsys):
        code = main(["optimize", "bench:no_such_circuit"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "no_such_circuit" in err

    def test_verify_commits_flag_runs_clean(self, capsys):
        code = main(
            [
                "optimize",
                "bench:dec3",
                "--method",
                "basic",
                "--script",
                "none",
                "--verify-commits",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ".model" in out and ".end" in out

    def test_resilience_flags_rejected_for_sis(self, no_run):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "optimize",
                    "bench:dec3",
                    "--method",
                    "sis",
                    "--verify-commits",
                ]
            )
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["optimize", "bench:dec3", "--method", "sis", "--deadline", "5"]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_deadline_must_be_finite_and_non_negative(
        self, value, no_run, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:dec3", "--deadline", value])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro optimize: error: --deadline must be a finite number >= 0"
        )


class TestUnwritableOutputs:
    """An output path in a missing directory is a one-line error and
    exit 2, like an unreadable input, given before the run starts; no
    output file appears."""

    @pytest.mark.parametrize(
        "flag", ["--trace", "-o", "--stats-json", "--profile-json"]
    )
    def test_missing_directory(self, flag, no_run, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        code = main(
            ["optimize", "bench:dec3", "--method", "basic", flag, str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {str(path)!r}: No such file or directory\n"
        )
        assert not path.parent.exists()


class TestTraceUnwritableOutput:
    """``repro trace VERB FILE -o PATH`` with PATH in a missing
    directory is the same one-line error and exit 2 as ``optimize``."""

    @pytest.mark.parametrize("verb", ["report", "chrome", "flame"])
    def test_missing_directory(self, verb, tmp_path, capsys):
        from repro.obs.tracer import Tracer

        trace = tmp_path / "run.jsonl"
        tracer = Tracer()
        with tracer.span("run"):
            pass
        tracer.export_jsonl(str(trace))
        path = tmp_path / "missing" / "out"
        code = main(["trace", verb, str(trace), "-o", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {str(path)!r}: No such file or directory\n"
        )
        assert not path.parent.exists()


class TestRemovedCommands:
    """``repro compare``, ``repro tail``, the optimize flags
    ``--history``, ``--live``, ``--sample-resources``,
    ``--heartbeat-dir``, ``-j/--jobs``, ``--stall-timeout``,
    ``--no-sim-filter`` and ``--sim-patterns``, and
    ``--verify-backend bdd`` no longer exist; argparse rejects each
    with its usage error."""

    def test_compare_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "base.json", "new.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    def test_history_flag_rejected(self, tmp_path, capsys):
        ledger = tmp_path / "history.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:dec3", "--history", str(ledger)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --history" in capsys.readouterr().err
        assert not ledger.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--live"], ["--sample-resources", "1"], ["--heartbeat-dir", "DIR"]],
        ids=["live", "sample-resources", "heartbeat-dir"],
    )
    def test_telemetry_flag_rejected(self, extra, tmp_path, capsys):
        extra = [str(tmp_path / "beats") if a == "DIR" else a for a in extra]
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:dec3", *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(extra)}" in err
        assert not (tmp_path / "beats").exists()

    @pytest.mark.parametrize(
        "extra",
        [["-j", "2"], ["--jobs", "2"], ["--stall-timeout", "5"]],
        ids=["j", "jobs", "stall-timeout"],
    )
    def test_parallel_flag_rejected(self, extra, no_run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:dec3", *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(extra)}" in err

    @pytest.mark.parametrize(
        "extra",
        [["--no-sim-filter"], ["--sim-patterns", "8"]],
        ids=["no-sim-filter", "sim-patterns"],
    )
    def test_signature_flag_rejected(self, extra, no_run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:rnd1", *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(extra)}" in err

    def test_bdd_verify_backend_rejected(self, no_run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "bench:dec3", "--verify-backend", "bdd"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bdd'" in capsys.readouterr().err

    def test_tail_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tail", "t.jsonl"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tail'" in capsys.readouterr().err
