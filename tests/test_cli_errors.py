"""CLI error handling: malformed input exits 2 with a one-line message."""

import pytest

from repro.cli import main


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

    def test_resilience_flags_rejected_for_sis(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "optimize",
                    "bench:dec3",
                    "--method",
                    "sis",
                    "--verify-commits",
                ]
            )
        with pytest.raises(SystemExit):
            main(
                ["optimize", "bench:dec3", "--method", "sis", "--deadline", "5"]
            )


class TestRemovedCommands:
    """``repro compare`` and ``optimize --history`` no longer exist;
    argparse rejects both with its usage error."""

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
