"""Tests for the `repro optimize` CLI command."""

import pathlib

import pytest

from repro.cli import main
from repro.network.blif import read_blif
from repro.network.verify import networks_equivalent
from repro.bench.suite import build_benchmark


class TestOptimize:
    def test_bench_source_to_file(self, tmp_path, capsys):
        out = tmp_path / "opt.blif"
        code = main(
            ["optimize", "bench:rnd1", "--method", "basic", "-o", str(out)]
        )
        assert code == 0
        optimized = read_blif(out.read_text())
        reference = build_benchmark("rnd1")
        assert networks_equivalent(reference, optimized)

    def test_blif_file_roundtrip(self, tmp_path):
        from repro.network.blif import to_blif_str

        source = tmp_path / "in.blif"
        source.write_text(to_blif_str(build_benchmark("dec3")))
        out = tmp_path / "out.blif"
        code = main(
            [
                "optimize",
                str(source),
                "--method",
                "ext",
                "--script",
                "none",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert networks_equivalent(
            build_benchmark("dec3"), read_blif(out.read_text())
        )

    def test_stdout_output(self, capsys):
        code = main(
            ["optimize", "bench:dec3", "--method", "sis", "--script", "none"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ".model" in out and ".end" in out

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["optimize", "bench:dec3", "--method", "nope"])

    def test_unknown_final_verdict_fails_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # A final proof that cannot complete is not a pass: the run
        # exits non-zero, says why, and writes no BLIF.
        from repro.sat import check

        monkeypatch.setattr(check, "DEFAULT_CONFLICT_BUDGET", 0)
        out = tmp_path / "opt.blif"
        code = main(
            [
                "optimize",
                "bench:rnd1",
                "--method",
                "basic",
                "--verify-backend",
                "sat",
                "-o",
                str(out),
            ]
        )
        assert code != 0
        assert "equivalence unknown" in capsys.readouterr().err
        assert not out.exists()

    def test_final_verify_span_records_its_verdict(self, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "optimize",
                "bench:rnd1",
                "--method",
                "basic",
                "--trace",
                str(trace),
                "-o",
                str(tmp_path / "opt.blif"),
            ]
        )
        assert code == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        (final,) = [
            event for event in events
            if event["kind"] == "verify"
            and event["attrs"].get("check") == "final-equivalence"
        ]
        assert final["attrs"]["backend"] == "bdd"
        assert final["attrs"]["status"] == "equal"


class TestStatsJsonVerdict:
    """``--stats-json`` records the final check's backend and status."""

    def _report(self, tmp_path, *extra):
        import json

        stats = tmp_path / "stats.json"
        code = main(
            [
                "optimize",
                "bench:rnd1",
                "--method",
                "basic",
                "-o",
                str(tmp_path / "opt.blif"),
                "--stats-json",
                str(stats),
                *extra,
            ]
        )
        assert code == 0
        return json.loads(stats.read_text())

    def test_default_bdd_verdict(self, tmp_path):
        report = self._report(tmp_path)
        assert report["verify"] == {"backend": "bdd", "status": "equal"}

    def test_sat_backend_verdict(self, tmp_path):
        report = self._report(tmp_path, "--verify-backend", "sat")
        assert report["verify"] == {"backend": "sat", "status": "equal"}

    def test_no_verify_records_null(self, tmp_path):
        report = self._report(tmp_path, "--no-verify")
        assert report["verify"] is None
