"""CLI live telemetry: golden byte-parity, ``repro tail``, kill-fuzz.

The golden suite proves the acceptance criterion that live telemetry
is a pure observer: ``--live``, the streaming trace sink, the resource
sampler and worker heartbeats — alone or stacked, serial or process
pool — reproduce ``tests/parallel/golden/serial_ext.blif`` byte for
byte.

The kill-fuzz test is the crash-durability criterion: SIGKILL the
optimizer mid-pass and the streaming trace must still be parseable
(all closed spans intact, at most one torn trailing line) and
analyzable by ``repro trace report``.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.obs.tracer import read_jsonl

GOLDEN = pathlib.Path(__file__).parent.parent / "parallel" / "golden"


def _optimize(out, *extra):
    return main(
        [
            "optimize",
            str(GOLDEN / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "-o",
            str(out),
            *extra,
        ]
    )


@pytest.mark.trace
class TestLiveGoldenParity:
    def test_live_serial_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "out.blif"
        assert _optimize(out, "--live") == 0
        assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
        assert "pairs" in capsys.readouterr().err

    def test_full_telemetry_serial_matches_golden(self, tmp_path):
        out = tmp_path / "out.blif"
        trace = tmp_path / "run.jsonl"
        code = _optimize(
            out,
            "--live",
            "--trace",
            str(trace),
            "--sample-resources",
            "0.05",
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
        events = read_jsonl(str(trace))
        kinds = {e["kind"] for e in events}
        assert "run" in kinds
        assert "resource_sample" in kinds

    @pytest.mark.usefixtures("pool_for_every_run")
    def test_full_telemetry_process_pool_matches_golden(self, tmp_path):
        out = tmp_path / "out.blif"
        trace = tmp_path / "run.jsonl"
        hb_dir = tmp_path / "heartbeats"
        stats = tmp_path / "stats.json"
        code = _optimize(
            out,
            "--jobs",
            "2",
            "--live",
            "--trace",
            str(trace),
            "--sample-resources",
            "0.05",
            "--heartbeat-dir",
            str(hb_dir),
            "--stall-timeout",
            "60",
            "--stats-json",
            str(stats),
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
        events = read_jsonl(str(trace))
        kinds = {e["kind"] for e in events}
        assert "heartbeat" in kinds
        assert "resource_sample" in kinds
        # Worker heartbeats piggybacked on the result channel are
        # counted in the run statistics.
        report = json.loads(stats.read_text())
        sub = report["substitution"]
        assert sub["heartbeats_recorded"] > 0
        assert sub["stalls_detected"] == 0
        # Heartbeat files were written, one per worker pid.
        beats = sorted(hb_dir.glob("worker-*.heartbeat.json"))
        assert beats
        for beat in beats:
            record = json.loads(beat.read_text())
            assert record["v"] == 1
            assert record["pairs_done"] > 0

    @pytest.mark.usefixtures("pool_for_every_run")
    def test_streamed_trace_has_unique_proc_id_keys(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert _optimize(
            tmp_path / "out.blif",
            "--jobs",
            "2",
            "--trace",
            str(trace),
            "--sample-resources",
            "0.05",
        ) == 0
        events = read_jsonl(str(trace))
        keys = [(e["proc"], e["id"]) for e in events]
        assert len(keys) == len(set(keys))

    def test_serial_heartbeats_counted_without_pool(self, tmp_path):
        stats = tmp_path / "stats.json"
        assert _optimize(
            tmp_path / "out.blif", "--stats-json", str(stats)
        ) == 0
        report = json.loads(stats.read_text())
        # The serial backend marks one liveness beat per shard so
        # health.* stays populated across backends.
        assert report["substitution"]["heartbeats_recorded"] == 0


class TestCliValidation:
    def test_live_rejected_for_sis(self):
        with pytest.raises(SystemExit):
            main(
                ["optimize", str(GOLDEN / "input.blif"), "--method",
                 "sis", "--live"]
            )

    def test_stall_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(
                ["optimize", str(GOLDEN / "input.blif"),
                 "--stall-timeout", "0"]
            )

    def test_sample_resources_must_be_nonnegative(self):
        with pytest.raises(SystemExit):
            main(
                ["optimize", str(GOLDEN / "input.blif"),
                 "--sample-resources", "-1"]
            )


@pytest.mark.trace
class TestTraceReportTolerance:
    def _traced_run(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert _optimize(tmp_path / "out.blif", "--trace", str(trace)) == 0
        return trace

    def test_report_tolerates_truncated_tail(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        text = trace.read_text()
        trace.write_text(text[: len(text) - 40])
        assert main(["trace", "report", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning:") == 1
        assert "truncated" in captured.err
        assert "critical path" in captured.out.lower() or captured.out

    def test_empty_trace_is_a_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty trace file" in err


class TestTailCli:
    def _trace_file(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert _optimize(tmp_path / "out.blif", "--trace", str(trace)) == 0
        return trace

    def test_no_follow_replay_exits_zero(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        assert main(["tail", str(trace), "--no-follow"]) == 0
        err = capsys.readouterr().err
        assert "run finished" in err

    def test_follow_stops_at_run_span(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        # follow=True but the run span is already on disk, so the
        # tail terminates without ever sleeping.
        assert main(["tail", str(trace)]) == 0
        assert "run finished" in capsys.readouterr().err

    def test_truncated_tail_warns_once(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        lines = trace.read_text().splitlines(keepends=True)
        # Drop the run span so EOF is reached, then tear the tail.
        trace.write_text("".join(lines[:-1])[:-30])
        assert main(["tail", str(trace), "--no-follow"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "gone.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_file_no_follow_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["tail", str(empty), "--no-follow"]) == 2
        assert "empty trace file" in capsys.readouterr().err

    def test_poll_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["tail", str(tmp_path / "t.jsonl"), "--poll", "0"])


@pytest.mark.trace
@pytest.mark.fault_injection
class TestKillFuzz:
    def test_sigkill_leaves_parseable_streaming_trace(self, tmp_path):
        """kill -9 mid-pass: every closed span survives on disk."""
        trace = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).parents[2] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "optimize",
                "bench:rnd8",
                "--method",
                "ext",
                "--trace",
                str(trace),
                "--sample-resources",
                "0.02",
                "-o",
                str(tmp_path / "out.blif"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if trace.exists() and trace.read_text().count("\n") >= 20:
                    break
                if process.poll() is not None:
                    pytest.fail(
                        "optimizer finished before the kill landed; "
                        "raise the span threshold"
                    )
                time.sleep(0.01)
            else:
                pytest.fail("streaming trace never reached 20 lines")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        warnings = []
        events = read_jsonl(
            str(trace), tolerant=True, on_warning=warnings.append
        )
        assert len(events) >= 20
        assert len(warnings) <= 1  # at most the torn trailing line
        # And the analysis front end accepts the partial trace as-is.
        assert main(["trace", "report", str(trace)]) == 0
