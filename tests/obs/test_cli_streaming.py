"""CLI streaming traces: crash durability and tolerant reading.

``--trace`` writes each span the moment it closes.  The kill-fuzz test
is the crash-durability criterion: SIGKILL the optimizer mid-pass and
the streamed trace must still be parseable (all closed spans intact,
at most one torn trailing line) and analyzable by ``repro trace
report``.  A trace that cannot be written (a full disk) never costs
the run its output.
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
class TestStreamedTrace:
    @pytest.mark.usefixtures("pool_for_every_run")
    def test_streamed_trace_has_unique_proc_id_keys(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert _optimize(
            tmp_path / "out.blif",
            "--jobs",
            "2",
            "--trace",
            str(trace),
        ) == 0
        events = read_jsonl(str(trace))
        keys = [(e["proc"], e["id"]) for e in events]
        assert len(keys) == len(set(keys))

    @pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs the /dev/full device"
    )
    def test_full_disk_keeps_the_output(self, tmp_path, capsys):
        """A trace write failing with ENOSPC warns; the run still writes
        its BLIF and statistics and exits 0."""
        out = tmp_path / "out.blif"
        stats = tmp_path / "stats.json"
        code = _optimize(
            out, "--trace", "/dev/full", "--stats-json", str(stats)
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
        assert json.loads(stats.read_text())["verify"]["status"] == "equal"
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if "warning" in line]
        assert warnings == [
            "warning: trace /dev/full is incomplete: "
            "[Errno 28] No space left on device"
        ]
        assert "# trace:" not in err


class TestCliValidation:
    def test_stall_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(
                ["optimize", str(GOLDEN / "input.blif"),
                 "--stall-timeout", "0"]
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
