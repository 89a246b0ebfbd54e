"""CLI golden test: ``--jobs 2`` reproduces the committed serial BLIF.

``tests/parallel/golden/input.blif`` is a planted network and
``serial_ext.blif`` is the committed output of a serial run::

    python -m repro optimize input.blif --method ext --script A

A parallel run must match it byte for byte, and ``--stats-json`` must
report the worker counters.
"""

import json
import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.usefixtures("pool_for_every_run")
def test_jobs2_matches_committed_serial_golden(tmp_path):
    out = tmp_path / "parallel.blif"
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "optimize",
            str(GOLDEN / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "--jobs",
            "2",
            "--stats-json",
            str(stats_path),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()

    report = json.loads(stats_path.read_text())
    assert report["circuit"] == "golden"
    assert report["method"] == "ext"
    assert report["jobs"] == 2
    assert report["literals_final"] <= report["literals_initial"]
    sub = report["substitution"]
    assert sub["parallel_jobs"] == 2
    assert sub["parallel_batches"] > 0
    assert sub["parallel_pairs_evaluated"] > 0
    assert sub["accepted"] > 0


def test_serial_run_still_matches_golden(tmp_path):
    # Guards the golden file itself: if the optimizer's behaviour
    # changes, this fails alongside the parallel test (regenerate the
    # golden) rather than implicating the parallel engine.
    out = tmp_path / "serial.blif"
    code = main(
        [
            "optimize",
            str(GOLDEN / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()


def test_stats_json_without_jobs_has_no_worker_activity(tmp_path):
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "optimize",
            str(GOLDEN / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "--stats-json",
            str(stats_path),
            "-o",
            str(tmp_path / "out.blif"),
        ]
    )
    assert code == 0
    report = json.loads(stats_path.read_text())
    assert report["jobs"] == 1
    assert report["substitution"]["parallel_pairs_evaluated"] == 0


def test_jobs_rejected_for_sis(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "optimize",
                str(GOLDEN / "input.blif"),
                "--method",
                "sis",
                "--jobs",
                "2",
            ]
        )


def test_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        main(
            ["optimize", str(GOLDEN / "input.blif"), "--jobs", "0"]
        )
