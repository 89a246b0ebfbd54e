"""Golden byte-parity for the simguided engine through the CLI.

The committed golden (``tests/resub/golden/rnd8_simguided.blif``) pins
``repro optimize bench:rnd8 --method simguided`` byte for byte — the
engine is deterministic end to end (seeded signatures, structural
window ranking, serial greedy acceptance).  Observation must never
perturb it: the same run under ``--trace`` and under
``--verify-commits --stats-json`` must reproduce the identical file,
with the transactional ledger rolling nothing back and quarantining
nothing, and the ``resub_*`` counters must land in the stats report,
identical from run to run.
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _optimize(out, extra=()):
    return main(
        [
            "optimize",
            "bench:rnd8",
            "--method",
            "simguided",
            "-o",
            str(out),
            *extra,
        ]
    )


def test_simguided_matches_committed_golden(tmp_path):
    out = tmp_path / "rnd8.blif"
    assert _optimize(out) == 0
    assert out.read_bytes() == (
        GOLDEN / "rnd8_simguided.blif"
    ).read_bytes()


def test_simguided_golden_is_stable_under_tracing(tmp_path):
    out = tmp_path / "rnd8_traced.blif"
    trace = tmp_path / "trace.jsonl"
    assert _optimize(out, ("--trace", str(trace))) == 0
    assert out.read_bytes() == (
        GOLDEN / "rnd8_simguided.blif"
    ).read_bytes()
    kinds = {
        json.loads(line)["kind"] for line in trace.read_text().splitlines()
    }
    # The engine's own span kinds show up in the trace.
    assert {"resub_window", "resub_resyn", "resub_validate"} <= kinds


def test_verify_commits_keeps_quarantine_empty_and_exports_counters(
    tmp_path,
):
    out = tmp_path / "rnd8_verified.blif"
    stats_path = tmp_path / "stats.json"
    code = _optimize(
        out, ("--verify-commits", "--stats-json", str(stats_path))
    )
    assert code == 0
    assert out.read_bytes() == (
        GOLDEN / "rnd8_simguided.blif"
    ).read_bytes()
    report = json.loads(stats_path.read_text())
    sub = report["substitution"]
    assert sub["commits_rolled_back"] == 0
    assert sub["pairs_quarantined"] == 0
    assert sub["commits_verified"] > 0
    assert sub["resub_accepted"] > 0
    assert sub["resub_targets"] > 0
    assert sub["resub_candidates"] > 0
    assert sub["resub_validated"] > 0
    assert sub["resub_rejected_unknown"] == 0


def test_simguided_stats_are_byte_stable_across_runs(tmp_path):
    snapshots = []
    for label in ("one", "two"):
        stats_path = tmp_path / f"stats_{label}.json"
        assert _optimize(
            tmp_path / f"{label}.blif",
            ("--stats-json", str(stats_path)),
        ) == 0
        report = json.loads(stats_path.read_text())
        snapshots.append(
            {
                name: value
                for name, value in report["substitution"].items()
                if name.startswith("resub_")
            }
        )
    assert snapshots[0] == snapshots[1]
