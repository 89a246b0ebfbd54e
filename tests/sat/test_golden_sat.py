"""Golden byte-parity under the SAT verification backend.

The committed golden pair (``tests/golden``) pins the
optimizer's exact output.  Verification must never perturb it:
a run whose every exact check is forced onto the CNF/CDCL miter (the
``force_sat`` fixture) must still reproduce ``serial_ext.blif`` byte
for byte, and ``--verify-commits`` under the SAT backend must leave
the quarantine empty and roll nothing back.
"""

import dataclasses
import json
import pathlib

from repro.cli import main
from repro.core.config import EXTENDED
from repro.core.substitution import substitute_network
from repro.network.blif import read_blif, to_blif_str
from repro.scripts.flows import script_a

GOLDEN = pathlib.Path(__file__).parents[1] / "golden"


def test_sat_backend_matches_committed_golden(tmp_path, force_sat):
    force_sat()
    out = tmp_path / "sat.blif"
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
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
    report = json.loads(stats_path.read_text())
    assert report["verify"] == {"backend": "sat", "status": "equal"}


def test_verify_commits_under_sat_keeps_quarantine_empty(
    tmp_path, force_sat
):
    force_sat()
    out = tmp_path / "sat_verified.blif"
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "optimize",
            str(GOLDEN / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "--verify-commits",
            "--stats-json",
            str(stats_path),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "serial_ext.blif").read_bytes()
    report = json.loads(stats_path.read_text())
    sub = report["substitution"]
    assert sub["commits_rolled_back"] == 0
    assert sub["pairs_quarantined"] == 0


def test_sat_full_checks_run_and_pass_on_golden(force_sat):
    """API-level: force a full check on *every* commit with the SAT
    backend — the solver must actually run (``sat_solves > 0``) and
    agree with every commit (nothing rolled back or quarantined)."""
    network = read_blif((GOLDEN / "input.blif").read_text())
    reference = read_blif((GOLDEN / "input.blif").read_text())
    script_a(network)
    config = dataclasses.replace(
        EXTENDED, verify_commits=True, verify_full_every=1
    )
    force_sat()
    stats = substitute_network(network, config)
    assert stats.accepted > 0
    assert stats.sat_solves > 0
    assert stats.sat_conflicts >= 0
    assert stats.commits_rolled_back == 0
    assert stats.pairs_quarantined == 0
    assert to_blif_str(network) == (
        GOLDEN / "serial_ext.blif"
    ).read_text()
    # The reference copy run without SAT verification matches too:
    # verification is an observer, never a mutator.
    script_a(reference)
    substitute_network(reference, EXTENDED)
    assert to_blif_str(reference) == to_blif_str(network)
