"""Engine-vs-engine benchmark: simguided resubstitution vs division.

Runs :func:`~repro.core.substitution.substitute_network` twice per
circuit — ``method="division"`` (the paper-faithful BASIC
configuration) and ``method="simguided"`` (:mod:`repro.resub`) — and
reports, per circuit: final literal counts of both engines, exact
equivalence of both results against the input (the cross-engine
invariant the differential suite locks in), ``boolean_divide``
invocations saved (the simguided engine makes none — its work shows
up in the ``resub.*`` counters instead), and the wall-clock ratio.
:func:`run_resub_benchmark` writes the comparison as JSON
(``BENCH_resub.json``) and appends the simguided run's metrics
snapshot to the cross-PR run history.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.bench.suite import build_benchmark
from repro.core.config import BASIC, SIMGUIDED, DivisionConfig
from repro.core.substitution import substitute_network
from repro.network.network import Network
from repro.network.verify import exact_equivalent
from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    append_record,
    make_record,
)
from repro.obs.metrics import run_snapshot

#: Default output location: ``benchmarks/results/BENCH_resub.json``
#: at the repository root.
DEFAULT_RESULT_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "results"
    / "BENCH_resub.json"
)

#: The headline circuits: rnd8 exercises the BDD validation path,
#: add10 (21 PIs) the SAT miter path, pri10 the candidate-heavy
#: control-logic regime.
DEFAULT_CIRCUITS = ("rnd8", "add10", "pri10")


def run_engine(
    network: Network, config: DivisionConfig
) -> Dict[str, object]:
    """One run on *network* (mutated in place); flat stats."""
    start = time.perf_counter()
    stats = substitute_network(network, config)
    elapsed = time.perf_counter() - start
    return {
        "snapshot": run_snapshot(stats),
        "literals_before": stats.literals_before,
        "literals_after": stats.literals_after,
        "seconds": elapsed,
        "accepted": stats.accepted,
        "divide_calls": stats.divide_calls,
        "resub_candidates": stats.resub_candidates,
        "resub_validated": stats.resub_validated,
        "resub_accepted": stats.resub_accepted,
        "sat_solves": stats.sat_solves,
    }


def compare_engines(
    network: Network,
    division_config: DivisionConfig = BASIC,
    simguided_config: DivisionConfig = SIMGUIDED,
) -> Dict[str, object]:
    """Division-vs-simguided comparison on copies of *network*."""
    reference = network.copy(network.name)
    division_net = network.copy(network.name)
    division = run_engine(division_net, division_config)
    simguided_net = network.copy(network.name)
    simguided = run_engine(simguided_net, simguided_config)
    return {
        "circuit": network.name,
        "division": division,
        "simguided": simguided,
        # The standing correctness oracle: both engines' outputs must
        # be exactly equivalent to the untouched input (and therefore
        # to each other).
        "division_equivalent": bool(
            exact_equivalent(reference, division_net)
        ),
        "simguided_equivalent": bool(
            exact_equivalent(reference, simguided_net)
        ),
        "divide_calls_saved": division["divide_calls"]
        - simguided["divide_calls"],
        "wall_ratio": simguided["seconds"]
        / max(1e-9, division["seconds"]),
    }


def run_resub_benchmark(
    names: Sequence[str] = DEFAULT_CIRCUITS,
    division_config: DivisionConfig = BASIC,
    simguided_config: DivisionConfig = SIMGUIDED,
    output_path: Optional[pathlib.Path] = None,
    history_path: Union[str, pathlib.Path, None] = DEFAULT_HISTORY_PATH,
) -> Dict[str, object]:
    """Run :func:`compare_engines` over the named circuits; write JSON.

    The simguided run of each circuit is appended to the run history
    (pass ``history_path=None`` to skip); the per-run snapshots are
    popped from the JSON report — the history ledger is their
    long-term home.
    """
    rows: List[Dict[str, object]] = [
        compare_engines(
            build_benchmark(name), division_config, simguided_config
        )
        for name in names
    ]
    for row in rows:
        row["division"].pop("snapshot")
        snapshot = row["simguided"].pop("snapshot")
        if history_path is not None:
            append_record(
                make_record(
                    bench="resubbench",
                    circuit=row["circuit"],
                    metrics=snapshot,
                    config=simguided_config,
                    wall_seconds=row["simguided"]["seconds"],
                    extra={
                        "division_literals": row["division"][
                            "literals_after"
                        ],
                        "simguided_literals": row["simguided"][
                            "literals_after"
                        ],
                        "divide_calls_saved": row["divide_calls_saved"],
                        "wall_ratio": row["wall_ratio"],
                    },
                ),
                path=history_path,
            )
    report = {
        "benchmark": "resub",
        "division_mode": division_config.mode,
        "sim_patterns": simguided_config.sim_patterns,
        "circuits": rows,
        "all_equivalent": all(
            r["division_equivalent"] and r["simguided_equivalent"]
            for r in rows
        ),
    }
    path = output_path or DEFAULT_RESULT_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report
