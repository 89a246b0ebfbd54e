"""Checks of the end-to-end benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs with two jobs through ``--max-jobs``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def report(tmp_path_factory, trace: int) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    args = ["--seed", "1", "--seconds", "1", "--max-jobs", "2",
            "--trace", str(trace), "--out", str(out)]
    if trace:
        args += ["--trace-dir", str(out.parent / "traces")]
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    result = json.loads(out.read_text())
    result["stdout"] = proc.stdout
    result["trace_dir"] = out.parent / "traces"
    return result


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return [report(tmp_path_factory, 0) for _ in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return [report(tmp_path_factory, 1) for _ in range(2)]


def test_every_end_to_end_metric_is_reported(untraced):
    first = untraced[0]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert first["seed"] == 1 and first["nproc"] == os.cpu_count()
    assert first["git_sha"]
    for name, result in first["workloads"].items():
        assert result["jobs"] == 2 and result["failed"] == 0
        assert f"{name} failed_ratio 0 ratio" in first["stdout"]
        for metric in SPEC["end_to_end"]:
            value, unit = result["metrics"][metric["name"]]
            assert unit == metric["unit"]
            assert value > 0
            assert f"{name} {metric['name']} " in first["stdout"]


def test_every_layer_metric_is_reported(traced):
    first = traced[0]
    for name, result in first["workloads"].items():
        for metric in SPEC["per_layer"]:
            _, unit = result["metrics"][metric["name"]]
            assert unit == metric["unit"]
        trace = first["trace_dir"] / f"{name}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "report", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "bench.job" in proc.stdout


def test_literals_and_counts_repeat_exactly(untraced, traced):
    exact_units = {"count/job", "lit/job", "B/job", "literals"}
    for pair in (untraced, traced):
        a, b = (r["workloads"] for r in pair)
        for name in a:
            for metric, (value, unit) in a[name]["metrics"].items():
                if unit in exact_units:
                    assert b[name]["metrics"][metric][0] == value, (name, metric)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_job_streams_are_seeded(name):
    stream = workloads.WORKLOADS[name].stream
    one, again, other = stream(1), stream(1), stream(2)
    for index in range(3):
        assert one.job(index) == again.job(index)
        assert one.job(index) != other.job(index)
        assert one.warmup(index) != one.job(index)


def _program_output(text: str) -> str:
    from repro.network.blif import read_blif, to_blif_str
    from repro.scripts.flows import SCRIPTS, run_method

    network = read_blif(text)
    SCRIPTS["A"](network)
    run_method(network, "ext")
    return to_blif_str(network)


def _flip_one_literal(text: str, rng: random.Random) -> str:
    model = oracle.parse(text)
    table = rng.choice([t for t in model.tables if t.fanins and t.rows])
    row = rng.randrange(len(table.rows))
    pattern, value = table.rows[row]
    columns = [i for i, ch in enumerate(pattern) if ch != "-"]
    column = rng.choice(columns) if columns else 0
    flipped = "0" if pattern[column] == "1" else "1"
    table.rows[row] = (pattern[:column] + flipped + pattern[column + 1:], value)
    return oracle.render(model)


@pytest.mark.parametrize("name", ["planted-ext", "edit-verified"])
def test_oracle_flags_one_flipped_row(name):
    """Against the program's exact checker as ground truth, on an
    exhaustive (<=16 PI) and a random-pattern (18 PI) output.  Random
    patterns can miss a difference confined to a few minterms, so above
    16 PIs only false alarms are ruled out."""
    from repro.network.blif import read_blif
    from repro.network.verify import networks_equivalent

    text = workloads.WORKLOADS[name].stream(1).job(0)
    exhaustive = len(oracle.parse(text).inputs) <= oracle.EXHAUSTIVE_PIS
    output = _program_output(text)
    assert oracle.mismatch(text, output) is None
    rng = random.Random(5)
    flagged = 0
    for _ in range(12):
        mutant = _flip_one_literal(output, rng)
        differs = not networks_equivalent(read_blif(output), read_blif(mutant))
        caught = oracle.mismatch(text, mutant) is not None
        assert caught == differs if exhaustive else caught <= differs
        flagged += caught
    assert flagged > 0


def test_oracle_reads_off_set_and_constant_tables():
    before = ".model m\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n.names g\n.end\n"
    after = ".model m\n.inputs a b\n.outputs f g\n.names a b f\n0- 0\n-0 0\n.names g\n.end\n"
    assert oracle.mismatch(before, after) is None
    assert oracle.mismatch(before, after.replace("-0 0", "-1 0")) is not None
    assert "unknown inputs" in oracle.mismatch(before, after.replace("a b\n.outputs", "a b c\n.outputs"))


def test_quantile_matches_reference_harrell_davis():
    mstats = pytest.importorskip("scipy.stats.mstats")
    rng = random.Random(1)
    for n in (2, 3, 10, 50, 68):
        values = [rng.expovariate(1.0) for _ in range(n)]
        for p in (0.5, 0.9):
            expected = float(mstats.hdquantiles(values, prob=[p])[0])
            assert run.quantile(values, p) == pytest.approx(expected, rel=1e-9)
    assert run.quantile([3.0], 0.9) == 3.0


def _write_reports(directory: Path, side: str, values) -> list:
    paths = []
    for seed, value in enumerate(values, start=1):
        path = directory / f"{side}{seed}.json"
        metrics = {"jobs_per_s": [value, "1/s"], "literals_out": [100, "literals"]}
        path.write_text(json.dumps({"seed": seed, "workloads": {"w": {"metrics": metrics}}}))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "new, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], "unchanged"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "improved"),
        ([7.0, 7.1, 6.9, 7.0, 7.05], "regressed"),
        ([7.0, 13.0, 9.5, 11.0, 10.0], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, new, expected):
    base = _write_reports(tmp_path, "base", [10.0, 10.1, 9.9, 10.0, 10.05])
    change = _write_reports(tmp_path, "new", new)
    lines, ok = compare.compare(base, change, SPEC)
    row = next(line for line in lines if "jobs_per_s" in line)
    assert row.endswith(expected)
    assert next(line for line in lines if "literals_out" in line).endswith("unchanged")
    assert ok == (expected in ("unchanged", "improved"))


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "planted-ext", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
