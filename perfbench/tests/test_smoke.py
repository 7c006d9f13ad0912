"""Tiny-size runs of every workload pass the gate and emit every metric."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from inputs import EC_BULK, FLEET_CHURN, STREAM_SPARSE, WORKLOADS, make_inputs

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the workloads and skip the set-up child processes."""
    monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", "unused")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "FLEET_TENANTS", 2)
    monkeypatch.setattr(workloads, "SHAPES", {
        name: dataclasses.replace(shape, scale=shape.scale / 10)
        for name, shape in workloads.SHAPES.items()
    })


def _run(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(tiny, capsys, workload, trace):
    code, out, result = _run(capsys, workload, trace)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, metric["name"]
    if trace:
        assert "reconciles" in out


def test_same_seed_same_digest_other_seed_other_digest(tiny, tmp_path):
    def digest(workload, seed):
        inputs = make_inputs(workload, seed)
        state = workloads.setup_job(workload, inputs)
        result = workloads.run_job(workload, inputs, state, 0.0, tmp_path)
        assert result.failed == 0, result.errors
        return result.digest

    for workload in (EC_BULK, STREAM_SPARSE):
        assert digest(workload, 3) == digest(workload, 3)
        assert digest(workload, 3) != digest(workload, 4)


def test_spilled_snapshot_is_bit_exact_and_removed(tiny, tmp_path):
    from repro.chaos.invariants import check_restored_states

    job = workloads.setup_job(EC_BULK, make_inputs(EC_BULK, 0)).job
    snapshots = workloads.Snapshots(tmp_path)
    snapshots.take(job)
    reference = snapshots[job.iteration]
    assert check_restored_states(job, reference) == []
    job.advance(1)
    assert check_restored_states(job, reference) != []
    snapshots.clear()
    assert list(tmp_path.iterdir()) == []


def test_fleet_episodes_fail_over(tiny):
    """Every fleet-churn episode runs the elastic failover path."""
    inputs = make_inputs(FLEET_CHURN, 0)
    result = workloads.run_fleet(
        inputs, workloads.fleet_config(inputs, jobs=4), 0.0, episodes=1
    )
    assert result.failed == 0, result.errors
    assert result.restore_s["decode"] + result.restore_s["survive"]


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", EC_BULK,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
