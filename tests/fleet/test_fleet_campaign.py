"""Fleet campaign: smoke, determinism, and single-job equivalence.

Three contracts anchor the fleet control plane:

* a seeded episode completes with zero oracle violations and sensible
  fleet aggregates (the smoke test);
* the whole report is a pure function of ``(config, seed)`` — two runs
  are byte-identical once provenance and wall clocks are excluded;
* a one-tenant fleet with failures disabled reproduces, step for step,
  what the single-job manager loop produces — the restructuring onto
  the shared event loop changed the driver, not the checkpoints.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.errors import SimulationError
from repro.fleet import (
    FleetConfig,
    FleetReport,
    FleetScheduler,
    FleetSpec,
    TenantSpec,
    aggregate_slos,
    run_fleet_campaign,
    run_fleet_episode,
    run_scaling_curve,
)
from repro.fleet.campaign import FleetEpisodeResult
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec

SMOKE = FleetConfig(jobs=6, episodes=1, seed=3, duration_hours=3.0)


def test_smoke_episode_zero_violations():
    result = run_fleet_episode(0, SMOKE)
    assert result.violations == [], "\n".join(result.violations)
    assert len(result.tenants) == 6
    kinds = {c["kind"] for c in result.cycles}
    assert "admit" in kinds and "completed" in kinds
    for tenant in result.tenants:
        assert tenant["state"] in ("completed", "killed", "stalled")
        assert tenant["checkpoints"] >= 1  # admission checkpoint at least
        assert tenant["admission_wait_s"] >= 0.0


def test_campaign_report_round_trips():
    report = run_fleet_campaign(SMOKE)
    payload = report.to_dict()
    assert payload["aggregates"]["jobs"] == 6
    assert payload["violations"] == []
    assert "provenance" not in payload
    stamped = report.to_json(provenance=True)
    assert "provenance" in stamped and "timing" in stamped


def test_same_seed_rerun_is_byte_identical():
    config = FleetConfig(jobs=4, episodes=1, seed=11, duration_hours=2.0)
    a = run_fleet_campaign(config).to_json(provenance=False)
    b = run_fleet_campaign(config).to_json(provenance=False)
    assert a == b


def test_different_seed_changes_the_mix():
    a = run_fleet_campaign(
        FleetConfig(jobs=4, episodes=1, seed=1, duration_hours=2.0)
    ).to_json(provenance=False)
    b = run_fleet_campaign(
        FleetConfig(jobs=4, episodes=1, seed=2, duration_hours=2.0)
    ).to_json(provenance=False)
    assert a != b


def test_single_tenant_fleet_matches_standalone_loop():
    """The scheduler's callback-driven loop must reproduce the classic
    per-job loop: same checkpoint count, same versions, same final
    iteration — on a quiet fleet the control plane is invisible."""
    spec = TenantSpec(
        name="solo", seed=13, interval=2, iterations=6, scale=5e-5
    )
    scheduler = FleetScheduler(FleetSpec(num_slots=8, slots_per_rack=4, racks_per_switch=2, switches_per_power=1),
                               seed=(99,), mtbf_hours=None)
    scheduler.submit(spec)
    scheduler.run()
    slo = scheduler.slo_records["solo"]

    job = TrainingJob.create(
        model=spec.model,
        cluster=ClusterSpec(
            num_nodes=spec.nodes,
            gpus_per_node=spec.gpus_per_node,
            nodes_per_rack=2,
        ),
        strategy=ParallelismSpec(
            tensor_parallel=spec.tensor_parallel,
            pipeline_parallel=spec.pipeline_parallel,
        ),
        scale=spec.scale,
        seed=spec.seed,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=spec.k, m=spec.m))
    manager = CheckpointManager(job, engine, interval=spec.interval)
    manager.step()  # the admission-time initial checkpoint
    for _ in range(spec.iterations):
        job.advance()
        manager.step()

    assert slo["state"] == "completed"
    assert slo["checkpoints"] == manager.stats.checkpoints
    assert slo["final_iteration"] == job.iteration
    assert slo["iterations_run"] == spec.iterations
    assert slo["failure_events"] == 0


def test_duplicate_tenant_name_rejected():
    scheduler = FleetScheduler(FleetSpec(num_slots=8, slots_per_rack=4, racks_per_switch=2, switches_per_power=1))
    scheduler.submit(TenantSpec(name="dup", iterations=1))
    with pytest.raises(SimulationError):
        scheduler.submit(TenantSpec(name="dup", iterations=1))


def test_admission_queues_when_fleet_is_full():
    """A 8-slot fleet holds two 4-node tenants; the third waits for a
    finisher, and its admission wait lands in the SLO record."""
    scheduler = FleetScheduler(FleetSpec(num_slots=8, slots_per_rack=4, racks_per_switch=2, switches_per_power=1))
    for i in range(3):
        scheduler.submit(
            TenantSpec(name=f"t{i}", seed=i, iterations=2, scale=5e-5)
        )
    assert len(scheduler.queue) == 1  # t2 parked behind the full fleet
    scheduler.run()
    waits = {n: scheduler.slo_records[n]["admission_wait_s"] for n in
             ("t0", "t1", "t2")}
    assert waits["t0"] == 0.0 and waits["t1"] == 0.0
    assert waits["t2"] > 0.0
    assert all(
        scheduler.slo_records[n]["state"] == "completed" for n in waits
    )


def test_aggregate_slos_rolls_up():
    tenants = [
        {"state": "completed", "degraded_seconds": 10.0,
         "time_to_full_redundancy": [10.0], "iterations_lost": 2,
         "admission_wait_s": 0.0, "checkpoints": 5, "remote_backups": 1,
         "recoveries": 1, "failure_events": 1},
        {"state": "completed", "degraded_seconds": 0.0,
         "time_to_full_redundancy": [], "iterations_lost": 0,
         "admission_wait_s": 30.0, "checkpoints": 3, "remote_backups": 0,
         "recoveries": 0, "failure_events": 0},
    ]
    agg = aggregate_slos(tenants)
    assert agg["jobs"] == 2
    assert agg["states"] == {"completed": 2}
    assert agg["degraded_seconds"]["total"] == 10.0
    assert agg["time_to_full_redundancy"] == {
        "count": 1, "mean": 10.0, "max": 10.0
    }
    assert agg["iterations_lost"]["total"] == 2.0
    assert agg["checkpoints"] == 8 and agg["recoveries"] == 1


def _report_with_scaling(points):
    return FleetReport(
        config=FleetConfig(),
        episodes=[FleetEpisodeResult(episode=0)],
        scaling=points,
    )


def test_scaling_exponent_recovers_known_slopes():
    linear = _report_with_scaling(
        [{"jobs": n, "wall_s": 2.0 * n} for n in (50, 100, 200)]
    )
    assert linear.scaling_exponent() == pytest.approx(1.0)
    assert linear.sub_quadratic is True
    cubic = _report_with_scaling(
        [{"jobs": n, "wall_s": float(n) ** 3 / 1e4} for n in (50, 100, 200)]
    )
    assert cubic.scaling_exponent() == pytest.approx(3.0)
    assert cubic.sub_quadratic is False
    assert _report_with_scaling([]).sub_quadratic is None


@pytest.mark.tier2
def test_fleet_scales_to_200_jobs_sub_quadratically():
    """The acceptance run: 200 tenants on the default fleet, zero oracle
    violations, and wall clock growing sub-quadratically in job count."""
    config = FleetConfig(jobs=200, episodes=1, seed=0)
    report = run_fleet_campaign(config)
    assert report.violations == [], "\n".join(report.violations)
    agg = report.aggregates()
    assert agg["jobs"] == 200
    assert agg["recoveries"] >= 1  # failures actually exercised
    report.scaling = run_scaling_curve(config)
    assert report.scaling[-1]["jobs"] == 200
    assert report.sub_quadratic is True, report.scaling_exponent()


def test_tenant_total_loss_episode_has_no_violations():
    # Recorded reproducer: a tenant loses every rank at once.  Its restore
    # from the remote backup succeeds; the regroup that follows used to
    # raise ("n_active must be >= 1") and surfaced as a violation.
    result = run_fleet_episode(
        2, FleetConfig(jobs=6, seed=864675513, mtbf_node_hours=0.2)
    )
    assert result.violations == []
