"""Workload inputs are a pure function of (workload, seed)."""

import itertools

import pytest

import workloads
from inputs import EC_BULK, STREAM_SPARSE, WORKLOADS, make_inputs


def take(stream, count: int) -> list:
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 7)
    assert a == b
    if workload in workloads.SHAPES:
        assert take(a.failures(), 64) == take(b.failures(), 64)
    else:
        assert workloads.fleet_config(a) == workloads.fleet_config(b)
        assert a.fleet_tenants(2, 45.0) == b.fleet_tenants(2, 45.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 8)
    assert a.job_seed != b.job_seed
    if workload in workloads.SHAPES:
        assert take(a.failures(), 64) != take(b.failures(), 64)
    else:
        assert workloads.fleet_config(a) != workloads.fleet_config(b)
        assert a.fleet_tenants(2, 45.0) != b.fleet_tenants(2, 45.0)


def test_workloads_draw_from_separate_streams():
    assert make_inputs(EC_BULK, 3).job_seed != make_inputs(STREAM_SPARSE, 3).job_seed


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        make_inputs("no-such-workload", 0)


def test_ec_bulk_alternates_recovery_workflows():
    specs = take(make_inputs(EC_BULK, 0).failures(k=2, m=2), 200)
    assert [s.kind for s in specs[:4]] == ["survive", "decode", "survive", "decode"]
    for spec in specs:
        assert 1 <= len(spec.data) + len(spec.parity) <= 2
        assert (spec.kind == "decode") == bool(spec.data)


def test_stream_sparse_loses_one_or_two_nodes():
    specs = take(make_inputs(STREAM_SPARSE, 0).failures(k=2, m=2), 200)
    sizes = {len(s.nodes([0, 1], [2, 3])) for s in specs}
    assert sizes == {1, 2}
    assert {s.kind for s in specs} == {"survive", "decode"}


def test_fleet_episodes_hold_every_tenant_shape_once():
    from inputs import FLEET_SHAPES

    tenants = make_inputs("fleet-churn", 0).fleet_tenants(0, 45.0)
    shapes = sorted(
        (t["k"], t["m"], t["interval"], t["remote_backup_every"],
         t["tier_memory_versions"])
        for _, t in tenants
    )
    assert shapes == sorted(FLEET_SHAPES)
    times = [at for at, _ in tenants]
    assert times == sorted(times) and times[0] == 0.0
