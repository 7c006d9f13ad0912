"""Seeded input generators for the three benchmark workloads.

The benchmark owns the randomness: every workload's inputs (the job seed,
the failure sets and the fleet's tenants) are a pure function of
``(workload, seed)``, and the program only ever sees the generated values.
Failures are generated as an unbounded deterministic stream because a run
lasts a fixed wall time, not a fixed number of operations.

Failure sets are drawn in terms of *roles* (data node ``i``, parity node
``i``) rather than node ids, and resolved against the engine's placement
when the failure is injected; the placement is a fixed function of the
testbed, so the resolved node sets are deterministic too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

EC_BULK = "ec-bulk"
STREAM_SPARSE = "stream-sparse"
FLEET_CHURN = "fleet-churn"
WORKLOADS = (EC_BULK, STREAM_SPARSE, FLEET_CHURN)

# A distinct rng stream per workload, so seed 0 of one workload does not
# share draws with seed 0 of another.
_STREAM_ID = {EC_BULK: 11, STREAM_SPARSE: 12, FLEET_CHURN: 13}


#: The fleet campaign's tenant mix, stratified: each episode holds every
#: shape once, ``(k, m, interval, remote_backup_every, tier_memory_versions)``,
#: in the campaign's proportions (2/3 of tenants at k=2; intervals 1-3;
#: backups off/every 2/every 3; half tiered).  A fixed mix keeps the work
#: per run independent of the seed; drawing it per tenant moved fleet
#: throughput by 20% between seeds.
FLEET_SHAPES = (
    (2, 2, 1, 0, 2),
    (2, 2, 2, 2, 0),
    (2, 2, 3, 3, 2),
    (2, 2, 1, 3, 0),
    (1, 3, 2, 0, 2),
    (1, 3, 3, 2, 0),
)
FLEET_ITERATIONS = 16


@dataclass(frozen=True)
class FailureSpec:
    """One injected failure, by role: indices into data / parity nodes.

    ``kind`` is ``"survive"`` when every data node survives (the paper's
    P2P + re-encode workflow) and ``"decode"`` when at least one data node
    is lost (decode from ``k`` survivors).
    """

    kind: str
    data: tuple[int, ...]
    parity: tuple[int, ...]

    def nodes(self, data_nodes, parity_nodes) -> set[int]:
        return {data_nodes[i] for i in self.data} | {
            parity_nodes[i] for i in self.parity
        }


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run receives from the benchmark."""

    workload: str
    seed: int
    job_seed: int

    def fleet_tenants(self, episode: int, mean_interarrival_s: float) -> list:
        """One fleet episode's tenants: ``(submit_time, TenantSpec kwargs)``.

        Every episode holds the same stratified tenant shapes
        (:data:`FLEET_SHAPES`); the seed draws their order, arrival times,
        simulated iteration times, weights, priorities and job seeds.
        """
        rng = np.random.default_rng([_STREAM_ID[self.workload], self.seed, 3, episode])
        order = rng.permutation(len(FLEET_SHAPES))
        tenants = []
        t = 0.0
        for index, shape in enumerate(order):
            if index:
                t += float(rng.exponential(mean_interarrival_s))
            k, m, interval, backup_every, tier_versions = FLEET_SHAPES[shape]
            tenants.append((t, dict(
                name=f"job-{episode:03d}-{index:04d}",
                k=k,
                m=m,
                seed=int(rng.integers(0, 2**31 - 1)),
                interval=interval,
                iteration_s=float(rng.uniform(20.0, 40.0)),
                iterations=FLEET_ITERATIONS,
                weight=float(rng.choice([1.0, 2.0, 4.0])),
                priority=int(rng.choice([0, 0, 0, 1])),
                remote_backup_every=backup_every,
                tier_memory_versions=tier_versions,
            )))
        return tenants

    def failures(self, k: int = 2, m: int = 2):
        """The run's failure stream (infinite, deterministic per seed)."""
        rng = _rng(self.workload, self.seed, "failures")
        if self.workload == EC_BULK:
            return _alternating_failures(rng, k, m)
        if self.workload == STREAM_SPARSE:
            return _mixed_failures(rng, k, m)
        raise ValueError(f"{self.workload} draws no failure stream")


def _rng(workload: str, seed: int, purpose: str) -> np.random.Generator:
    salt = {"job": 1, "failures": 2}[purpose]
    return np.random.default_rng([_STREAM_ID[workload], seed, salt])


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of one run of ``workload`` at ``seed``."""
    if workload not in _STREAM_ID:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    job_seed = int(_rng(workload, seed, "job").integers(0, 2**31 - 1))
    return Inputs(workload=workload, seed=seed, job_seed=job_seed)


def _all_losses(k: int, m: int, data_lost: bool) -> list[FailureSpec]:
    """Every loss of one or two nodes (at most ``m``) of one workflow."""
    specs = []
    for count in range(1, min(2, m) + 1):
        for lost in itertools.combinations(range(k + m), count):
            data = tuple(i for i in lost if i < k)
            if bool(data) == data_lost:
                parity = tuple(i - k for i in lost if i >= k)
                specs.append(FailureSpec("decode" if data else "survive", data, parity))
    return specs


def _shuffled_cycles(rng, specs: list):
    """Each spec once per cycle, in a fresh seeded order every cycle.

    Stratified rather than independent draws: the mix of failure shapes in
    any run is the same whatever the seed, so the seed moves which nodes
    fail and when, not how much work the run does.
    """
    while True:
        for index in rng.permutation(len(specs)):
            yield specs[index]


def _alternating_failures(rng, k: int, m: int):
    """Parity-only and data-node losses, alternating, at most ``m`` nodes."""
    survive = _shuffled_cycles(rng, _all_losses(k, m, data_lost=False))
    decode = _shuffled_cycles(rng, _all_losses(k, m, data_lost=True))
    while True:
        yield next(survive)
        yield next(decode)


def _mixed_failures(rng, k: int, m: int):
    """Every 1- and 2-node failure over all ``k + m`` nodes, shuffled."""
    return _shuffled_cycles(
        rng,
        _all_losses(k, m, data_lost=False) + _all_losses(k, m, data_lost=True),
    )
