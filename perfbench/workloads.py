"""The three benchmark workloads, driven through the program's public API.

Load model: closed loop, one process, one thread issuing work.  A single
training job calls ``advance`` and then ``CheckpointManager.step``, and
issues the next iteration only after the previous call returned, as a
stalled trainer would; failures go through ``CheckpointManager.on_failure``.
The fleet workload runs whole ``run_fleet_episode`` calls back to back.

Every run also carries the correctness gate and the behaviour digest:

* before each failure the independent oracle
  (``chaos.invariants.expected_recovery``) predicts the outcome, version,
  replay depth and resume iteration; after the restore the benchmark
  compares every worker's state bit for bit against its own snapshot of
  the iteration the engine resumed at.  Fleet episodes are judged by the
  episode's own oracle; every violation counts as a failed operation;
* the digest hashes every Save, Recovery, Replication and Demotion report
  of a fixed prefix of the run (simulated times and byte counts), so two
  runs at one seed must print the same digest.

Snapshots, predictions and comparisons run outside the timed regions, and
the reference snapshots are kept on disk, so the gate adds nothing to the
memory the run reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from hostclock import plain_root
from inputs import EC_BULK, FLEET_CHURN, FLEET_SHAPES, STREAM_SPARSE, Inputs

from repro.chaos.invariants import check_restored_states, expected_recovery
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine
from repro.fleet import campaign as fleet_campaign
from repro.fleet.campaign import FleetConfig, run_fleet_episode
from repro.fleet.spec import TenantSpec
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec

MODEL = "gpt2-h1024-L16"
TESTBED = dict(num_nodes=4, gpus_per_node=2, nodes_per_rack=2)
K, M, W = 2, 2, 8
ENCODE_THREADS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class JobShape:
    """A single-job workload: engine, size, cadence and failure rhythm."""

    engine: str
    scale: float
    interval: int
    fail_every: int  # iterations between injected failures
    digest_iterations: int  # the digest covers this fixed prefix
    dirty_tensor_fraction: float = 1.0
    tiered: bool = False
    snapshot_saves: bool = False  # keep per-save references (replay engines)


SHAPES = {
    EC_BULK: JobShape(
        engine="eccheck", scale=5e-3, interval=1, fail_every=3,
        digest_iterations=9, tiered=True,
    ),
    STREAM_SPARSE: JobShape(
        engine="hybrid", scale=5e-4, interval=8, fail_every=10,
        digest_iterations=30, dirty_tensor_fraction=0.25, snapshot_saves=True,
    ),
}

#: Fleet shape: the default campaign fleet, with one stratified tenant mix
#: per episode (see ``inputs.FLEET_SHAPES``), so one episode takes a few
#: seconds.
FLEET_TENANTS = len(FLEET_SHAPES)
#: Node MTBF of the fleet's failure model.  At the default 25 h the
#: tenants of a few-minute episode almost never fail; at 1 h every episode
#: sees tenant failures, so each runs the elastic failover, spare joins,
#: regroup and the tenant oracle's failure path.
FLEET_MTBF_NODE_HOURS = 1.0
#: Nominal wall seconds of one episode on a 2-core host; sets how many
#: episodes a run of ``--seconds`` does.
FLEET_EPISODE_S = 5.0
#: Set-up warms caches with a fixed one-tenant episode, whatever the seed.
FLEET_WARM_UP = Inputs(FLEET_CHURN, seed=0, job_seed=0)


def fleet_config(inputs: Inputs, jobs: int | None = None) -> FleetConfig:
    return FleetConfig(
        jobs=FLEET_TENANTS if jobs is None else jobs,
        seed=inputs.job_seed,
        mtbf_node_hours=FLEET_MTBF_NODE_HOURS,
    )


@contextmanager
def benchmark_tenants(inputs: Inputs):
    """Episodes run the benchmark's tenant mix instead of drawing their own.

    ``run_fleet_episode`` samples its tenants from the config seed; the
    benchmark owns its inputs, so for the duration of the run the sampler
    hands back :meth:`Inputs.fleet_tenants` (the first ``jobs`` of them).
    """
    original = fleet_campaign.sample_tenant_specs

    def sample(config, episode, jobs, rng):
        return [
            (t, TenantSpec(model=config.model, scale=config.scale, **spec))
            for t, spec in inputs.fleet_tenants(
                episode, config.mean_interarrival_s
            )[:jobs]
        ]

    fleet_campaign.sample_tenant_specs = sample
    try:
        yield
    finally:
        fleet_campaign.sample_tenant_specs = original


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one measured run produced (seconds are wall seconds)."""

    save_s: list = field(default_factory=list)
    replicate_s: list = field(default_factory=list)
    restore_s: dict = field(default_factory=lambda: {"decode": [], "survive": []})
    iterations: int = 0
    #: Wall seconds of every timed operation: the time throughput is over.
    op_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str | None = None
    replayed: int = 0
    replay_window: int = 0
    episodes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Digest:
    """Hash of report fields: simulated seconds and byte counts."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, kind: str, report) -> None:
        fields = dataclasses.asdict(report)
        self._hash.update(
            json.dumps([kind, fields], sort_keys=True, default=repr).encode()
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# ----------------------------------------------------------------------
# Single-job workloads: ec-bulk and stream-sparse.
# ----------------------------------------------------------------------
@dataclass
class JobRun:
    job: TrainingJob
    engine: object
    manager: CheckpointManager

    @property
    def placement(self):
        return getattr(self.engine, "inner", self.engine).placement


def setup_job(workload: str, inputs: Inputs) -> JobRun:
    """Materialise the job and engine and take the first save."""
    shape = SHAPES[workload]
    job = TrainingJob.create(
        model=MODEL,
        cluster=ClusterSpec(**TESTBED),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=shape.scale,
        seed=inputs.job_seed,
    )
    engine = build_engine(
        shape.engine,
        job,
        ECCheckConfig(
            k=K, m=M, w=W, encode_threads=ENCODE_THREADS, engine=shape.engine
        ),
    )
    manager = CheckpointManager(
        job,
        engine,
        interval=shape.interval,
        tier_policy=(
            TierPolicy(memory_versions=2, disk_versions=1) if shape.tiered else None
        ),
    )
    manager.step()
    return JobRun(job, engine, manager)


def run_job(
    workload: str,
    inputs: Inputs,
    run: JobRun,
    seconds: float,
    scratch: Path,
    root=None,
    iterations: int | None = None,
) -> RunResult:
    """Closed-loop training with checkpoints, replication and failures.

    Runs whole failure cycles until ``seconds`` of operation wall time
    have passed and the digest prefix is complete, or for exactly
    ``iterations`` iterations.
    Reference snapshots are written under the directory ``scratch``.
    """
    shape = SHAPES[workload]
    job, manager = run.job, run.manager
    stats = manager.stats
    result = RunResult()
    root = root or plain_root
    digest = Digest()
    failures = inputs.failures(K, M)
    # The set-up save is the only one so far, at the current iteration.
    version_iteration = {r.version: job.iteration for r in stats.save_reports}
    snapshots = Snapshots(scratch)
    seen = {"save": len(stats.save_reports), "replicate": 0, "demote": 0}

    def drain(into_digest: bool) -> None:
        for kind, reports in (
            ("save", stats.save_reports),
            ("replicate", stats.replicate_reports),
            ("demote", stats.demote_reports),
        ):
            for report in reports[seen[kind]:]:
                if into_digest:
                    digest.add(kind, report)
                if kind == "save":
                    version_iteration[report.version] = job.iteration
            seen[kind] = len(reports)

    def keep_going() -> bool:
        if iterations is not None:
            return result.iterations < iterations
        return (
            result.op_wall < seconds
            or result.iterations % shape.fail_every != 0
            or result.iterations < shape.digest_iterations
        )

    while keep_going():
        in_prefix = result.iterations < shape.digest_iterations
        try:
            _, wall = root(job.advance, 1, shape.dirty_tensor_fraction)
            result.op_wall += wall
            replications = stats.replications
            saved, wall = root(manager.step)
        except Exception as exc:  # noqa: BLE001 — any leak is a failed op
            result.attempted += 1
            result.fail(f"iteration {job.iteration}: {type(exc).__name__}: {exc}")
            break
        result.op_wall += wall
        result.iterations += 1
        if saved:
            result.attempted += 1
            result.save_s.append(wall)
        elif stats.replications > replications:
            result.attempted += 1
            result.replicate_s.append(wall)
        drain(in_prefix)
        if saved and shape.snapshot_saves:
            snapshots.take(job)
        if result.iterations % shape.fail_every == 0:
            if not _failure_cycle(
                run, next(failures), root, result, digest if in_prefix else None,
                version_iteration, snapshots,
            ):
                break
            drain(in_prefix)
    snapshots.clear()
    if result.iterations >= shape.digest_iterations:
        result.digest = digest.hexdigest()
    return result


class SpilledStates:
    """A bit-exact copy of every worker's state, kept in a file.

    Each worker's state dict is pickled on its own, and :meth:`get` reads
    back one worker at a time, so comparing against the copy never holds
    more than one worker's reference in memory.
    """

    def __init__(self, path: Path, job: TrainingJob):
        self.path = path
        self.offsets: dict[int, int] = {}
        with open(path, "wb") as out:
            for worker, state in job.state_dicts.items():
                self.offsets[worker] = out.tell()
                pickle.dump(state, out, protocol=pickle.HIGHEST_PROTOCOL)

    def get(self, worker: int):
        offset = self.offsets.get(worker)
        if offset is None:
            return None
        with open(self.path, "rb") as source:
            source.seek(offset)
            return pickle.load(source)


class Snapshots:
    """The benchmark's reference snapshots, by training iteration."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._by_iteration: dict[int, SpilledStates] = {}

    def take(self, job: TrainingJob) -> None:
        path = self.directory / f"snapshot-{job.iteration}.pkl"
        self._by_iteration[job.iteration] = SpilledStates(path, job)

    def __contains__(self, iteration: int) -> bool:
        return iteration in self._by_iteration

    def __getitem__(self, iteration: int) -> SpilledStates:
        return self._by_iteration[iteration]

    def keep(self, iterations) -> None:
        """Drop every snapshot but those of ``iterations``."""
        for iteration in set(self._by_iteration) - set(iterations):
            self._by_iteration.pop(iteration).path.unlink(missing_ok=True)

    def clear(self) -> None:
        self.keep(())

    def iterations(self) -> list[int]:
        return sorted(self._by_iteration)


def _failure_cycle(
    run: JobRun, spec, root, result: RunResult, digest, version_iteration, snapshots
) -> bool:
    """Inject one failure, restore, and judge it; False stops the run."""
    job, engine, manager = run.job, run.engine, run.manager
    plan = run.placement
    failed = spec.nodes(plan.data_nodes, plan.parity_nodes)
    predicted = expected_recovery(engine, failed)
    at_iteration = job.iteration
    snapshots.take(job)
    result.attempted += 1
    try:
        report, wall = root(manager.on_failure, failed)
    except Exception as exc:  # noqa: BLE001 — any leak is a failed op
        result.fail(
            f"restore of {sorted(failed)} at iteration {at_iteration}: "
            f"{type(exc).__name__}: {exc}"
        )
        return False
    result.op_wall += wall
    result.restore_s[spec.kind].append(wall)
    if digest is not None:
        digest.add("recovery", report)

    problems = []
    tier = getattr(report, "tier", "memory")
    outcome = "backup" if tier == "remote" else tier
    if (outcome, report.version) != (predicted["outcome"], predicted["version"]):
        problems.append(
            f"restored v{report.version} from {outcome}, oracle expected "
            f"v{predicted['version']} from {predicted['outcome']}"
        )
    replayed = getattr(report, "replayed_iterations", 0)
    if replayed != predicted["replayed"]:
        problems.append(f"replayed {replayed}, oracle expected {predicted['replayed']}")
    resume = predicted["resume_iteration"]
    if resume is None:
        resume = version_iteration.get(predicted["version"])
    if job.iteration != resume:
        problems.append(f"resumed at iteration {job.iteration}, expected {resume}")
    elif resume not in snapshots:
        problems.append(f"no reference snapshot of iteration {resume}")
    else:
        problems.extend(check_restored_states(job, snapshots[resume]))
    if problems:
        result.fail(f"failure {sorted(failed)} at iteration {at_iteration}: {problems}")
    base_iteration = version_iteration.get(report.version, at_iteration)
    result.replayed += replayed
    result.replay_window += max(0, at_iteration - base_iteration)
    # Training rolled back to the resume point: later references are
    # stale, and only the newest few can still be restored to.
    snapshots.keep([i for i in snapshots.iterations() if i <= job.iteration][-3:])
    return not problems


# ----------------------------------------------------------------------
# fleet-churn
# ----------------------------------------------------------------------
class FleetProbe:
    """Times every tenant's ``step``/``on_failure`` inside fleet episodes.

    The fleet drives its managers from the event loop, so per-operation
    wall times can only be taken by wrapping the two manager methods.
    The shim times each call with the benchmark's one operation clock
    (:func:`hostclock.plain_root`); it is installed for the whole
    workload, traced or not, and removed on exit.
    """

    def __init__(self, result: RunResult, digest_on):
        self.result = result
        self.digest_on = digest_on  # () -> Digest | None
        self._saved = {}

    def __enter__(self) -> "FleetProbe":
        probe = self
        step = CheckpointManager.step
        on_failure = CheckpointManager.on_failure
        self._saved = {"step": step, "on_failure": on_failure}

        def timed_step(manager):
            saved, wall = plain_root(step, manager)
            if saved:
                probe.result.attempted += 1
                probe.result.save_s.append(wall)
                digest = probe.digest_on()
                if digest is not None:
                    digest.add("save", manager.stats.save_reports[-1])
                    for report in manager.stats.demote_reports[-1:]:
                        digest.add("demote", report)
            return saved

        def timed_on_failure(manager, failed_nodes):
            data_nodes = set(manager.engine.placement.data_nodes)
            kind = "decode" if data_nodes & set(failed_nodes) else "survive"
            probe.result.attempted += 1
            report, wall = plain_root(on_failure, manager, failed_nodes)
            probe.result.restore_s[kind].append(wall)
            digest = probe.digest_on()
            if digest is not None:
                digest.add("recovery", report)
            return report

        CheckpointManager.step = timed_step
        CheckpointManager.on_failure = timed_on_failure
        return self

    def __exit__(self, *exc) -> None:
        CheckpointManager.step = self._saved["step"]
        CheckpointManager.on_failure = self._saved["on_failure"]


def setup_fleet(inputs: Inputs) -> FleetConfig:
    """Warm caches with a one-tenant episode; returns the run's config."""
    with benchmark_tenants(FLEET_WARM_UP):
        run_fleet_episode(0, fleet_config(FLEET_WARM_UP, jobs=1))
    return fleet_config(inputs)


def run_fleet(
    inputs: Inputs,
    config: FleetConfig,
    seconds: float,
    root=None,
    episodes: int | None = None,
) -> RunResult:
    """Back-to-back fleet episodes 0, 1, 2, ...

    An episode is seconds of work, too coarse to stop on a clock: a run
    that fits one episode fewer on a slower moment would also weigh its
    episodes differently.  So the run does a fixed number of episodes,
    ``seconds / FLEET_EPISODE_S`` unless ``episodes`` is given.
    """
    if episodes is None:
        episodes = max(1, round(seconds / FLEET_EPISODE_S))
    result = RunResult()
    root = root or plain_root
    digest = Digest()
    with benchmark_tenants(inputs), FleetProbe(
        result, lambda: digest if result.episodes == 0 else None
    ):
        for index in range(episodes):
            episode, wall = root(run_fleet_episode, index, config)
            result.op_wall += wall
            result.iterations += sum(t.get("iterations_run", 0) for t in episode.tenants)
            for violation in episode.violations:
                result.fail(f"episode {index}: {violation}")
            if index == 0:
                digest.add("episode", _EpisodeSummary(
                    episode.sim_seconds, episode.events_processed, len(episode.cycles)
                ))
                result.digest = digest.hexdigest()
            result.episodes += 1
    return result


@dataclass
class _EpisodeSummary:
    sim_seconds: float
    events_processed: int
    cycles: int
