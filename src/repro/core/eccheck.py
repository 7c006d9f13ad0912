"""The ECCheck engine: erasure-coded in-memory checkpointing.

Implements the full system of the paper on top of the shared engine
interface: ``initialize`` (placement, reduction plan, code, buffers),
``save`` (the four-step checkpointing flow of Fig. 5) and ``restore``
(both recovery workflows of Fig. 7), all moving **real bytes** through the
real Cauchy Reed-Solomon code while reporting simulated full-scale timing.

Checkpoint layout in host memory after ``save``:

* every node: ``("meta", version, worker) -> (metadata_blob, length)`` —
  the broadcast serialization-free metadata;
* data node ``j``: ``("chunk", version, "data", j, r) -> packet`` for each
  reduction group ``r`` (together: data chunk ``D_j``);
* parity node ``i``: ``("chunk", version, "parity", i, r) -> packet``
  (together: parity chunk ``P_i``).

Chunk/digest keys grow an epoch suffix after a committed layout-changing
repair (see :meth:`ECCheckEngine.chunk_key`): repairs stream into staging
keys and the placement/epoch flip makes them authoritative atomically, so
a mid-repair crash can never corrupt the old layout's bytes.

Any ``k`` surviving chunks reconstruct every worker's packet, hence every
worker's ``state_dict``.

Crash consistency: the byte work (encode -> XOR -> P2P chunk placement)
runs *first* and the metadata broadcast runs *last*, as the commit record.
``restore`` only accepts a version whose metadata is complete on the
survivors, so a crash anywhere inside ``save`` — at any of the
:data:`~repro.core.eccheck.ECCheckEngine.crash_points` fault-injection
hooks — leaves a torn version that recovery provably walks back past.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace

import numpy as np

from repro import obs
from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.base import (
    CheckpointEngine,
    DemotionReport,
    RecoveryReport,
    SaveReport,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.storage import _nbytes
from repro.core.integrity import chunk_digest, verify_chunk
from repro.core.placement import (
    PlacementPlan,
    build_data_group,
    regroup_plan,
    select_data_parity_nodes,
)
from repro.core.pipeline import (
    STAGE_ENCODE,
    STAGE_XOR_REDUCE,
    PipelinedRunner,
    pipeline_makespan,
    serial_makespan,
)
from repro.core.protocol import (
    build_worker_checkpoint,
    encode_packet,
    packet_size_for,
    restore_state_dict,
    xor_reduce,
)
from repro.core.reduction import ReductionPlan, build_reduction_plan
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.procpool import SharedMemoryProcessPoolEncoder, make_encoder
from repro.ec.threadpool import ThreadPoolEncoder
from repro.sim.network import TransferRequest, gbps
from repro.tensors.tensor import GPU


@dataclass(frozen=True)
class ECCheckConfig:
    """Tunables of the ECCheck engine (paper defaults).

    Attributes:
        k: number of data nodes.
        m: number of parity nodes (``k + m`` must equal the node count).
        w: GF(2^w) word size of the Cauchy RS code.
        buffer_bytes: size of one data/encoding buffer (64 MB in the
            paper's settings); sets the pipelining granularity.
        encode_threads: CPU threads (or worker processes) in the
            encoding pool.
        encoder_backend: ``"thread"`` (adaptive in-process pool, the
            default) or ``"process"`` (shared-memory process pool — GIL
            immune, worth it for large buffers on multi-core hosts; see
            DESIGN.md "Hot path architecture" for the trade-off).
        use_sweepline_placement: pick data nodes by max-overlap sweep line
            (False = naive "first k nodes", the ablation baseline).
        use_pipelining: overlap encode / XOR / P2P per buffer (False =
            strictly sequential steps, the ablation baseline).
        packet_alignment: packets are padded to a multiple of this.
        engine: which checkpoint engine this config drives (resolved by
            :func:`repro.core.registry.build_engine`); non-EC engines
            ignore the coding parameters, and the hybrid engine feeds
            them to its inner EC core.
    """

    k: int = 2
    m: int = 2
    w: int = 8
    buffer_bytes: int = 64 * 2**20
    encode_threads: int = 4
    encoder_backend: str = "thread"
    use_sweepline_placement: bool = True
    use_pipelining: bool = True
    packet_alignment: int = 64
    engine: str = "eccheck"


class ECCheckEngine(CheckpointEngine):
    """ECCheck (paper Sec. III-IV)."""

    name = "eccheck"

    #: Fault-injection hooks inside ``save``, in pipeline order: after a
    #: group's packets are encoded, after they are XOR-reduced, between
    #: individual chunk-packet placements (leaving torn chunks), after a
    #: group's transfer stage completes, and before/during the metadata
    #: broadcast that commits the version.
    crash_points = (
        "post_encode",
        "post_xor",
        "mid_p2p",
        "post_transfer",
        "pre_metadata_broadcast",
        "mid_metadata_broadcast",
    )

    def __init__(self, job: TrainingJob, config: ECCheckConfig | None = None):
        super().__init__(job)
        self.config = config or ECCheckConfig()
        if job.strategy.data_parallel != 1 and getattr(job, "sharding_style", "hybrid") != "fsdp":
            raise CheckpointError(
                "ECCheckEngine expects data_parallel == 1 (or FSDP sharding); "
                "replicated data parallelism already duplicates state "
                "(see paper Sec. III-A)"
            )
        self.placement: PlacementPlan | None = None
        self.reduction_plan: ReductionPlan | None = None
        self.code: CauchyRSCode | None = None
        self.encoder: ThreadPoolEncoder | SharedMemoryProcessPoolEncoder | None = None
        self.last_pipeline_stats = None
        self._last_packets: dict[int, np.ndarray] = {}
        self._last_full_version: int | None = None
        #: Committed versions whose chunks are resident in host memory /
        #: in the local-disk tier.  Advisory indices for the tier policy
        #: (candidates for demotion/eviction); the restore walk re-derives
        #: availability from raw storage and never trusts them.
        self._chunk_versions: set[int] = set()
        self._disk_versions: set[int] = set()
        #: Ranks currently hosting chunks (all of them at full strength;
        #: a subset after an elastic degraded :meth:`reconfigure`).
        self.active_nodes: list[int] = list(range(job.cluster.num_nodes))
        #: worker -> hosting rank override for workers whose home rank is
        #: inactive (degraded oversubscription); None = job topology.
        self._node_of_worker: dict[int, int] | None = None
        #: Placement each version's chunks were laid out under.  Recorded
        #: at save *start* so torn versions map to the plan they used;
        #: versions predating the map fall back to the current placement.
        self._placement_of_version: dict[int, PlacementPlan] = {}
        #: Storage epoch per version: 0 = the save-time keys; a committed
        #: layout-changing repair bumps it to its generation so staged
        #: chunks become authoritative only at the placement flip.
        self._epoch_of_version: dict[int, int] = {}
        self._code_cache: dict[tuple[int, int, int], CauchyRSCode] = {}
        self.initialize()

    # ------------------------------------------------------------------
    # eccheck.initialize
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Determine coding matrix, placement and communication strategy.

        Raises:
            CheckpointError: if (k, m) does not match the cluster or k does
                not divide the worker count.
        """
        cfg = self.config
        n = self.job.cluster.num_nodes
        if cfg.k + cfg.m != n:
            raise CheckpointError(
                f"k + m = {cfg.k + cfg.m} must equal node count {n}"
            )
        if cfg.k < 1 or cfg.m < 0:
            raise CheckpointError(f"bad code shape k={cfg.k}, m={cfg.m}")
        world = self.job.world_size
        if world % cfg.k:
            raise CheckpointError(
                f"k={cfg.k} must divide world size {world}"
            )
        origin = self.job.cluster.origin_groups()
        if cfg.use_sweepline_placement:
            self.placement = select_data_parity_nodes(origin, cfg.k)
        else:
            data_group = build_data_group(world, cfg.k)
            self.placement = PlacementPlan(
                data_nodes=list(range(cfg.k)),
                parity_nodes=list(range(cfg.k, n)),
                data_group=data_group,
            )
        node_of = {w: self.job.node_of(w) for w in range(world)}
        self.reduction_plan = build_reduction_plan(self.placement, node_of)
        self.code = self.code_for(cfg.k, cfg.m)
        # Recovery re-encodes whole chunks; route them through the pooled
        # encoder so they use the same word-packed kernel fast path (and
        # sub-task fan-out) as the save pipeline.
        self.encoder = make_encoder(
            self.code, backend=cfg.encoder_backend, threads=cfg.encode_threads
        )
        self.active_nodes = list(range(n))
        self._node_of_worker = None

    # ------------------------------------------------------------------
    # Elastic reconfiguration: regroup to a (possibly shrunk) shape.
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        k: int,
        m: int,
        active_nodes: list[int] | None = None,
        node_of_worker: dict[int, int] | None = None,
    ) -> PlacementPlan:
        """Re-derive placement, reduction plan and code for a new shape.

        Elastic membership uses this in two ways: *degraded regrouping*
        (``k + m == len(active_nodes) < num_nodes`` after unreplaced
        failures) and *adaptive (k, m) reconfiguration* at full strength.
        Future saves use the new layout; already-saved versions keep the
        placement they were written under (see :meth:`placement_of`), so
        restores of old versions still find their chunks.

        Args:
            k: data-node count; must divide the world size (the XOR
                reduction plan needs equal groups).
            m: parity-node count; ``k + m`` must equal the active count.
            active_nodes: ranks hosting chunks (default: all ranks).
            node_of_worker: hosting rank per worker.  Defaults to the job
                topology, with workers of inactive ranks rescheduled
                round-robin over the active ranks.

        Returns:
            The new :class:`PlacementPlan`.

        Raises:
            CheckpointError: for an inconsistent shape.
        """
        n = self.job.cluster.num_nodes
        active = sorted(active_nodes) if active_nodes is not None else list(range(n))
        if not active:
            raise CheckpointError("reconfigure needs at least one active node")
        if k + m != len(active):
            raise CheckpointError(
                f"k + m = {k + m} must equal active node count {len(active)}"
            )
        if k < 1 or m < 0:
            raise CheckpointError(f"bad code shape k={k}, m={m}")
        world = self.job.world_size
        if world % k:
            raise CheckpointError(f"k={k} must divide world size {world}")
        origin = self.job.cluster.origin_groups()
        if self.config.use_sweepline_placement:
            plan = regroup_plan(origin, active, k)
        else:
            plan = PlacementPlan(
                data_nodes=active[:k],
                parity_nodes=active[k:],
                data_group=build_data_group(world, k),
            )
        if node_of_worker is None:
            active_set = set(active)
            node_of_worker = {}
            for w in range(world):
                home = self.job.node_of(w)
                node_of_worker[w] = (
                    home if home in active_set else active[w % len(active)]
                )
        self.placement = plan
        self.reduction_plan = build_reduction_plan(plan, node_of_worker)
        self.code = self.code_for(k, m)
        if isinstance(self.encoder, SharedMemoryProcessPoolEncoder):
            # Re-point the live pool at the new shape: this releases the
            # shared segments *before* any encode at the new (k, m), so
            # the elastic path never resizes buffers under live workers.
            self.encoder.reconfigure(self.code)
        else:
            self.encoder = make_encoder(
                self.code,
                backend=self.config.encoder_backend,
                threads=self.config.encode_threads,
            )
        self.config = dataclass_replace(self.config, k=k, m=m)
        self.active_nodes = active
        identity = all(node_of_worker[w] == self.job.node_of(w) for w in range(world))
        self._node_of_worker = None if identity else dict(node_of_worker)
        # A regroup invalidates the delta base (chunk layout changed).
        self._last_packets = {}
        self._last_full_version = None
        tracer = obs.get_tracer()
        if tracer.enabled:
            tracer.event(
                "reconfigure",
                engine=self.name,
                k=k,
                m=m,
                active_nodes=list(active),
            )
            tracer.metrics.counter("elastic.reconfigures").inc()
        return plan

    def code_for(self, k: int, m: int) -> CauchyRSCode:
        """The (cached) Cauchy RS code for a chunk shape."""
        key = (k, m, self.config.w)
        if key not in self._code_cache:
            self._code_cache[key] = CauchyRSCode(
                CodeParams(k=k, m=m, w=self.config.w)
            )
        return self._code_cache[key]

    def placement_of(self, version: int) -> PlacementPlan:
        """The placement ``version``'s chunks were laid out under."""
        assert self.placement is not None
        return self._placement_of_version.get(version, self.placement)

    def set_placement_of(
        self, version: int, plan: PlacementPlan, epoch: int | None = None
    ) -> None:
        """Re-point a version at a new layout (after a committed repair).

        The flip is the repair's commit record: chunks streamed under a
        staging ``epoch`` become the version's authoritative bytes here,
        atomically with the placement (no crash point sits between).
        """
        self._placement_of_version[version] = plan
        if epoch is not None:
            self._epoch_of_version[version] = epoch

    def epoch_of(self, version: int) -> int:
        """The storage epoch the version's authoritative chunks live under."""
        return self._epoch_of_version.get(version, 0)

    def chunk_key(
        self, version: int, kind: str, idx: int, r: int, epoch: int | None = None
    ) -> tuple:
        """Host-store key of one chunk packet (epoch-suffixed when > 0)."""
        epoch = self.epoch_of(version) if epoch is None else epoch
        base = ("chunk", version, kind, idx, r)
        return base if epoch == 0 else base + (epoch,)

    def digest_key(
        self, version: int, kind: str, idx: int, r: int, epoch: int | None = None
    ) -> tuple:
        """Host-store key of a chunk packet's digest record."""
        epoch = self.epoch_of(version) if epoch is None else epoch
        base = ("digest", version, kind, idx, r)
        return base if epoch == 0 else base + (epoch,)

    def node_hosting(self, worker: int) -> int:
        """Rank hosting ``worker`` (degraded override or job topology)."""
        if self._node_of_worker is not None:
            return self._node_of_worker[worker]
        return self.job.node_of(worker)

    def encoder_for(self, k: int, m: int):
        """An encoder matching a chunk shape (the live one when it fits).

        Ad-hoc shapes (recovery against an old placement) get a throwaway
        thread-backed encoder regardless of ``encoder_backend`` — a
        one-shot process pool would pay worker spawn for a single encode.
        """
        assert self.encoder is not None
        if (k, m) == (self.config.k, self.config.m):
            return self.encoder
        return ThreadPoolEncoder(
            self.code_for(k, m), threads=self.config.encode_threads
        )

    # ------------------------------------------------------------------
    # Worker indexing within the placement
    # ------------------------------------------------------------------
    def group_and_index(
        self, worker: int, plan: PlacementPlan | None = None
    ) -> tuple[int, int]:
        """(data group j, relative index r) of a worker's packet."""
        plan = plan if plan is not None else self.placement
        assert plan is not None
        for j, members in enumerate(plan.data_group):
            if worker in members:
                return j, members.index(worker)
        raise CheckpointError(f"worker {worker} not in any data group")

    def logical_packet_bytes(self) -> int:
        """Full-scale packet size: the largest shard, aligned."""
        return packet_size_for(
            [self.job.logical_shard_bytes(w) for w in self.job.writers],
            self.config.packet_alignment,
        )

    # ------------------------------------------------------------------
    # Chunk storage with integrity digests
    # ------------------------------------------------------------------
    def _store_chunk_packet(
        self,
        node: int,
        version: int,
        kind: str,
        idx: int,
        r: int,
        payload: np.ndarray,
        epoch: int | None = None,
    ) -> None:
        """Store one chunk packet plus its CRC digest in a node's host RAM.

        ``epoch`` lets a repair stream into staging keys while the
        version's authoritative epoch still points at the old bytes.
        """
        self.host.put(node, self.chunk_key(version, kind, idx, r, epoch), payload)
        self.host.put(
            node, self.digest_key(version, kind, idx, r, epoch), chunk_digest(payload)
        )

    def _chunk_intact(
        self,
        node: int,
        version: int,
        kind: str,
        idx: int,
        groups: int | None = None,
        epoch: int | None = None,
    ) -> bool:
        """All of a chunk's packets present and passing digest verification.

        ``groups`` is the reduction-group count of the placement the
        version was saved under; defaults to the version's recorded plan.
        """
        if groups is None:
            groups = len(self.placement_of(version).data_group[0])
        for r in range(groups):
            key = self.chunk_key(version, kind, idx, r, epoch)
            digest_key = self.digest_key(version, kind, idx, r, epoch)
            if not (self.host.contains(node, key) and self.host.contains(node, digest_key)):
                return False
            if not verify_chunk(self.host.get(node, key), self.host.get(node, digest_key)):
                return False
        return True

    # ------------------------------------------------------------------
    # eccheck.save
    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        assert self.placement and self.reduction_plan and self.code
        self.version += 1
        version = self.version
        # Recorded at save *start* so even a torn version maps to the
        # placement its partial chunks were written under.
        self._placement_of_version[version] = self.placement
        tracer = obs.get_tracer()
        with tracer.span("eccheck.save", kind="save", version=version) as span:
            report = self._save_full(version, tracer)
            span.add_sim(report.checkpoint_time)
            if tracer.enabled:
                tracer.metrics.counter("p2p.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
                tracer.metrics.counter("save.bytes_dtoh").inc(report.bytes_dtoh)
        return report

    def _save_full(self, version: int, tracer) -> SaveReport:
        tm = self.job.time_model
        cfg = self.config
        plan = self.placement
        world = self.job.world_size
        n = self.job.cluster.num_nodes

        # --- Step 1: decompose state_dicts, offload tensor data (DtoH). ---
        with tracer.span(
            "eccheck.save.step1",
            kind="save",
            phase="step1_decompose_dtoh",
            version=version,
        ) as step1_span:
            packet_size = packet_size_for(
                [
                    sum(t.nbytes for t in _tensor_leaves(self.job.state_of(w)))
                    for w in range(world)
                ],
                cfg.packet_alignment,
            )
            checkpoints = {
                w: build_worker_checkpoint(w, self.job.state_of(w), packet_size)
                for w in range(world)
            }
        step1 = (
            max(tm.dtoh_time(self.job.logical_shard_bytes(w)) for w in range(world))
            + tm.decompose_overhead_s
        )
        bytes_dtoh = self.job.total_logical_bytes()

        # --- Step 3: encode -> XOR reduction -> P2P. ---
        # Runs *before* the metadata broadcast: metadata is the commit
        # record, so all chunk placement must already be durable-in-RAM
        # when it lands (see the module docstring on crash consistency).
        # The real byte work streams through the three-stage thread
        # pipeline of Sec. IV-C: while one reduction group's encoded
        # packets are being XOR-reduced, the next group is already
        # encoding, and completed parity packets drain to their parity
        # nodes on the transfer stage.  (The ``use_pipelining`` flag only
        # switches the *timing formula*; the byte path is identical.)
        logical_packet = self.logical_packet_bytes()
        requests: list[TransferRequest] = []
        bytes_inter_node = 0

        def stage_encode(group):
            encoded = {
                j: encode_packet(self.code, j, checkpoints[w].packet.payload)
                for j, w in enumerate(group.workers)
            }
            return group, encoded

        def stage_xor_reduce(item):
            group, encoded = item
            parity_packets = [
                xor_reduce([encoded[j][i] for j in range(plan.k)])
                for i in range(len(group.targets))
            ]
            return group, parity_packets

        def stage_transfer(item):
            nonlocal bytes_inter_node
            group, parity_packets = item
            for i, target in enumerate(group.targets):
                target_node = self.node_hosting(target)
                # Senders ship their encoded packet to the reduction target.
                for w in group.workers:
                    if w == target:
                        continue
                    src = self.node_hosting(w)
                    requests.append(
                        TransferRequest(src=src, dst=target_node, nbytes=logical_packet)
                    )
                    if src != target_node:
                        bytes_inter_node += logical_packet
                # P2P: the reduced parity packet moves to its parity node.
                parity_node = plan.parity_nodes[i]
                self._fire(
                    "mid_p2p", version=version, group=group.index,
                    kind="parity", chunk=i,
                )
                self._store_chunk_packet(
                    parity_node, version, "parity", i, group.index, parity_packets[i]
                )
                if target_node != parity_node:
                    requests.append(
                        TransferRequest(
                            src=target_node, dst=parity_node, nbytes=logical_packet
                        )
                    )
                    bytes_inter_node += logical_packet
            # P2P: this group's data packets settle onto their data nodes.
            r = group.index
            for j, members in enumerate(plan.data_group):
                worker = members[r]
                data_node = plan.data_nodes[j]
                self._fire(
                    "mid_p2p", version=version, group=r, kind="data", chunk=j,
                )
                self._store_chunk_packet(
                    data_node, version, "data", j, r,
                    checkpoints[worker].packet.payload.copy(),
                )
                src = self.node_hosting(worker)
                if src != data_node:
                    requests.append(
                        TransferRequest(src=src, dst=data_node, nbytes=logical_packet)
                    )
                    bytes_inter_node += logical_packet
            return group.index

        def stage_hook(stage, item):
            if stage == STAGE_ENCODE:
                self._fire("post_encode", version=version, group=item[0].index)
            elif stage == STAGE_XOR_REDUCE:
                self._fire("post_xor", version=version, group=item[0].index)
            else:
                self._fire("post_transfer", version=version, group=item)

        with tracer.span(
            "eccheck.save.step3",
            kind="save",
            phase="step3_encode_xor_p2p",
            version=version,
        ) as step3_span:
            runner = PipelinedRunner(
                stage_encode, stage_xor_reduce, stage_transfer, item_hook=stage_hook
            )
            runner.run(list(self.reduction_plan.groups))
            self.last_pipeline_stats = runner.stats

        # --- Step 2: broadcast metadata (tiny) to every node. ---
        # Fig. 5 numbers this step 2, but it executes last as the commit
        # record: ``restore`` only trusts versions with complete metadata.
        with tracer.span(
            "eccheck.save.step2",
            kind="save",
            phase="step2_metadata_broadcast",
            version=version,
        ) as step2_span:
            self._fire("pre_metadata_broadcast", version=version)
            meta_bytes = 0
            for worker, wc in checkpoints.items():
                self._fire("mid_metadata_broadcast", version=version, worker=worker)
                record = (wc.metadata_blob, wc.packet.original_length)
                meta_bytes += len(wc.metadata_blob)
                for node in self.active_nodes:
                    self.host.put(node, ("meta", version, worker), record)
        step2 = meta_bytes * (len(self.active_nodes) - 1) / gbps(tm.inter_node_gbps)

        # Remember the packets for incremental (delta) saves.
        self._last_packets = {
            w: checkpoints[w].packet.payload.copy() for w in range(world)
        }
        self._last_full_version = version
        self._chunk_versions.add(version)

        comm_makespan = self.network.simulate(requests).makespan if requests else 0.0
        encode_total = tm.encode_time(
            cfg.m * logical_packet, threads=cfg.encode_threads
        )
        # XOR compute at reduction targets: each target XORs k-1 packets,
        # m times per reduction group it serves.
        xor_total = tm.memcpy_time((plan.k - 1) * logical_packet) * cfg.m
        step3 = self._step3_time(encode_total, xor_total, comm_makespan, logical_packet)

        # Phase sims attach only now that the save is complete: a crash
        # anywhere above leaves the step spans without simulated time, so
        # trace phase totals reconcile with *completed* SaveReports.
        step1_span.add_sim(step1)
        step2_span.add_sim(step2)
        step3_span.add_sim(step3)

        return SaveReport(
            engine=self.name,
            version=version,
            stall_time=step1,
            checkpoint_time=step1 + step2 + step3,
            breakdown={
                "step1_decompose_dtoh": step1,
                "step2_metadata_broadcast": step2,
                "step3_encode_xor_p2p": step3,
                "step3_encode_compute": encode_total,
                "step3_comm": comm_makespan,
            },
            bytes_dtoh=bytes_dtoh,
            bytes_inter_node=bytes_inter_node,
        )

    def _step3_time(
        self,
        encode_total: float,
        xor_total: float,
        comm_makespan: float,
        logical_packet: int,
    ) -> float:
        """Makespan of step 3 with/without pipelined buffer execution."""
        buffers = max(1, -(-logical_packet // self.config.buffer_bytes))
        stage_times = [
            encode_total / buffers,
            xor_total / buffers,
            comm_makespan / buffers,
        ]
        if self.config.use_pipelining:
            return pipeline_makespan(stage_times, buffers)
        return serial_makespan(stage_times, buffers)

    # ------------------------------------------------------------------
    # Incremental (delta) checkpointing — an extension built on the
    # code's linearity; see repro.core.incremental.
    # ------------------------------------------------------------------
    def save_incremental(self, block_size: int = 64 * 1024) -> SaveReport:
        """Checkpoint by updating the previous version with XOR deltas.

        Only *dirty blocks* (changed since the last save) are encoded and
        shipped: parity packets are updated in place via
        ``parity_new = parity_old ^ encode(delta)`` and data chunks have
        the delta applied.  Falls back to a full :meth:`save` when no
        prior packets exist, the packet size changed, or the base
        version's chunks are no longer whole in host memory — a refused
        recovery, an eviction, or a tier demotion can wipe the base out
        from under the bookkeeping, and XOR-updating chunks that are not
        there would corrupt the stream.
        """
        assert self.placement and self.reduction_plan and self.code
        plan = self.placement
        tm = self.job.time_model
        cfg = self.config
        world = self.job.world_size
        n = self.job.cluster.num_nodes

        packet_size = packet_size_for(
            [
                sum(t.nbytes for t in _tensor_leaves(self.job.state_of(w)))
                for w in range(world)
            ],
            cfg.packet_alignment,
        )
        if (
            not self._last_packets
            or self._last_full_version is None
            or self._last_packets[0].nbytes != packet_size
            or not self._memory_version_intact(self._last_full_version)
        ):
            return self.save()
        # The delta base is the last version whose *chunks* live in host
        # memory — not ``self.version``, which an interleaved remote backup
        # (chunkless) may have advanced past it.
        prev_version = self._last_full_version
        self.version += 1
        version = self.version
        self._placement_of_version[version] = self.placement
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.save_incremental", kind="save", version=version
        ) as span:
            report = self._save_delta(
                version, prev_version, packet_size, block_size, tracer
            )
            span.add_sim(report.checkpoint_time)
            if tracer.enabled:
                tracer.metrics.counter("p2p.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
        return report

    def _save_delta(
        self,
        version: int,
        prev_version: int,
        packet_size: int,
        block_size: int,
        tracer,
    ) -> SaveReport:
        assert self.placement and self.reduction_plan and self.code
        plan = self.placement
        tm = self.job.time_model
        cfg = self.config
        world = self.job.world_size
        n = self.job.cluster.num_nodes
        from repro.core.incremental import apply_delta, packet_delta

        # Step 1 equivalent: decompose and compute per-worker deltas.
        with tracer.span(
            "eccheck.save.step1",
            kind="save",
            phase="step1_decompose_dtoh",
            version=version,
        ) as step1_span:
            checkpoints = {
                w: build_worker_checkpoint(w, self.job.state_of(w), packet_size)
                for w in range(world)
            }
            deltas = {}
            dirty_fraction = {}
            for w in range(world):
                delta, summary = packet_delta(
                    self._last_packets[w], checkpoints[w].packet.payload, block_size
                )
                deltas[w] = delta
                dirty_fraction[w] = summary.dirty_fraction
        logical_packet = self.logical_packet_bytes()
        # DtoH still moves the full shard (the snapshot is unavoidable);
        # encoding/communication scale with the dirty fraction.
        step1 = (
            max(tm.dtoh_time(self.job.logical_shard_bytes(w)) for w in range(world))
            + tm.decompose_overhead_s
        )

        # Step 3: delta-encode, update parity, refresh data chunks.  As in
        # the full save, chunk placement precedes the metadata commit.
        requests: list[TransferRequest] = []
        bytes_inter_node = 0

        def dirty_bytes_of(worker: int) -> int:
            return int(dirty_fraction[worker] * logical_packet)

        for group in self.reduction_plan.groups:
            r = group.index
            encoded_deltas = {
                j: encode_packet(self.code, j, deltas[w])
                for j, w in enumerate(group.workers)
            }
            for i, target in enumerate(group.targets):
                delta_parity = xor_reduce(
                    [encoded_deltas[j][i] for j in range(plan.k)]
                )
                parity_node = plan.parity_nodes[i]
                old_parity = self.host.get(
                    parity_node, self.chunk_key(prev_version, "parity", i, r)
                )
                self._store_chunk_packet(
                    parity_node, version, "parity", i, r,
                    apply_delta(old_parity, delta_parity),
                )
                target_node = self.node_hosting(target)
                for j, w in enumerate(group.workers):
                    if w == target:
                        continue
                    src = self.node_hosting(w)
                    requests.append(
                        TransferRequest(
                            src=src, dst=target_node, nbytes=dirty_bytes_of(w)
                        )
                    )
                    if src != target_node:
                        bytes_inter_node += dirty_bytes_of(w)
                if target_node != parity_node:
                    biggest = max(dirty_bytes_of(w) for w in group.workers)
                    requests.append(
                        TransferRequest(
                            src=target_node, dst=parity_node, nbytes=biggest
                        )
                    )
                    bytes_inter_node += biggest
            for j, members in enumerate(plan.data_group):
                worker = members[r]
                data_node = plan.data_nodes[j]
                old_data = self.host.get(
                    data_node, self.chunk_key(prev_version, "data", j, r)
                )
                self._store_chunk_packet(
                    data_node, version, "data", j, r,
                    apply_delta(old_data, deltas[worker]),
                )
                src = self.node_hosting(worker)
                if src != data_node:
                    requests.append(
                        TransferRequest(
                            src=src, dst=data_node, nbytes=dirty_bytes_of(worker)
                        )
                    )
                    bytes_inter_node += dirty_bytes_of(worker)

        # Step 2 equivalent: metadata rebroadcast (iteration counters
        # changed) commits the delta version.
        self._fire("pre_metadata_broadcast", version=version)
        meta_bytes = 0
        for w, wc in checkpoints.items():
            self._fire("mid_metadata_broadcast", version=version, worker=w)
            record = (wc.metadata_blob, wc.packet.original_length)
            meta_bytes += len(wc.metadata_blob)
            for node in self.active_nodes:
                self.host.put(node, ("meta", version, w), record)
        step2 = meta_bytes * (len(self.active_nodes) - 1) / gbps(tm.inter_node_gbps)

        comm_makespan = self.network.simulate(requests).makespan if requests else 0.0
        max_dirty = max(dirty_bytes_of(w) for w in range(world))
        encode_total = tm.encode_time(cfg.m * max_dirty, threads=cfg.encode_threads)
        xor_total = tm.memcpy_time((plan.k - 1) * max_dirty) * cfg.m
        step3 = self._step3_time(encode_total, xor_total, comm_makespan, logical_packet)

        self._last_packets = {
            w: checkpoints[w].packet.payload.copy() for w in range(world)
        }
        self._last_full_version = version
        self._chunk_versions.add(version)
        # As in the full save, phase sims land only on completion so a
        # crashed delta save contributes nothing to trace phase totals.
        step1_span.add_sim(step1)
        obs.record_phases(
            tracer,
            tracer.current_span(),
            {
                "step2_metadata_broadcast": step2,
                "step3_encode_xor_p2p": step3,
            },
            kind="save",
        )
        return SaveReport(
            engine=self.name,
            version=version,
            stall_time=step1,
            checkpoint_time=step1 + step2 + step3,
            breakdown={
                "step1_decompose_dtoh": step1,
                "step2_metadata_broadcast": step2,
                "step3_encode_xor_p2p": step3,
                "step3_encode_compute": encode_total,
                "step3_comm": comm_makespan,
                "dirty_fraction": max(dirty_fraction.values()),
            },
            bytes_dtoh=self.job.total_logical_bytes(),
            bytes_inter_node=bytes_inter_node,
        )

    # ------------------------------------------------------------------
    # Step 4: low-frequency remote backup for catastrophic failures.
    # ------------------------------------------------------------------
    def save_remote_backup(self) -> SaveReport:
        """Persist the current state to remote storage (Fig. 5, step 4).

        Runs at low frequency and entirely off the training critical path;
        it is also the fallback ``restore`` uses when more than ``m`` nodes
        fail simultaneously.
        """
        version = self.version = self.version + 1
        tm = self.job.time_model
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.backup", kind="save", version=version
        ) as span:
            serialize = max(
                tm.serialize_time(self.job.logical_shard_bytes(w))
                for w in self.job.writers
            )
            transfer, total = self._persist_all_to_remote(version)
            report = SaveReport(
                engine=self.name,
                version=version,
                stall_time=0.0,
                checkpoint_time=serialize + transfer,
                breakdown={"serialize": serialize, "transfer_remote": transfer},
                bytes_to_remote=total,
            )
            span.add_sim(report.checkpoint_time)
            span.set(bytes_to_remote=total)
            obs.record_phases(tracer, span, report.breakdown, kind="save")
        return report

    # ------------------------------------------------------------------
    # Tier management: asynchronous demotion to the local-disk tier,
    # promotion on restore, and disk-tier GC (see checkpoint/tiering.py
    # for the policy that drives these).
    # ------------------------------------------------------------------
    @staticmethod
    def _is_version_key(key, version: int) -> bool:
        return (
            isinstance(key, tuple)
            and len(key) >= 2
            and key[0] in ("chunk", "digest", "meta")
            and key[1] == version
        )

    @staticmethod
    def _tier_copy(value):
        """Decouple tiers: a mutation in one must not rot the other."""
        return value.copy() if isinstance(value, np.ndarray) else value

    def memory_versions(self) -> list[int]:
        """Committed versions with chunks resident in host memory."""
        return sorted(self._chunk_versions)

    def disk_versions(self) -> list[int]:
        """Versions currently held by the local-disk tier."""
        return sorted(self._disk_versions)

    def delta_base_version(self) -> int | None:
        """Version the next incremental save XORs against (pinned hot)."""
        return self._last_full_version

    def _memory_version_intact(self, version: int) -> bool:
        """Every chunk of ``version`` whole in memory, metadata complete."""
        plan = self.placement_of(version)
        groups = len(plan.data_group[0])
        for j, node in enumerate(plan.data_nodes):
            if not self._chunk_intact(node, version, "data", j, groups):
                return False
        for i, node in enumerate(plan.parity_nodes):
            if not self._chunk_intact(node, version, "parity", i, groups):
                return False
        return self._metadata_complete(version, list(self.active_nodes))

    def prune_memory_index(self) -> list[int]:
        """Drop no-longer-intact versions from the demotion candidate index.

        Called after failures: versions whose chunks were partially wiped
        must never be demoted (the disk tier only accepts fully intact
        versions), so they stop being candidates.  Only the index shrinks —
        no bytes are deleted, and the restore walk is unaffected.  Returns
        the pruned versions.
        """
        stale = [
            v for v in sorted(self._chunk_versions)
            if not self._memory_version_intact(v)
        ]
        for version in stale:
            self._chunk_versions.discard(version)
        return stale

    def demote_version(self, version: int) -> DemotionReport:
        """Move a cold version's chunks + metadata from memory to disk.

        Runs off the training critical path (the reported ``demote_time``
        is background disk-write seconds).  Refuses to demote the
        incremental-delta base (the next ``save_incremental`` reads its
        chunks from host memory) and any version that is not fully intact
        in memory — a torn demotion would poison the disk tier.

        Raises:
            CheckpointError: when the version is not demotable.
        """
        tracer = obs.get_tracer()
        with tracer.span("eccheck.demote", kind="tier", version=version) as span:
            report = self._demote_impl(version)
            span.add_sim(report.demote_time)
            span.set(bytes_to_disk=report.bytes_to_disk)
            obs.record_phases(tracer, span, report.breakdown, kind="tier")
            if tracer.enabled:
                tracer.metrics.counter("tier.demotions").inc()
                tracer.metrics.counter("tier.bytes_to_disk").inc(
                    report.bytes_to_disk
                )
        return report

    def _demote_impl(self, version: int) -> DemotionReport:
        if version not in self._chunk_versions:
            raise CheckpointError(
                f"version {version} has no in-memory chunks to demote"
            )
        if version == self._last_full_version and self._last_packets:
            raise CheckpointError(
                f"version {version} is the incremental-delta base; demoting "
                "it would break the next save_incremental"
            )
        if not self._memory_version_intact(version):
            raise CheckpointError(
                f"version {version} is not fully intact in memory; refusing "
                "a torn demotion"
            )
        tm = self.job.time_model
        n = self.job.cluster.num_nodes
        per_node_bytes = [0] * n
        for node in range(n):
            for key in self.host.keys(node):
                if self._is_version_key(key, version):
                    value = self.host.get(node, key)
                    self.disk.put(node, key, self._tier_copy(value))
                    per_node_bytes[node] += _nbytes(value)
                    self.host.delete(node, key)
        demote_time = max(
            (tm.disk_write_time(b) for b in per_node_bytes if b), default=0.0
        )
        self._chunk_versions.discard(version)
        self._disk_versions.add(version)
        return DemotionReport(
            engine=self.name,
            version=version,
            demote_time=demote_time,
            breakdown={"demote_disk_write": demote_time},
            bytes_to_disk=sum(per_node_bytes),
        )

    def evict_disk_version(self, version: int) -> int:
        """GC one version from the disk tier; returns bytes reclaimed."""
        freed = 0
        for node in range(self.job.cluster.num_nodes):
            for key in self.disk.keys(node):
                if self._is_version_key(key, version):
                    freed += _nbytes(self.disk.get(node, key))
                    self.disk.delete(node, key)
        self._disk_versions.discard(version)
        tracer = obs.get_tracer()
        if tracer.enabled and freed:
            tracer.metrics.counter("tier.disk_bytes_evicted").inc(freed)
        return freed

    def _disk_chunk_intact(
        self, node: int, version: int, kind: str, idx: int, groups: int
    ) -> bool:
        """Disk-tier twin of :meth:`_chunk_intact` (digest-verified)."""
        for r in range(groups):
            key = self.chunk_key(version, kind, idx, r)
            digest_key = self.digest_key(version, kind, idx, r)
            if not (
                self.disk.contains(node, key)
                and self.disk.contains(node, digest_key)
            ):
                return False
            if not verify_chunk(
                self.disk.get(node, key), self.disk.get(node, digest_key)
            ):
                return False
        return True

    def _disk_version_intact(self, version: int) -> bool:
        """Whole version restorable from disk: every chunk verifies and
        every worker's metadata survives on some node's disk.

        Derived purely from disk contents — never from the advisory
        ``_disk_versions`` index — so the restore walk cannot be fooled
        by a stale index after disk loss.
        """
        plan = self.placement_of(version)
        groups = len(plan.data_group[0])
        for j, node in enumerate(plan.data_nodes):
            if not self._disk_chunk_intact(node, version, "data", j, groups):
                return False
        for i, node in enumerate(plan.parity_nodes):
            if not self._disk_chunk_intact(node, version, "parity", i, groups):
                return False
        n = self.job.cluster.num_nodes
        for worker in range(self.job.world_size):
            if not any(
                self.disk.contains(node, ("meta", version, worker))
                for node in range(n)
            ):
                return False
        return True

    def _promote_version(self, version: int) -> tuple[float, int]:
        """Copy a disk version back into host memory (disk copy kept).

        Returns ``(promote_seconds, bytes_read)``.  After the per-node
        copy-back, metadata coverage is re-established on every active
        node (a replacement machine's empty disk leaves gaps that the
        surviving disks fill).
        """
        tm = self.job.time_model
        n = self.job.cluster.num_nodes
        per_node_bytes = [0] * n
        for node in range(n):
            for key in self.disk.keys(node):
                if self._is_version_key(key, version):
                    value = self.disk.get(node, key)
                    self.host.put(node, key, self._tier_copy(value))
                    per_node_bytes[node] += _nbytes(value)
        all_nodes = list(range(n))
        for worker in range(self.job.world_size):
            record = self._meta_record(version, worker, all_nodes)
            for node in self.active_nodes:
                if not self.host.contains(node, ("meta", version, worker)):
                    self.host.put(node, ("meta", version, worker), record)
        promote_s = max(
            (tm.disk_read_time(b) for b in per_node_bytes if b), default=0.0
        )
        self._chunk_versions.add(version)
        return promote_s, sum(per_node_bytes)

    # ------------------------------------------------------------------
    # eccheck.load — both recovery workflows
    # ------------------------------------------------------------------
    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.restore", kind="restore", failed=sorted(failed_nodes)
        ) as span:
            report = self._restore_impl(failed_nodes)
            span.set(version=report.version, tier=report.tier)
            if report.bytes_from_disk:
                span.set(bytes_from_disk=report.bytes_from_disk)
            if report.bytes_from_remote:
                span.set(bytes_from_remote=report.bytes_from_remote)
            span.add_sim(report.recovery_time)
            obs.record_phases(tracer, span, report.breakdown, kind="restore")
            if tracer.enabled:
                tracer.metrics.counter("restore.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
                tracer.metrics.counter("restore.bytes_from_remote").inc(
                    report.bytes_from_remote
                )
                tracer.metrics.counter("tier.bytes_from_disk").inc(
                    report.bytes_from_disk
                )
        return report

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        assert self.placement and self.code
        self.on_failure(failed_nodes)
        # After any failure the delta base is unreliable; the next
        # incremental save falls back to a full one.  The version pointer
        # goes too: leaving it aimed at a wiped version would misreport
        # delta_base_version() and un-pin the demotion guard.
        self._last_packets = {}
        self._last_full_version = None
        latest = self.latest_version()
        surviving = [
            node for node in range(self.job.cluster.num_nodes)
            if node not in failed_nodes
        ]

        # A save interrupted by the crash may have left a torn version
        # behind; walk back to the newest version restorable from *any*
        # tier, exactly as a restart would: in-memory chunks first (>= k
        # intact chunks plus complete metadata on the survivors), then the
        # local-disk tier (which survives memory loss — including a full
        # cluster power-cycle, where ``surviving`` is empty).  Each
        # candidate is judged against the placement *it* was saved under —
        # elastic regroups mean adjacent versions can have different
        # layouts.  Demotion only ever moves versions older than everything
        # still in memory, so checking memory before disk per candidate
        # preserves strict newest-first order across tiers.
        version = None
        from_disk = False
        plan = self.placement
        chunk_available: dict[int, int] = {}
        for candidate in range(latest, 0, -1):
            plan_v = self.placement_of(candidate)
            if surviving:
                available = self._surviving_chunks(candidate, failed_nodes)
                if len(available) >= plan_v.k and self._metadata_complete(
                    candidate, surviving
                ):
                    version, chunk_available, plan = candidate, available, plan_v
                    break
            if self._disk_version_intact(candidate):
                version, plan, from_disk = candidate, plan_v, True
                break
        if version is None:
            return self._restore_from_backup(latest, failed_nodes)

        promote_s = 0.0
        promote_bytes = 0
        recovery_failed = failed_nodes
        if from_disk:
            # Promotion re-materialises the whole version in host memory
            # (failed nodes have rebooted with empty RAM but live disks),
            # after which recovery proceeds as if nothing was lost.
            promote_s, promote_bytes = self._promote_version(version)
            chunk_available = self._surviving_chunks(version, set())
            recovery_failed = set()

        # A data chunk may be unavailable because its node failed OR its
        # packets failed digest verification (silent corruption) — either
        # way it is an erasure and the decode workflow handles it.
        all_data_chunks_intact = all(j in chunk_available for j in range(plan.k))
        if all_data_chunks_intact:
            report = self._recover_all_data_nodes_alive(
                version, recovery_failed, chunk_available, plan
            )
        else:
            report = self._recover_with_decoding(
                version, recovery_failed, chunk_available, plan
            )
        if from_disk:
            report.recovery_time += promote_s
            report.breakdown["promote_disk_read"] = promote_s
            report.bytes_from_disk = promote_bytes
            report.tier = "disk"
        return report

    # -- helpers --------------------------------------------------------
    def _surviving_chunks(
        self, version: int, failed_nodes: set[int]
    ) -> dict[int, int]:
        """chunk id (0..k-1 data, k.. parity) -> surviving node holding it."""
        plan = self.placement_of(version)
        groups = len(plan.data_group[0])
        out: dict[int, int] = {}
        for j, node in enumerate(plan.data_nodes):
            if node not in failed_nodes and self._chunk_intact(
                node, version, "data", j, groups
            ):
                out[j] = node
        for i, node in enumerate(plan.parity_nodes):
            if node not in failed_nodes and self._chunk_intact(
                node, version, "parity", i, groups
            ):
                out[plan.k + i] = node
        return out

    def _metadata_complete(self, version: int, surviving: list[int]) -> bool:
        """Every worker's metadata record reachable on some survivor."""
        for worker in range(self.job.world_size):
            if not any(
                self.host.contains(node, ("meta", version, worker))
                for node in surviving
            ):
                return False
        return True

    def _meta_record(self, version: int, worker: int, surviving: list[int]):
        for node in surviving:
            if self.host.contains(node, ("meta", version, worker)):
                return self.host.get(node, ("meta", version, worker))
        raise RecoveryError(
            f"metadata for worker {worker} v{version} lost on all survivors"
        )

    def _install_worker_state(
        self, version: int, worker: int, payload: np.ndarray, surviving: list[int]
    ) -> None:
        blob, length = self._meta_record(version, worker, surviving)
        self.job.state_dicts[worker] = restore_state_dict(
            blob, payload[:length], device=GPU
        )

    def _rebroadcast_metadata(self, version: int, failed_nodes: set[int], surviving: list[int]) -> None:
        """Replacement nodes need the metadata copies they lost."""
        for worker in range(self.job.world_size):
            record = self._meta_record(version, worker, surviving)
            for node in failed_nodes:
                self.host.put(node, ("meta", version, worker), record)

    def _restore_from_backup(
        self, version: int, failed_nodes: set[int]
    ) -> RecoveryReport:
        """Catastrophic fallback: more than m failures, load from remote."""
        backup_versions = sorted(
            {
                key[1]
                for key in self.remote.keys()
                if isinstance(key, tuple) and key[0] == "ckpt"
            }
        )
        # A backup interrupted mid-persist is torn just like an in-memory
        # version: only versions holding every writer's blob are loadable.
        complete = [
            v for v in backup_versions
            if all(
                self.remote.contains(("ckpt", v, worker))
                for worker in self.job.writers
            )
        ]
        if not complete:
            raise RecoveryError(
                f"{len(failed_nodes)} failures exceed parity m={self.config.m} "
                "and no complete remote backup exists"
            )
        backup = complete[-1]
        load_time, bytes_read = self._restore_all_from_remote(backup)
        return RecoveryReport(
            engine=self.name,
            version=backup,
            recovery_time=load_time,
            breakdown={"load_remote_backup": load_time},
            bytes_from_remote=bytes_read,
            tier="remote",
        )

    def _recover_all_data_nodes_alive(
        self,
        version: int,
        failed_nodes: set[int],
        chunk_available: dict[int, int],
        plan: PlacementPlan,
    ) -> RecoveryReport:
        """Workflow 1 (Fig. 7 precondition inverted): data chunks intact.

        Data nodes send every worker its packet; lost (or corrupted)
        parity chunks are re-encoded in the background.  ``plan`` is the
        placement ``version`` was saved under.
        """
        tm = self.job.time_model
        surviving = [
            n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes
        ]
        logical_packet = self.logical_packet_bytes()
        requests: list[TransferRequest] = []
        bytes_inter = 0
        for worker in range(self.job.world_size):
            j, r = self.group_and_index(worker, plan)
            data_node = plan.data_nodes[j]
            payload = self.host.get(data_node, self.chunk_key(version, "data", j, r))
            self._install_worker_state(version, worker, payload, surviving)
            dst = self.node_hosting(worker)
            requests.append(
                TransferRequest(src=data_node, dst=dst, nbytes=logical_packet)
            )
            if data_node != dst:
                bytes_inter += logical_packet
        self._rebroadcast_metadata(version, failed_nodes, surviving)
        transfer = self.network.simulate(requests).makespan
        htod = max(
            tm.htod_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        recovery_time = transfer + htod

        # Background: re-encode parity chunks lost with failed parity nodes
        # or failing digest verification.  One encode pass per reduction
        # group produces *all* m parity packets at once, so every lost
        # parity chunk is rebuilt from that single pass.
        groups = len(plan.data_group[0])
        lost_parities = [
            i for i in range(plan.m) if (plan.k + i) not in chunk_available
        ]
        redo_requests: list[TransferRequest] = []
        encode_seconds = 0.0
        if lost_parities:
            encoder = self.encoder_for(plan.k, plan.m)
            for r in range(groups):
                data_packets = [
                    np.ascontiguousarray(
                        self.host.get(
                            plan.data_nodes[j],
                            self.chunk_key(version, "data", j, r),
                        )
                    )
                    for j in range(plan.k)
                ]
                parity_packets = encoder.encode(data_packets)
                for i in lost_parities:
                    self._store_chunk_packet(
                        plan.parity_nodes[i], version, "parity", i, r,
                        parity_packets[i],
                    )
            encode_seconds = tm.encode_time(
                logical_packet * groups, threads=self.config.encode_threads
            )
            # Each data node streams its chunk through the encoder pipeline
            # to every replacement parity node.
            for i in lost_parities:
                for j in range(plan.k):
                    redo_requests.append(
                        TransferRequest(
                            src=plan.data_nodes[j],
                            dst=plan.parity_nodes[i],
                            nbytes=logical_packet * groups // plan.k,
                        )
                    )
        redo_comm = (
            self.network.simulate(redo_requests).makespan if redo_requests else 0.0
        )
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=recovery_time,
            breakdown={"fetch_packets": transfer, "htod": htod},
            bytes_inter_node=bytes_inter,
            restore_redundancy_time=redo_comm + encode_seconds,
        )

    def _recover_with_decoding(
        self,
        version: int,
        failed_nodes: set[int],
        chunk_available: dict[int, int],
        plan: PlacementPlan,
    ) -> RecoveryReport:
        """Workflow 2 (Fig. 7): data chunks lost; decode from any k chunks.

        ``plan`` is the placement ``version`` was saved under; the decode
        uses the matching (k, m) code, not necessarily the live one.
        """
        code = self.code_for(plan.k, plan.m)
        tm = self.job.time_model
        surviving = [
            n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes
        ]
        logical_packet = self.logical_packet_bytes()
        groups = len(plan.data_group[0])
        # Prefer data chunks to minimise decode work.
        chosen = sorted(chunk_available, key=lambda c: (c >= plan.k, c))[: plan.k]

        # Decode every reduction group; distribute decode work round-robin
        # across surviving nodes (the paper spreads it to speed recovery).
        gather_requests: list[TransferRequest] = []
        scatter_requests: list[TransferRequest] = []
        bytes_inter = 0
        recovered: dict[tuple[int, int], np.ndarray] = {}
        for r in range(groups):
            decode_node = surviving[r % len(surviving)]
            available = {}
            for cid in chosen:
                node = chunk_available[cid]
                key = (
                    self.chunk_key(version, "data", cid, r)
                    if cid < plan.k
                    else self.chunk_key(version, "parity", cid - plan.k, r)
                )
                available[cid] = np.ascontiguousarray(self.host.get(node, key))
                gather_requests.append(
                    TransferRequest(src=node, dst=decode_node, nbytes=logical_packet)
                )
                if node != decode_node:
                    bytes_inter += logical_packet
            data_packets = code.decode_fast(available)
            for j in range(plan.k):
                recovered[(j, r)] = data_packets[j]
                worker = plan.data_group[j][r]
                dst = self.node_hosting(worker)
                scatter_requests.append(
                    TransferRequest(src=decode_node, dst=dst, nbytes=logical_packet)
                )
                if decode_node != dst:
                    bytes_inter += logical_packet

        # Every worker gets its packet back; training can resume.
        for worker in range(self.job.world_size):
            j, r = self.group_and_index(worker, plan)
            self._install_worker_state(version, worker, recovered[(j, r)], surviving)
        self._rebroadcast_metadata(version, failed_nodes, surviving)

        decode_seconds = tm.encode_time(
            plan.k * logical_packet * groups / max(1, len(surviving)),
            threads=self.config.encode_threads,
        )
        gather = self.network.simulate(gather_requests).makespan
        scatter = self.network.simulate(scatter_requests).makespan
        htod = max(
            tm.htod_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        recovery_time = gather + decode_seconds + scatter + htod

        # Background: restore the full chunk layout (data + parity) so the
        # original fault-tolerance capacity returns.
        redo_requests: list[TransferRequest] = []
        for j, data_node in enumerate(plan.data_nodes):
            for r in range(groups):
                self._store_chunk_packet(
                    data_node, version, "data", j, r, recovered[(j, r)].copy()
                )
            if data_node in failed_nodes:
                redo_requests.append(
                    TransferRequest(
                        src=surviving[j % len(surviving)],
                        dst=data_node,
                        nbytes=logical_packet * groups,
                    )
                )
        # One encode pass per reduction group rebuilds all lost parity
        # chunks at once (encoding emits every parity packet anyway).
        lost_parities = [
            i for i, parity_node in enumerate(plan.parity_nodes)
            if parity_node in failed_nodes or (plan.k + i) not in chunk_available
        ]
        reencode_seconds = 0.0
        if lost_parities:
            encoder = self.encoder_for(plan.k, plan.m)
            for r in range(groups):
                parity_packets = encoder.encode(
                    [recovered[(j, r)] for j in range(plan.k)]
                )
                for i in lost_parities:
                    self._store_chunk_packet(
                        plan.parity_nodes[i], version, "parity", i, r,
                        parity_packets[i],
                    )
            reencode_seconds = tm.encode_time(
                logical_packet * groups, threads=self.config.encode_threads
            )
            for i in lost_parities:
                redo_requests.append(
                    TransferRequest(
                        src=surviving[i % len(surviving)],
                        dst=plan.parity_nodes[i],
                        nbytes=logical_packet * groups,
                    )
                )
        redo_comm = (
            self.network.simulate(redo_requests).makespan if redo_requests else 0.0
        )
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=recovery_time,
            breakdown={
                "gather_chunks": gather,
                "decode": decode_seconds,
                "scatter_packets": scatter,
                "htod": htod,
            },
            bytes_inter_node=bytes_inter,
            restore_redundancy_time=redo_comm + reencode_seconds,
        )


def _tensor_leaves(state_dict: dict):
    from repro.tensors.state_dict import tensor_items

    return [t for _, t in tensor_items(state_dict)]
