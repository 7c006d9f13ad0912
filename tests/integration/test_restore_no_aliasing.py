"""Restored state must never alias stored checkpoint bytes.

``restore_state_dict`` copies a recovered packet once and views every
tensor on that copy.  Were the copy dropped, the live state would share
memory with a stored chunk (or anchor, or decoded packet), and the next
training step would rewrite the checkpoint underneath its digest.  For
every engine with a real restore path: restore, train one step, then
check that every stored packet still passes its CRC and that restoring
again is bit-exact.
"""

import pytest

from repro.chaos.invariants import check_restored_states
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig
from repro.core.integrity import verify_chunk
from repro.core.registry import build_engine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec

#: Stored packet kind -> the kind of its digest record (same key suffix).
DIGEST_OF = {"chunk": "digest", "apkt": "adig", "grad": "graddig"}


def stored_packets(host):
    """``(node, key, packet, digest)`` for every digested packet in ``host``."""
    for node in range(host.num_nodes):
        for key in host.keys(node):
            if isinstance(key, tuple) and key[0] in DIGEST_OF:
                digest_key = (DIGEST_OF[key[0]],) + key[1:]
                yield node, key, host.get(node, key), host.get(node, digest_key)


@pytest.mark.parametrize("name", ["eccheck", "gradrep", "hybrid"])
@pytest.mark.parametrize("iterations", [5, 7])
def test_training_after_restore_leaves_stored_packets_intact(name, iterations):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=21,
    )
    engine = build_engine(
        name, job, ECCheckConfig(k=2, m=2, encode_threads=2, engine=name)
    )
    manager = CheckpointManager(job, engine, interval=4)
    # Saves at 1 and 5.  At 5 the restore reads the stored anchor itself
    # (empty gradient tail); at 7 it replays entries 6 and 7 on top.
    for _ in range(iterations):
        job.advance()
        manager.step()

    manager.on_failure({1})
    at = job.iteration
    states = {at: job.snapshot_states()}
    job.advance()  # mutates every restored tensor in place
    manager.step()  # gradient engines log this step against their base
    states[at + 1] = job.snapshot_states()

    packets = list(stored_packets(engine.host))
    assert packets
    for node, key, packet, digest in packets:
        assert verify_chunk(packet, digest), (node, key)

    manager.on_failure({2})
    # ECCheck rolls back to its checkpoint; the gradient engines replay
    # the step logged after the first restore.
    assert job.iteration == (at if name == "eccheck" else at + 1)
    assert check_restored_states(job, states[job.iteration]) == []
