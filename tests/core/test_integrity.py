"""Tests for chunk integrity verification and corruption recovery."""

import numpy as np
import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.integrity import chunk_digest, corrupt_buffer, verify_chunk
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
def test_digest_is_stable_and_sensitive():
    buf = np.arange(64, dtype=np.uint8)
    d = chunk_digest(buf)
    assert chunk_digest(buf.copy()) == d
    assert verify_chunk(buf, d)
    buf[3] ^= 1
    assert not verify_chunk(buf, d)


def test_digest_accepts_bytes():
    assert chunk_digest(b"abc") == chunk_digest(np.frombuffer(b"abc", np.uint8))


def test_digest_of_array_strided_view_and_bytes_agree():
    buf = np.arange(256, dtype=np.uint8)
    strided = buf[::3]
    assert not strided.flags.c_contiguous
    assert chunk_digest(buf) == chunk_digest(buf.tobytes())
    assert chunk_digest(strided) == chunk_digest(strided.tobytes())
    assert chunk_digest(strided) == chunk_digest(strided.copy())


def test_corrupt_buffer_flips_bits():
    buf = np.zeros(8, dtype=np.uint8)
    corrupt_buffer(buf, byte_index=2, mask=0x0F)
    assert buf[2] == 0x0F


def test_corrupt_buffer_validation():
    buf = np.zeros(4, dtype=np.uint8)
    with pytest.raises(CheckpointError):
        corrupt_buffer(buf, byte_index=4)
    with pytest.raises(CheckpointError):
        corrupt_buffer(buf, mask=0)
    with pytest.raises(CheckpointError):
        corrupt_buffer(np.zeros(4, dtype=np.float32))


# ---------------------------------------------------------------------------
# Engine-level corruption handling
# ---------------------------------------------------------------------------
def make_engine():
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=21,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def corrupt_chunk(engine, node, kind, idx, r=0):
    payload = engine.host.get(node, ("chunk", engine.version, kind, idx, r))
    corrupt_buffer(payload, byte_index=1)


def verify_all(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_save_stores_digests_beside_chunks():
    job, engine = make_engine()
    engine.save()
    for node, kind, idx in [(0, "data", 0), (1, "parity", 0)]:
        for r in range(len(engine.placement.data_group[0])):
            assert engine.host.contains(node, ("digest", 1, kind, idx, r))
    assert engine._chunk_intact(0, 1, "data", 0)


def test_corrupted_data_chunk_recovered_via_decode():
    """Silent corruption on a live data node: the chunk fails verification,
    becomes an erasure, and decoding from parity restores everything."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0)
    assert not engine._chunk_intact(engine.placement.data_nodes[0], 1, "data", 0)
    # No node failed — the restore is triggered by corruption alone.
    report = engine.restore(set())
    verify_all(job, reference)
    assert report.breakdown["decode"] > 0
    # The corrupted chunk was rebuilt and passes verification again.
    assert engine._chunk_intact(engine.placement.data_nodes[0], 1, "data", 0)


def test_corrupted_parity_chunk_reencoded_without_decode():
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    corrupt_chunk(engine, engine.placement.parity_nodes[1], "parity", 1)
    report = engine.restore(set())
    verify_all(job, reference)
    assert "decode" not in report.breakdown  # data chunks were intact
    assert engine._chunk_intact(engine.placement.parity_nodes[1], 1, "parity", 1)


def test_corruption_plus_node_failure_within_budget():
    """One corrupted data chunk + one failed parity node = 2 erasures,
    exactly the m=2 budget."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    corrupt_chunk(engine, engine.placement.data_nodes[1], "data", 1)
    failed = {engine.placement.parity_nodes[0]}
    job.fail_nodes(failed)
    engine.restore(failed)
    verify_all(job, reference)


def test_corruption_beyond_budget_falls_back_or_raises():
    job, engine = make_engine()
    engine.save()
    # Corrupt three of four chunks: only one survivor < k = 2.
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0)
    corrupt_chunk(engine, engine.placement.data_nodes[1], "data", 1)
    corrupt_chunk(engine, engine.placement.parity_nodes[0], "parity", 0)
    with pytest.raises(RecoveryError):
        engine.restore(set())


def test_corruption_in_any_single_packet_is_detected():
    """Corruption in a non-first reduction-group packet is still caught
    (verification covers every packet of the chunk, not just r=0)."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    last_r = len(engine.placement.data_group[0]) - 1
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0, r=last_r)
    engine.restore(set())
    verify_all(job, reference)
