"""Serialization-free encoding/decoding protocol (paper Sec. III-C).

Each worker's decomposed ``state_dict`` becomes a fixed-size **data
packet**: the concatenated raw tensor bytes, zero-padded to the cluster-wide
packet size (packets must be equal-sized for XOR reduction across workers).
The tiny metadata — non-tensor key-value pairs, tensor keys/shapes, and the
true payload length — is pickled once and broadcast to every node, so any
survivor can rebuild any worker's ``state_dict`` around recovered packet
bytes without ever serializing tensor data.

Per reduction group the ``k`` packets of the group's workers form one
codeword position: parity packet ``i`` is ``XOR_j B(E'[i][j]) d_j`` — the
encode step computes ``B(E'[i][j]) d_j`` locally on each worker and the XOR
reduction combines them (Eqn. 6 of the paper).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointError, DecodeError
from repro.ec.base import ErasureCode
from repro.ec.kernels import mul_region16, xor_reduce_arrays
from repro.tensors.state_dict import Path, unflatten_state_dict
from repro.tensors.tensor import CPU, SimTensor


def packet_size_for(payload_lengths: list[int], alignment: int = 64) -> int:
    """Cluster-wide packet size: the max payload, rounded up to alignment."""
    if not payload_lengths:
        raise CheckpointError("no payloads to size packets for")
    largest = max(payload_lengths)
    if largest == 0:
        return alignment
    return ((largest + alignment - 1) // alignment) * alignment


@dataclass
class DataPacket:
    """One worker's checkpoint payload, padded to the common packet size."""

    worker: int
    payload: np.ndarray  # uint8, length == packet size
    original_length: int

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes


@dataclass
class WorkerCheckpoint:
    """Everything a worker contributes to one checkpoint version."""

    worker: int
    packet: DataPacket
    metadata_blob: bytes


def _name_and_sharing(dtype: np.dtype) -> tuple[str, bool]:
    """``str(dtype)``, and whether numpy returns that same object each time."""
    name = str(dtype)
    return name, str(dtype) is name


#: ``str(dtype)`` of every builtin dtype.  ``str(dtype)`` costs ~10 us
#: (numpy renders it in Python) and a state dict holds hundreds of tensors
#: of a handful of dtypes.
_DTYPE_NAMES = {
    np.dtype(code): _name_and_sharing(np.dtype(code)) for code in np.typecodes["All"]
}


def _dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, with the object identity ``str(dtype)`` would have.

    Pickle memoises ``str`` objects by identity.  numpy renders most names
    afresh on every call, so the reference blob spells each row's name
    out; a cached name shared by every row would turn the repeats into
    memo references and shrink the blob.  A few names (``bool``,
    ``object``) are one shared object in numpy, and there the reference
    blob *does* use memo references.  The blob must stay byte-identical
    (its length prices the metadata broadcast), so the cache mirrors both.
    """
    entry = _DTYPE_NAMES.get(dtype)
    if entry is None:
        return str(dtype)
    name, shared = entry
    return name if shared else name.encode().decode()


def build_worker_checkpoint(
    worker: int, state_dict: dict, packet_size: int
) -> WorkerCheckpoint:
    """Step 1 + packetisation: decompose, offload, pad into a packet.

    One walk over the nested dict splits it into the three components of
    :class:`~repro.tensors.serialization.Decomposition` and copies each
    tensor's bytes once, straight into the zero-padded packet at its
    offset (the DtoH offload).  Packet, payload length and metadata blob
    are byte-identical to ``decompose_state_dict`` + concatenate + pad.
    The packet is a fresh buffer that the caller owns.

    Raises:
        CheckpointError: if the tensor payload exceeds the packet size.
    """
    payload = np.zeros(packet_size, dtype=np.uint8)
    dest = memoryview(payload)
    non_tensor_kv: dict[Path, object] = {}
    rows: list[tuple[Path, str, tuple[int, ...], int]] = []
    offset = 0
    # Depth-first in insertion order, without recursion: one iterator per
    # open dict level, resumed after a nested dict is done.
    stack = [((), iter(state_dict.items()))]
    while stack:
        prefix, items = stack[-1]
        for key, value in items:
            path = prefix + (key,)
            if isinstance(value, SimTensor):
                data = value.data
                nbytes = data.nbytes
                rows.append((path, _dtype_name(data.dtype), data.shape, nbytes))
                end = offset + nbytes
                if nbytes and end <= packet_size:
                    try:
                        dest[offset:end] = memoryview(data).cast("B")
                    except (TypeError, ValueError):  # strided, or no buffer export
                        payload[offset:end] = (
                            np.ascontiguousarray(data).reshape(-1).view(np.uint8)
                        )
                offset = end
            elif isinstance(value, dict):
                stack.append((path, iter(value.items())))
                break
            else:
                non_tensor_kv[path] = value
        else:
            stack.pop()

    if offset > packet_size:
        raise CheckpointError(
            f"worker {worker} payload {offset} exceeds packet size {packet_size}"
        )
    return WorkerCheckpoint(
        worker=worker,
        packet=DataPacket(worker=worker, payload=payload, original_length=offset),
        metadata_blob=pickle.dumps(
            (non_tensor_kv, rows), protocol=pickle.HIGHEST_PROTOCOL
        ),
    )


def restore_state_dict(
    metadata_blob: bytes, packet_payload: np.ndarray, device: str = CPU
) -> dict:
    """Inverse of :func:`build_worker_checkpoint`: packet bytes -> state_dict.

    The payload is copied once into a fresh buffer and every tensor is a
    view on it, placed on ``device``: the restored state never aliases
    the (stored or decoded) packet it came from.  Keys come back in the
    reference order of ``recompose_state_dict``: non-tensor leaves first,
    then tensors, each in their original order.

    Raises:
        DecodeError: if the packet is shorter than the tensors it describes.
    """
    non_tensor_kv, rows = pickle.loads(metadata_blob)
    total = sum(row[3] for row in rows)
    if packet_payload.nbytes < total:
        raise DecodeError(
            f"packet holds {packet_payload.nbytes} bytes but metadata "
            f"describes {total}"
        )
    buffer = np.array(packet_payload[:total], dtype=np.uint8)
    dtypes: dict[str, np.dtype] = {}
    flat: dict[Path, object] = dict(non_tensor_kv)
    offset = 0
    for path, name, shape, nbytes in rows:
        dtype = dtypes.get(name)
        if dtype is None:
            dtype = dtypes[name] = np.dtype(name)
        flat[path] = SimTensor(np.ndarray(shape, dtype, buffer, offset), device)
        offset += nbytes
    return unflatten_state_dict(flat)


def encode_packet(
    code: ErasureCode, data_group_index: int, payload: np.ndarray
) -> list[np.ndarray]:
    """The per-worker encode step: ``B(E'[i][j]) d`` for every parity ``i``.

    Args:
        code: the (k, m) erasure code.
        data_group_index: ``j``, the worker's data-group (chunk) index.
        payload: the worker's packet bytes.

    Returns:
        ``m`` encoded packets, each a fresh buffer; XORing these across the
        reduction group's workers yields the parity packets.  Each product
        runs on the 16-bit table kernel, byte-identical to
        ``code.field.mul_region``.
    """
    parity = code.parity_matrix
    field = code.field
    return [
        mul_region16(field, int(parity[i, data_group_index]), payload)
        for i in range(code.params.m)
    ]


def xor_reduce(encoded_packets: list[np.ndarray]) -> np.ndarray:
    """XOR a reduction group's encoded packets into one parity packet.

    Runs on uint64 lanes via the kernel layer whenever the packets are
    contiguous and word-divisible (the common case: packets are
    alignment-padded by the block encoder).
    """
    if not encoded_packets:
        raise CheckpointError("nothing to reduce")
    return xor_reduce_arrays(encoded_packets)


def decode_group(
    code: ErasureCode, available: dict[int, np.ndarray]
) -> list[np.ndarray]:
    """Recover a reduction group's ``k`` data packets from any ``k`` chunks.

    ``available`` maps chunk id (0..k-1 data, k..k+m-1 parity) to that
    chunk's packet for this reduction group.  Dispatches through the
    code's fast path (bitmatrix kernels for Cauchy RS).
    """
    return code.decode_fast(available)


def reencode_parity(
    code: ErasureCode, data_packets: list[np.ndarray], parity_index: int
) -> np.ndarray:
    """Recompute one parity packet from a group's data packets.

    Used on the redundancy-restoration path after recovery.
    """
    if len(data_packets) != code.params.k:
        raise CheckpointError(
            f"need {code.params.k} data packets, got {len(data_packets)}"
        )
    return code.encode_fast(data_packets)[parity_index]
