"""Serialization and ECCheck's serialization-free decomposition.

Two paths through this module correspond to the two sides of the paper's
Challenge 1:

* :func:`serialize_state_dict` / :func:`deserialize_state_dict` — full
  ``torch.save``-style serialization of the whole dict into one byte blob.
  This is what base1/base2 pay for on the critical path, and is also how
  ECCheck handles the tiny *non-tensor* metadata.
* :func:`decompose_state_dict` / :func:`recompose_state_dict` — the
  serialization-free protocol: split the dict into (1) non-tensor key-value
  pairs, (2) tensor keys + dtype/shape metadata, and (3) raw tensor byte
  buffers that can be encoded directly.  Only (1) and (2) — fractions of a
  percent of the checkpoint, per the paper's GPT2-345M measurement — ever
  get pickled.

The engines do not call the decomposition path: the production
packetiser, :func:`repro.core.protocol.build_worker_checkpoint` (and its
inverse :func:`~repro.core.protocol.restore_state_dict`), fuses the split,
the offload and the packing into one walk and one copy per tensor.
:class:`Decomposition` is the readable reference it must match byte for
byte (packet, payload length and metadata blob); the tests hold it to that.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.tensors.state_dict import (
    Path,
    flatten_state_dict,
    unflatten_state_dict,
)
from repro.tensors.tensor import CPU, SimTensor


# ---------------------------------------------------------------------------
# Full serialization (the base1/base2 path)
# ---------------------------------------------------------------------------
def serialize_state_dict(state_dict: dict) -> bytes:
    """Serialize a whole state dict (tensors included) into one blob."""
    flat = flatten_state_dict(state_dict)
    portable: dict[Path, object] = {}
    for path, value in flat.items():
        if isinstance(value, SimTensor):
            portable[path] = (
                "__tensor__",
                str(value.dtype),
                value.shape,
                value.byte_view().tobytes(),
            )
        else:
            portable[path] = ("__value__", value)
    return pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_state_dict(blob: bytes) -> dict:
    """Inverse of :func:`serialize_state_dict`; tensors land on CPU."""
    portable = pickle.loads(blob)
    flat: dict[Path, object] = {}
    for path, tagged in portable.items():
        if tagged[0] == "__tensor__":
            _, dtype, shape, raw = tagged
            flat[path] = SimTensor.from_bytes(raw, np.dtype(dtype), tuple(shape), CPU)
        else:
            flat[path] = tagged[1]
    return unflatten_state_dict(flat)


def serialized_size(state_dict: dict) -> int:
    """Byte size of the fully serialized checkpoint."""
    return len(serialize_state_dict(state_dict))


# ---------------------------------------------------------------------------
# Serialization-free decomposition (the ECCheck path)
# ---------------------------------------------------------------------------
@dataclass
class TensorMeta:
    """Everything needed to rebuild a tensor around raw bytes."""

    path: Path
    dtype: str
    shape: tuple[int, ...]
    nbytes: int


@dataclass
class Decomposition:
    """The three components of the serialization-free protocol.

    Attributes:
        non_tensor_kv: flattened non-tensor key-value pairs (tiny).
        tensor_meta: ordered tensor keys with dtype/shape (tiny).
        tensor_data: raw per-tensor byte buffers, in ``tensor_meta`` order
            (the ~99.99% of the checkpoint that never gets serialized).
    """

    non_tensor_kv: dict[Path, object]
    tensor_meta: list[TensorMeta]
    tensor_data: list[np.ndarray]

    @property
    def tensor_bytes(self) -> int:
        """Total raw tensor payload in bytes."""
        return sum(buf.nbytes for buf in self.tensor_data)

    def metadata_blob(self) -> bytes:
        """Serialize only the tiny components (what ECCheck broadcasts)."""
        return pickle.dumps(
            (self.non_tensor_kv, [(m.path, m.dtype, m.shape, m.nbytes) for m in self.tensor_meta]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_metadata_blob(
        cls, blob: bytes, tensor_data: list[np.ndarray] | None = None
    ) -> "Decomposition":
        """Rebuild a decomposition from a broadcast metadata blob."""
        non_tensor_kv, meta_rows = pickle.loads(blob)
        meta = [TensorMeta(path, dtype, tuple(shape), nbytes) for path, dtype, shape, nbytes in meta_rows]
        return cls(
            non_tensor_kv=non_tensor_kv,
            tensor_meta=meta,
            tensor_data=list(tensor_data) if tensor_data is not None else [],
        )

    def concatenated_tensor_bytes(self) -> np.ndarray:
        """All tensor buffers as one contiguous uint8 array (encode input)."""
        if not self.tensor_data:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([buf.reshape(-1) for buf in self.tensor_data])

    def split_tensor_bytes(self, blob: np.ndarray) -> list[np.ndarray]:
        """Split a contiguous byte array back into per-tensor buffers."""
        out: list[np.ndarray] = []
        offset = 0
        for meta in self.tensor_meta:
            out.append(np.ascontiguousarray(blob[offset : offset + meta.nbytes], dtype=np.uint8))
            offset += meta.nbytes
        if offset > blob.nbytes:
            raise ReproError(
                f"tensor metadata wants {offset} bytes but blob has {blob.nbytes}"
            )
        return out


def decompose_state_dict(state_dict: dict, offload_to_cpu: bool = True) -> Decomposition:
    """Step 1 of the ECCheck protocol: analyze and decompose.

    Tensors on the simulated GPU are (optionally) offloaded: their bytes are
    copied into CPU-side buffers, modelling the CUDA DtoH copy after which
    training may continue.

    Args:
        state_dict: the sharded checkpoint dict of one worker.
        offload_to_cpu: copy tensor bytes (True, the real protocol) or view
            them in place (False, for zero-copy size accounting).
    """
    non_tensor_kv: dict[Path, object] = {}
    tensor_meta: list[TensorMeta] = []
    tensor_data: list[np.ndarray] = []
    for path, value in flatten_state_dict(state_dict).items():
        if isinstance(value, SimTensor):
            tensor_meta.append(
                TensorMeta(
                    path=path,
                    dtype=str(value.dtype),
                    shape=value.shape,
                    nbytes=value.nbytes,
                )
            )
            view = value.byte_view()
            tensor_data.append(view.copy() if offload_to_cpu else view)
        else:
            non_tensor_kv[path] = value
    return Decomposition(
        non_tensor_kv=non_tensor_kv, tensor_meta=tensor_meta, tensor_data=tensor_data
    )


def recompose_state_dict(decomposition: Decomposition) -> dict:
    """Rebuild the original state dict from a decomposition.

    Raises:
        ReproError: if tensor data is missing or sized inconsistently with
            the tensor metadata.
    """
    if len(decomposition.tensor_data) != len(decomposition.tensor_meta):
        raise ReproError(
            f"{len(decomposition.tensor_meta)} tensors described but "
            f"{len(decomposition.tensor_data)} buffers supplied"
        )
    flat: dict[Path, object] = dict(decomposition.non_tensor_kv)
    for meta, raw in zip(decomposition.tensor_meta, decomposition.tensor_data):
        if raw.nbytes != meta.nbytes:
            raise ReproError(
                f"tensor {meta.path!r} expects {meta.nbytes} bytes, got {raw.nbytes}"
            )
        flat[meta.path] = SimTensor.from_bytes(
            raw, np.dtype(meta.dtype), meta.shape, CPU
        )
    return unflatten_state_dict(flat)
