"""The single-pass packetiser against the reference decomposition.

``build_worker_checkpoint`` fuses decompose, offload, concatenate and pad
into one walk and one copy per tensor; ``restore_state_dict`` copies the
payload once and views every tensor on it.  ``Decomposition`` keeps the
readable three-step form, and these properties hold the fast path to it
byte for byte: the packet, the payload length and the pickled metadata
blob (whose length prices the metadata broadcast) must all match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import build_worker_checkpoint, restore_state_dict
from repro.errors import CheckpointError
from repro.tensors.serialization import (
    Decomposition,
    decompose_state_dict,
    recompose_state_dict,
)
from repro.tensors.state_dict import state_dicts_equal
from repro.tensors.tensor import CPU, GPU, SimTensor

#: Shared key objects: the same ``str`` appears under many parents, so
#: pickle memoises it in both blobs and the identities must line up.
KEYS = ["model", "optimizer", "weight", "bias", "exp_avg", "step", "rng", 0, 7]
DTYPES = [
    "float16", "float32", "float64", "int8", "uint16", "int32", "uint64",
    "bool", "complex64", ">f4", "datetime64[s]",
]

shapes = st.one_of(
    st.just(()),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3).map(
        tuple
    ),
)


@st.composite
def tensors(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(shapes)
    count = int(np.prod(shape, dtype=np.int64))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    raw = np.random.default_rng(seed).integers(
        0, 256, size=count * dtype.itemsize, dtype=np.uint8
    )
    if dtype.kind == "b":
        raw &= 1
    device = draw(st.sampled_from([GPU, CPU]))
    return SimTensor(raw.view(dtype).reshape(shape), device=device)


non_tensor_leaves = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.lists(st.integers(), max_size=3),
)

state_dicts = st.recursive(
    st.dictionaries(
        st.sampled_from(KEYS), st.one_of(tensors(), non_tensor_leaves), max_size=4
    ),
    lambda children: st.dictionaries(
        st.sampled_from(KEYS),
        st.one_of(children, tensors(), non_tensor_leaves),
        max_size=4,
    ),
    max_leaves=12,
)


def reference_checkpoint(state_dict: dict, packet_size: int):
    """Decompose, concatenate and zero-pad: the three-copy reference."""
    decomposition = decompose_state_dict(state_dict, offload_to_cpu=True)
    raw = decomposition.concatenated_tensor_bytes()
    payload = np.zeros(packet_size, dtype=np.uint8)
    payload[: raw.nbytes] = raw
    return payload, raw.nbytes, decomposition.metadata_blob()


def reference_restore(metadata_blob: bytes, payload: np.ndarray) -> dict:
    decomposition = Decomposition.from_metadata_blob(metadata_blob)
    total = sum(meta.nbytes for meta in decomposition.tensor_meta)
    decomposition.tensor_data = decomposition.split_tensor_bytes(payload[:total])
    return recompose_state_dict(decomposition)


def key_order(node):
    """Nested key lists: the insertion order at every level."""
    if not isinstance(node, dict):
        return None
    return [(key, key_order(value)) for key, value in node.items()]


@given(state=state_dicts, slack=st.integers(min_value=0, max_value=70))
@settings(max_examples=120, deadline=None)
def test_packetiser_matches_reference_decomposition(state, slack):
    total = decompose_state_dict(state, offload_to_cpu=False).tensor_bytes
    packet_size = total + slack
    expected_payload, expected_length, expected_blob = reference_checkpoint(
        state, packet_size
    )

    wc = build_worker_checkpoint(3, state, packet_size)
    assert wc.worker == 3 and wc.packet.worker == 3
    assert wc.packet.original_length == expected_length
    assert wc.packet.payload.dtype == np.uint8
    assert np.array_equal(wc.packet.payload, expected_payload)
    assert wc.metadata_blob == expected_blob

    for device in (CPU, GPU):
        restored = restore_state_dict(
            wc.metadata_blob, wc.packet.payload[:expected_length], device=device
        )
        reference = reference_restore(expected_blob, expected_payload)
        assert state_dicts_equal(state, restored)
        assert state_dicts_equal(reference, restored)
        assert key_order(restored) == key_order(reference)
        leaves = [v for _, v in _tensor_leaves(restored)]
        assert all(t.device == device for t in leaves)

    if total:
        with pytest.raises(CheckpointError):
            build_worker_checkpoint(3, state, total - 1)


def test_every_dtype_repeated_pickles_like_the_reference():
    # numpy renders most dtype names afresh but returns one shared object
    # for some (``bool``); the blob must mirror pickle's memo either way.
    state = {
        f"{dtype}-{copy}": SimTensor(np.zeros(2, dtype=dtype))
        for dtype in DTYPES
        for copy in range(3)
    }
    total = decompose_state_dict(state, offload_to_cpu=False).tensor_bytes
    _, _, expected_blob = reference_checkpoint(state, total)
    assert build_worker_checkpoint(0, state, total).metadata_blob == expected_blob


def _tensor_leaves(node, path=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _tensor_leaves(value, path + (key,))
        elif isinstance(value, SimTensor):
            yield path + (key,), value


def test_restored_tensors_share_one_fresh_buffer():
    state = {
        "a": SimTensor(np.arange(6, dtype=np.float32)),
        "b": {"c": SimTensor(np.arange(4, dtype=np.int16))},
        "step": 3,
    }
    wc = build_worker_checkpoint(0, state, 64)
    payload = wc.packet.payload
    restored = restore_state_dict(wc.metadata_blob, payload)
    for _, tensor in _tensor_leaves(restored):
        assert not np.shares_memory(tensor.data, payload)
        assert tensor.data.flags.writeable
    # Writing into the restored state leaves the packet untouched.
    before = payload.copy()
    restored["a"].byte_view()[:] ^= 0xFF
    assert np.array_equal(payload, before)


def test_strided_tensor_packs_like_its_contiguous_copy():
    # SimTensor makes its storage contiguous on construction; a tensor
    # whose storage is swapped for a strided view afterwards still packs.
    base = np.arange(24, dtype=np.float32)
    tensor = SimTensor(base.copy())
    tensor.data = base[::2]
    wc = build_worker_checkpoint(0, {"t": tensor}, 64)
    assert np.array_equal(
        wc.packet.payload[: wc.packet.original_length],
        base[::2].copy().view(np.uint8),
    )
