"""The 16-bit product-table kernel against the field path it replaces.

``mul_region16`` is the constant x region multiply of the per-worker encode
step (``protocol.encode_packet``).  Its contract is byte-for-byte equality
with ``GF.mul_region`` — the oracle — for every word size, coefficient,
length and input layout, with a fresh output buffer every time, on top of
a bounded cache of read-only tables.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol import encode_packet, xor_reduce
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.kernels import (
    PRODUCT_TABLE_CACHE,
    TAKE_CHUNK_WORDS,
    mul_region16,
    product_table16,
)
from repro.errors import FieldError
from repro.gf.field import GF

ALL_W = [1, 2, 4, 8, 16]

# Every uint16 word as bytes, plus one trailing byte: a single call checks
# every table entry and the odd-byte tail.
_EVERY_WORD_AND_TAIL = np.concatenate(
    [np.arange(1 << 16, dtype=np.uint16).view(np.uint8), np.array([0xA7], np.uint8)]
)


def _check_matches_field(field: GF, c: int, buf: np.ndarray) -> None:
    out = mul_region16(field, c, buf)
    expected = field.mul_region(c, buf)
    assert out.dtype == np.uint8
    assert out.shape == buf.shape
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, buf)
    if c > 1:
        assert not np.shares_memory(out, product_table16(field.w, c))


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_every_coefficient_every_word_matches_field(w):
    field = GF(w)
    for c in range(field.size):
        _check_matches_field(field, c, _EVERY_WORD_AND_TAIL)


def test_sampled_w16_coefficients_every_word_match_field():
    field = GF(16)
    rng = np.random.default_rng(16)
    words = _EVERY_WORD_AND_TAIL[:-1]
    for c in [0, 1, 2, 3, field.order, *rng.integers(4, field.order, 12).tolist()]:
        _check_matches_field(field, c, words)


@pytest.mark.parametrize("w", ALL_W)
# The last length spans several take chunks and ends in a partial one.
@pytest.mark.parametrize("n", [0, 1, 7, 8, 4097, 6 * TAKE_CHUNK_WORDS + 11])
def test_lengths_match_field(w, n):
    field = GF(w)
    n -= n % 2 if w == 16 else 0  # odd lengths only where w <= 8
    buf = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    for c in sorted({0, 1, min(2, field.order), field.order}):
        _check_matches_field(field, c, buf)


def test_odd_length_at_w16_is_refused_like_the_field():
    field = GF(16)
    buf = np.arange(9, dtype=np.uint8)
    with pytest.raises(FieldError):
        field.mul_region(5, buf)
    with pytest.raises(FieldError):
        mul_region16(field, 5, buf)


def test_out_of_range_coefficient_is_refused():
    with pytest.raises(FieldError):
        mul_region16(GF(4), 16, np.zeros(4, np.uint8))


@given(
    w=st.sampled_from(ALL_W),
    data=st.data(),
    n=st.integers(0, 600),
    layout=st.sampled_from(["flat", "strided", "2d", "2d-transposed", "offset"]),
)
def test_any_coefficient_and_layout_matches_field(w, data, n, layout):
    field = GF(w)
    c = data.draw(st.integers(0, field.order), label="c")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n -= n % 4  # 2-D layouts below need an even row count and length
    base = np.random.default_rng(seed).integers(0, 256, 2 * n + 1, dtype=np.uint8)
    if layout == "flat":
        buf = base[:n]
    elif layout == "strided":
        buf = base[: 2 * n : 2]
    elif layout == "2d":
        buf = base[:n].reshape(2, n // 2)
    elif layout == "2d-transposed":
        buf = base[:n].reshape(2, n // 2).T
    else:  # an odd start address: the uint16 view is unaligned
        buf = base[1 : n + 1]
    _check_matches_field(field, c, buf)


@given(
    w=st.sampled_from(ALL_W),
    good=st.booleans(),
    data=st.data(),
)
def test_worker_encode_plus_xor_reduce_equals_code_encode(w, good, data):
    """Eqn. 6: p_i = XOR_j B(E'[i][j]) d_j, at any (k, m, w).

    ``good_matrix`` codes carry coefficient-1 rows, which take the copy path.
    """
    limit = min(1 << w, 8)  # Cauchy construction needs k + m <= 2^w
    k = data.draw(st.integers(1, max(1, limit - 1)), label="k")
    m = data.draw(st.integers(1, max(1, min(4, limit - k))), label="m")
    size = 2 * data.draw(st.integers(1, 200), label="half_size")
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w), good_matrix=good)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    top = 256 if w >= 8 else 1 << w
    packets = [rng.integers(0, top, size, dtype=np.uint8) for _ in range(k)]
    encoded = [encode_packet(code, j, packets[j]) for j in range(k)]
    direct = code.encode(packets)
    for i in range(m):
        reduced = xor_reduce([encoded[j][i] for j in range(k)])
        assert reduced.tobytes() == direct[i].tobytes()


def test_tables_are_read_only():
    table = product_table16(8, 7)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    assert table.nbytes == 2 * (1 << 16)


def test_cycling_past_the_cap_evicts_without_wrong_output():
    product_table16.cache_clear()
    field = GF(8)
    buf = _EVERY_WORD_AND_TAIL
    coeffs = list(range(2, 2 + PRODUCT_TABLE_CACHE + 20))
    for _ in range(2):
        for c in coeffs:
            assert mul_region16(field, c, buf).tobytes() == field.mul_region(c, buf).tobytes()
        info = product_table16.cache_info()
        assert info.currsize == PRODUCT_TABLE_CACHE
    assert product_table16.cache_info().misses == 2 * len(coeffs)


def test_cap_holds_every_coefficient_of_a_12_4_code():
    product_table16.cache_clear()
    code = CauchyRSCode(CodeParams(k=12, m=4, w=8))
    payload = np.arange(256, dtype=np.uint8)
    for _ in range(2):
        for j in range(12):
            encode_packet(code, j, payload)
    info = product_table16.cache_info()
    assert info.currsize <= PRODUCT_TABLE_CACHE
    assert info.misses == len({int(c) for c in code.parity_matrix.ravel() if c > 1})


def test_fleet_shapes_stay_within_the_cap():
    product_table16.cache_clear()
    payload = np.arange(512, dtype=np.uint8)
    for k, m in [(2, 2), (1, 3)]:
        for w in (8, 16):
            code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
            for j in range(k):
                encode_packet(code, j, payload)
    assert product_table16.cache_info().currsize <= PRODUCT_TABLE_CACHE
