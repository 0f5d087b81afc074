"""Property tests of the format-v1 checkpoint loader on damaged and crafted bytes.

Every file the loader cannot read must end in a `CheckpointError`, never in
another exception: truncations of the golden file (one layer of each kind),
bit flips whose checksum is re-sealed so the parser sees them, and layer
headers with arbitrary sizes, ranks, kind ids and coefficient counts. A file
that does load must save back to the same bytes.
"""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klora.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from test_persistence import GOLDEN_V1_LIVE, layer_spans, seal, write_crafted

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
PAYLOAD = GOLDEN_V1_LIVE[:-8]
# the byte offsets of the file header and of each layer header
HEADER_BYTES = [*range(10), *(byte for start, _, _ in layer_spans(PAYLOAD)
                              for byte in range(start, start + 18))]
HEADER_BITS = [8 * byte + bit for byte in HEADER_BYTES for bit in range(8)]


def load_or_reject(blob: bytes, directory) -> bool:
    """True when blob loads (and saves back to itself), False on a CheckpointError."""
    path = directory / "fuzz.bin"
    path.write_bytes(blob)
    try:
        records = load_checkpoint(path)
    except CheckpointError:
        return False
    layers = [SimpleNamespace(
        pair=SimpleNamespace(m=rec.m, n=rec.n, r=rec.r, A=SimpleNamespace(data=rec.a),
                             B=SimpleNamespace(data=rec.b)),
        spec=SimpleNamespace(kind=rec.kind, coefficient_values=lambda rec=rec: rec.coefficients),
    ) for rec in records]
    again = directory / "again.bin"
    save_checkpoint(layers, again)
    assert again.read_bytes() == blob
    return True


@FUZZ
@given(cut=st.integers(0, len(GOLDEN_V1_LIVE) - 1))
def test_every_truncation_is_rejected(tmp_path, cut):
    assert not load_or_reject(GOLDEN_V1_LIVE[:cut], tmp_path)


def flipped(bits) -> bytes:
    payload = bytearray(PAYLOAD)
    for bit in bits:
        payload[bit // 8] ^= 1 << (bit % 8)
    return seal(bytes(payload))


@FUZZ
@given(bits=st.lists(st.integers(0, 8 * len(PAYLOAD) - 1), min_size=1, max_size=4))
def test_resealed_bit_flips_load_or_are_rejected(tmp_path, bits):
    load_or_reject(flipped(bits), tmp_path)


@FUZZ
@given(bits=st.lists(st.sampled_from(HEADER_BITS), min_size=1, max_size=3))
def test_resealed_header_bit_flips_load_or_are_rejected(tmp_path, bits):
    load_or_reject(flipped(bits), tmp_path)


U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 2**16, 2**31 - 1, 2**31, 2**32 - 1]),
                st.integers(0, 2**32 - 1))
HEADERS = st.tuples(U32, U32, U32, st.one_of(st.integers(0, 7), st.integers(0, 2**16 - 1)),
                    st.one_of(st.integers(0, 6), U32), st.integers(0, 24))


@FUZZ
@given(layers=st.lists(HEADERS, max_size=3), count=st.one_of(st.none(), U32))
def test_crafted_layer_headers_load_or_are_rejected(tmp_path, layers, count):
    """Each layer is (m, n, r, kind id, stated coefficient count, floats actually present)."""
    parts = [b"SNLA", struct.pack("<HI", 1, len(layers) if count is None else count)]
    for m, n, r, kind_id, n_coeff, floats in layers:
        parts.append(struct.pack("<IIIHI", m, n, r, kind_id, n_coeff))
        parts.append(struct.pack(f"<{floats}d", *(0.25 * k for k in range(floats))))
    load_or_reject(seal(b"".join(parts)), tmp_path)


@pytest.mark.parametrize("m, n", [(2, 2), (0, 3), (3, 0)])
def test_rank_zero_layer_is_rejected(tmp_path, m, n):
    write_crafted(tmp_path / "rank0.bin", [(m, n, 0, 0, [], [])])
    with pytest.raises(CheckpointError, match="rank 0"):
        load_checkpoint(tmp_path / "rank0.bin")


def test_golden_file_loads_and_saves_back(tmp_path):
    # the property tests damage a file that loads
    assert load_or_reject(GOLDEN_V1_LIVE, tmp_path)
