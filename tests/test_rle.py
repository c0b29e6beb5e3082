"""Tests for the run-length codec used by commit histories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.rle import (
    MIN_RUN,
    _write_varint,
    compression_ratio,
    rle_decode,
    rle_encode,
)
from repro.errors import StorageError


def reference_encode(data: bytes) -> bytes:
    """The byte-at-a-time encoder the codec's format was defined by: each
    maximal run of at least ``MIN_RUN`` equal bytes is a run token, and the
    bytes between runs are one literal token."""
    out = bytearray()
    literal = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        run = 1
        while i + run < n and data[i + run] == byte:
            run += 1
        if run >= MIN_RUN:
            if literal:
                out.append(0x01)
                _write_varint(len(literal), out)
                out.extend(literal)
                literal.clear()
            out.append(0x00)
            _write_varint(run, out)
            out.append(byte)
        else:
            literal.extend(data[i : i + run])
        i += run
    if literal:
        out.append(0x01)
        _write_varint(len(literal), out)
        out.extend(literal)
    return bytes(out)


#: Runs of zero and non-zero bytes, each one, ``MIN_RUN - 1``, exactly
#: ``MIN_RUN`` or longer, side by side.
runs = st.lists(
    st.tuples(
        st.sampled_from([0x00, 0x00, 0x01, 0x80, 0xFF]),
        st.sampled_from([1, 2, MIN_RUN - 1, MIN_RUN, MIN_RUN + 1, 130, 300]),
    ),
    max_size=12,
)


class TestReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(runs)
    def test_runs_encode_as_the_reference_does(self, pieces):
        data = b"".join(bytes((byte,)) * length for byte, length in pieces)
        encoded = rle_encode(data)
        assert encoded == reference_encode(data)
        assert rle_decode(encoded) == data

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=600))
    def test_any_bytes_encode_as_the_reference_does(self, data):
        encoded = rle_encode(data)
        assert encoded == reference_encode(data)
        assert rle_decode(encoded) == data

    @pytest.mark.parametrize("byte", [0x00, 0x07])
    @pytest.mark.parametrize("length", [MIN_RUN - 1, MIN_RUN])
    def test_runs_at_the_threshold(self, byte, length):
        run = bytes((byte,)) * length
        encoded = rle_encode(b"ab" + run + b"cd")
        assert encoded == reference_encode(b"ab" + run + b"cd")
        if length < MIN_RUN:
            assert encoded == bytes((0x01, 4 + length)) + b"ab" + run + b"cd"
        else:
            run_token = bytes((0x00, length, byte))
            assert encoded == b"\x01\x02ab" + run_token + b"\x01\x02cd"

    def test_empty_input(self):
        assert rle_encode(b"") == reference_encode(b"") == b""
        assert rle_decode(b"") == b""

    def test_golden_delta(self):
        """One commit delta's encoding, pinned: stored deltas and their
        sizes never change with the encoder's implementation."""
        bits = Bitmap.from_indices(
            list(range(40)) + [100, 131, 300, 301, 302, 303] + list(range(512, 600))
        )
        assert rle_encode(bits.to_bytes()).hex() == (
            "0005ff000700010510000000080014000101f0001a00000bff"
        )


class TestRLERoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abc",
            b"\x00" * 100,
            b"\xff" * 1000,
            b"ab" * 50,
            b"\x00" * 10 + b"xyz" + b"\x00" * 20,
            bytes(range(256)),
            b"aaa",  # run shorter than MIN_RUN stays literal
            b"aaaa",  # exactly MIN_RUN
        ],
    )
    def test_roundtrip(self, data):
        assert rle_decode(rle_encode(data)) == data

    def test_zero_runs_compress_well(self):
        data = b"\x00" * 10_000
        assert len(rle_encode(data)) < 20

    def test_sparse_bitmap_compresses(self):
        data = bytearray(4096)
        data[17] = 0xFF
        data[900] = 0x01
        encoded = rle_encode(bytes(data))
        assert len(encoded) < 64
        assert rle_decode(encoded) == bytes(data)

    def test_incompressible_overhead_is_bounded(self):
        data = bytes((i * 37 + 11) % 251 for i in range(4096))
        assert len(rle_encode(data)) <= len(data) * 1.05

    def test_compression_ratio_helper(self):
        assert compression_ratio(b"") == 1.0
        assert compression_ratio(b"\x00" * 1000) < 0.05
        assert compression_ratio(bytes(range(200))) >= 0.9


class TestRLEErrors:
    def test_unknown_token_rejected(self):
        with pytest.raises(StorageError):
            rle_decode(b"\x07\x01a")

    def test_truncated_literal_rejected(self):
        encoded = rle_encode(b"hello world this is long enough")
        with pytest.raises(StorageError):
            rle_decode(encoded[:-3])

    def test_truncated_run_rejected(self):
        encoded = rle_encode(b"\x00" * 100)
        with pytest.raises(StorageError):
            rle_decode(encoded[:-1])
