"""Byte-oriented run-length encoding.

Commit deltas are the XOR of two consecutive bitmap snapshots of a branch and
are therefore dominated by zero bytes; the paper compresses them "using a
combination of delta and run length encoding (RLE)" (Section 3.2).  This
module provides the RLE half: a simple, self-describing byte codec with two
token kinds::

    0x00 <varint n> <byte b>      -- a run of n copies of byte b
    0x01 <varint n> <n bytes>     -- n literal bytes

Runs shorter than :data:`MIN_RUN` are folded into literal tokens so the
encoded form never grows by more than a few percent on incompressible input.

The encoder makes every maximal run of at least :data:`MIN_RUN` equal bytes
one run token and the bytes between two runs one literal token.  It finds
the runs with one compiled regular expression, scanned left to right over
the whole input, rather than a byte-at-a-time loop.  Those are the tokens
the byte loop that defined the format produced, so encoded deltas are
unchanged byte for byte.
"""

from __future__ import annotations

import re

from repro.errors import StorageError

#: Minimum run length worth encoding as a run token.
MIN_RUN = 4

_TOKEN_RUN = 0x00
_TOKEN_LITERAL = 0x01

#: A maximal run of any byte worth a run token.
_RUNS = re.compile(rb"(.)\1{%d,}" % (MIN_RUN - 1), re.DOTALL)


def _write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise StorageError("varint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StorageError("truncated varint in RLE stream")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _write_literal(data: bytes, out: bytearray) -> None:
    out.append(_TOKEN_LITERAL)
    _write_varint(len(data), out)
    out += data


def rle_encode(data: bytes) -> bytes:
    """Compress ``data`` with run-length encoding."""
    out = bytearray()
    position = 0
    for run in _RUNS.finditer(data):
        start, end = run.span()
        if start > position:
            _write_literal(data[position:start], out)
        out.append(_TOKEN_RUN)
        _write_varint(end - start, out)
        out.append(data[start])
        position = end
    if position < len(data):
        _write_literal(data[position:], out)
    return bytes(out)


def rle_decode(data: bytes) -> bytes:
    """Decompress a buffer produced by :func:`rle_encode`."""
    out = bytearray()
    offset = 0
    n = len(data)
    while offset < n:
        token = data[offset]
        offset += 1
        if token == _TOKEN_RUN:
            length, offset = _read_varint(data, offset)
            if offset >= n + 1 and length:
                raise StorageError("truncated run token in RLE stream")
            if offset >= n:
                raise StorageError("truncated run token in RLE stream")
            byte = data[offset]
            out += bytes(length) if byte == 0 else bytes((byte,)) * length
            offset += 1
        elif token == _TOKEN_LITERAL:
            length, offset = _read_varint(data, offset)
            if offset + length > n:
                raise StorageError("truncated literal token in RLE stream")
            out.extend(data[offset : offset + length])
            offset += length
        else:
            raise StorageError(f"unknown RLE token: {token}")
    return bytes(out)


def compression_ratio(data: bytes) -> float:
    """Encoded size divided by original size (1.0 means no compression)."""
    if not data:
        return 1.0
    return len(rle_encode(data)) / len(data)
