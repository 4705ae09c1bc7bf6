"""Bit-exact .mns container: header, leaf serialization, level-id accounting.

Layout: 13-byte header (magic "MNS1", flag byte, four big-endian u16 dims),
then the leaves in DFS order packed MSB-first. Per leaf: a 2-bit level id
(level - 1), a phase bit at levels 1..3 in mns mode only, then the payload.
With technique 2 set, the 2nd..4th members of each level-4 sibling quartet
drop their level ids; the quartet is implied by the first member.
"""

from __future__ import annotations

import struct

from .encoder import (
    DELTA_MAGNITUDE_BITS,
    MAX_SIDE,
    ROOT_SIZE,
    BaselinePayload,
    LeafRecord,
    Phase1Payload,
    Phase2Payload,
    QuadtreeCode,
    delta_limit,
)
from .image import BlockRect

MAGIC = b"MNS1"
HEADER_BYTES = 13
FLAG_MNS = 0x01
FLAG_TECHNIQUE2 = 0x02


class StreamFormatError(ValueError):
    """Byte stream that does not parse as a valid .mns container."""


class BitWriter:
    """MSB-first bit packer. bit_count tracks exact bits before padding."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bit_count = 0

    def write(self, value: int, nbits: int) -> None:
        if not 0 <= value < (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        self.bit_count += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        """Packed bytes; the final partial byte is zero-padded."""
        if self._nbits:
            return bytes(self._bytes) + bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return bytes(self._bytes)


class BitReader:
    """MSB-first bit unpacker; reading past the end raises StreamFormatError."""

    def __init__(self, data: bytes, offset_bytes: int = 0) -> None:
        self._data = data
        self._pos = offset_bytes * 8
        self._end = len(data) * 8

    def read(self, nbits: int) -> int:
        if self._pos + nbits > self._end:
            raise StreamFormatError("truncated stream")
        value = 0
        pos = self._pos
        data = self._data
        for _ in range(nbits):
            value = (value << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        self._pos = pos
        return value

    def bits_left(self) -> int:
        return self._end - self._pos


def payload_bit_width(level: int, phase2: bool) -> int:
    """Payload bits only: 8+3 for phase 1, mean + three signed deltas + four
    selection bits for phase 2."""
    if phase2:
        return 8 + 3 * (1 + DELTA_MAGNITUDE_BITS[level]) + 4
    return 11


def leaf_bit_width(level: int, phase2: bool, mode: str, id_elided: bool = False) -> int:
    """Total serialized width of one leaf under the fixed width table."""
    bits = 0 if id_elided else 2
    if mode == "mns" and level <= 3:
        bits += 1
    return bits + payload_bit_width(level, phase2)


def _is_phase2(leaf: LeafRecord) -> bool:
    return isinstance(leaf.payload, Phase2Payload)


def _validate_leaf(leaf: LeafRecord, mode: str) -> None:
    payload = leaf.payload
    if isinstance(payload, BaselinePayload):
        raise ValueError("search-baseline records have no stream encoding")
    if leaf.level not in (1, 2, 3, 4):
        raise ValueError(f"bad leaf level {leaf.level}")
    if not 0 <= payload.o_byte <= 255:
        raise ValueError(f"luminance byte {payload.o_byte} out of range")
    if isinstance(payload, Phase1Payload):
        if not 0 <= payload.s_code <= 7:
            raise ValueError(f"contrast code {payload.s_code} out of range")
        return
    if mode != "mns":
        raise ValueError("phase-2 record in a no_search code")
    if leaf.level == 4:
        raise ValueError("phase-2 record at level 4")
    limit = delta_limit(leaf.level)
    if len(payload.deltas) != 3 or any(abs(d) > limit for d in payload.deltas):
        raise ValueError(f"delta exceeds level-{leaf.level} width: {payload.deltas}")
    if len(payload.s_bits) != 4 or any(b not in (0, 1) for b in payload.s_bits):
        raise ValueError(f"bad contrast selection bits {payload.s_bits}")


def _serialize(code: QuadtreeCode) -> BitWriter:
    if code.mode not in ("no_search", "mns"):
        raise ValueError(f"only no_search/mns codes serialize, not {code.mode!r}")
    if code.padded_w % ROOT_SIZE or code.padded_h % ROOT_SIZE:
        raise ValueError("padded dimensions must be multiples of 16")
    if not (0 < code.orig_w <= code.padded_w and 0 < code.orig_h <= code.padded_h):
        raise ValueError("original dimensions must fit inside the padded raster")
    if code.padded_w > MAX_SIDE or code.padded_h > MAX_SIDE:
        raise ValueError("dimensions exceed the 16-bit header fields")

    writer = BitWriter()
    for byte in MAGIC:
        writer.write(byte, 8)
    flags = (FLAG_MNS if code.mode == "mns" else 0) | (FLAG_TECHNIQUE2 if code.technique2 else 0)
    writer.write(flags, 8)
    for value in (code.orig_w, code.orig_h, code.padded_w, code.padded_h):
        writer.write(value, 16)

    leaves = code.leaves
    pos = 0

    def write_leaf(rect: BlockRect, level: int, write_id: bool) -> None:
        nonlocal pos
        leaf = leaves[pos]
        pos += 1
        if leaf.level != level or leaf.rect != rect:
            raise ValueError(f"leaf {pos - 1} ({leaf.level}, {leaf.rect}) does not tile at level {level}, {rect}")
        _validate_leaf(leaf, code.mode)
        if write_id:
            writer.write(level - 1, 2)
        phase2 = _is_phase2(leaf)
        if code.mode == "mns" and level <= 3:
            writer.write(1 if phase2 else 0, 1)
        payload = leaf.payload
        writer.write(payload.o_byte, 8)
        if phase2:
            nbits = DELTA_MAGNITUDE_BITS[level]
            for d in payload.deltas:
                writer.write(1 if d < 0 else 0, 1)  # magnitude 0 forces sign 0
                writer.write(abs(d), nbits)
            for b in payload.s_bits:
                writer.write(b, 1)
        else:
            writer.write(payload.s_code, 3)

    def emit(rect: BlockRect, level: int) -> None:
        if pos >= len(leaves):
            raise ValueError("leaf list under-fills the padded raster")
        next_level = leaves[pos].level
        if next_level == level:
            write_leaf(rect, level, write_id=True)
            return
        if next_level < level or level >= 4:
            raise ValueError(f"leaf level {next_level} cannot tile a level-{level} node")
        quads = rect.quadrants()
        if level == 3:  # a split level-3 node always yields a level-4 quartet
            write_leaf(quads[0], 4, write_id=True)
            for quad in quads[1:]:
                if pos >= len(leaves):
                    raise ValueError("leaf list under-fills the padded raster")
                write_leaf(quad, 4, write_id=not code.technique2)
            return
        for quad in quads:
            emit(quad, level + 1)

    for y in range(0, code.padded_h, ROOT_SIZE):
        for x in range(0, code.padded_w, ROOT_SIZE):
            emit(BlockRect(x, y, ROOT_SIZE), 1)
    if pos != len(leaves):
        raise ValueError("excess leaf records beyond the padded raster")
    return writer


def write_stream(code: QuadtreeCode) -> bytes:
    """Serialize a no_search/mns code into .mns container bytes."""
    return _serialize(code).getvalue()


def read_stream(data: bytes) -> QuadtreeCode:
    """Exact inverse of write_stream; rect geometry is rebuilt from the DFS walk."""
    if len(data) < HEADER_BYTES:
        raise StreamFormatError("truncated header")
    if data[:4] != MAGIC:
        raise StreamFormatError(f"bad magic {bytes(data[:4])!r}")
    flags = data[4]
    if flags & ~(FLAG_MNS | FLAG_TECHNIQUE2):
        raise StreamFormatError(f"unknown flag bits 0x{flags:02x}")
    mode = "mns" if flags & FLAG_MNS else "no_search"
    technique2 = bool(flags & FLAG_TECHNIQUE2)
    orig_w, orig_h, padded_w, padded_h = struct.unpack(">4H", data[5:HEADER_BYTES])
    if min(orig_w, orig_h) < 1:
        raise StreamFormatError("zero image dimension in header")
    if padded_w % ROOT_SIZE or padded_h % ROOT_SIZE or padded_w < orig_w or padded_h < orig_h:
        raise StreamFormatError("padded dimensions inconsistent with original dimensions")

    reader = BitReader(data, HEADER_BYTES)
    leaves: list[LeafRecord] = []

    def read_leaf(rect: BlockRect, level: int) -> None:
        phase2 = False
        if mode == "mns" and level <= 3:
            phase2 = bool(reader.read(1))
        o_byte = reader.read(8)
        if phase2:
            nbits = DELTA_MAGNITUDE_BITS[level]
            deltas = []
            for _ in range(3):
                sign = reader.read(1)
                mag = reader.read(nbits)
                if sign and mag == 0:
                    raise StreamFormatError("non-canonical negative-zero delta")
                deltas.append(-mag if sign else mag)
            s_bits = (reader.read(1), reader.read(1), reader.read(1), reader.read(1))
            payload = Phase2Payload(o_byte, (deltas[0], deltas[1], deltas[2]), s_bits)
        else:
            payload = Phase1Payload(o_byte, reader.read(3))
        leaves.append(LeafRecord(rect, level, payload))

    def parse(rect: BlockRect, level: int, pending: int | None) -> None:
        # pending: a level id already read whose leaf lies inside this subtree
        if pending is None:
            pending = reader.read(2)
        depth = pending + 1
        if depth < level:
            raise StreamFormatError(f"level-{depth} leaf cannot appear inside a level-{level} node")
        if depth == level:
            read_leaf(rect, level)
            return
        quads = rect.quadrants()
        if level == 3:  # depth 4: a full level-4 quartet follows
            read_leaf(quads[0], 4)
            for quad in quads[1:]:
                if not technique2:
                    sibling = reader.read(2)
                    if sibling != 3:
                        raise StreamFormatError(f"level-4 quartet interrupted by level-{sibling + 1} id")
                read_leaf(quad, 4)
            return
        parse(quads[0], level + 1, pending)
        for quad in quads[1:]:
            parse(quad, level + 1, None)

    for y in range(0, padded_h, ROOT_SIZE):
        for x in range(0, padded_w, ROOT_SIZE):
            parse(BlockRect(x, y, ROOT_SIZE), 1, None)
    if reader.bits_left() >= 8:
        raise StreamFormatError(f"{reader.bits_left()} trailing bits after the final leaf")
    if reader.bits_left() and reader.read(reader.bits_left()) != 0:
        raise StreamFormatError("nonzero padding bits")
    return QuadtreeCode(tuple(leaves), padded_w, padded_h, orig_w, orig_h, mode, technique2)


def stream_bit_count(code: QuadtreeCode) -> int:
    """Exact serialized size in bits, header included, before byte padding.

    Agrees bit-for-bit with write_stream by construction of the width table.
    """
    bits = HEADER_BYTES * 8
    run4 = 0
    for leaf in code.leaves:
        elided = False
        if leaf.level == 4:
            if run4:
                run4 -= 1
                elided = code.technique2
            else:
                run4 = 3
        else:
            run4 = 0
        bits += leaf_bit_width(leaf.level, _is_phase2(leaf), code.mode, elided)
    return bits


def level_id_bit_count(code: QuadtreeCode, technique2: bool) -> int:
    """Bits spent on 2-bit level ids, with or without quartet sharing.

    With technique 2, each level-4 quartet pays for a single id.
    """
    count4 = sum(1 for leaf in code.leaves if leaf.level == 4)
    others = len(code.leaves) - count4
    if not technique2:
        return 2 * (others + count4)
    if count4 % 4:
        raise ValueError("level-4 leaves must form complete quartets")
    return 2 * (others + count4 // 4)
