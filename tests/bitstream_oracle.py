"""The scalar .mns stream walk, kept as the reference for the columnar writer and reader.

BitWriter and BitReader pack and unpack one field at a time, MSB first.
`serialize` walks the quadtree depth first and writes each leaf's fields as
it checks the leaf against the node it must fill; `read_stream` parses the
stream by the same recursion. mnscodec.bitstream must produce the same
bytes, the same codes and, on any byte string, reject what this rejects.
"""

from __future__ import annotations

import struct

from mnscodec.bitstream import FLAG_MNS, FLAG_TECHNIQUE2, HEADER_BYTES, MAGIC, NO_IMPLIED_MEAN, NO_LEVEL1, StreamFormatError
from mnscodec.encoder import DELTA_MAGNITUDE_BITS, MAX_SIDE, ROOT_SIZE, QuadtreeCode, delta_limit
from mnscodec.image import BlockRect

from records import BaselinePayload, LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import quadrants


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
        pos, end = self._pos, self._pos + nbits
        if end > self._end:
            raise StreamFormatError("truncated stream")
        self._pos = end
        return (int.from_bytes(self._data[pos >> 3 : (end + 7) >> 3], "big") >> (-end & 7)) & ((1 << nbits) - 1)

    def bits_left(self) -> int:
        return self._end - self._pos


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
    if not 0 <= payload.o_byte - sum(payload.deltas) <= 255:
        raise ValueError(NO_IMPLIED_MEAN)


def serialize(code: QuadtreeCode) -> BitWriter:
    """The leaf-by-leaf writer: a recursive DFS walk that checks each leaf against the node it fills."""
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

    leaves = records(code.leaves)
    pos = 0
    no_level1 = min(code.padded_w, code.padded_h) < 2 * ROOT_SIZE

    def write_leaf(rect: BlockRect, level: int, write_id: bool) -> None:
        nonlocal pos
        leaf = leaves[pos]
        pos += 1
        if leaf.level != level or leaf.rect != rect:
            raise ValueError(f"leaf {pos - 1} ({leaf.level}, {leaf.rect}) does not tile at level {level}, {rect}")
        _validate_leaf(leaf, code.mode)
        if level == 1 and no_level1:
            raise ValueError(NO_LEVEL1)
        if write_id:
            writer.write(level - 1, 2)
        phase2 = isinstance(leaf.payload, Phase2Payload)
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
        quads = quadrants(rect)
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
    return serialize(code).getvalue()


def read_stream(data: bytes) -> QuadtreeCode:
    """The recursive reader: one BitReader.read per field, rect geometry rebuilt from the DFS walk."""
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
    no_level1 = min(padded_w, padded_h) < 2 * ROOT_SIZE

    def read_leaf(rect: BlockRect, level: int) -> None:
        if level == 1 and no_level1:
            raise StreamFormatError(NO_LEVEL1)
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
            if not 0 <= o_byte - sum(deltas) <= 255:
                raise StreamFormatError(NO_IMPLIED_MEAN)
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
        quads = quadrants(rect)
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
    return QuadtreeCode(table_of(leaves), padded_w, padded_h, orig_w, orig_h, mode, technique2)
