"""Bit-exact .mns container: header, leaf serialization, level-id accounting.

Layout: 13-byte header (magic "MNS1", flag byte, four big-endian u16 dims),
then the leaves in DFS order packed MSB-first. Per leaf: a 2-bit level id
(level - 1), a phase bit at levels 1..3 in mns mode only, then the payload.
With technique 2 set, the 2nd..4th members of each level-4 sibling quartet
drop their level ids; the quartet is implied by the first member. A raster
with a 16-pixel side has no level-1 leaves, since no 32x32 domain fits it.

Writer and reader work on a code's LeafTable columns and take every shared
rule from code. A leaf's Morton start counts 2x2-pixel cells in DFS order
(code.level_cells). The writer takes the starts from code.check_code, the
one rule for a valid code, and adds the stream's own six: a quadtree mode,
sides that are multiples of 16 up to MAX_SIDE, starts that increase (DFS
order), no search leaf and no phase 2 in a no_search code. The reader's
starts are the total area of the leaves before each, code.morton_origin
turns them into (x, y) and code.leaf_rows into rows. The quartet siblings
are the level-4 leaves whose start is not a multiple of 4.
"""

from __future__ import annotations

import dataclasses
import functools
import struct

import numpy as np

from .code import LEVEL_SIZES, MAGNITUDE_BITS, MAX_PIXELS, MAX_SIDE, MODES, NO_IMPLIED_MEAN, PHASE2, ROOT_CELLS
from .code import ROOT_SIZE, SEARCH, TOO_MANY_PIXELS, LeafTable, QuadtreeCode, check_code, leaf_rows, level_cells
from .code import morton_origin, phase2_targets, reject

MAGIC = b"MNS1"
HEADER_BYTES = 13
HEADER_BITS = 8 * HEADER_BYTES
FLAG_MNS = 0x01
FLAG_TECHNIQUE2 = 0x02
FIELDS = 8  # per leaf: level id, phase bit, o byte, s code, three sign-and-magnitude deltas, the four s bits
NO_LEVEL1 = "level-1 leaf in a raster with a 16-pixel side, where no 32x32 domain fits"


class StreamFormatError(ValueError):
    """Byte stream that does not parse as a valid .mns container."""


def _field_widths(level, phase2, mns: bool, id_elided=False) -> np.ndarray:
    """The (..., FIELDS) bit widths, in stream order, of leaves at `level` with the given phase,
    any of them arrays of one shape; a field a leaf lacks is 0 wide."""
    level, phase2 = np.asarray(level), np.asarray(phase2)
    widths = np.zeros((*level.shape, FIELDS), dtype=np.uint8)
    widths[..., 0], widths[..., 1], widths[..., 2] = np.where(id_elided, 0, 2), mns & (level <= 3), 8
    widths[..., 3], widths[..., 7] = np.where(phase2, 0, 3), 4 * phase2
    widths[..., 4:7] = (phase2 * (1 + MAGNITUDE_BITS[level]))[..., None]
    return widths


def _leaf_fields(code: QuadtreeCode) -> tuple[np.ndarray, np.ndarray]:
    """Check that `code` is valid and serializes; then its leaves' (n, FIELDS) field values and bit widths."""
    if code.mode not in MODES:
        raise ValueError(f"only no_search/mns codes serialize, not {code.mode!r}")
    (_, start), t, mns = check_code(code), code.leaves, code.mode == "mns"
    if code.padded_w % ROOT_SIZE or code.padded_h % ROOT_SIZE:
        raise ValueError("padded dimensions must be multiples of 16")
    if code.padded_w > MAX_SIDE or code.padded_h > MAX_SIDE:
        raise ValueError("dimensions exceed the 16-bit header fields")
    level, p2, o, s_code, d, bits = t.level, t.kind == PHASE2, t.o_byte, t.s_code, t.deltas, t.s_bits
    reject(t, ((np.diff(start, prepend=-1) <= 0, "out of DFS order"),
               (t.kind == SEARCH, "search-baseline records have no stream encoding"),
               (p2 & (not mns), "phase-2 record in a no_search code")))
    widths = _field_widths(level, p2, mns, code.technique2 & (level == 4) & (start % 4 != 0))  # elided ids
    nbits = MAGNITUDE_BITS[level, None]
    values = np.zeros_like(widths)
    values[:, 0], values[:, 1], values[:, 2], values[:, 3] = level - 1, p2, o, s_code
    values[:, 4:7], values[:, 7] = (d < 0) << nbits | np.abs(d), bits @ (8, 4, 2, 1)  # sign, then magnitude
    values[widths == 0] = 0
    return values, widths


def write_stream(code: QuadtreeCode) -> bytes:
    """Serialize a no_search/mns code into .mns container bytes.

    Every check and field works on the code's columns at once: validity, the tiling among it, is
    code.check_code's rule, and each leaf's fields are packed into one word, then placed by bit offset.
    """
    values, widths = _leaf_fields(code)
    word = np.zeros(len(values), dtype=np.int64)  # a leaf's fields MSB first: at most 33 bits
    for v, w in zip(values.T, widths.T):
        word <<= w
        word |= v
    width = widths.sum(axis=1, dtype=np.int64)
    pos = np.cumsum(width) - width
    nbytes = (int(width.sum()) + 7) // 8
    # each word goes to the 40-bit window of the five bytes from byte pos // 8; windows overlap but
    # bits do not, so summing each byte's parts ORs them
    word <<= 40 - width - (pos & 7)
    parts = (word[:, None] >> np.arange(32, -1, -8)) & 0xFF
    body = np.bincount(((pos >> 3)[:, None] + np.arange(5)).ravel(), parts.ravel(), nbytes + 5)[:nbytes]
    flags = (FLAG_MNS if code.mode == "mns" else 0) | (FLAG_TECHNIQUE2 if code.technique2 else 0)
    header = struct.pack(">4sB4H", MAGIC, flags, code.orig_w, code.orig_h, code.padded_w, code.padded_h)
    return header + body.astype(np.uint8).tobytes()


@functools.cache  # four entries; each read would otherwise pay ~40 µs of small numpy calls
def _kind_steps(mns: bool, technique2: bool) -> tuple[tuple, tuple, tuple]:
    """Per leaf kind, 2 * level id + phase bit: the kinds its level id adds, their bits and their cells."""
    kind = np.arange(8)
    level, siblings = kind // 2 + 1, 3 * (technique2 & (kind >= 6))  # siblings: the id-less rest of a level-4 quartet
    bits = _field_widths(level, (kind % 2 == 1) & (level < 4), mns).sum(axis=1, dtype=np.int64)
    bits += siblings * int(_field_widths(4, False, mns, True).sum())
    spans = (1 + siblings) * level_cells(level)
    return tuple((k,) * (1 + n) for k, n in enumerate(siblings.tolist())), tuple(bits.tolist()), tuple(spans.tolist())


def _scan(data: bytes, mns: bool, technique2: bool, total: int) -> tuple[list[int], int]:
    """The reader's one sequential pass: each leaf's kind, 2 * level id + phase bit, read from
    those bits alone, which fix the leaf's width, until the leaves cover `total` cells; also
    the bit position after the last leaf. A level id must start its leaf at a multiple of the
    leaf's area; under technique 2 a level-4 id brings three id-less siblings."""
    keep = [7 if mns else 6] * 3 + [6]  # of the three bits that start a leaf: its level id, and its phase bit if any
    runs, steps, spans = _kind_steps(mns, technique2)
    pos, end, start, kinds = HEADER_BITS, 8 * len(data), 0, []
    while start < total:
        if pos + 11 > end:  # no leaf is narrower
            raise StreamFormatError("truncated stream")
        i = pos >> 3
        three = ((data[i] << 8 | data[i + 1]) >> (13 - (pos & 7))) & 7
        kind = three & keep[three >> 1]
        if start % spans[kind & 6]:
            node = next(level for level in LEVEL_SIZES if start % level_cells(level) == 0)
            raise StreamFormatError(f"level-{kind // 2 + 1} leaf cannot appear inside a level-{node} node")
        kinds += runs[kind]
        pos += steps[kind]
        start += spans[kind]
    if pos > end:
        raise StreamFormatError("truncated stream")
    return kinds, pos


def read_stream(data: bytes) -> QuadtreeCode:
    """Exact inverse of write_stream; anything it did not write raises StreamFormatError. `data` is bytes
    or any bytes-like object, such as a bytearray, a memoryview, an array.array or a uint8 numpy array.

    One sequential pass reads only the level ids and phase bits, which fix every field's
    width and offset; every payload field is then gathered by bit offset at once, and each
    leaf's (x, y) is its Morton start de-interleaved. Memory grows with the stream's length,
    not with the dimensions its header claims, which may not exceed MAX_PIXELS.
    """
    data = data if isinstance(data, bytes) else memoryview(data).tobytes()  # an int is no byte count here
    if len(data) < HEADER_BYTES:
        raise StreamFormatError("truncated header")
    if data[:4] != MAGIC:
        raise StreamFormatError(f"bad magic {data[:4]!r}")
    flags = data[4]
    if flags & ~(FLAG_MNS | FLAG_TECHNIQUE2):
        raise StreamFormatError(f"unknown flag bits 0x{flags:02x}")
    mns, technique2 = bool(flags & FLAG_MNS), bool(flags & FLAG_TECHNIQUE2)
    orig_w, orig_h, padded_w, padded_h = struct.unpack(">4H", data[5:HEADER_BYTES])
    if min(orig_w, orig_h) < 1:
        raise StreamFormatError("zero image dimension in header")
    if padded_w % ROOT_SIZE or padded_h % ROOT_SIZE or padded_w < orig_w or padded_h < orig_h:
        raise StreamFormatError("padded dimensions inconsistent with original dimensions")
    if padded_w * padded_h > MAX_PIXELS:
        raise StreamFormatError(TOO_MANY_PIXELS)

    total = ROOT_CELLS * (padded_w // ROOT_SIZE) * (padded_h // ROOT_SIZE)
    kinds, pos = _scan(data, mns, technique2, total)
    if 8 * len(data) - pos >= 8:
        raise StreamFormatError(f"{8 * len(data) - pos} trailing bits after the final leaf")
    if pos % 8 and data[-1] & (0xFF >> pos % 8):
        raise StreamFormatError("nonzero padding bits")
    kind = np.array(kinds, dtype=np.int64)
    level, p2 = kind // 2 + 1, kind % 2 == 1
    if min(padded_w, padded_h) < 2 * ROOT_SIZE and (level == 1).any():
        raise StreamFormatError(NO_LEVEL1)
    cells = level_cells(level)
    start = np.cumsum(cells) - cells  # each leaf's Morton start, which _scan kept a multiple of its area
    widths = _field_widths(level, p2, mns, technique2 & (level == 4) & (start % 4 != 0)).ravel()
    # a field lies in the 16-bit window from its first byte; past one int64 offset, it is gathered narrow
    offset = np.cumsum(widths, dtype=np.int64)
    offset += HEADER_BITS - widths  # each field's first bit
    shift = 16 - (offset.astype(np.uint8) & 7) - widths  # the low byte keeps the first bit's place in its byte
    buf = np.frombuffer(data + b"\0\0", dtype=np.uint8)  # 0-wide fields may start at the end
    fields = (buf[:-1].astype(np.uint16) << 8 | buf[1:])[offset >> 3] >> shift
    fields &= np.left_shift(1, widths, dtype=np.uint16) - 1
    del offset  # the int64 offsets go before the table is built
    fields = fields.reshape(-1, FIELDS)
    nbits = MAGNITUDE_BITS.astype(np.int16)[level, None]  # with uint16 fields, int32 signs and magnitudes
    sign, deltas = fields[:, 4:7] >> nbits, fields[:, 4:7] & (1 << nbits) - 1
    if (sign & (deltas == 0)).any():
        raise StreamFormatError("non-canonical negative-zero delta")
    np.negative(deltas, out=deltas, where=sign == 1)
    s_bits = fields[:, 7:] >> np.arange(3, -1, -1, dtype=np.uint16) & 1
    t = LeafTable(leaf_rows(level, PHASE2 * p2, *morton_origin(start, padded_w), *fields.T[2:4], deltas, s_bits))
    if (phase2_targets(t.o_byte, t.deltas.T)[3] >> 8).any():  # a phase-1 leaf's deltas are 0: its o byte
        raise StreamFormatError(NO_IMPLIED_MEAN)
    return QuadtreeCode(t, padded_w, padded_h, orig_w, orig_h, "mns" if mns else "no_search", technique2)


def stream_bit_count(code: QuadtreeCode) -> int:
    """Exact serialized size in bits, header included, before byte padding: the field widths' sum."""
    return HEADER_BITS + int(_leaf_fields(code)[1].sum())


def level_id_bit_count(code: QuadtreeCode, technique2: bool) -> int:
    """Bits the writer spends on level ids with technique 2 set to `technique2`: the width table's level-id column,
    summed, in which a level-4 quartet pays for one id. ValueError for a code that does not serialize."""
    return int(_leaf_fields(dataclasses.replace(code, technique2=technique2))[1][:, 0].sum())
