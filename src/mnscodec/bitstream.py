"""Bit-exact .mns container: header, leaf serialization, level-id accounting.

Layout: 13-byte header (magic "MNS1", flag byte, four big-endian u16 dims),
then the leaves in DFS order packed MSB-first. Per leaf: a 2-bit level id
(level - 1), a phase bit at levels 1..3 in mns mode only, then the payload.
With technique 2 set, the 2nd..4th members of each level-4 sibling quartet
drop their level ids; the quartet is implied by the first member. A raster
with a 16-pixel side has no level-1 leaves, since no 32x32 domain fits it.

Writer and reader work on a code's LeafTable columns. A leaf's Morton start
is the total area of the leaves before it, in 2x2-pixel cells: a level-L
leaf covers 4 ** (4 - L) cells, a root 64. Leaves tile the padded raster in
DFS order iff every start is a multiple of its leaf's area, every leaf's
(x, y) is its start de-interleaved, and the areas sum to 64 per root. The
quartet siblings are the level-4 leaves whose start is not a multiple of 4.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

import numpy as np

from .encoder import DELTA_MAGNITUDE_BITS, MAX_SIDE, PHASE2, ROOT_SIZE, SEARCH, LeafTable, QuadtreeCode, phase2_targets

MAGIC = b"MNS1"
HEADER_BYTES = 13
HEADER_BITS = 8 * HEADER_BYTES
FLAG_MNS = 0x01
FLAG_TECHNIQUE2 = 0x02
ROOT_CELLS = 64  # 2x2-pixel cells per 16x16 root
FIELDS = 8  # per leaf: level id, phase bit, o byte, s code, three sign-and-magnitude deltas, the four s bits
MAGNITUDE_BITS = np.array([DELTA_MAGNITUDE_BITS.get(level, 0) for level in range(5)])  # by level; 0 where none
NO_LEVEL1 = "level-1 leaf in a raster with a 16-pixel side, where no 32x32 domain fits"
NO_IMPLIED_MEAN = "phase-2 leaf whose implied fourth quadrant mean, o_byte minus the deltas, is not a byte"


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


def payload_bit_width(level: int, phase2: bool) -> int:
    """Payload bits only: 8+3 for phase 1, mean + three signed deltas + four
    selection bits for phase 2."""
    return int(_field_widths(level, phase2, False)[2:].sum())


def leaf_bit_width(level: int, phase2: bool, mode: str, id_elided: bool = False) -> int:
    """Total serialized width of one leaf under the fixed width table."""
    return int(_field_widths(level, phase2, mode == "mns", id_elided).sum())


def _layout(level: np.ndarray, phase2: np.ndarray, roots_x: int, mns: bool, technique2: bool):
    """Each leaf's Morton start and area in 2x2-pixel cells, its (x, y), which is the start
    de-interleaved, and the (n, FIELDS) bit widths of its fields in stream order."""
    cells = ROOT_CELLS >> 2 * (level - 1)
    start = np.cumsum(cells) - cells
    root, m = np.divmod(start, ROOT_CELLS)
    x, y = root % roots_x * ROOT_SIZE, root // roots_x * ROOT_SIZE
    for shift in (4, 2, 0):  # the TL/TR/BL/BR digits of levels 2, 3 and 4, whose sides are 8, 4 and 2
        digit, side = (m >> shift) & 3, 2 << shift // 2
        x, y = x + (digit & 1) * side, y + (digit >> 1) * side
    elided = technique2 & (level == 4) & (start % 4 != 0)  # quartet siblings share an id
    return start, cells, x, y, _field_widths(level, phase2, mns, elided)


def _leaf_fields(code: QuadtreeCode) -> tuple[np.ndarray, np.ndarray]:
    """Check that `code` serializes; then its leaves' (n, FIELDS) field values and bit widths."""
    if code.mode not in ("no_search", "mns"):
        raise ValueError(f"only no_search/mns codes serialize, not {code.mode!r}")
    if code.padded_w % ROOT_SIZE or code.padded_h % ROOT_SIZE:
        raise ValueError("padded dimensions must be multiples of 16")
    if not (0 < code.orig_w <= code.padded_w and 0 < code.orig_h <= code.padded_h):
        raise ValueError("original dimensions must fit inside the padded raster")
    if code.padded_w > MAX_SIDE or code.padded_h > MAX_SIDE:
        raise ValueError("dimensions exceed the 16-bit header fields")
    t = code.leaves
    level, p2, o, s_code, d, bits = t.level, t.kind == PHASE2, t.o_byte, t.s_code, t.deltas, t.s_bits
    if ((level < 1) | (level > 4)).any():
        raise ValueError(f"bad leaf level {level[(level < 1) | (level > 4)][0]}")
    roots_x, mns = code.padded_w // ROOT_SIZE, code.mode == "mns"
    start, cells, x, y, widths = _layout(level, p2, roots_x, mns, bool(code.technique2))
    total = ROOT_CELLS * roots_x * (code.padded_h // ROOT_SIZE)
    nbits, misplaced = MAGNITUDE_BITS[level, None], (start % cells != 0) | (t.x != x) | (t.y != y)
    for bad, what in (((start < total) & (misplaced | (t.size != 2 * ROOT_SIZE >> level)), "does not tile the raster"),
                      ((level == 1) & (min(code.padded_w, code.padded_h) < 2 * ROOT_SIZE), NO_LEVEL1),
                      (t.kind == SEARCH, "search-baseline records have no stream encoding"),
                      ((o < 0) | (o > 255), "luminance byte out of range"),
                      (~p2 & ((s_code < 0) | (s_code > 7)), "contrast code out of range"),
                      (p2 & (not mns), "phase-2 record in a no_search code"),
                      (p2 & (level == 4), "phase-2 record at level 4"),
                      (p2 & (np.abs(d) >= 1 << nbits).any(axis=1), "delta exceeds its level's width"),
                      (p2 & ((bits < 0) | (bits > 1)).any(axis=1), "bad contrast selection bits"),
                      (p2 & (phase2_targets(o, d.T)[3] >> 8 != 0), NO_IMPLIED_MEAN)):
        if bad.any():
            raise ValueError(f"leaf {int(bad.argmax())} {t.rows[bad.argmax()].tolist()}: {what}")
    if cells.sum() != total:
        raise ValueError("leaf list under-fills the padded raster" if cells.sum() < total else "excess leaf records")
    values = np.zeros_like(widths)
    values[:, 0], values[:, 1], values[:, 2], values[:, 3] = level - 1, p2, o, s_code
    values[:, 4:7], values[:, 7] = (d < 0) << nbits | np.abs(d), bits @ (8, 4, 2, 1)  # sign, then magnitude
    values[widths == 0] = 0
    return values, widths


class _Packed(NamedTuple):
    data: bytes
    bit_count: int  # exact, before byte padding


def _serialize(code: QuadtreeCode) -> _Packed:
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
    return _Packed(header + body.astype(np.uint8).tobytes(), HEADER_BITS + int(width.sum()))


def write_stream(code: QuadtreeCode) -> bytes:
    """Serialize a no_search/mns code into .mns container bytes.

    Every check and field works on the code's columns at once: tiling is the Morton rule
    above, and each leaf's fields are packed into one word, then placed by bit offset.
    """
    return _serialize(code).data


@functools.cache  # four entries; each read would otherwise pay ~40 µs of small numpy calls
def _kind_steps(mns: bool, technique2: bool) -> tuple[tuple, tuple, tuple]:
    """Per leaf kind, 2 * level id + phase bit: the kinds its level id adds, their bits and their cells."""
    kind = np.arange(8)
    level, siblings = kind // 2 + 1, 3 * (technique2 & (kind >= 6))  # siblings: the id-less rest of a level-4 quartet
    bits = _field_widths(level, (kind % 2 == 1) & (level < 4), mns).sum(axis=1, dtype=np.int64)
    bits += siblings * payload_bit_width(4, False)
    spans = (1 + siblings) * ROOT_CELLS >> 2 * (level - 1)
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
            node = next(level for level, cells in ((1, 64), (2, 16), (3, 4), (4, 1)) if start % cells == 0)
            raise StreamFormatError(f"level-{kind // 2 + 1} leaf cannot appear inside a level-{node} node")
        kinds += runs[kind]
        pos += steps[kind]
        start += spans[kind]
    if pos > end:
        raise StreamFormatError("truncated stream")
    return kinds, pos


def read_stream(data: bytes) -> QuadtreeCode:
    """Exact inverse of write_stream; anything it did not write raises StreamFormatError.

    One sequential pass reads only the level ids and phase bits, which fix every field's
    width and offset; every payload field is then gathered by bit offset at once, and each
    leaf's (x, y) is its Morton start de-interleaved. Memory grows with the stream's length,
    not with the dimensions its header claims.
    """
    if len(data) < HEADER_BYTES:
        raise StreamFormatError("truncated header")
    if data[:4] != MAGIC:
        raise StreamFormatError(f"bad magic {bytes(data[:4])!r}")
    flags = data[4]
    if flags & ~(FLAG_MNS | FLAG_TECHNIQUE2):
        raise StreamFormatError(f"unknown flag bits 0x{flags:02x}")
    mns, technique2 = bool(flags & FLAG_MNS), bool(flags & FLAG_TECHNIQUE2)
    orig_w, orig_h, padded_w, padded_h = struct.unpack(">4H", data[5:HEADER_BYTES])
    if min(orig_w, orig_h) < 1:
        raise StreamFormatError("zero image dimension in header")
    if padded_w % ROOT_SIZE or padded_h % ROOT_SIZE or padded_w < orig_w or padded_h < orig_h:
        raise StreamFormatError("padded dimensions inconsistent with original dimensions")

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
    start, _, x, y, widths = _layout(level, p2, padded_w // ROOT_SIZE, mns, technique2)
    widths = widths.ravel()
    # a field lies in the 16-bit window from its first byte; past one int64 offset, it is gathered narrow
    offset = np.cumsum(widths, dtype=np.int64)
    offset += HEADER_BITS - widths  # each field's first bit
    shift = 16 - (offset.astype(np.uint8) & 7) - widths  # the low byte keeps the first bit's place in its byte
    buf = np.frombuffer(bytes(data) + b"\0\0", dtype=np.uint8)  # 0-wide fields may start at the end
    fields = (buf[:-1].astype(np.uint16) << 8 | buf[1:])[offset >> 3] >> shift
    fields &= np.left_shift(1, widths, dtype=np.uint16) - 1
    del offset  # the int64 offsets go before the table is built
    fields = fields.reshape(-1, FIELDS)
    nbits = MAGNITUDE_BITS.astype(np.int16)[level, None]  # with uint16 fields, int32 signs and magnitudes
    sign, mag = fields[:, 4:7] >> nbits, fields[:, 4:7] & (1 << nbits) - 1
    if (sign & (mag == 0)).any():
        raise StreamFormatError("non-canonical negative-zero delta")
    rows = np.zeros((len(kind), LeafTable.WIDTH), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = level, PHASE2 * p2, x, y, 2 * ROOT_SIZE >> level
    rows[:, 5:7], rows[:, 7:10] = fields[:, 2:4], np.where(sign == 1, -mag, mag)
    rows[:, 10:14] = fields[:, 7:] >> (3, 2, 1, 0) & 1
    if (phase2_targets(rows[:, 5], rows[:, 7:10].T)[3] >> 8).any():  # a phase-1 leaf's deltas are 0: its o byte
        raise StreamFormatError(NO_IMPLIED_MEAN)
    return QuadtreeCode(LeafTable(rows), padded_w, padded_h, orig_w, orig_h, "mns" if mns else "no_search", technique2)


def stream_bit_count(code: QuadtreeCode) -> int:
    """Exact serialized size in bits, header included, before byte padding: the field widths' sum."""
    return HEADER_BITS + int(_leaf_fields(code)[1].sum())


def level_id_bit_count(code: QuadtreeCode, technique2: bool) -> int:
    """Bits spent on 2-bit level ids, with or without quartet sharing.

    With technique 2, each level-4 quartet pays for a single id.
    """
    count4 = int(np.count_nonzero(code.leaves.level == 4))
    others = len(code.leaves) - count4
    if not technique2:
        return 2 * (others + count4)
    if count4 % 4:
        raise ValueError("level-4 leaves must form complete quartets")
    return 2 * (others + count4 // 4)
