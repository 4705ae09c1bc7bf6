"""The code and every rule the encoder, stream and decoder share: QuadtreeCode, its LeafTable of int64 leaf columns
(only leaf_rows knows their layout; the rest read named views), quadrants, co-centered domains, the DFS start in 2x2
cells (morton_start) and its inverse (morton_origin), and check_code, the one rule for a valid code."""

from dataclasses import dataclass

import numpy as np

ROOT_SIZE = 16
ROOT_CELLS = (ROOT_SIZE // 2) ** 2  # 2x2-pixel cells per 16x16 root
MAX_SIDE = 0xFFFF  # largest padded side: the .mns header stores each dimension as a u16
MAX_PIXELS = 1 << 26  # largest padded raster the stream reader and writer and the decoder take: decode's three
# float32 rasters then need 768 MB, where the header alone would admit 65520 x 65520 and 3 x 17 GB
TOO_MANY_PIXELS = f"padded raster over the MAX_PIXELS ({MAX_PIXELS}) pixel limit"
NO_IMPLIED_MEAN = "phase-2 leaf whose implied fourth quadrant mean, o_byte minus the deltas, is not a byte"
CODE_MODES = ("no_search", "mns", "full_search", "local_search")
MODES = CODE_MODES[:2]  # the quadtree modes, the only ones a stream holds; the search baselines make the others
PHASE1, PHASE2, SEARCH = 0, 1, 2  # leaf kinds: co-centered fit, sub-block means, stored search domain
QUADRANT_STEPS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])  # (dx, dy) of TL, TR, BL, BR, in quadrant sides
CONTRAST_SETS = {1: (0.2, 0.5), 2: (0.4, 0.65), 3: (0.5, 0.9)}  # the two contrasts phase 2 tries per quadrant, by level
DELTA_MAGNITUDE_BITS = {1: 4, 2: 5, 3: 5}  # magnitude bits of a phase-2 mean offset; one sign bit comes on top
MAGNITUDE_BITS = np.array([DELTA_MAGNITUDE_BITS.get(level, 0) for level in range(5)], np.int32)  # by level, or 0


def level_side(level):
    """Side of a leaf at `level`, an int or an array: 16, 8, 4 and 2 at levels 1..4."""
    return 2 * ROOT_SIZE >> level


def level_cells(level):
    """2x2-pixel cells a leaf at `level`, an int or an array, covers: a root's 64 at level 1, then 16, 4 and 1."""
    return ROOT_CELLS >> 2 * (level - 1)


LEVEL_SIZES = {level: level_side(level) for level in range(1, 5)}
SIZE_LEVELS = {size: level for level, size in LEVEL_SIZES.items()}


def delta_limit(level: int) -> int:
    """Largest sub-block mean offset encodable at this level."""
    return (1 << DELTA_MAGNITUDE_BITS[level]) - 1


def phase2_targets(o_byte: int, deltas: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """Reconstructed TL, TR, BL, BR quadrant means; the BR mean is implied by the block mean."""
    return (o_byte + deltas[0], o_byte + deltas[1], o_byte + deltas[2], o_byte - sum(deltas))


class LeafTable:
    """A code's leaves as int64 columns of one read-only (n, 17) array, a row per leaf in code order.

    Columns: level, kind (PHASE1, PHASE2 or SEARCH), the block's x, y (both together: xy) and size, o_byte,
    s_code, then the (n, 3) deltas, the (n, 4) s_bits and the search domain's (n, 3) x, y and size.
    It keeps any values; check_code requires, among others, that fields a kind does not use are 0.
    An int64 `rows` array is kept as it is and made read-only. Its repr lists every row in full.
    """

    WIDTH = 17

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = r = np.asarray(rows, dtype=np.int64).reshape(-1, self.WIDTH)
        r.flags.writeable = False
        self.level, self.kind, self.x, self.y, self.size, self.o_byte, self.s_code = r.T[:7]
        self.xy, self.deltas, self.s_bits, self.domain = r[:, 2:4], r[:, 7:10], r[:, 10:14], r[:, 14:]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"LeafTable({self.rows.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeafTable):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash(self.rows.tobytes())


def leaf_rows(level, kind, x, y, o_byte=0, s_code=0, deltas=None, s_bits=None, domain=None) -> np.ndarray:
    """LeafTable rows, (n, 17) int64, from named columns: each an (n,) array or one value for all len(x) leaves, a
    phase-2 leaf's (n, 3) deltas and (n, 4) s_bits, and a search leaf's domain origin as (dx, dy). A leaf's size is
    its level's, and its domain's side twice that; a column not given stays 0."""
    rows = np.zeros((len(x), LeafTable.WIDTH), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = level, kind, x, y, level_side(level)
    rows[:, 5], rows[:, 6] = o_byte, s_code
    if deltas is not None:  # a zero-filled (n, 3) or (n, 4) slice costs as much as four whole columns
        rows[:, 7:10], rows[:, 10:14] = deltas, s_bits
    if domain is not None:
        rows[:, 14], rows[:, 15], rows[:, 16] = *domain, 2 * level_side(level)
    return rows


@dataclass(frozen=True)
class QuadtreeCode:
    """Leaves tiling the padded raster, plus header metadata; check_code says whether a code is valid.

    Leaf order: DFS in quadtree codes (16x16 roots in raster order, children TL, TR, BL, BR), raster in search codes.
    """

    leaves: LeafTable
    padded_w: int
    padded_h: int
    orig_w: int
    orig_h: int
    mode: str
    technique2: bool

    def __post_init__(self) -> None:
        if not isinstance(self.leaves, LeafTable):
            raise TypeError(f"leaves must be a LeafTable, not {type(self.leaves).__name__}")

    def level_counts(self) -> tuple[int, int, int, int]:
        return tuple(np.bincount(self.leaves.level, minlength=5)[1:5].tolist())

    def phase2_count(self) -> int:
        return int(np.count_nonzero(self.leaves.kind == PHASE2))


def quadrants(xy: np.ndarray, size) -> np.ndarray:
    """Origins of the four quadrants, TL, TR, BL, BR, of each block at origins xy; size is one side or one per block."""
    return (xy[:, None, :] + QUADRANT_STEPS * np.reshape(size // 2, (-1, 1, 1))).reshape(-1, 2)


def co_domain_origins(x, y, k, img_w: int, img_h: int) -> tuple[np.ndarray, np.ndarray]:
    """Origins (x, y) of the 2k x 2k domains centered on the k x k ranges at x, y, each shifted per axis
    by the least amount that keeps it in bounds; k may be one side."""
    if np.any(k % 2):
        raise ValueError("range size must be even")
    if np.any(2 * k > min(img_w, img_h)):
        raise ValueError(f"no {2 * np.max(k)}x{2 * np.max(k)} domain fits a {img_w}x{img_h} image")
    # np.clip would cost the encoder's many small calls a few µs each
    return np.minimum(np.maximum(x - k // 2, 0), img_w - 2 * k), np.minimum(np.maximum(y - k // 2, 0), img_h - 2 * k)


def morton_start(x: np.ndarray, y: np.ndarray, w: int) -> np.ndarray:
    """DFS start, in 2x2 cells, of the blocks at (x, y) of a w-wide raster: its 16x16 root's index over ceil(w / 16)
    roots a row, times 64, plus its TL/TR/BL/BR digits at sides 8, 4 and 2, which weigh 16, 4 and 1 cells; so
    bits 3, 2 and 1 of x go to bits 4, 2 and 0 of the key, and those of y to bits 5, 3 and 1."""
    spread = np.array([0, 1, 4, 5, 16, 17, 20, 21], np.int32)  # bits 2, 1 and 0 of the index, at bits 4, 2 and 0
    roots = y // ROOT_SIZE * -(-w // ROOT_SIZE) + x // ROOT_SIZE
    return roots * ROOT_CELLS + spread[x >> 1 & 7] + 2 * spread[y >> 1 & 7]


def morton_origin(start: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) origins of the blocks whose DFS starts in a w-wide raster are `start`, morton_start's inverse: the
    root from start // 64, then bits 3, 2 and 1 of x from bits 4, 2 and 0 of the key, and those of y from 5, 3, 1."""
    roots, key = np.divmod(start, ROOT_CELLS)
    root_y, root_x = np.divmod(roots, -(-w // ROOT_SIZE))
    return (root_x * ROOT_SIZE + ((key & 1 | key >> 1 & 2 | key >> 2 & 4) << 1),
            root_y * ROOT_SIZE + ((key >> 1 & 1 | key >> 2 & 2 | key >> 3 & 4) << 1))


def reject(leaves: LeafTable, rules) -> None:
    """ValueError naming the first leaf that breaks the first (bad mask, message) rule that any leaf breaks."""
    for bad, what in rules:
        if bad.any():
            raise ValueError(f"leaf {bad.argmax()} {leaves.rows[bad.argmax()].tolist()}: {what}")


def check_code(code: QuadtreeCode) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for a valid code. Returns the leaves' columns, a contiguous (17, n) int32 copy, and each leaf's
    int32 DFS start in 2x2 cells, morton_start of its origin; or raises ValueError unless technique2 is a bool, the
    mode a known one, the sizes integers (no bools), the padded w x h raster holds at most MAX_PIXELS pixels and the
    original size, and each leaf has a known kind, a level 1..4 that matches its size, its kind's fields in range
    and the others 0, and a 2k x 2k domain that fits, co-centered or stored; and unless the leaves tile the raster:
    each lies inside it at a multiple of its side, the areas add up to w * h, and, taken by start, no leaf's cells
    [start, start + (side / 2)^2) reach the next's. Phase-2 rules run first, then the fields, tiling and domains."""
    dims = (code.padded_w, code.padded_h, code.orig_w, code.orig_h)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in dims):
        raise ValueError(f"original dimensions and padded ones must be integers, not bools: {dims!r}")
    if not isinstance(code.technique2, (bool, np.bool_)):
        raise ValueError(f"technique2 must be a bool, not {code.technique2!r}")
    if code.mode not in CODE_MODES:
        raise ValueError(f"unknown mode {code.mode!r}")
    w, h, orig_w, orig_h = map(int, dims)
    if w * h > MAX_PIXELS:
        raise ValueError(TOO_MANY_PIXELS)
    if not (0 < orig_w <= w and 0 < orig_h <= h):
        raise ValueError("original dimensions must fit inside the padded raster")
    leaves, rows = code.leaves, code.leaves.rows
    if rows.min(initial=0) < -1 << 31 or rows.max(initial=0) >= 1 << 31:  # no valid field is that large
        reject(leaves, (((rows != rows.astype(np.int32)).any(axis=1), "a field past the int32 range"),))
    # the columns as one contiguous (17, n) int32 copy: each pass costs half a strided one, and the copy half an
    # int64 one (decode's peak memory is bound per pixel)
    columns = rows.T.astype(np.int32, order="C")
    (level, kind, x, y, k, o, s_code), d, bits, (dx, dy, dk) = columns[:7], columns[7:10], columns[10:14], columns[14:]
    p2, search = kind == PHASE2, kind == SEARCH
    reject(leaves, (((kind < PHASE1) | (kind > SEARCH), "unknown leaf kind"),
                    (p2 & ((level < 1) | (level > 3)), "phase-2 leaf outside levels 1..3"),
                    (p2 & (np.abs(d).max(axis=0) >> MAGNITUDE_BITS.take(level, mode="clip") != 0),
                     "phase-2 delta exceeds its level's width"),
                    (p2 & (bits >> 1 != 0).any(axis=0), "phase-2 contrast pick other than 0 or 1"),
                    (p2 & (o - d[0] - d[1] - d[2] >> 8 != 0), NO_IMPLIED_MEAN),  # phase2_targets' fourth mean
                    ((level < 1) | (level > 4) | (k != level_side(level.clip(1, 4))),
                     "level outside 1..4 or not matching the leaf's size"),
                    (o >> 8 != 0, "luminance byte out of range"),
                    (~p2 & (s_code >> 3 != 0), "contrast code out of range"),
                    (np.where(p2, s_code != 0, columns[7:14].any(axis=0)) | ~search & columns[14:].any(axis=0),
                     "a field its kind does not use is not 0"),  # deltas and s_bits, s_code, the domain
                    # the level rule made k 2, 4, 8 or 16, so (x | y) & k - 1 is 0 iff k divides x and y
                    (((x | y) & k - 1 != 0) | (x < 0) | (y < 0) | (x > w - k) | (y > h - k),
                     f"does not tile the {w}x{h} raster")))
    if (area := (k * k).sum()) != w * h:
        raise ValueError("leaf list under-fills the padded raster" if area < w * h else "excess leaf records")
    start = morton_start(x, y, w)
    order = np.argsort(start)
    over = order[1:][np.diff(start[order]) < (k[order[:-1]] // 2) ** 2]  # int32, like k: starts are under 2^24
    if len(over):
        raise ValueError(f"leaf {over[0]} {rows[over[0]].tolist()}: overlaps another, so the leaves do not tile")
    cramped = ~search & (2 * k > min(w, h))
    side = 2 * k[cramped.argmax()] if len(k) else 0
    reject(leaves, ((cramped, f"no {side}x{side} domain fits the {w}x{h} raster"),
                    (search & ((dk != 2 * k) | (dx < 0) | (dy < 0) | (dx > w - dk) | (dy > h - dk)),
                     f"its stored domain is not twice its side or leaves the {w}x{h} raster")))
    return columns, start
