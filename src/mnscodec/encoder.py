"""Quadtree driver and the four encoding strategies, which share one block-fit kernel, _fit.

Modes:
  no_search    - phase 1 only: each range fits its fixed co-centered domain, one _fit candidate.
  mns          - phase 1, then the sub-block-mean phase 2 before splitting.
  full_search  - one exhaustive domain pool on a fixed-size partition, shared by every range (baseline).
  local_search - a pool per 8x8 range: 81 candidates around the co-centered domain (baseline).

Every decision scores exact moments: both phases take theirs from _moments, the searches from _norm_table and
box-sum products. _fit scores phase 1 and the searches, and phase 2 its two contrast values from the same sums, exact
in any order on integer pixels; so each mode's codes equal its exact per-block fits (README's Encoding section).

The kernels put the block axis last: _gather gives (kk, n) pixels, a row per pixel position and a column per block,
and phase 2 keeps (4, n) quadrant rows. So each per-block sum adds whole rows of n, where an (n, kk) layout sums
a tiny trailing axis per block: on a (4096, 4) float64 array that sum took 76 us, against 6 us over (4, 4096). The
sums are exact, so this order gives the same bits as any other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, box_sums, co_domain_origins, flat_windows, pad_to_multiple
from .image import downsample_mean2  # noqa: F401 (traced by perfbench)
from .transform import contrast_bins
from .transform import fit_affine, rms_error  # noqa: F401 (traced by perfbench)

MODES = ("no_search", "mns")  # the quadtree modes; the search baselines take only full_search_step

ROOT_SIZE = 16
MAX_SIDE = 0xFFFF  # largest padded side: the .mns header stores each dimension as a u16
MAX_PIXELS = 1 << 26  # largest padded raster the stream reader and writer and the decoder take: decode's three
# float32 rasters then need 768 MB, where the header alone would admit 65520 x 65520 and 3 x 17 GB
TOO_MANY_PIXELS = f"padded raster over the MAX_PIXELS ({MAX_PIXELS}) pixel limit"
NO_IMPLIED_MEAN = "phase-2 leaf whose implied fourth quadrant mean, o_byte minus the deltas, is not a byte"
LEVEL_SIZES = {1: 16, 2: 8, 3: 4, 4: 2}
SIZE_LEVELS = {size: level for level, size in LEVEL_SIZES.items()}
WORK_PIXELS = 1 << 16  # range pixels per kernel call; a band holds up to 8x as many pixels (one root row at least)
QUADRANT_STEPS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])  # (dx, dy) of TL, TR, BL, BR, in quadrant sides

# Two-element contrast sets searched per quadrant in phase 2, one per level.
CONTRAST_SETS = {1: (0.2, 0.5), 2: (0.4, 0.65), 3: (0.5, 0.9)}

# Magnitude bits of a phase-2 mean offset; one sign bit comes on top.
DELTA_MAGNITUDE_BITS = {1: 4, 2: 5, 3: 5}
MAGNITUDE_BITS = np.array([DELTA_MAGNITUDE_BITS.get(level, 0) for level in range(5)], np.int32)  # by level, or 0


def delta_limit(level: int) -> int:
    """Largest sub-block mean offset encodable at this level."""
    return (1 << DELTA_MAGNITUDE_BITS[level]) - 1


def phase2_targets(o_byte: int, deltas: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """Reconstructed TL, TR, BL, BR quadrant means; the BR mean is implied by the block mean."""
    return (o_byte + deltas[0], o_byte + deltas[1], o_byte + deltas[2], o_byte - sum(deltas))


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder knobs. e1..e3 are the per-level RMS tolerances; level 4 always accepts."""

    e1: float = 8.0
    e2: float = 8.0
    e3: float = 8.0
    mean_tol: float = 16.0
    mode: str = "mns"
    technique2: bool = True
    full_search_step: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        limits = (self.e1, self.e2, self.e3, self.mean_tol)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and not math.isnan(v) for v in limits):
            raise ValueError("error thresholds and mean_tol must be real numbers other than a bool or NaN")
        if not isinstance(self.technique2, (bool, np.bool_)):
            raise ValueError(f"technique2 must be a bool, not {self.technique2!r}")
        if min(self.e1, self.e2, self.e3) <= 0:
            raise ValueError("error thresholds must be positive")
        if self.mean_tol < 0:
            raise ValueError("mean_tol must be non-negative")
        if not isinstance(step := self.full_search_step, (int, np.integer)) or isinstance(step, bool) or step < 1:
            raise ValueError(f"full_search_step must be an integer >= 1, not {step!r}")

    def threshold(self, level: int) -> float:
        """RMS tolerance for a splittable level (1..3)."""
        return (self.e1, self.e2, self.e3)[level - 1]


PHASE1, PHASE2, SEARCH = 0, 1, 2  # leaf kinds: co-centered fit, sub-block means, stored search domain


class LeafTable:
    """A code's leaves as int64 columns of one read-only (n, 17) array, a row per leaf in code order.

    Columns: level, kind (PHASE1, PHASE2 or SEARCH), the block's x, y and size, o_byte, s_code,
    then the (n, 3) deltas, the (n, 4) s_bits and the search domain's (n, 3) x, y and size.
    It keeps any values; check_code requires, among others, that fields a kind does not use are 0.
    An int64 `rows` array is kept as it is and made read-only. Its repr lists every row in full.
    """

    WIDTH = 17

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.WIDTH)
        self.rows.flags.writeable = False
        self.level, self.kind, self.x, self.y, self.size, self.o_byte, self.s_code = self.rows.T[:7]
        self.deltas, self.s_bits, self.domain = self.rows[:, 7:10], self.rows[:, 10:14], self.rows[:, 14:]

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


@dataclass(frozen=True)
class RowBand:
    """Rows lo.. of a padded raster with their 2x2 box sums: what the phase kernels read.

    width and height are the whole raster's, since domains clamp to its edges.
    """

    pixels: np.ndarray  # uint8 rows lo .. lo + len(pixels)
    sums: np.ndarray  # box_sums(pixels, np.uint16): exact integer sums
    lo: int
    width: int
    height: int


def _morton(x: np.ndarray, y: np.ndarray, w: int) -> np.ndarray:
    """DFS start, in 2x2 cells, of the blocks at (x, y) of a w-wide raster: its 16x16 root's index over ceil(w / 16)
    roots a row, times 64, plus its TL/TR/BL/BR digits at sides 8, 4 and 2, which weigh 16, 4 and 1 cells; so
    bits 3, 2 and 1 of x go to bits 4, 2 and 0 of the key, and those of y to bits 5, 3 and 1."""
    spread = np.array([0, 1, 4, 5, 16, 17, 20, 21], np.int32)  # bits 2, 1 and 0 of the index, at bits 4, 2 and 0
    return (y // ROOT_SIZE * -(-w // ROOT_SIZE) + x // ROOT_SIZE) * 64 + spread[x >> 1 & 7] + 2 * spread[y >> 1 & 7]


def _reject(leaves: LeafTable, rules) -> None:
    """ValueError naming the first leaf that breaks the first (bad mask, message) rule that any leaf breaks."""
    for bad, what in rules:
        if bad.any():
            raise ValueError(f"leaf {bad.argmax()} {leaves.rows[bad.argmax()].tolist()}: {what}")


def check_code(code: QuadtreeCode) -> np.ndarray:
    """The one rule for a valid code. Returns each leaf's int32 DFS start in 2x2 cells, _morton of its origin, or
    raises ValueError unless technique2 is a bool, the mode a known one, the sizes integers (no bools), the padded
    w x h raster holds at most MAX_PIXELS pixels and the original size, and each leaf has a known kind, a level 1..4
    that matches its size, its kind's fields in range and the others 0, and a 2k x 2k domain that fits, co-centered
    or stored; and unless the leaves tile the raster: each lies inside it at a multiple of its side, the areas add up
    to w * h, and, taken by start, no leaf's cells [start, start + (side / 2)^2) reach the next's. Phase-2 rules run
    first, then the other fields, the tiling and the domains."""
    dims = (code.padded_w, code.padded_h, code.orig_w, code.orig_h)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in dims):
        raise ValueError(f"original dimensions and padded ones must be integers, not bools: {dims!r}")
    if not isinstance(code.technique2, (bool, np.bool_)):
        raise ValueError(f"technique2 must be a bool, not {code.technique2!r}")
    if code.mode not in ("no_search", "mns", "full_search", "local_search"):
        raise ValueError(f"unknown mode {code.mode!r}")
    w, h, orig_w, orig_h = map(int, dims)
    if w * h > MAX_PIXELS:
        raise ValueError(TOO_MANY_PIXELS)
    if not (0 < orig_w <= w and 0 < orig_h <= h):
        raise ValueError("original dimensions must fit inside the padded raster")
    leaves, rows = code.leaves, code.leaves.rows
    if rows.min(initial=0) < -1 << 31 or rows.max(initial=0) >= 1 << 31:  # no valid field is that large
        _reject(leaves, (((rows != rows.astype(np.int32)).any(axis=1), "a field past the int32 range"),))
    # the columns as one contiguous (17, n) int32 copy: each pass costs half a strided one, and the copy half an
    # int64 one (decode's peak memory is bound per pixel)
    columns = rows.T.astype(np.int32, order="C")
    (level, kind, x, y, k, o, s_code), d, bits, (dx, dy, dk) = columns[:7], columns[7:10], columns[10:14], columns[14:]
    p2, search = kind == PHASE2, kind == SEARCH
    _reject(leaves, (((kind < PHASE1) | (kind > SEARCH), "unknown leaf kind"),
                     (p2 & ((level < 1) | (level > 3)), "phase-2 leaf outside levels 1..3"),
                     (p2 & (np.abs(d).max(axis=0) >> MAGNITUDE_BITS.take(level, mode="clip") != 0),
                      "phase-2 delta exceeds its level's width"),
                     (p2 & (bits >> 1 != 0).any(axis=0), "phase-2 contrast pick other than 0 or 1"),
                     (p2 & (o - d[0] - d[1] - d[2] >> 8 != 0), NO_IMPLIED_MEAN),  # phase2_targets' fourth mean
                     ((level < 1) | (level > 4) | (k != 2 * ROOT_SIZE >> level.clip(1, 4)),
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
    start = _morton(x, y, w)
    order = np.argsort(start)
    over = order[1:][np.diff(start[order]) < (k[order[:-1]] // 2) ** 2]  # int32, like k: starts are under 2^24
    if len(over):
        raise ValueError(f"leaf {over[0]} {rows[over[0]].tolist()}: overlaps another, so the leaves do not tile")
    cramped = ~search & (2 * k > min(w, h))
    side = 2 * k[cramped.argmax()] if len(k) else 0
    _reject(leaves, ((cramped, f"no {side}x{side} domain fits the {w}x{h} raster"),
                     (search & ((dk != 2 * k) | (dx < 0) | (dy < 0) | (dx > w - dk) | (dy > h - dk)),
                      f"its stored domain is not twice its side or leaves the {w}x{h} raster")))
    return start


def _band(image: GrayImage, y0: int, y1: int) -> RowBand:
    """Pixel rows y0..y1 plus every row their domains reach: an 8-row halo, or 16 rows on
    the far side where a level-1 domain is clamped at the raster's top or bottom edge."""
    lo, hi, d = 0, image.height, 2 * ROOT_SIZE
    if hi >= d:  # level 1 runs; otherwise the band is the whole 16-row raster
        lo = min(max(y0 - ROOT_SIZE // 2, 0), hi - d)
        hi = min(max(y1 - ROOT_SIZE - ROOT_SIZE // 2, 0), hi - d) + d
    pixels = image.pixels[lo:hi]
    return RowBand(pixels, box_sums(pixels, np.uint16), lo, image.width, image.height)


def _gather(a: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, step: int) -> np.ndarray:
    """The k x k samples, every step-th row and column, of the C-contiguous 2-D array `a` at origins x, y, as a
    (k * k, n) array: the block axis last, so every per-block sum adds whole rows. Sides up to 4 gather as pixel
    planes (_plane_gather), where an index per pixel costs less than a fancy-indexed window per block; larger ones
    as windows (_window_gather). Both give the same elements."""
    return (_plane_gather if k <= 4 else _window_gather)(a, y * a.shape[1] + x, k, step)


def _plane_gather(a: np.ndarray, at: np.ndarray, k: int, step: int) -> np.ndarray:
    """_gather at flat origins `at`: one flat take of each sample's offset plus every origin."""
    i, j = np.divmod(np.arange(k * k), k)
    return a.ravel().take((i * a.shape[1] + j)[:, None] * step + at)


def _window_gather(a: np.ndarray, at: np.ndarray, k: int, step: int) -> np.ndarray:
    """_gather at flat origins `at`: a flat_windows gather of (n, k, k) blocks, viewed transposed."""
    return flat_windows(a, step * (k - 1) + 1)[at, ::step, ::step].reshape(len(at), k * k).T


def _ranges(band: RowBand, xy: np.ndarray, k: int) -> np.ndarray:
    """Pixels of the k x k ranges at origins xy, uint8, (k * k, n)."""
    return _gather(band.pixels, xy[:, 0], xy[:, 1] - band.lo, k, 1)


def _domains(band: RowBand, xy: np.ndarray, k: int) -> np.ndarray:
    """2x2 means of the co-centered domains of the k x k ranges at origins xy, (k * k, n): the stride-2 samples of
    each domain's box sums, quartered exactly."""
    dx, dy = co_domain_origins(xy[:, 0], xy[:, 1], k, band.width, band.height)
    return _gather(band.sums, dx, dy - band.lo, k, 2) * 0.25


def _moments(r: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_fit's moments of one candidate domain per range, over axis 0 of the (kk, n) domain 2x2 means d and range
    pixels r: sum(d r), the norm sum(d0^2) = sum(d^2) - sum(d)^2 / kk, d0 = d - mean(d), and sum(d), each (n,)."""
    sd = d.sum(axis=0)
    return np.einsum("kn,kn->n", d, r), np.einsum("kn,kn->n", d, d) - sd * sd / len(d), sd


def _quadrants(xy: np.ndarray, size) -> np.ndarray:
    """Origins of the four quadrants, TL, TR, BL, BR, of each block at origins xy; size is one side or one per block."""
    return (xy[:, None, :] + QUADRANT_STEPS * np.reshape(size // 2, (-1, 1, 1))).reshape(-1, 2)


def _rows(xy: np.ndarray, level: int, payload: np.ndarray) -> np.ndarray:
    """LeafTable rows of the blocks at origins xy from payload rows: (o_byte, s_code) for
    phase 1, or (o_byte, three deltas, four s_bits) for phase 2."""
    rows = np.zeros((len(xy), LeafTable.WIDTH), dtype=np.int64)
    p2 = payload.shape[1] == 8
    rows[:, 0], rows[:, 1], rows[:, 2:4], rows[:, 4] = level, PHASE2 if p2 else PHASE1, xy, LEVEL_SIZES[level]
    rows[:, [5, *range(7, 14)] if p2 else [5, 6]] = payload
    return rows


def _fit(r: np.ndarray, dr: np.ndarray, norms: np.ndarray, sd: np.ndarray):
    """Each range's lowest-error candidate domain under its quantized least-squares contrast.

    r holds (kk, n) range pixels, a range per column, summed over axis 0; dr each candidate's sum(d r), (n, c),
    and norms and sd its sum(d0^2) and sum(d), (n, c) or (c,), as _moments forms them, where d is the candidate's
    2x2 means and d0 = d - mean(d). The cross terms sum(d0 r) are formed here from each range's sum. None is written.
    Returns each range's candidate index (ties to the first), s code, o byte (the range mean rounded
    half up, as a float) and sum of squared residuals, exact as README's Encoding section shows.
    """
    kk, total = len(r), r.sum(axis=0)
    mean = total / kk
    o_byte = np.floor(mean + 0.5)  # halves round up
    # a shared pool's (c,) sd as an outer product, which skips the buffered broadcast's copies of the operand
    x = np.einsum("i,j->ij", mean, sd) if sd.ndim == 1 else np.multiply(sd, mean[:, None])
    np.subtract(dr, x, out=x)  # sum(d0 r), d0 = d - mean(d)
    # u = 4s in quantize_contrast's bins, as 4 fl(x / norm) == fl(x / (norm / 4)); a flat candidate has x = 0: s = 0
    u = contrast_bins(np.divide(x, np.where(norms > 0.0, 0.25 * norms, 1.0)))
    codes = u.astype(np.int8)  # the code minus 4
    u += 0.5  # the bin's centre
    # |r - o - s d0|^2 = s^2 norm - 2 s sum(d0 r) + sum((r - o)^2), as d0's rows sum to 0; u's memory takes twice the
    # first two terms, u^2 norm / 8 - u x, and only each range's winner the last, which all its candidates share
    x *= u
    u *= u
    u *= 0.125 * norms
    u -= x
    best = u.argmin(axis=1) if u.shape[1] > 1 else np.zeros(len(u), np.intp)  # argmin pays per row, so c = 1 skips it
    at = np.arange(len(best)) * u.shape[1] + best  # each range's winner, flat in u and codes
    rest = np.einsum("kn,kn->n", r, r) - (2.0 * total - kk * o_byte) * o_byte  # sum((r - o)^2)
    return best, codes.take(at) + 4, o_byte, 0.5 * u.take(at) + rest


def try_phase1(band: RowBand, xy: np.ndarray, level: int, config: EncoderConfig):
    """Fit each block's co-centered domain and test the level threshold.

    xy holds the (n, 2) (x, y) origins of level-sized blocks inside the band.
    _fit takes each block's one candidate as raw moments, with no mean-removed
    copy of the range or the domain. The acceptance RMS is
    re-evaluated with the quantized contrast code and rounded mean, so the
    decision matches what the decoder reconstructs. Level 4 accepts
    unconditionally. Returns (accepted mask, (n, 2) rows of (o_byte, s_code), rms).
    """
    r = _ranges(band, xy, LEVEL_SIZES[level]).astype(np.float64)
    dr, norms, sd = _moments(r, _domains(band, xy, LEVEL_SIZES[level]))
    _, s_code, o_byte, sse = _fit(r, dr[:, None], norms[:, None], sd[:, None])  # one candidate per block
    rms = np.sqrt(sse / len(r))
    accepted = np.full(len(xy), True) if level == 4 else rms <= config.threshold(level)
    return accepted, np.stack([o_byte.astype(np.intp), s_code], axis=1), rms


def try_phase2(band: RowBand, xy: np.ndarray, level: int, config: EncoderConfig):
    """Code each block through its quadrant means with 1-bit contrast picks.

    Applicable at levels 1..3 when every quadrant mean lies within mean_tol
    of the block mean, every coded offset fits the level's bit width, and the
    implied fourth mean stays a byte. Each quadrant keeps its luminance fixed
    to the reconstructed quadrant mean and only chooses between the two set
    values, ties going to the lower; all four quadrants must meet the level
    threshold. The three gates run first, on the quadrant pixels alone; only
    the blocks that pass them gather domains and measure RMS. xy is as for
    try_phase1. Returns (accepted mask, (n, 8) rows of (o_byte, three deltas,
    four s_bits, 0 where a gate fails), worst quadrant rms or inf on rejection).
    """
    if level not in CONTRAST_SETS:
        raise ValueError("phase 2 exists only at levels 1..3")
    n, k = len(xy), LEVEL_SIZES[level] // 2
    kk, quads = k * k, xy + k * QUADRANT_STEPS[:, None]  # (4, n, 2): every TL quadrant, then TR, BL, BR
    q = _ranges(band, quads.reshape(-1, 2), k).reshape(kk, 4, n)  # pixel, quadrant, block
    quad_means = q.sum(axis=0, dtype=np.int32) / kk  # exact, and so is their mean, the block mean
    o_mean = quad_means.mean(axis=0)
    offsets = quad_means - o_mean
    o_byte, deltas = np.floor(o_mean + 0.5), np.floor(offsets[:3] + 0.5)
    targets = np.stack(phase2_targets(o_byte, deltas))  # the implied BR mean must stay a byte
    gates = (np.abs(offsets).max(axis=0) <= config.mean_tol) & (np.abs(deltas).max(axis=0) <= delta_limit(level))
    gates &= (targets[3] >= 0) & (targets[3] <= 255)
    ok = np.flatnonzero(gates)
    r = q[:, :, ok].reshape(kk, -1).astype(np.float64)  # the gated blocks' quadrants, still quadrant-major
    dr, norms, sd = (m.reshape(4, -1) for m in _moments(r, _domains(band, quads[:, ok].reshape(-1, 2), k)))
    total, t = r.sum(axis=0).reshape(4, -1), targets[:, ok]
    x = dr - sd * (total / kk)  # sum(d0 r), as _fit forms it; d0 sums to 0, so it is also sum(d0 (r - t))
    a = np.einsum("kn,kn->n", r, r).reshape(4, -1) - (2.0 * total - kk * t) * t  # sum((r - t)^2), as _fit's rest
    u = np.array([round(20 * s) for s in CONTRAST_SETS[level]])[:, None, None]  # 20s, an integer for each set value
    sse = 400.0 * a - 40 * u * x + u * u * norms  # (2, 4, m) 400 sse(s), exact: README's Encoding section
    bits, worst = np.zeros((4, n)), np.full(n, np.inf)
    bits[:, ok] = sse[1] < sse[0]  # ties to the lower value
    worst[ok] = np.sqrt(sse.min(axis=0).max(axis=0) / (400 * kk))
    accepted = gates & (worst <= config.threshold(level))  # an infinite threshold keeps the gates
    payload = np.concatenate([o_byte[None], deltas, bits]).T.astype(np.intp)
    return accepted, payload, np.where(accepted, worst, np.inf)


def _pad(image: GrayImage, multiple: int) -> GrayImage:
    """`image` padded to a multiple of `multiple`; ValueError past MAX_PIXELS, before anything is padded or fitted."""
    w, h = (-(-side // multiple) * multiple for side in (image.width, image.height))
    if w * h > MAX_PIXELS:
        raise ValueError(f"a padded {w}x{h} raster exceeds MAX_PIXELS ({MAX_PIXELS} pixels)")
    return pad_to_multiple(image, multiple)


def encode_quadtree(image: GrayImage, config: EncoderConfig) -> QuadtreeCode:
    """No-search / MNS quadtree encode over 16x16 roots, one level at a time.

    Phase 1 takes a level's live blocks in calls of up to WORK_PIXELS range
    pixels; in mns mode phase 2 takes what it rejects, likewise; what both
    reject splits into TL, TR, BL, BR children. Level-4 blocks always
    terminate through phase 1. Bands of whole root rows hold at most
    8 * WORK_PIXELS pixels (one root row at least), so one band's box sums and
    one call's float64 arrays bound the memory; 512x512 is one band. Blocks are
    fitted one by one, so calls and bands do not change the code. Accepted
    blocks become LeafTable rows, and one sort by their _morton start puts
    them in DFS order.
    """
    if max(image.width, image.height) > MAX_SIDE // ROOT_SIZE * ROOT_SIZE:  # iff a padded side passes MAX_SIDE
        raise ValueError("padded dimensions exceed the 16-bit header fields")
    padded = _pad(image, ROOT_SIZE)
    w, h = padded.width, padded.height
    rows = []  # per kernel call: LeafTable rows
    band_rows = max(1, 8 * WORK_PIXELS // (ROOT_SIZE * w)) * ROOT_SIZE
    for y0 in range(0, h, band_rows):
        band = _band(padded, y0, min(y0 + band_rows, h))
        ys, xs = np.mgrid[y0 : min(y0 + band_rows, h) : ROOT_SIZE, 0:w:ROOT_SIZE].reshape(2, -1)
        xy = np.stack([xs, ys], axis=1)
        for level, size in LEVEL_SIZES.items():
            step = max(1, WORK_PIXELS // size**2)  # blocks per kernel call
            # phase 1 accepts every level-4 block, so phase 2 never runs at level 4
            for phase in (try_phase1, try_phase2) if config.mode == "mns" else (try_phase1,):
                live = np.ones(len(xy), dtype=bool)
                for i in range(0, len(xy) if 2 * size <= min(w, h) else 0, step):  # a 16-wide raster: no level 1
                    accepted, payload, _ = phase(band, xy[i : i + step], level, config)
                    rows.append(_rows(xy[i : i + step][accepted], level, payload[accepted]))
                    live[i : i + step] = ~accepted
                xy = xy[live]
            xy = _quadrants(xy, size)
    table = np.concatenate(rows)
    rows.clear()  # the parts go before the sort copies the table
    table = table[np.argsort(_morton(table[:, 2], table[:, 3], w))]
    return QuadtreeCode(LeafTable(table), w, h, image.width, image.height, config.mode, config.technique2)


def _norm_table(sums: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_moments' norm and sum(d) of the 2x2 means of the 2k x 2k domains at every origin, indexed [y, x], bit for
    bit: each domain's sum(S) and sum(S^2) over its k x k stride-2 box sums S (the uint16 `sums`), added separably
    in int32, doubling the span each pass, exactly (README's Encoding section gives the bound)."""
    s, tables = sums.astype(np.int32), []
    for t in (s, s * s):
        span = 1
        while span < k:
            t = t[: -2 * span] + t[2 * span :]
            t = t[:, : -2 * span] + t[:, 2 * span :]
            span *= 2
        tables.append(t)
    sd, sq = tables[0] * 0.25, tables[1] * 0.0625
    return sq - sd * sd / (k * k), sd


def _translates(windows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum(S r) of each 8x8 range r, (n, 8, 8), and the 2x2 sums S at each of the 9 x 9 origins of its (n, 23, 23)
    window: one product of the window's (23, 9, 8) row view, rows[y, x, j] = window[y, x + 2j], with the range's
    rows, then 8 shifted adds. g[y, x] = sum over i, j of window[y + 2i, x + 2j] r[i, j]."""
    n, (s0, s1, s2) = len(r), windows.strides
    rows = np.ndarray((n, 23, 9, 8), windows.dtype, windows, 0, (s0, s1, s2, 2 * s2))
    p = rows @ r.transpose(0, 2, 1)[:, None]  # p[y, x, i] = sum over j of rows[y, x, j] r[i, j]
    g = p[:, 0:9, :, 0].copy()
    for i in range(1, 8):
        g += p[:, 2 * i : 2 * i + 9, :, i]
    return g


def _search(image: GrayImage, k: int, xs: np.ndarray, ys: np.ndarray) -> LeafTable:
    """LeafTable of the k x k ranges of `image`, whose sides are multiples of k, in raster order:
    each takes its lowest-error 2k x 2k candidate domain, ties to the first. xs and ys hold the
    candidates' origins: (c,) for one pool shared by every range, or (n, c) for local search's 8x8
    ranges, each pool at most 8 past its first origin on each axis. Norms and sum(d) come from _norm_table;
    sum(d r) takes raw box sums and quartered ranges, in float32 up to k = 8, with a shared pool as the left
    factor and local search's 23 x 23 windows through _translates. README's Encoding section says why, and
    how calls split the ranges."""
    h, w = image.pixels.shape
    sums, c, shared = box_sums(image, np.uint16), xs.shape[-1], xs.ndim == 1
    ranges = image.pixels.reshape(h // k, k, w // k, k).swapaxes(1, 2).reshape(-1, k * k)  # in raster order
    norms, sd, dtype = *_norm_table(sums, k), np.float32 if k <= 8 else np.float64
    if shared:
        pool = flat_windows(sums.astype(dtype), 2 * k - 1)[ys * (w - 1) + xs, ::2, ::2].reshape(c, -1)
        pool_norms, pool_sd = norms[ys, xs], sd[ys, xs]
        calls = -(-len(ranges) // max(1, WORK_PIXELS // 3 // c))
        step = -(-len(ranges) // calls)  # equal calls: the largest is as small as their number allows
    else:  # each range's window starts at its first candidate, shifted back in bounds; a 16-pixel side is padded
        sums = np.pad(sums.astype(np.float32), ((0, max(24 - h, 0)), (0, max(24 - w, 0))))
        u, v = np.minimum(xs[:, 0], max(w - 24, 0)), np.minimum(ys[:, 0], max(h - 24, 0))
        step = max(1, WORK_PIXELS // (23 * 9 * 8))
        # each candidate's origin in its range's 9 x 9 grid, flat in its call's (ranges, 9, 9) grids
        cells = (ys - v[:, None]) * 9 + xs - u[:, None] + 81 * (np.arange(len(ranges)) % step)[:, None]
        at = ys * norms.shape[1] + xs  # each candidate's flat index into the per-origin tables
    xs, ys = np.broadcast_to(xs, (len(ranges), c)), np.broadcast_to(ys, (len(ranges), c))
    rows = np.zeros((len(ranges), LeafTable.WIDTH), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 4], rows[:, 16] = SIZE_LEVELS[k], SEARCH, k, 2 * k
    rows[:, 3], rows[:, 2] = np.mgrid[0:h:k, 0:w:k].reshape(2, -1)
    for i in range(0, len(ranges), step):
        part = slice(i, i + step)
        r, r4 = ranges[part].astype(np.float64), ranges[part] * dtype(0.25)
        if shared:
            best, rows[part, 6], rows[part, 5], _ = _fit(r.T, (pool @ r4.T).T, pool_norms, pool_sd)
        else:
            g = _translates(flat_windows(sums, 23)[v[part] * sums.shape[1] + u[part]], r4.reshape(-1, 8, 8))
            dr, near = g.take(cells[part]), at[part]
            best, rows[part, 6], rows[part, 5], _ = _fit(r.T, dr, norms.take(near), sd.take(near))
        won = np.arange(i, i + len(best)), best
        rows[part, 14], rows[part, 15] = xs[won], ys[won]
    return LeafTable(rows)


def encode_full_search(
    image: GrayImage, range_size: int, config: EncoderConfig
) -> tuple[QuadtreeCode, list[tuple[int, int]]]:
    """Exhaustive-domain baseline on a fixed-size partition.

    The domain pool holds every double-size block on a lattice with stride
    config.full_search_step; its raw 2x2 sums are gathered once per image, in float32 up to 8x8 ranges,
    and its norms read from the per-origin table once. Per range the best
    (domain, quantized s, o) by error wins, ties going to the smallest
    (y, x) domain origin. Also returns one (dx, dy) domain-minus-range
    center offset per range, the raw material for the locality histograms.
    Cost is quadratic in the pool size, so this is for desk-scale images.
    """
    if not isinstance(range_size, (int, np.integer)) or range_size not in SIZE_LEVELS:  # 8.0 == 8, yet no size
        raise ValueError(f"range size must be one of {sorted(SIZE_LEVELS)}")
    dsize = 2 * range_size
    if image.width < dsize or image.height < dsize:
        raise ValueError(f"image too small for any {dsize}x{dsize} domain")
    padded = _pad(image, range_size)
    w, h, step = padded.width, padded.height, config.full_search_step
    ys, xs = np.mgrid[0 : h - dsize + 1 : step, 0 : w - dsize + 1 : step].reshape(2, -1)
    table = _search(padded, range_size, xs, ys)
    offsets = table.domain[:, :2] - table.rows[:, 2:4] + range_size - range_size // 2  # domain center - range center
    return QuadtreeCode(table, w, h, image.width, image.height, "full_search", False), list(zip(*offsets.T.tolist()))


def encode_local_search(image: GrayImage, config: EncoderConfig) -> QuadtreeCode:
    """81-candidate local search around each 8x8 range's co-centered domain.

    Candidates are the co-centered 16x16 block translated by dx, dy in
    -4..4, each clamped back in bounds; clamped duplicates are still scored,
    81 per range. Ties keep the first candidate in (dy, dx) scan order.
    All 81 lie in one 23 x 23 window of box sums, scored by one product per
    range; their norms come from the per-origin table, with no per-candidate gather.
    """
    if image.width < 16 or image.height < 16:
        raise ValueError("local search needs at least a 16x16 image")
    padded = _pad(image, 8)
    w, h = padded.width, padded.height
    ry, rx = np.mgrid[0:h:8, 0:w:8].reshape(2, -1).astype(np.int32)  # flat indices stay under MAX_PIXELS < 2^31
    bx, by = co_domain_origins(rx, ry, 8, w, h)
    dys, dxs = np.indices((9, 9), np.int32).reshape(2, 81) - 4  # shifts in (dy, dx) scan order
    xs, ys = np.clip(bx[:, None] + dxs, 0, w - 16), np.clip(by[:, None] + dys, 0, h - 16)
    return QuadtreeCode(_search(padded, 8, xs, ys), w, h, image.width, image.height, "local_search", False)
