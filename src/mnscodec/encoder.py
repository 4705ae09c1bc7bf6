"""Quadtree driver and the four encoding strategies, which share one block-fit kernel, _fit.

Modes:
  no_search    - phase 1 only: each range fits its fixed co-centered domain, one _fit candidate.
  mns          - phase 1, then the sub-block-mean phase 2 before splitting.
  full_search  - one exhaustive domain pool on a fixed-size partition, shared by every range (baseline).
  local_search - a pool per 8x8 range: 81 candidates around the co-centered domain (baseline).

On integer pixels with power-of-two sides and contrasts in steps of 1/8, every term of _fit's
expanded sum of squared residuals is exact in float64, so it is rms_error's sum of squares to the
last bit, in any order. Phase 2's contrasts are not dyadic; _rms keeps rms_error's order there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import GrayImage, box_sums, co_domain_origins, domain_means, pad_to_multiple
from .image import downsample_mean2  # noqa: F401 (traced by perfbench)
from .transform import CONTRAST_VALUES, quantize_contrast
from .transform import fit_affine, rms_error  # noqa: F401 (traced by perfbench)

MODES = ("no_search", "mns")  # the quadtree modes; the search baselines take only full_search_step

ROOT_SIZE = 16
MAX_SIDE = 0xFFFF  # largest padded side: the .mns header stores each dimension as a u16
LEVEL_SIZES = {1: 16, 2: 8, 3: 4, 4: 2}
SIZE_LEVELS = {size: level for level, size in LEVEL_SIZES.items()}
WORK_PIXELS = 1 << 16  # range pixels per kernel call; a band holds up to 8x as many pixels (one root row at least)
QUADRANT_STEPS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])  # (dx, dy) of TL, TR, BL, BR, in quadrant sides

# Two-element contrast sets searched per quadrant in phase 2, one per level.
CONTRAST_SETS = {1: (0.2, 0.5), 2: (0.4, 0.65), 3: (0.5, 0.9)}

# Magnitude bits of a phase-2 mean offset; one sign bit comes on top.
DELTA_MAGNITUDE_BITS = {1: 4, 2: 5, 3: 5}


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
        if any(math.isnan(v) for v in (self.e1, self.e2, self.e3, self.mean_tol)):
            raise ValueError("error thresholds and mean_tol must not be NaN")
        if min(self.e1, self.e2, self.e3) <= 0:
            raise ValueError("error thresholds must be positive")
        if self.mean_tol < 0:
            raise ValueError("mean_tol must be non-negative")
        if self.full_search_step < 1:
            raise ValueError("full_search_step must be >= 1")

    def threshold(self, level: int) -> float:
        """RMS tolerance for a splittable level (1..3)."""
        return (self.e1, self.e2, self.e3)[level - 1]


PHASE1, PHASE2, SEARCH = 0, 1, 2  # leaf kinds: co-centered fit, sub-block means, stored search domain


class LeafTable:
    """A code's leaves as int64 columns of one read-only (n, 17) array, a row per leaf in code order.

    Columns: level, kind (PHASE1, PHASE2 or SEARCH), the block's x, y and size, o_byte, s_code,
    then the (n, 3) deltas, the (n, 4) s_bits and the search domain's (n, 3) x, y and size;
    fields a kind does not use are 0. An int64 `rows` array is kept as it is and made
    read-only. Its repr lists every row in full.
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
    """Leaves tiling the padded raster in DFS order, plus header metadata.

    DFS order: 16x16 roots in raster order, children in TL, TR, BL, BR order.
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


def _band(image: GrayImage, y0: int, y1: int) -> RowBand:
    """Pixel rows y0..y1 plus every row their domains reach: an 8-row halo, or 16 rows on
    the far side where a level-1 domain is clamped at the raster's top or bottom edge."""
    lo, hi, d = 0, image.height, 2 * ROOT_SIZE
    if hi >= d:  # level 1 runs; otherwise the band is the whole 16-row raster
        lo = min(max(y0 - ROOT_SIZE // 2, 0), hi - d)
        hi = min(max(y1 - ROOT_SIZE - ROOT_SIZE // 2, 0), hi - d) + d
    pixels = image.pixels[lo:hi]
    return RowBand(pixels, box_sums(pixels, np.uint16), lo, image.width, image.height)


def _ranges_and_domains(band: RowBand, xy: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Float pixels of the k x k ranges at origins xy and the 2x2 means of their co-centered domains, a row each."""
    x, y = xy.T
    dx, dy = co_domain_origins(x, y, k, band.width, band.height)
    r = sliding_window_view(band.pixels, (k, k))[y - band.lo, x].reshape(-1, k * k).astype(np.float64)
    return r, domain_means(band.sums, dx, dy - band.lo, k).reshape(-1, k * k)


def _centered(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Domains d, one per last-axis row, mean-removed in place, and each row's squared norm."""
    d -= d.mean(axis=-1, keepdims=True)
    return d, np.einsum("...k,...k->...", d, d)


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


def _fit(r: np.ndarray, d: np.ndarray, norms: np.ndarray):
    """Each range's lowest-error candidate domain under its quantized least-squares contrast.

    r holds (n, kk) range pixels, which it overwrites; d the mean-removed candidates' 2x2 means,
    (n, c, kk), a pool per range, or (c, kk), one pool for all; norms their squared norms, (n, c)
    or (c,). Returns each range's candidate index (ties to the first), s code, o byte (the range mean
    rounded half up, as a float) and sum of squared residuals, exact as the module docstring says.
    """
    o_byte = np.floor(r.mean(axis=1) + 0.5)  # halves round up
    # rows of d sum to exactly 0, so the cross term needs no mean-removed copy of r
    cross = np.einsum("nck,nk->nc", d, r) if d.ndim == 3 else r @ d.T
    s_code = quantize_contrast(cross / np.where(norms > 0.0, norms, 1.0))  # a flat candidate: s = 0
    s = np.take(CONTRAST_VALUES, s_code)
    r -= o_byte[:, None]  # in place: the callers' ranges are scratch
    sse = (s * norms - 2.0 * cross) * s  # |r - o - s d|^2 expanded; d's rows sum to 0
    sse += np.einsum("ij,ij->i", r, r)[:, None]
    best = sse.argmin(axis=1)
    at = (np.arange(len(r)), best)
    return best, s_code[at], o_byte, sse[at]


def _rms(r: np.ndarray, d0: np.ndarray, s, o) -> np.ndarray:
    """rms_error of each last-axis row: the same operations in the same order, and a mean
    over a contiguous last axis, which reduces each row as rms_error reduces one block."""
    res = s * d0
    res += o
    np.subtract(r, res, out=res)
    res *= res
    return np.sqrt(res.mean(axis=-1))


def try_phase1(band: RowBand, xy: np.ndarray, level: int, config: EncoderConfig):
    """Fit each block's co-centered domain and test the level threshold.

    xy holds the (n, 2) (x, y) origins of level-sized blocks inside the band.
    The acceptance RMS is re-evaluated with the quantized contrast code and
    rounded mean, so the decision matches what the decoder reconstructs.
    Level 4 accepts unconditionally. Returns (accepted mask, (n, 2) rows of
    (o_byte, s_code), rms).
    """
    r, d = _ranges_and_domains(band, xy, LEVEL_SIZES[level])
    _, s_code, o_byte, sse = _fit(r, *_centered(d[:, None]))  # one candidate per block
    rms = np.sqrt(sse / r.shape[1])
    accepted = np.full(len(xy), True) if level == 4 else rms <= config.threshold(level)
    return accepted, np.stack([o_byte.astype(np.intp), s_code], axis=1), rms


def try_phase2(band: RowBand, xy: np.ndarray, level: int, config: EncoderConfig):
    """Code each block through its quadrant means with 1-bit contrast picks.

    Applicable at levels 1..3 when every quadrant mean lies within mean_tol
    of the block mean, every coded offset fits the level's bit width, and the
    implied fourth mean stays a byte. Each quadrant keeps its luminance fixed
    to the reconstructed quadrant mean and only chooses between the two set
    values, ties going to the lower; all four quadrants must meet the level
    threshold. xy is as for try_phase1. Returns (accepted mask, (n, 8) rows
    of (o_byte, three deltas, four s_bits), worst quadrant rms or inf on
    rejection).
    """
    if level not in CONTRAST_SETS:
        raise ValueError("phase 2 exists only at levels 1..3")
    n = len(xy)
    r, d = _ranges_and_domains(band, _quadrants(xy, LEVEL_SIZES[level]), LEVEL_SIZES[level] // 2)
    r, d = r.reshape(n, 4, -1), d.reshape(n, 4, -1)
    # block and quadrant means are exact in float64 on integer pixels
    o_mean = r.reshape(n, -1).mean(axis=1)
    quad_means = r.mean(axis=2)
    o_byte = np.floor(o_mean + 0.5)
    deltas = np.floor(quad_means[:, :3] - o_mean[:, None] + 0.5)
    targets = np.stack(phase2_targets(o_byte, deltas.T), axis=1)  # the implied BR mean must stay a byte
    accepted = ((np.abs(quad_means - o_mean[:, None]).max(axis=1) <= config.mean_tol)
                & (np.abs(deltas).max(axis=1) <= delta_limit(level)) & (targets[:, 3] >= 0) & (targets[:, 3] <= 255))
    d -= d.mean(axis=2, keepdims=True)
    rms_lo, rms_hi = (_rms(r, d, s, targets[:, :, None]) for s in CONTRAST_SETS[level])
    bits = rms_hi < rms_lo
    rms = np.where(bits, rms_hi, rms_lo)
    accepted &= (rms <= config.threshold(level)).all(axis=1)
    payload = np.concatenate([o_byte[:, None], deltas, bits], axis=1).astype(np.intp)
    return accepted, payload, np.where(accepted, rms.max(axis=1), np.inf)


def encode_quadtree(image: GrayImage, config: EncoderConfig) -> QuadtreeCode:
    """No-search / MNS quadtree encode over 16x16 roots, one level at a time.

    Phase 1 takes a level's live blocks in calls of up to WORK_PIXELS range
    pixels; in mns mode phase 2 takes what it rejects, likewise; what both
    reject splits into TL, TR, BL, BR children. Level-4 blocks always
    terminate through phase 1. Bands of whole root rows hold at most
    8 * WORK_PIXELS pixels (one root row at least), so one band's box sums and
    one call's float64 arrays bound the memory; 512x512 is one band. Blocks are
    fitted one by one, so calls and bands do not change the code. Accepted
    blocks become LeafTable rows keyed by their Morton start (root index, then
    a quadrant digit per level); one sort puts them in DFS order.
    """
    if -(-max(image.width, image.height) // ROOT_SIZE) * ROOT_SIZE > MAX_SIDE:
        raise ValueError("padded dimensions exceed the 16-bit header fields")
    padded = pad_to_multiple(image, ROOT_SIZE)
    w, h = padded.width, padded.height
    rows, keys = [], []  # per kernel call: LeafTable rows and their Morton starts
    band_rows = max(1, 8 * WORK_PIXELS // (ROOT_SIZE * w)) * ROOT_SIZE
    for y0 in range(0, h, band_rows):
        band = _band(padded, y0, min(y0 + band_rows, h))
        ys, xs = np.mgrid[y0 : min(y0 + band_rows, h) : ROOT_SIZE, 0:w:ROOT_SIZE].reshape(2, -1)
        xy = np.stack([xs, ys], axis=1)
        path = ys // ROOT_SIZE * (w // ROOT_SIZE) + xs // ROOT_SIZE  # root index, then a base-4 digit per level
        for level, size in LEVEL_SIZES.items():
            step = max(1, WORK_PIXELS // size**2)  # blocks per kernel call
            # phase 1 accepts every level-4 block, so phase 2 never runs at level 4
            for phase in (try_phase1, try_phase2) if config.mode == "mns" else (try_phase1,):
                live = np.ones(len(xy), dtype=bool)
                for i in range(0, len(xy) if 2 * size <= min(w, h) else 0, step):  # a 16-wide raster: no level 1
                    accepted, payload, _ = phase(band, xy[i : i + step], level, config)
                    rows.append(_rows(xy[i : i + step][accepted], level, payload[accepted]))
                    keys.append(path[i : i + step][accepted] * 4 ** (len(LEVEL_SIZES) - level))
                    live[i : i + step] = ~accepted
                xy, path = xy[live], path[live]
            xy, path = _quadrants(xy, size), (path[:, None] * 4 + np.arange(4)).ravel()
    table, order = np.concatenate(rows), np.argsort(np.concatenate(keys))
    rows.clear()  # the parts go before the sort copies the table
    return QuadtreeCode(LeafTable(table[order]), w, h, image.width, image.height, config.mode, config.technique2)


def _search(image: GrayImage, k: int, xs: np.ndarray, ys: np.ndarray) -> LeafTable:
    """LeafTable of the k x k ranges of `image`, whose sides are multiples of k, in raster order:
    each takes its lowest-error 2k x 2k candidate domain, ties to the first. xs and ys hold the
    candidates' origins: (c,) for one pool shared by every range, or (n, c), a pool per range.
    A call takes as many ranges as keep its per-range pools within WORK_PIXELS candidate pixels,
    or a shared pool's (ranges, c) score matrix within WORK_PIXELS // 8 entries."""
    h, w = image.pixels.shape
    sums, c, shared = box_sums(image, np.uint16), xs.shape[-1], xs.ndim == 1
    ranges = sliding_window_view(image.pixels, (k, k))[::k, ::k].reshape(-1, k * k)  # in raster order
    pool = _centered(domain_means(sums, xs, ys, k).reshape(c, -1)) if shared else None
    step = max(1, WORK_PIXELS // 8 // c if shared else WORK_PIXELS // (c * k * k))
    xs, ys = np.broadcast_to(xs, (len(ranges), c)), np.broadcast_to(ys, (len(ranges), c))
    rows = np.zeros((len(ranges), LeafTable.WIDTH), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 4], rows[:, 16] = SIZE_LEVELS[k], SEARCH, k, 2 * k
    rows[:, 3], rows[:, 2] = np.mgrid[0:h:k, 0:w:k].reshape(2, -1)
    for i in range(0, len(ranges), step):
        part = slice(i, i + step)
        d, norms = pool if shared else _centered(domain_means(sums, xs[part], ys[part], k).reshape(-1, c, k * k))
        best, rows[part, 6], rows[part, 5], _ = _fit(ranges[part].astype(np.float64), d, norms)
        rows[part, 14:16] = np.stack([xs[part], ys[part]], axis=2)[np.arange(len(best)), best]
    return LeafTable(rows)


def encode_full_search(
    image: GrayImage, range_size: int, config: EncoderConfig
) -> tuple[QuadtreeCode, list[tuple[int, int]]]:
    """Exhaustive-domain baseline on a fixed-size partition.

    The domain pool holds every double-size block on a lattice with stride
    config.full_search_step; it is built once per image. Per range the best
    (domain, quantized s, o) by error wins, ties going to the smallest
    (y, x) domain origin. Also returns one (dx, dy) domain-minus-range
    center offset per range, the raw material for the locality histograms.
    Cost is quadratic in the pool size, so this is for desk-scale images.
    """
    if range_size not in SIZE_LEVELS:
        raise ValueError(f"range size must be one of {sorted(SIZE_LEVELS)}")
    dsize = 2 * range_size
    if image.width < dsize or image.height < dsize:
        raise ValueError(f"image too small for any {dsize}x{dsize} domain")
    padded = pad_to_multiple(image, range_size)
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
    """
    if image.width < 16 or image.height < 16:
        raise ValueError("local search needs at least a 16x16 image")
    padded = pad_to_multiple(image, 8)
    w, h = padded.width, padded.height
    ry, rx = np.mgrid[0:h:8, 0:w:8].reshape(2, -1)
    bx, by = co_domain_origins(rx, ry, 8, w, h)
    dys, dxs = np.indices((9, 9)).reshape(2, 81) - 4  # shifts in (dy, dx) scan order
    xs, ys = np.clip(bx[:, None] + dxs, 0, w - 16), np.clip(by[:, None] + dys, 0, h - 16)
    return QuadtreeCode(_search(padded, 8, xs, ys), w, h, image.width, image.height, "local_search", False)
