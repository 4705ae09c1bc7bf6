"""Quadtree driver and the four encoding strategies, which share one block-fit kernel, _fit.

Modes:
  no_search    - phase 1 only: each range fits its fixed co-centered domain, one _fit candidate.
  mns          - phase 1, then the sub-block-mean phase 2 before splitting.
  full_search  - one exhaustive domain pool on a fixed-size partition, shared by every range (baseline).
  local_search - a pool per 8x8 range: 81 candidates around the co-centered domain (baseline).

Every decision scores exact moments: both phases take theirs from _block_moments, which gathers each visited block
once and adds in int32, the searches from _norm_table and box-sum products. _fit scores phase 1 and the searches,
and phase 2 its two contrast values from the same sums, exact in any order on integer pixels; so each mode's codes
equal its exact per-block fits (README's Encoding section).

The kernels put the block axis last: _gather gives (kk, n) pixels through image's gathers, a row per pixel position
and a column per block, and phase 2 keeps (4, n) quadrant rows. So each per-block sum adds whole rows of n, where an
(n, kk) layout sums a tiny trailing axis per block: on a (4096, 4) float64 array that sum took 76 us, against 6 us
over (4, 4096). The sums are exact, so this order gives the same bits as any other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .code import CONTRAST_SETS, LEVEL_SIZES, MAX_PIXELS, MAX_SIDE, MODES, PHASE1, PHASE2, QUADRANT_STEPS, ROOT_SIZE
from .code import SEARCH, SIZE_LEVELS, TOO_MANY_PIXELS, LeafTable, QuadtreeCode, co_domain_origins, delta_limit
from .code import leaf_rows, morton_start, phase2_targets
from .image import GrayImage, box_sums, flat_windows, gather_planes, pad_to_multiple
from .image import downsample_mean2  # noqa: F401 (traced by perfbench)
from .transform import contrast_bins
from .transform import fit_affine, rms_error  # noqa: F401 (traced by perfbench)

WORK_PIXELS = 1 << 16  # range pixels per kernel call; a band holds up to 8x as many pixels (one root row at least)


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


def _gather(a: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, step: int) -> np.ndarray:
    """The k x k samples, every step-th row and column, of the C-contiguous 2-D array `a` at origins x, y, as a
    (k * k, n) array: the block axis last, so every per-block sum adds whole rows. Sides up to 4 gather as pixel
    planes (image.gather_planes), where a take per sample costs less than a fancy-indexed window per block; larger
    ones as flat_windows, viewed transposed. Both give the same elements."""
    at = y * a.shape[1] + x
    return gather_planes(a, at, k, step) if k <= 4 else flat_windows(a, k, step)[at].reshape(len(at), k * k).T


def _block_moments(band: RowBand, xy: np.ndarray, k: int) -> np.ndarray:
    """The moments both phases score from, of the k x k ranges at origins xy and their co-centered domains, as
    (5, n) float64 rows: sum(d r), the norm sum(d0^2) = sum(d^2) - sum(d)^2 / kk, sum(d), sum(r) and sum(r^2), where
    d = S / 4, S a domain's stride-2 box sums, and d0 = d - mean(d): exact int32 einsums of S and r, then scaled."""
    dx, dy = co_domain_origins(xy[:, 0], xy[:, 1], k, band.width, band.height)
    r = _gather(band.pixels, xy[:, 0], xy[:, 1] - band.lo, k, 1).astype(np.int32)
    s = _gather(band.sums, dx, dy - band.lo, k, 2).astype(np.int32)
    sd, (sr, ss, rr) = np.einsum("kn->n", s) * 0.25, (np.einsum("kn,kn->n", a, b) for a, b in ((s, r), (s, s), (r, r)))
    return np.stack([sr * 0.25, ss * 0.0625 - sd * sd / (k * k), sd, np.einsum("kn->n", r), rr])


def _level_moments(band: RowBand, xy: np.ndarray, k: int) -> np.ndarray:
    """_block_moments of the k x k blocks at origins xy, in calls of up to WORK_PIXELS range pixels."""
    step = max(1, WORK_PIXELS // (k * k))
    parts = [_block_moments(band, xy[i : i + step], k) for i in range(0, len(xy), step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _rows(xy: np.ndarray, level: int, payload: np.ndarray) -> np.ndarray:
    """LeafTable rows of the blocks at origins xy from payload rows: (o_byte, s_code) for
    phase 1, or (o_byte, three deltas, four s_bits) for phase 2."""
    if payload.shape[1] == 8:
        return leaf_rows(level, PHASE2, *xy.T, payload[:, 0], 0, payload[:, 1:4], payload[:, 4:])
    return leaf_rows(level, PHASE1, *xy.T, *payload.T)


def _fit(kk: int, total: np.ndarray, sq: np.ndarray, dr: np.ndarray, norms: np.ndarray, sd: np.ndarray):
    """Each range's lowest-error candidate domain under its quantized least-squares contrast.

    Each range has kk pixels, whose sum(r) and sum(r^2) are total and sq, (n,); dr holds each candidate's sum(d r),
    (n, c), and norms and sd its sum(d0^2) and sum(d), (n, c) or (c,), as _block_moments forms them, where d is the
    candidate's 2x2 means and d0 = d - mean(d). The cross terms sum(d0 r) are formed here from each range's sum.
    None is written. Returns each range's candidate index (ties to the first), s code, o byte (the range mean rounded
    half up, as a float) and sum of squared residuals, exact as README's Encoding section shows.
    """
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
    rest = sq - (2.0 * total - kk * o_byte) * o_byte  # sum((r - o)^2)
    return best, codes.take(at) + 4, o_byte, 0.5 * u.take(at) + rest


def try_phase1(m: np.ndarray, *, level: int, config: EncoderConfig):
    """Fit each block's co-centered domain and test the level threshold.

    m holds the (5, n) _block_moments of n level-sized blocks, from which _fit takes each block's one candidate:
    no pixel is read. The acceptance RMS is re-evaluated with the quantized contrast code and rounded mean, so the
    decision matches what the decoder reconstructs. Level 4 accepts unconditionally. Returns (accepted mask,
    (n, 2) rows of (o_byte, s_code), rms).
    """
    (dr, norms, sd, total, sq), kk = m, LEVEL_SIZES[level] ** 2
    _, s_code, o_byte, sse = _fit(kk, total, sq, dr[:, None], norms[:, None], sd[:, None])  # one candidate per block
    rms = np.sqrt(sse / kk)
    accepted = np.full(len(rms), True) if level == 4 else rms <= config.threshold(level)
    return accepted, np.stack([o_byte.astype(np.intp), s_code], axis=1), rms


def try_phase2(m: np.ndarray, *, level: int, config: EncoderConfig):
    """Code each block through its quadrant means with 1-bit contrast picks.

    m holds the (5, 4n) _block_moments of the quadrants of n level-sized blocks, quadrant-major: every TL quadrant,
    then every TR, BL and BR one. Applicable at levels 1..3 when every quadrant mean lies within mean_tol of the
    block mean, every coded offset fits the level's bit width, and the implied fourth mean stays a byte. Each
    quadrant keeps its luminance fixed to the reconstructed quadrant mean and only chooses between the two set
    values, ties going to the lower; all four quadrants must meet the level threshold. The gates read the
    quadrants' sum(r), and the scores all five moments: no pixel is read. Returns (accepted mask, (n, 8) rows of
    (o_byte, three deltas, four s_bits, 0 where a gate fails), worst quadrant rms or inf on rejection).
    """
    if level not in CONTRAST_SETS:
        raise ValueError("phase 2 exists only at levels 1..3")
    kk = (LEVEL_SIZES[level] // 2) ** 2
    dr, norms, sd, total, sq = m.reshape(5, 4, -1)  # moment, quadrant, block
    quad_means = total / kk  # exact, and so is their mean, the block mean
    o_mean = quad_means.mean(axis=0)
    offsets = quad_means - o_mean
    o_byte, deltas = np.floor(o_mean + 0.5), np.floor(offsets[:3] + 0.5)
    t = np.stack(phase2_targets(o_byte, deltas))  # the implied BR mean must stay a byte
    gates = (np.abs(offsets).max(axis=0) <= config.mean_tol) & (np.abs(deltas).max(axis=0) <= delta_limit(level))
    gates &= (t[3] >= 0) & (t[3] <= 255)
    x = dr - sd * quad_means  # sum(d0 r), as _fit forms it; d0 sums to 0, so it is also sum(d0 (r - t))
    a = sq - (2.0 * total - kk * t) * t  # sum((r - t)^2), as _fit's rest
    u = np.array([round(20 * s) for s in CONTRAST_SETS[level]])[:, None, None]  # 20s, an integer for each set value
    sse = 400.0 * a - 40 * u * x + u * u * norms  # (2, 4, n) 400 sse(s), exact: README's Encoding section
    bits = (sse[1] < sse[0]) & gates  # ties to the lower value
    worst = np.sqrt(sse.min(axis=0).max(axis=0) / (400 * kk))
    accepted = gates & (worst <= config.threshold(level))  # an infinite threshold keeps the gates
    payload = np.concatenate([o_byte[None], deltas, bits]).T.astype(np.intp)
    return accepted, payload, np.where(accepted, worst, np.inf)


def _pad(image: GrayImage, multiple: int) -> GrayImage:
    """`image` padded to a multiple of `multiple`; ValueError past MAX_PIXELS, before anything is padded or fitted."""
    w, h = (-(-side // multiple) * multiple for side in (image.width, image.height))
    if w * h > MAX_PIXELS:
        raise ValueError(TOO_MANY_PIXELS)
    return pad_to_multiple(image, multiple)


def _walk(band: RowBand, xy: np.ndarray, config: EncoderConfig, level1: bool):
    """Yield the LeafTable rows of the quadtrees of the roots at origins xy in `band`, one level at a time, from level
    1 unless level1 is false (a 16-wide raster: no level-1 domain fits), each phase call's accepted blocks at once.

    Each visited block's moments are gathered once, by _level_moments: the roots', then the four children of each
    block phase 1 rejects, TL, TR, BL, BR, quadrant-major. In mns mode phase 2 scores the children; the children of
    each block it rejects (in no_search mode, of each block phase 1 rejects) are the next level's live blocks, their
    moments in hand. Level-4 blocks always terminate through phase 1.
    """
    m = _level_moments(band, xy, ROOT_SIZE) if level1 else None
    for level, size in LEVEL_SIZES.items():
        if m is not None and len(xy):
            accepted, payload, _ = try_phase1(m, level=level, config=config)
            yield _rows(xy[accepted], level, payload[accepted])
            xy = xy[~accepted]
        if level == 4 or not len(xy):  # phase 1 accepts every level-4 block, so phase 2 never runs at level 4
            return
        kids = (xy + size // 2 * QUADRANT_STEPS[:, None]).reshape(-1, 2)  # every TL child, then TR, BL, BR
        kid_moments = _level_moments(band, kids, size // 2)
        if config.mode == "mns" and m is not None:
            accepted, payload, _ = try_phase2(kid_moments, level=level, config=config)
            yield _rows(xy[accepted], level, payload[accepted])
            live = np.tile(~accepted, 4)
            kids, kid_moments = kids[live], kid_moments[:, live]
        xy, m = kids, kid_moments


def encode_quadtree(image: GrayImage, config: EncoderConfig) -> QuadtreeCode:
    """No-search / MNS quadtree encode over 16x16 roots, one level at a time (_walk).

    Bands of whole root rows hold at most 8 * WORK_PIXELS pixels (one root row at least), so one band's box sums,
    one gather call's int32 ranges and domains, and the moments and phase-call arrays of a level's live blocks
    bound the memory beside the leaves; 512x512 is one band. Blocks are fitted one by one, so calls and bands do not
    change the code. Accepted blocks become LeafTable rows; a stable sort of their morton_start puts them in DFS order.
    """
    if max(image.width, image.height) > MAX_SIDE // ROOT_SIZE * ROOT_SIZE:  # iff a padded side passes MAX_SIDE
        raise ValueError("padded dimensions exceed the 16-bit header fields")
    padded = _pad(image, ROOT_SIZE)
    w, h = padded.width, padded.height
    rows = []  # per phase call: LeafTable rows
    band_rows = max(1, 8 * WORK_PIXELS // (ROOT_SIZE * w)) * ROOT_SIZE
    for y0 in range(0, h, band_rows):
        ys, xs = np.mgrid[y0 : min(y0 + band_rows, h) : ROOT_SIZE, 0:w:ROOT_SIZE].reshape(2, -1)
        band = _band(padded, y0, min(y0 + band_rows, h))
        rows.extend(_walk(band, np.stack([xs, ys], axis=1), config, 2 * ROOT_SIZE <= min(w, h)))
    table = LeafTable(np.concatenate(rows))
    rows.clear()  # the parts go before the sort copies the table
    table = LeafTable(table.rows[np.argsort(morton_start(table.x, table.y, w), kind="stable")])
    return QuadtreeCode(table, w, h, image.width, image.height, config.mode, config.technique2)


def _norm_table(sums: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_block_moments' norm and sum(d) of the 2x2 means of the 2k x 2k domains at every origin, indexed [y, x], bit
    for bit: each domain's sum(S) and sum(S^2) over its k x k stride-2 box sums S (the uint16 `sums`), added
    separably in int32, doubling the span each pass, exactly (README's Encoding section gives the bound)."""
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
        pool = flat_windows(sums.astype(dtype), k, 2)[ys * (w - 1) + xs].reshape(c, -1)
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
    o_byte, s_code, dx, dy = np.zeros((4, len(ranges)), dtype=np.int64)  # each range's fit and domain origin
    total, sq = ranges.sum(axis=1, dtype=np.int64), np.einsum("nk,nk->n", ranges, ranges, dtype=np.int64)
    for i in range(0, len(ranges), step):
        part = slice(i, i + step)
        r4, r_sums = ranges[part] * dtype(0.25), (k * k, total[part], sq[part])
        if shared:
            best, s_code[part], o_byte[part], _ = _fit(*r_sums, (pool @ r4.T).T, pool_norms, pool_sd)
        else:
            g = _translates(flat_windows(sums, 23)[v[part] * sums.shape[1] + u[part]], r4.reshape(-1, 8, 8))
            dr, near = g.take(cells[part]), at[part]
            best, s_code[part], o_byte[part], _ = _fit(*r_sums, dr, norms.take(near), sd.take(near))
        won = np.arange(i, i + len(best)), best
        dx[part], dy[part] = xs[won], ys[won]
    y, x = np.mgrid[0:h:k, 0:w:k].reshape(2, -1)
    return LeafTable(leaf_rows(SIZE_LEVELS[k], SEARCH, x, y, o_byte, s_code, domain=(dx, dy)))


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
    offsets = table.domain[:, :2] - table.xy + range_size - range_size // 2  # domain center - range center
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
