"""Quadtree driver and the four encoding strategies.

Modes:
  no_search    - phase 1 only: each range fits its fixed co-centered domain.
  mns          - phase 1, then the sub-block-mean phase 2 before splitting.
  full_search  - exhaustive domain pool on a fixed-size partition (baseline).
  local_search - 81 candidates around the co-centered domain (baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .image import (
    BlockRect,
    GrayImage,
    block_mean,
    block_pixels,
    co_domain_rect,
    downsample_mean2,
    pad_to_multiple,
)
from .transform import CONTRAST_VALUES, dequantize_contrast, fit_affine, quantize_contrast, rms_error

MODES = ("no_search", "mns", "local_search", "full_search")

ROOT_SIZE = 16
MAX_SIDE = 0xFFFF  # largest padded side: the .mns header stores each dimension as a u16
LEVEL_SIZES = {1: 16, 2: 8, 3: 4, 4: 2}
SIZE_LEVELS = {size: level for level, size in LEVEL_SIZES.items()}

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


def round_to_int(value: float) -> int:
    """Deterministic rounding; halves go toward +infinity."""
    return int(math.floor(value + 0.5))


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
        if min(self.e1, self.e2, self.e3) <= 0:
            raise ValueError("error thresholds must be positive")
        if self.mean_tol < 0:
            raise ValueError("mean_tol must be non-negative")
        if self.full_search_step < 1:
            raise ValueError("full_search_step must be >= 1")

    def threshold(self, level: int) -> float:
        """RMS tolerance for a splittable level (1..3)."""
        return (self.e1, self.e2, self.e3)[level - 1]


@dataclass(frozen=True)
class Phase1Payload:
    """Plain co-centered fit: 8-bit block mean plus 3-bit contrast code."""

    o_byte: int
    s_code: int


@dataclass(frozen=True)
class Phase2Payload:
    """Sub-block-mean fit: parent mean, three quadrant mean offsets, 1-bit contrast picks.

    deltas covers quadrants TL, TR, BL; the BR mean is implied by the parent
    mean. s_bits selects the lower (0) or higher (1) value of the level's
    contrast set, one bit per quadrant in TL, TR, BL, BR order.
    """

    o_byte: int
    deltas: tuple[int, int, int]
    s_bits: tuple[int, int, int, int]


@dataclass(frozen=True)
class BaselinePayload:
    """Search-mode fit carrying an explicit domain position."""

    domain: BlockRect
    o_byte: int
    s_code: int


Payload = Union[Phase1Payload, Phase2Payload, BaselinePayload]


@dataclass(frozen=True)
class LeafRecord:
    rect: BlockRect
    level: int
    payload: Payload


@dataclass(frozen=True)
class QuadtreeCode:
    """DFS-ordered leaf records tiling the padded raster, plus header metadata.

    DFS order: 16x16 roots in raster order, children in TL, TR, BL, BR order.
    """

    leaves: tuple[LeafRecord, ...]
    padded_w: int
    padded_h: int
    orig_w: int
    orig_h: int
    mode: str
    technique2: bool

    def level_counts(self) -> tuple[int, int, int, int]:
        counts = [0, 0, 0, 0]
        for leaf in self.leaves:
            counts[leaf.level - 1] += 1
        return (counts[0], counts[1], counts[2], counts[3])

    def phase2_count(self) -> int:
        return sum(1 for leaf in self.leaves if isinstance(leaf.payload, Phase2Payload))


def try_phase1(
    image: GrayImage, rect: BlockRect, level: int, config: EncoderConfig
) -> tuple[Optional[LeafRecord], float]:
    """Fit the co-centered domain onto rect and test the level threshold.

    The acceptance RMS is re-evaluated with the quantized contrast code and
    rounded mean, so the decision matches what the decoder reconstructs.
    Level 4 accepts unconditionally. Returns (record, rms), record None on
    rejection.
    """
    if LEVEL_SIZES[level] != rect.size:
        raise ValueError(f"level {level} expects block size {LEVEL_SIZES[level]}, got {rect.size}")
    domain = co_domain_rect(rect, image.width, image.height)
    d = downsample_mean2(image, domain)
    r = block_pixels(image, rect)
    s_fit, o_fit = fit_affine(r, d)
    s_code = quantize_contrast(s_fit)
    o_byte = round_to_int(o_fit)
    rms = rms_error(r, d, dequantize_contrast(s_code), float(o_byte))
    if level == 4 or rms <= config.threshold(level):
        return LeafRecord(rect, level, Phase1Payload(o_byte, s_code)), rms
    return None, rms


def try_phase2(
    image: GrayImage, rect: BlockRect, level: int, config: EncoderConfig
) -> tuple[Optional[LeafRecord], float]:
    """Code rect through its quadrant means with 1-bit contrast picks.

    Applicable at levels 1..3 when every quadrant mean lies within mean_tol
    of the block mean, every coded offset fits the level's bit width, and the
    implied fourth mean stays a byte. Each quadrant keeps its luminance fixed
    to the reconstructed quadrant mean and only chooses between the two set
    values; all four quadrants must meet the level threshold.
    Returns (record, worst quadrant rms), or (None, inf) on rejection.
    """
    if level not in CONTRAST_SETS:
        raise ValueError("phase 2 exists only at levels 1..3")
    rejected: tuple[Optional[LeafRecord], float] = (None, math.inf)
    o_mean = block_mean(image, rect)
    quads = rect.quadrants()
    quad_means = [block_mean(image, q) for q in quads]
    if max(abs(m - o_mean) for m in quad_means) > config.mean_tol:
        return rejected
    o_byte = round_to_int(o_mean)
    deltas = tuple(round_to_int(m - o_mean) for m in quad_means[:3])
    targets = phase2_targets(o_byte, deltas)  # the implied fourth mean must stay a byte
    if max(abs(d) for d in deltas) > delta_limit(level) or not 0 <= targets[3] <= 255:
        return rejected
    s_lo, s_hi = CONTRAST_SETS[level]
    tol = config.threshold(level)
    bits = []
    worst = 0.0
    for quad, target in zip(quads, targets):
        d = downsample_mean2(image, co_domain_rect(quad, image.width, image.height))
        r = block_pixels(image, quad)
        rms_lo = rms_error(r, d, s_lo, float(target))
        rms_hi = rms_error(r, d, s_hi, float(target))
        bit, rms = (0, rms_lo) if rms_lo <= rms_hi else (1, rms_hi)
        if rms > tol:
            return rejected
        bits.append(bit)
        worst = max(worst, rms)
    record = LeafRecord(rect, level, Phase2Payload(o_byte, deltas, (bits[0], bits[1], bits[2], bits[3])))
    return record, worst


def encode_quadtree(image: GrayImage, config: EncoderConfig) -> QuadtreeCode:
    """No-search / MNS quadtree encode over 16x16 roots in raster order.

    Phase 1 is tried first; in mns mode a phase-1 rejection falls through to
    phase 2; if both reject, the block splits into TL, TR, BL, BR children.
    Level-4 blocks always terminate through phase 1. Output is deterministic
    for identical inputs.
    """
    if config.mode not in ("no_search", "mns"):
        raise ValueError(f"encode_quadtree handles no_search/mns, not {config.mode!r}")
    if -(-max(image.width, image.height) // ROOT_SIZE) * ROOT_SIZE > MAX_SIDE:
        raise ValueError("padded dimensions exceed the 16-bit header fields")
    padded = pad_to_multiple(image, ROOT_SIZE)
    min_dim = min(padded.width, padded.height)
    leaves: list[LeafRecord] = []

    def visit(rect: BlockRect, level: int) -> None:
        record = None
        if 2 * rect.size <= min_dim:  # a 16-wide raster has no room for level-1 domains
            record, _ = try_phase1(padded, rect, level, config)
            if record is None and config.mode == "mns":
                record, _ = try_phase2(padded, rect, level, config)
        if record is not None:
            leaves.append(record)
            return
        for quad in rect.quadrants():
            visit(quad, level + 1)

    for y in range(0, padded.height, ROOT_SIZE):
        for x in range(0, padded.width, ROOT_SIZE):
            visit(BlockRect(x, y, ROOT_SIZE), 1)
    return QuadtreeCode(
        tuple(leaves), padded.width, padded.height, image.width, image.height, config.mode, config.technique2
    )


def _box_sums(padded: GrayImage) -> np.ndarray:
    """2x2 box-sum table: entry (y, x) sums the pixels at rows y..y+1, columns x..x+1."""
    arr = padded.pixels.astype(np.float64)
    return arr[:-1, :-1] + arr[:-1, 1:] + arr[1:, :-1] + arr[1:, 1:]


def _domain_pool(sums2: np.ndarray, xs: np.ndarray, ys: np.ndarray, range_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-removed 2x downsamples of the double-size domains at origins (xs, ys),
    one flattened row per origin, and each row's squared norm."""
    steps = np.arange(0, 2 * range_size, 2)
    pool = sums2[ys[:, None, None] + steps[:, None], xs[:, None, None] + steps].reshape(len(xs), -1)
    pool -= pool.mean(axis=1, keepdims=True)
    pool *= 0.25  # box sums to 2x2 means, in place; scaling by 1/4 is exact, so the order is free
    return pool, np.einsum("ij,ij->i", pool, pool)


def _pick_domain(pool: np.ndarray, norms: np.ndarray, r: np.ndarray) -> tuple[int, int, int]:
    """Lowest-error (pool row, contrast code, o byte) for the flattened range pixels r,
    each row scored with its quantized least-squares contrast; ties go to the first row."""
    o_byte = round_to_int(float(r.mean()))
    cross = pool @ (r - r.mean())
    # a zero-norm row is all zeros, so its cross term and fitted s are 0 too
    codes = quantize_contrast(cross / np.where(norms > 0.0, norms, 1.0))
    s_q = np.take(CONTRAST_VALUES, codes)
    rr = r - float(o_byte)
    # expanded sum of squared residuals; cross ignores the shift by o_byte as pool rows are mean-removed
    sse = float(rr @ rr) - 2.0 * s_q * cross + s_q * s_q * norms
    best = int(np.argmin(sse))
    return best, int(codes[best]), o_byte


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
    w, h = padded.width, padded.height
    step = config.full_search_step
    ys, xs = np.mgrid[0 : h - dsize + 1 : step, 0 : w - dsize + 1 : step].reshape(2, -1)
    pool, norms = _domain_pool(_box_sums(padded), xs, ys, range_size)

    leaves: list[LeafRecord] = []
    samples: list[tuple[int, int]] = []
    half = range_size // 2
    for ry in range(0, h, range_size):
        for rx in range(0, w, range_size):
            rect = BlockRect(rx, ry, range_size)
            best, s_code, o_byte = _pick_domain(pool, norms, block_pixels(padded, rect).ravel())
            domain = BlockRect(int(xs[best]), int(ys[best]), dsize)
            leaves.append(LeafRecord(rect, SIZE_LEVELS[range_size], BaselinePayload(domain, o_byte, s_code)))
            samples.append(((domain.x + range_size) - (rx + half), (domain.y + range_size) - (ry + half)))
    code = QuadtreeCode(tuple(leaves), w, h, image.width, image.height, "full_search", False)
    return code, samples


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
    sums2 = _box_sums(padded)
    dys, dxs = np.indices((9, 9)).reshape(2, 81) - 4  # shifts in (dy, dx) scan order
    leaves: list[LeafRecord] = []
    for ry in range(0, h, 8):
        for rx in range(0, w, 8):
            rect = BlockRect(rx, ry, 8)
            base = co_domain_rect(rect, w, h)
            xs, ys = np.clip(base.x + dxs, 0, w - 16), np.clip(base.y + dys, 0, h - 16)
            pool, norms = _domain_pool(sums2, xs, ys, 8)
            best, s_code, o_byte = _pick_domain(pool, norms, block_pixels(padded, rect).ravel())
            domain = BlockRect(int(xs[best]), int(ys[best]), 16)
            leaves.append(LeafRecord(rect, 2, BaselinePayload(domain, o_byte, s_code)))
    return QuadtreeCode(tuple(leaves), w, h, image.width, image.height, "local_search", False)
