"""Scalar, one-block-at-a-time forms of the codec's geometry and quantizer, for the oracles.

mnscodec runs these jobs only as array kernels: co_domain_origins, the
stride-2 domain gathers and their moments, code.quadrants and the numpy
contrast quantizer. The oracles in tests/ rebuild every code and sweep from the
helpers here instead, so they check those kernels without sharing them.
The quantizer is written from the spec, bin by bin, not from the kernels'
floor formula.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mnscodec.image import BlockRect, _check_rect, _raster

CONTRAST_CODES = 8  # 3-bit contrast codes


def block_pixels(image, rect: BlockRect) -> np.ndarray:
    """The rect's pixels as a float64 block."""
    arr = _raster(image)
    _check_rect(arr, rect)
    return arr[rect.y : rect.y + rect.size, rect.x : rect.x + rect.size].astype(np.float64)


def block_mean(image, rect: BlockRect) -> float:
    """Arithmetic mean of the rect's pixels, kept in real arithmetic."""
    arr = _raster(image)
    _check_rect(arr, rect)
    return float(arr[rect.y : rect.y + rect.size, rect.x : rect.x + rect.size].mean())


def mean2_float32(image, rect: BlockRect) -> np.ndarray:
    """The rect's 2x2 means in float32, as a decode sweep takes them: each group's pixels cast to
    float32 and added top-left + top-right, then bottom-left, then bottom-right, as
    image.parity_sums adds them, then quartered."""
    arr = _raster(image)
    _check_rect(arr, rect)
    if rect.size % 2:
        raise ValueError(f"rect size {rect.size} must be even")
    a = arr[rect.y : rect.y + rect.size, rect.x : rect.x + rect.size].astype(np.float32)
    sums = a[0::2, 0::2] + a[0::2, 1::2]
    sums += a[1::2, 0::2]
    sums += a[1::2, 1::2]
    return sums * np.float32(0.25)


def quadrants(rect: BlockRect) -> tuple[BlockRect, BlockRect, BlockRect, BlockRect]:
    """Four half-size sub-blocks in TL, TR, BL, BR order."""
    h = rect.size // 2
    return (
        BlockRect(rect.x, rect.y, h),
        BlockRect(rect.x + h, rect.y, h),
        BlockRect(rect.x, rect.y + h, h),
        BlockRect(rect.x + h, rect.y + h, h),
    )


def co_domain_rect(range_rect: BlockRect, img_w: int, img_h: int) -> BlockRect:
    """Double-size block sharing the range's center, shifted to stay in bounds.

    Clamping translates per axis by the minimum amount; the 2x size is never
    changed.
    """
    if range_rect.size % 2:
        raise ValueError("range size must be even")
    d = range_rect.size * 2
    if d > img_w or d > img_h:
        raise ValueError(f"no {d}x{d} domain fits a {img_w}x{img_h} image")
    x = min(max(range_rect.x - range_rect.size // 2, 0), img_w - d)
    y = min(max(range_rect.y - range_rect.size // 2, 0), img_h - d)
    return BlockRect(x, y, d)


def exact_sse(r, d, s: Fraction, o: int) -> Fraction:
    """sum((r - s (d - mean(d)) - o)^2) as a rational, with no float rounding: r an integer block, d a block
    of 2x2 means (quarters) of its shape, s a Fraction and o an integer. Times 4 n s.denominator, n pixels,
    each residual is the integer 4 n s.denominator (r - o) - s.numerator (n q - sum(q)), q = 4d."""
    r, q = np.ravel(r), 4 * np.ravel(d)
    if (r % 1).any() or (q % 1).any():
        raise ValueError("r must hold integers and d quarters")
    r, q = r.astype(np.int64).tolist(), q.astype(np.int64).tolist()
    n, total, scale = len(r), sum(q), 4 * len(r) * s.denominator
    e = [scale * (ri - o) - s.numerator * (n * qi - total) for ri, qi in zip(r, q)]
    return Fraction(sum(v * v for v in e), scale * scale)


def domain_means(sums: np.ndarray, x, y, k: int) -> np.ndarray:
    """2x2 means of the 2k x 2k domains at origins x, y, index arrays of one shape, as a float64 (..., k, k) array:
    each domain's stride-2 samples of the box_sums raster `sums`, sliced one origin at a time and quartered."""
    x, y = np.broadcast_arrays(x, y)
    means = np.empty((*x.shape, k, k))
    for i in np.ndindex(x.shape):
        means[i] = sums[y[i] : y[i] + 2 * k - 1 : 2, x[i] : x[i] + 2 * k - 1 : 2] * 0.25
    return means


def mean_removed_norms(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Over the last axis of d: the norm sum(d0^2) = sum(d^2) - sum(d)^2 / kk, d0 = d - mean(d), and sum(d)."""
    sd = d.sum(axis=-1, dtype=np.float64)
    return np.einsum("...k,...k->...", d, d, dtype=np.float64) - sd * sd / d.shape[-1], sd


def round_to_int(value: float) -> int:
    """Deterministic rounding; halves go toward +infinity."""
    return int(math.floor(value + 0.5))


def quantize_contrast(s: float) -> int:
    """The 3-bit code of contrast s: s is clamped into [-1, 1], which splits into eight bins of
    width 1/4, bin c starting at -1 + c/4. A value on an edge goes to the upper bin, and the
    last bin also holds s = 1."""
    s = min(1.0, max(-1.0, s))
    for code in range(CONTRAST_CODES - 1, 0, -1):
        if s >= -1.0 + code / 4:
            return code
    return 0


def dequantize_contrast(code: int) -> float:
    """The center of contrast bin `code`: -7/8 + code/4."""
    if not 0 <= code < CONTRAST_CODES:
        raise ValueError(f"contrast code {code} outside [0, {CONTRAST_CODES - 1}]")
    return -0.875 + code / 4
