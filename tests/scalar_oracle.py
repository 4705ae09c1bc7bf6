"""Scalar, one-block-at-a-time forms of the codec's geometry and quantizer, for the oracles.

mnscodec runs these jobs only as array kernels: co_domain_origins, the
stride-2 domain gathers, encoder._quadrants and the numpy contrast
quantizer. The oracles in tests/ rebuild every code and sweep from the
helpers here instead, so they check those kernels without sharing them.
The quantizer is written from the spec, bin by bin, not from the kernels'
floor formula.
"""

from __future__ import annotations

import math

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
