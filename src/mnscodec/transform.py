"""Mean-removed affine block mapping and the 3-bit contrast quantizer.

Blocks map as R_hat = s * (D - mean(D)) + o, so the stored luminance o is
exactly the range-block mean and always fits one byte.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

CONTRAST_CODES = 8
CONTRAST_VALUES = tuple(-0.875 + 0.25 * k for k in range(CONTRAST_CODES))


class AffineParams(NamedTuple):
    s: float  # contrast scale, unclamped
    o: float  # luminance term, equals the range mean


def fit_affine(block_r, block_d) -> AffineParams:
    """Least-squares (s, o) minimizing sum(R - s*(D - mean(D)) - o)^2.

    With the mean-removed form the optimum is o = mean(R) and
    s = sum((D - Dbar) * (R - Rbar)) / sum((D - Dbar)^2). A constant domain
    block makes the denominator vanish; that degenerate case returns s = 0.
    The returned s is deliberately unclamped so callers can observe the raw
    optimum before quantization.
    """
    if np.shape(block_r) != np.shape(block_d):
        raise ValueError(f"block shapes differ: {np.shape(block_r)} vs {np.shape(block_d)}")
    r = np.asarray(block_r, dtype=np.float64).ravel()
    d = np.asarray(block_d, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("blocks must contain at least one pixel")
    o = float(r.mean())
    d0 = d - d.mean()
    denom = float(d0 @ d0)
    if denom == 0.0:
        return AffineParams(0.0, o)
    return AffineParams(float(d0 @ (r - o)) / denom, o)


def quantize_contrast(s: float | np.ndarray) -> int | np.ndarray:
    """Snap s, a float or an array, clamped into [-1, 1], onto the 3-bit contrast grid.

    Bins are half-open with boundaries going to the upper bin; the last bin
    is closed so s = 1 maps to code 7.
    """
    # one formula for both; a float takes Python's min/max/floor, which cost ~4x less per call than numpy's
    lo, hi, floor = (np.fmax, np.fmin, np.floor) if isinstance(s, np.ndarray) else (max, min, math.floor)
    codes = hi(floor((hi(1.0, lo(-1.0, s)) + 1.0) * 4.0), CONTRAST_CODES - 1)
    return codes.astype(np.intp) if isinstance(codes, np.ndarray) else int(codes)


def dequantize_contrast(code: int) -> float:
    """Center of contrast bin `code`: -0.875 + 0.25 * code."""
    if not 0 <= code < CONTRAST_CODES:
        raise ValueError(f"contrast code {code} outside [0, {CONTRAST_CODES - 1}]")
    return CONTRAST_VALUES[code]


def apply_map(block_d, s: float, o: float) -> np.ndarray:
    """s * (D - mean(D)) + o, clamped into [0, 255]."""
    d = np.asarray(block_d, dtype=np.float64)
    return np.clip(s * (d - d.mean()) + o, 0.0, 255.0)


def rms_error(block_r, block_d, s: float, o: float) -> float:
    """RMS residual of the mapped domain against the range block.

    Measured on the unclamped map, which is what accept/reject thresholds
    compare against.
    """
    if np.shape(block_r) != np.shape(block_d):
        raise ValueError(f"block shapes differ: {np.shape(block_r)} vs {np.shape(block_d)}")
    r = np.asarray(block_r, dtype=np.float64)
    d = np.asarray(block_d, dtype=np.float64)
    res = r - (s * (d - d.mean()) + o)
    return math.sqrt(float(np.mean(res * res)))
