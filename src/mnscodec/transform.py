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


def quantize_contrast(s: float | np.ndarray) -> np.ndarray:
    """Snap s, a float or an array, clamped into [-1, 1], onto the 3-bit contrast grid; a float
    gives a numpy integer scalar.

    Bins are half-open with boundaries going to the upper bin; the last bin
    is closed so s = 1 maps to code 7.
    """
    return np.fmin(np.floor((np.fmin(1.0, np.fmax(-1.0, s)) + 1.0) * 4.0), CONTRAST_CODES - 1).astype(np.intp)


def dequantize_contrast(code: int | np.ndarray) -> np.ndarray:
    """Center of contrast bin `code`, an int or an int array: -0.875 + 0.25 * code; an int gives a numpy scalar."""
    codes = np.asarray(code)
    if codes.size and not (0 <= codes.min() and codes.max() < CONTRAST_CODES):
        raise ValueError(f"contrast code {code} outside [0, {CONTRAST_CODES - 1}]")
    return np.take(CONTRAST_VALUES, codes)


def apply_map(block_d, s, o) -> np.ndarray:
    """s * (D - mean(D)) + o clamped into [0, 255]: D a k x k block, or an (n, k, k) stack with (n, 1, 1) s, o."""
    d = np.asarray(block_d, dtype=np.float64)
    out = d - d.mean(axis=(-2, -1), keepdims=True)  # a fresh array, so the rest runs in place
    out *= s
    out += o
    return np.clip(out, 0.0, 255.0, out=out)


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
