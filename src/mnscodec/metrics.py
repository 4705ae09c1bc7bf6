"""Fidelity metrics for 8-bit images."""

from __future__ import annotations

import math

import numpy as np

from .image import _raster


def mse(a, b) -> float:
    """Mean squared pixel difference."""
    pa = _raster(a).astype(np.float64)
    pb = _raster(b).astype(np.float64)
    if pa.shape != pb.shape:
        raise ValueError(f"image dimensions differ: {pa.shape} vs {pb.shape}")
    diff = pa - pb
    return float(np.mean(diff * diff))


def psnr(a, b) -> float:
    """10 * log10(255^2 / MSE) in dB; identical images give math.inf."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / err)
