"""Fidelity metrics for 8-bit images."""

from __future__ import annotations

import math

import numpy as np


def mse(a, b) -> float:
    """Mean squared pixel difference of two GrayImages (anything with `pixels`) or arrays."""
    pa, pb = (np.asarray(getattr(x, "pixels", x), np.float64) for x in (a, b))
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
