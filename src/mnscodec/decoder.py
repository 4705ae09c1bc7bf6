"""Iterative fixed-point reconstruction of an image from a quadtree code.

Every per-block map is non-expansive in luminance (|s| <= 1 on mean-removed
domains), so repeated sweeps from any starting raster settle onto the coded
image. Sweeps are Jacobi style: each block reads only the previous raster and
writes its own disjoint region of the next, which keeps the result
independent of leaf order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoder import CONTRAST_SETS, PHASE2, QUADRANT_STEPS, SEARCH, QuadtreeCode, phase2_targets
from .image import GrayImage, box_sums, co_domain_origins, domain_means, downsample_mean2  # noqa: F401 (perfbench)
from .transform import apply_map, dequantize_contrast


@dataclass(frozen=True)
class DecodeConfig:
    max_iters: int = 10
    stop_delta: float = 0.5  # stop once no pixel moves by this much per sweep
    initial_value: float = 128.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if math.isnan(self.stop_delta):
            raise ValueError("stop_delta must not be NaN")
        if not math.isfinite(self.initial_value):
            raise ValueError("initial_value must be finite")


class _Plan(NamedTuple):
    """What every sweep of one code paints: per block side, a tuple (k, y, x, dy, dx, s, o) of the
    side, the (n,) origins of the blocks and of their domains, and s and o as (n, 1, 1)."""

    shape: tuple[int, int]  # padded (h, w)
    sides: list[tuple]


def _plan(code: QuadtreeCode) -> _Plan:
    """Plan every painted block, one per phase-1 or search leaf and four per phase-2 leaf; misfits raise ValueError."""
    w, h, t = code.padded_w, code.padded_h, code.leaves
    p2 = t.kind == PHASE2
    half = t.size[p2, None] // 2
    qx, qy = QUADRANT_STEPS.T
    if ((t.level[p2] < 1) | (t.level[p2] > 3) | (t.s_bits[p2] > 1).any(axis=1) | (t.s_bits[p2] < 0).any(axis=1)).any():
        raise ValueError("a phase-2 leaf lies outside levels 1..3 or picks a contrast other than 0 or 1")
    pairs = np.array([CONTRAST_SETS[level] for level in (1, 2, 3)])
    x = np.concatenate([t.x[~p2], (t.x[p2, None] + qx * half).ravel()])
    y = np.concatenate([t.y[~p2], (t.y[p2, None] + qy * half).ravel()])
    k = np.concatenate([t.size[~p2], half.repeat(4)])
    s = np.concatenate([dequantize_contrast(t.s_code[~p2]), pairs[t.level[p2, None] - 1, t.s_bits[p2]].ravel()])
    o = np.concatenate([t.o_byte[~p2], np.stack(phase2_targets(t.o_byte[p2], t.deltas[p2].T), axis=1).ravel()])
    dx, dy, dk = np.concatenate([t.domain[~p2], np.zeros((4 * len(half), 3), np.int64)]).T
    co = np.concatenate([t.kind[~p2] != SEARCH, np.full(4 * len(half), True)])  # co-centered domains
    dk[co] = 2 * k[co]
    dx[co], dy[co] = co_domain_origins(x[co], y[co], k[co], w, h)
    misfit = (np.minimum.reduce([y, x, dy, dx]) < 0) | (y + k > h) | (x + k > w) | (dy + dk > h) | (dx + dk > w)
    misfit |= (dk != 2 * k) | (k < 1)
    if misfit.any():
        raise ValueError(f"a {k[misfit][0]}x{k[misfit][0]} block or its domain does not fit the {w}x{h} raster")
    s, o = s[:, None, None], o.astype(np.float64)[:, None, None]
    masks = {side: k == side for side in dict.fromkeys(k.tolist())}
    return _Plan((h, w), [(side, y[m], x[m], dy[m], dx[m], s[m], o[m]) for side, m in masks.items()])


def decode_step(code: QuadtreeCode | _Plan, current: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the padded-size raster `current` into a fresh raster: per block side, one
    gather takes the domains' 2x2 means from windows on the box sums of `current`, one apply_map call
    maps them, and one scatter writes the blocks through windows on the fresh raster. `code` is a
    QuadtreeCode, planned here, or decode's plan of one; a misfit raises ValueError."""
    plan = code if isinstance(code, _Plan) else _plan(code)
    cur = np.asarray(current, dtype=np.float64)
    if cur.shape != plan.shape:
        raise ValueError(f"raster shape {cur.shape} does not match padded {plan.shape[0]}x{plan.shape[1]}")
    sums = box_sums(cur)
    out = np.empty_like(cur)
    for k, y, x, dy, dx, s, o in plan.sides:
        sliding_window_view(out, (k, k), writeable=True)[y, x] = apply_map(domain_means(sums, dx, dy, k), s, o)
    return out


def decode(code: QuadtreeCode, config: DecodeConfig | None = None) -> GrayImage:
    """Iterate decode_step from a flat raster, then round once and crop."""
    cfg = config if config is not None else DecodeConfig()
    plan = _plan(code)
    current = np.full(plan.shape, cfg.initial_value, dtype=np.float64)
    for _ in range(cfg.max_iters):
        nxt = decode_step(plan, current)
        diff = nxt - current
        delta = float(np.abs(diff, out=diff).max())
        del diff  # not held through the next sweep, which would add a raster to the peak
        current = nxt
        if delta < cfg.stop_delta:
            break
    rounded = np.clip(np.floor(current + 0.5), 0.0, 255.0).astype(np.uint8)
    return GrayImage(rounded[: code.orig_h, : code.orig_w])
