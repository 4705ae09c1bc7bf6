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

import numpy as np

from .encoder import CONTRAST_SETS, BaselinePayload, Phase2Payload, QuadtreeCode, phase2_targets
from .image import GrayImage, box_sums, co_domain_rect, downsample_mean2  # noqa: F401 (traced by perfbench)
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


def _block_table(code: QuadtreeCode) -> dict[int, np.ndarray]:
    """Rows (y, x, domain y, domain x, domain side, s, o) of every painted block, keyed by
    block side: one per phase-1 or search leaf, four quadrants per phase-2 leaf."""
    w, h = code.padded_w, code.padded_h
    rows: dict[int, list] = {}
    for leaf in code.leaves:
        p = leaf.payload
        if isinstance(p, Phase2Payload):
            pair, targets = CONTRAST_SETS[leaf.level], phase2_targets(p.o_byte, p.deltas)
            blocks = [(q, co_domain_rect(q, w, h), pair[b], t)
                      for q, t, b in zip(leaf.rect.quadrants(), targets, p.s_bits)]
        else:
            domain = p.domain if isinstance(p, BaselinePayload) else co_domain_rect(leaf.rect, w, h)
            blocks = [(leaf.rect, domain, dequantize_contrast(p.s_code), p.o_byte)]
        for rect, d, s, o in blocks:
            rows.setdefault(rect.size, []).append((rect.y, rect.x, d.y, d.x, d.size, s, o))
    table = {k: np.array(r, dtype=np.float64) for k, r in rows.items()}
    for k, t in table.items():
        fits = (t[:, :4] >= 0) & (t[:, :4] + (k, k, 2 * k, 2 * k) <= (h, w, h, w)) & (t[:, 4:5] == 2 * k)
        if not fits.all():
            raise ValueError(f"a {k}x{k} block or its domain does not fit the {w}x{h} raster")
    return table


def decode_step(code: QuadtreeCode, current: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the padded-size raster `current` into a fresh raster: per block
    side, the domains' 2x2 means are gathered from the box sums of `current`, mapped by one
    apply_map call and scattered. A misfit domain raises ValueError before any pixel is read."""
    cur = np.asarray(current, dtype=np.float64)
    if cur.shape != (code.padded_h, code.padded_w):
        raise ValueError(f"raster shape {cur.shape} does not match padded {code.padded_h}x{code.padded_w}")
    table = _block_table(code)
    sums = box_sums(cur)
    out = np.empty_like(cur)
    for k, t in table.items():
        y, x, dy, dx = t[:, :4].astype(np.intp).T[:, :, None, None]
        i = np.arange(k)
        domains = sums[dy + 2 * i[:, None], dx + 2 * i]
        domains *= 0.25
        out[y + i[:, None], x + i] = apply_map(domains, t[:, 5, None, None], t[:, 6, None, None])
    return out


def decode(code: QuadtreeCode, config: DecodeConfig | None = None) -> GrayImage:
    """Iterate decode_step from a flat raster, then round once and crop."""
    cfg = config if config is not None else DecodeConfig()
    current = np.full((code.padded_h, code.padded_w), cfg.initial_value, dtype=np.float64)
    for _ in range(cfg.max_iters):
        nxt = decode_step(code, current)
        delta = float(np.max(np.abs(nxt - current)))
        current = nxt
        if delta < cfg.stop_delta:
            break
    rounded = np.clip(np.floor(current + 0.5), 0.0, 255.0).astype(np.uint8)
    return GrayImage(rounded[: code.orig_h, : code.orig_w])
