"""Iterative fixed-point reconstruction of an image from a quadtree code.

Every per-block map is non-expansive in luminance (|s| <= 1 on mean-removed
domains), so repeated sweeps from any starting raster settle onto the coded
image. Sweeps are Jacobi style: each leaf reads only the previous raster and
writes its own disjoint region of the next, which keeps the result
independent of leaf order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import CONTRAST_SETS, Phase1Payload, Phase2Payload, QuadtreeCode, phase2_targets
from .image import BlockRect, GrayImage, co_domain_rect, downsample_mean2
from .transform import apply_map, dequantize_contrast


@dataclass(frozen=True)
class DecodeConfig:
    max_iters: int = 10
    stop_delta: float = 0.5  # stop once no pixel moves by this much per sweep
    initial_value: float = 128.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _paint(out: np.ndarray, current: np.ndarray, dst: BlockRect, domain: BlockRect, s: float, o: float) -> None:
    d = downsample_mean2(current, domain)
    out[dst.y : dst.y + dst.size, dst.x : dst.x + dst.size] = apply_map(d, s, o)


def decode_step(code: QuadtreeCode, current: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: every leaf repaints its range from `current`.

    `current` must be a padded-size raster; the clamped result lands in a
    fresh float array, never in place.
    """
    cur = np.asarray(current, dtype=np.float64)
    if cur.shape != (code.padded_h, code.padded_w):
        raise ValueError(f"raster shape {cur.shape} does not match padded {code.padded_h}x{code.padded_w}")
    w, h = code.padded_w, code.padded_h
    out = np.empty_like(cur)
    for leaf in code.leaves:
        payload = leaf.payload
        if isinstance(payload, Phase1Payload):
            _paint(out, cur, leaf.rect, co_domain_rect(leaf.rect, w, h),
                   dequantize_contrast(payload.s_code), float(payload.o_byte))
        elif isinstance(payload, Phase2Payload):
            pair = CONTRAST_SETS[leaf.level]
            targets = phase2_targets(payload.o_byte, payload.deltas)
            for quad, target, bit in zip(leaf.rect.quadrants(), targets, payload.s_bits):
                _paint(out, cur, quad, co_domain_rect(quad, w, h), pair[bit], float(target))
        else:
            _paint(out, cur, leaf.rect, payload.domain,
                   dequantize_contrast(payload.s_code), float(payload.o_byte))
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
