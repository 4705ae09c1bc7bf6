"""Shared helpers: deterministic synthetic images and random quadtree codes."""

from __future__ import annotations

import numpy as np

from mnscodec.encoder import QuadtreeCode, delta_limit
from mnscodec.image import BlockRect, GrayImage

from records import LeafRecord, Phase1Payload, Phase2Payload, table_of
from scalar_oracle import quadrants


def _octave(rng: np.random.Generator, width: int, height: int, cell: int) -> np.ndarray:
    """Bilinearly interpolated noise grid with one control point per `cell` pixels."""
    gh = height // cell + 2
    gw = width // cell + 2
    grid = rng.standard_normal((gh, gw))
    ys = np.arange(height) / cell
    xs = np.arange(width) / cell
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    return (
        grid[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + grid[np.ix_(y0, x0 + 1)] * (1 - fy) * fx
        + grid[np.ix_(y0 + 1, x0)] * fy * (1 - fx)
        + grid[np.ix_(y0 + 1, x0 + 1)] * fy * fx
    )


def _normalize(acc: np.ndarray) -> GrayImage:
    acc = acc - acc.mean()
    acc *= 48.0 / max(acc.std(), 1e-9)
    return GrayImage(np.clip(128.0 + acc, 0, 255).astype(np.uint8))


def natural_image(width: int, height: int, seed: int = 7) -> GrayImage:
    """Multi-octave value noise with a 1/f-ish spectrum: correlated detail at
    every scale, the texture regime where quadtrees stay busy."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((height, width))
    for cell in (64, 32, 16, 8, 4, 2):
        acc += cell * _octave(rng, width, height, cell)
    return _normalize(acc)


def scene_image(width: int, height: int, seed: int = 7) -> GrayImage:
    """Smooth shading plus patchy fine texture, photograph-like: local
    structure varies across the frame, which is what makes nearby domains
    match better than distant ones."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((height, width))
    for cell in (64, 32, 16):
        acc += cell * _octave(rng, width, height, cell)
    for cell, amp in ((8, 8.0), (4, 6.0)):
        envelope = np.clip(_octave(rng, width, height, 64), 0, None)
        acc += amp * envelope * _octave(rng, width, height, cell)
    return _normalize(acc)


def noise_image(width: int, height: int, seed: int = 11) -> GrayImage:
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, 256, size=(height, width), dtype=np.uint8))


def gradient_image(width: int, height: int) -> GrayImage:
    xs = np.linspace(0, 255, width)
    ys = np.linspace(0, 255, height)
    return GrayImage(((xs[None, :] + ys[:, None]) / 2).astype(np.uint8))


def random_code(
    rng: np.random.Generator,
    mode: str = "mns",
    technique2: bool = True,
    max_roots: int = 3,
    split_p: float = 0.55,
    phase2_p: float = 0.4,
) -> QuadtreeCode:
    """Random but structurally valid quadtree code for serialization tests.

    A root of a raster with a 16-pixel side always splits, since no level-1
    domain fits there; its split draw is still made, so codes that never meet
    that case keep their random sequence. Likewise a phase-2 leaf whose
    implied fourth mean, o_byte minus the deltas, is not a byte has its o_byte
    moved to the nearest value that makes it one, after all its draws.
    """
    roots_x = int(rng.integers(1, max_roots + 1))
    roots_y = int(rng.integers(1, max_roots + 1))
    padded_w, padded_h = 16 * roots_x, 16 * roots_y
    orig_w = int(rng.integers(padded_w - 15, padded_w + 1))
    orig_h = int(rng.integers(padded_h - 15, padded_h + 1))
    leaves: list[LeafRecord] = []

    def emit(rect: BlockRect, level: int) -> None:
        if level < 4 and (rng.random() < split_p or (level == 1 and min(padded_w, padded_h) < 32)):
            for quad in quadrants(rect):
                emit(quad, level + 1)
            return
        if mode == "mns" and level <= 3 and rng.random() < phase2_p:
            lim = delta_limit(level)
            o_byte = int(rng.integers(0, 256))
            deltas = tuple(int(rng.integers(-lim, lim + 1)) for _ in range(3))
            # the fix-up draws nothing: o moves just enough for the implied fourth mean to be a byte
            o_byte = min(max(o_byte, sum(deltas)), 255 + sum(deltas))
            payload = Phase2Payload(o_byte, deltas, tuple(int(rng.integers(0, 2)) for _ in range(4)))
        else:
            payload = Phase1Payload(int(rng.integers(0, 256)), int(rng.integers(0, 8)))
        leaves.append(LeafRecord(rect, level, payload))

    for y in range(0, padded_h, 16):
        for x in range(0, padded_w, 16):
            emit(BlockRect(x, y, 16), 1)
    return QuadtreeCode(table_of(leaves), padded_w, padded_h, orig_w, orig_h, mode, technique2)
