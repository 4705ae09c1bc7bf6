"""Seeded synthetic images for the benchmark workloads.

These are the benchmark's own copies of the value-noise, scene and noise
generators in tests/util.py, so that edits to the test helpers never change
the benchmark's inputs. They differ in one respect: every octave is scaled
to zero mean and unit standard deviation, and the sum is scaled by its
nominal standard deviation instead of its sample one. That pins the
amplitude of each octave, and with it the detail that drives the codec's
work. With the test helpers' normalization, the encoder's block attempts
on one 512x512 image vary by 10-45% (quartile spread over seeds); with
this one, by 5-10%.

The run's seed does not draw new textures. Each textured image is drawn
from a fixed seed, and the run's seed turns it by one of the eight
rotations and mirrors of the square (one of the four that keep its shape,
if it is not square). A seed always gives the same bytes, and different
seeds give different bytes but the same detail. With fresh textures per
seed, the mean PSNR of the search_baseline corpus varied by 7% and the bits
per pixel of the photo corpus by 2% (quartile spread over ten seeds); that
would hide a real loss of quality of that size. Moving the image by a few
pixels is no better: that moves the noise lattice against the block grid,
and bits per pixel then vary by 20%.

Only numpy is used here; the codec sees these images as PGM bytes.
"""

from __future__ import annotations

import math

import numpy as np

TARGET_STD = 48.0
NATURAL_CELLS = (64, 32, 16, 8, 4, 2)
SCENE_CELLS = (64, 32, 16)
SCENE_TEXTURES = ((8, 8.0), (4, 6.0))  # (cell, amplitude) of the patchy fine texture


def _interpolation(n: int, cell: int, points: int) -> np.ndarray:
    """(n, points) matrix of linear interpolation weights: pixel i sits at
    i / cell on a line of control points."""
    pos = np.arange(n) / cell
    left = pos.astype(int)
    frac = pos - left
    weights = np.zeros((n, points))
    weights[np.arange(n), left] = 1 - frac
    weights[np.arange(n), left + 1] += frac
    return weights


def _octave(rng: np.random.Generator, width: int, height: int, cell: int) -> np.ndarray:
    """Bilinearly interpolated noise grid, one control point per `cell` pixels,
    scaled to zero mean and unit standard deviation. Bilinear interpolation
    is separable, so it is two matrix products."""
    gh = height // cell + 2
    gw = width // cell + 2
    grid = rng.standard_normal((gh, gw))
    field = _interpolation(height, cell, gh) @ grid @ _interpolation(width, cell, gw).T
    field -= field.mean()
    return field / max(float(field.std()), 1e-9)


def _to_gray(acc: np.ndarray, nominal_std: float) -> np.ndarray:
    acc = 128.0 + (acc - acc.mean()) * (TARGET_STD / nominal_std)
    return np.clip(acc, 0, 255).astype(np.uint8)


def natural_image(width: int, height: int, seed) -> np.ndarray:
    """Multi-octave value noise with a 1/f-ish spectrum: correlated detail at
    every scale, the texture regime where quadtrees stay busy."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((height, width))
    for cell in NATURAL_CELLS:
        acc += cell * _octave(rng, width, height, cell)
    return _to_gray(acc, math.hypot(*NATURAL_CELLS))


def scene_image(width: int, height: int, seed) -> np.ndarray:
    """Smooth shading plus patchy fine texture, photograph-like: local
    structure varies across the frame."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((height, width))
    for cell in SCENE_CELLS:
        acc += cell * _octave(rng, width, height, cell)
    for cell, amp in SCENE_TEXTURES:
        envelope = np.clip(_octave(rng, width, height, 64), 0, None)
        acc += amp * envelope * _octave(rng, width, height, cell)
    return _to_gray(acc, math.hypot(*SCENE_CELLS))


def noise_image(width: int, height: int, seed) -> np.ndarray:
    """Uniform 8-bit noise: no block fits, so every root splits to level 4."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def _turned(pixels: np.ndarray, seed) -> np.ndarray:
    """pixels rotated and mirrored as seed picks."""
    turn, mirror = (int(v) for v in np.random.default_rng(seed).integers((4, 2)))
    if pixels.shape[0] != pixels.shape[1]:
        turn &= 2  # a quarter turn would swap width and height
    out = np.rot90(pixels, turn)
    return np.ascontiguousarray(out[:, ::-1] if mirror else out)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255), written here so the corpus needs no codec call."""
    h, w = pixels.shape
    return b"P5 %d %d 255\n" % (w, h) + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


PHOTO_SETS = 3


def photo_images(seed: int) -> list[tuple[str, np.ndarray]]:
    """Photo-like corpus: PHOTO_SETS sets of two 512x512 images and a 500x375
    one that needs padding. Several sets keep the figures from resting on
    one texture of each kind."""

    def _corner(pixels: np.ndarray) -> np.ndarray:
        # cut after turning: a turned 500x375 texture would move the noise
        # lattice against the block grid, and its bits per pixel by 30%
        return np.ascontiguousarray(pixels[:375, :500])

    images = []
    for k in range(PHOTO_SETS):
        images += [
            (f"natural512_{k}", _turned(natural_image(512, 512, [0, 3 * k]), [seed, 0, 3 * k])),
            (f"scene512_{k}", _turned(scene_image(512, 512, [0, 3 * k + 1]), [seed, 0, 3 * k + 1])),
            (f"natural500x375_{k}", _corner(_turned(natural_image(512, 384, [0, 3 * k + 2]), [seed, 0, 3 * k + 2]))),
        ]
    return images


def texture_images(seed: int) -> list[tuple[str, np.ndarray]]:
    """Small images with many small leaves."""
    return [
        ("natural256_a", _turned(natural_image(256, 256, [1, 0]), [seed, 1, 0])),
        ("natural256_b", _turned(natural_image(256, 256, [1, 1]), [seed, 1, 1])),
        ("noise128", noise_image(128, 128, [seed, 1, 2])),
    ]


def search_images(seed: int) -> list[tuple[str, np.ndarray]]:
    """A 128x128 scene and two side-by-side 64x64 crops from the middle of a
    256x256 scene, each turned on its own."""
    scene = scene_image(256, 256, [2, 1])
    return [
        ("scene128", _turned(scene_image(128, 128, [2, 0]), [seed, 2, 0])),
        ("scene64_crop_a", _turned(scene[96:160, 64:128], [seed, 2, 1])),
        ("scene64_crop_b", _turned(scene[96:160, 128:192], [seed, 2, 2])),
    ]
