"""encode_quadtree against the scalar per-block recursion it replaced, code for code.

The oracle fits one block at a time (co_domain_rect, downsample_mean2,
fit_affine, the scalar quantize_contrast of scalar_oracle, rms_error) and
recurses depth first, so it fixes the leaf order, the tie rules and the
reduction order of every RMS that the level-at-a-time encoder must reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec import encoder
from mnscodec.encoder import (
    CONTRAST_SETS,
    LEVEL_SIZES,
    ROOT_SIZE,
    EncoderConfig,
    LeafTable,
    QuadtreeCode,
    RowBand,
    delta_limit,
    encode_quadtree,
    phase2_targets,
    try_phase1,
    try_phase2,
)
from mnscodec.image import BlockRect, GrayImage, box_sums, downsample_mean2, pad_to_multiple
from mnscodec.transform import fit_affine, rms_error

from records import LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import block_mean, block_pixels, co_domain_rect, dequantize_contrast, quadrants, quantize_contrast, round_to_int
from util import gradient_image, natural_image, noise_image, scene_image


def oracle_phase1(image, rect, level, config):
    domain = co_domain_rect(rect, image.width, image.height)
    d = downsample_mean2(image, domain)
    r = block_pixels(image, rect)
    s_fit, o_fit = fit_affine(r, d)
    s_code = quantize_contrast(s_fit)
    o_byte = round_to_int(o_fit)
    rms = rms_error(r, d, dequantize_contrast(s_code), float(o_byte))
    if level == 4 or rms <= config.threshold(level):
        return LeafRecord(rect, level, Phase1Payload(o_byte, s_code)), rms
    return None, rms


def oracle_phase2(image, rect, level, config):
    rejected = (None, math.inf)
    o_mean = block_mean(image, rect)
    quads = quadrants(rect)
    quad_means = [block_mean(image, q) for q in quads]
    if max(abs(m - o_mean) for m in quad_means) > config.mean_tol:
        return rejected
    o_byte = round_to_int(o_mean)
    deltas = tuple(round_to_int(m - o_mean) for m in quad_means[:3])
    targets = phase2_targets(o_byte, deltas)
    if max(abs(d) for d in deltas) > delta_limit(level) or not 0 <= targets[3] <= 255:
        return rejected
    s_lo, s_hi = CONTRAST_SETS[level]
    tol = config.threshold(level)
    bits = []
    worst = 0.0
    for quad, target in zip(quads, targets):
        d = downsample_mean2(image, co_domain_rect(quad, image.width, image.height))
        r = block_pixels(image, quad)
        rms_lo = rms_error(r, d, s_lo, float(target))
        rms_hi = rms_error(r, d, s_hi, float(target))
        bit, rms = (0, rms_lo) if rms_lo <= rms_hi else (1, rms_hi)
        if rms > tol:
            return rejected
        bits.append(bit)
        worst = max(worst, rms)
    return LeafRecord(rect, level, Phase2Payload(o_byte, deltas, tuple(bits))), worst


def oracle_encode(image, config):
    padded = pad_to_multiple(image, ROOT_SIZE)
    min_dim = min(padded.width, padded.height)
    leaves = []

    def visit(rect, level):
        record = None
        if 2 * rect.size <= min_dim:
            record, _ = oracle_phase1(padded, rect, level, config)
            if record is None and config.mode == "mns":
                record, _ = oracle_phase2(padded, rect, level, config)
        if record is not None:
            leaves.append(record)
            return
        for quad in quadrants(rect):
            visit(quad, level + 1)

    for y in range(0, padded.height, ROOT_SIZE):
        for x in range(0, padded.width, ROOT_SIZE):
            visit(BlockRect(x, y, ROOT_SIZE), 1)
    return QuadtreeCode(table_of(leaves), padded.width, padded.height, image.width, image.height,
                        config.mode, config.technique2)


def checkerboard(width, height):
    return GrayImage((np.indices((height, width)).sum(axis=0) % 2 * 255).astype(np.uint8))


IMAGES = {
    "natural": natural_image(96, 96, seed=5),
    "scene": scene_image(64, 80, seed=2),
    "noise": noise_image(48, 48, seed=3),
    "gradient": gradient_image(64, 48),
    "constant": GrayImage(np.full((48, 64), 42, dtype=np.uint8)),
    "checkerboard": checkerboard(48, 48),
    "odd_natural": natural_image(75, 53, seed=8),  # pads on both axes
    "odd_scene": scene_image(33, 97, seed=9),
    "strip_16xN": natural_image(16, 80, seed=4),  # level 1 skipped: no room for a 32x32 domain
    "strip_Nx16": scene_image(80, 16, seed=6),
    "tall": natural_image(32, 144, seed=10),  # one root per row: one band a row at the smallest WORK_PIXELS
}
CONFIGS = [
    EncoderConfig(e1=e, e2=e, e3=e, mean_tol=tol, mode=mode, technique2=t2)
    for mode in ("no_search", "mns")
    for t2 in (True, False)
    for e in (0.5, 4.0, 8.0, 30.0)
    for tol in (0.0, 16.0, 40.0)
    if mode == "mns" or tol == 16.0  # mean_tol only matters to phase 2
]


# WORK_PIXELS = 1 puts one block in each kernel call and one root row in each band, so every
# root row's domains reach across a band edge into its halo; technique 2 does not change the walk
ONE_BLOCK_CONFIGS = [c for c in CONFIGS if c.technique2 and c.e1 >= 4.0 and c.mean_tol > 0.0]


@pytest.mark.parametrize("name", IMAGES)
def test_encode_matches_scalar_oracle(name, monkeypatch):
    image = IMAGES[name]
    for config in CONFIGS:
        expected = oracle_encode(image, config)
        assert encode_quadtree(image, config) == expected, config
        if config in ONE_BLOCK_CONFIGS:
            with monkeypatch.context() as m:
                m.setattr(encoder, "WORK_PIXELS", 1)
                assert encode_quadtree(image, config) == expected, config


def test_two_band_strip_matches_scalar_oracle(monkeypatch):
    # at the default WORK_PIXELS a 32-wide band holds 1,024 root rows, so this strip's last
    # root row is a band of its own, whose level-1 domains clamp at the bottom edge
    image = natural_image(32, 16400, seed=11)
    bands, band = [], encoder._band
    monkeypatch.setattr(encoder, "_band", lambda image, y0, y1: bands.append((y0, y1)) or band(image, y0, y1))
    for config in (EncoderConfig(), EncoderConfig(mode="no_search"), EncoderConfig(e1=4.0, e2=4.0, e3=4.0, mean_tol=40.0)):
        assert encode_quadtree(image, config) == oracle_encode(image, config), config
    assert bands == [(0, 16384), (16384, 16400)] * 3


def test_mixed_thresholds_match_scalar_oracle():
    image = IMAGES["natural"]
    for e1, e2, e3 in ((2.0, 6.0, 12.0), (12.0, 6.0, 2.0), (math.inf, 1.0, 1.0)):
        config = EncoderConfig(e1=e1, e2=e2, e3=e3, mode="mns")
        assert encode_quadtree(image, config) == oracle_encode(image, config)


@given(
    st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1),
    st.sampled_from(("smooth", "noise", "steps")),
    st.floats(0.25, 40.0), st.floats(0.0, 48.0), st.sampled_from(("no_search", "mns")),
)
@settings(max_examples=60, deadline=None)
def test_random_images_match_scalar_oracle(w, h, seed, kind, e, tol, mode):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        image = natural_image(w, h, seed=seed % 1000)
    elif kind == "noise":
        image = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
    else:  # few levels, so means and RMS values tie often
        image = GrayImage((rng.integers(0, 3, (h, w)) * 100).astype(np.uint8))
    config = EncoderConfig(e1=e, e2=e * 1.5, e3=e * 2, mean_tol=tol, mode=mode)
    assert encode_quadtree(image, config) == oracle_encode(image, config)


def kernel_alone(kernel, image, rect, level, config):
    """A kernel call on `rect` alone, in the oracle's terms: (record, or None on rejection, and rms)."""
    xy = np.array([(rect.x, rect.y)])
    accepted, payload, rms = kernel(encoder._band(image, 0, image.height), xy, level, config)
    return (records(LeafTable(encoder._rows(xy, level, payload)))[0] if accepted[0] else None), float(rms[0])


@pytest.mark.parametrize("level", (1, 2, 3, 4))
@pytest.mark.parametrize("name", ("odd_natural", "noise"))
def test_kernels_match_scalar_oracle_block_by_block(name, level):
    # every block of a level in one batch, and each block alone in a batch of one, against the
    # oracle's record and RMS value: an RMS reduced in another order differs in its last bits
    image = pad_to_multiple(IMAGES[name], ROOT_SIZE)
    band = RowBand(image.pixels, box_sums(image.pixels), 0, image.width, image.height)
    size = LEVEL_SIZES[level]
    config = EncoderConfig(e1=6.0, e2=6.0, e3=6.0, mean_tol=24.0)
    rects = [BlockRect(x, y, size) for y in range(0, image.height, size) for x in range(0, image.width, size)]
    xy = np.array([(rect.x, rect.y) for rect in rects])
    phases = ((try_phase1, oracle_phase1), (try_phase2, oracle_phase2))
    for kernel, oracle in phases[: 2 if level < 4 else 1]:
        expected = [oracle(image, rect, level, config) for rect in rects]
        accepted, _, rms = kernel(band, xy, level, config)
        assert accepted.tolist() == [record is not None for record, _ in expected]
        assert rms.tolist() == [value for _, value in expected]
        assert [kernel_alone(kernel, image, rect, level, config) for rect in rects] == expected
